"""One table pins every CLI output that must stay byte-identical.

A row is (argv group, exit code, sha256 of the group's concatenated stdout,
sha256 of its concatenated stderr). One loop runs each argv of a row
in-process through ``cli.main``; every one must exit with the row's code.
Only the usage-error rows (exit 1) leave stderr unpinned (None): argparse's
usage text varies across Python versions. The suite runs this module from
``src/``; CI copies it out of the checkout and runs it again against the
installed wheel, so it imports only the standard library, pytest and
``cactusids``.

Run it on its own with ``python -m pytest tests/test_pins.py``.
"""

import argparse
import hashlib

import pytest

from cactusids import ChainSpec, Family, build_chain, cli, enumerate_mis

LINEAR = ("tri", "sq-para", "sq-ortho", "hex-ortho", "hex-meta", "hex-para")
DEFECT = ("p-defect", "s-defect")
ALL = LINEAR + DEFECT
# each linear family's longest chain of at most 40 vertices, the most that
# enumerate_mis lists, and once the ceiling of every oracle call
AT_THE_CAP = tuple(zip(LINEAR, ("19", "13", "13", "7", "7", "7")))
EMPTY = hashlib.sha256(b"").hexdigest()


def _arms(family, m):
    return ["--m", m] if family in DEFECT else []


def _hex_para_count(*method):
    return [["count", "--family", "hex-para", "--n", "100000", "--method", *method]]


def _numbering(family):
    """One family's chains as built, in both formats: a linear family at
    lengths 1-13 and 200, a defect family at every m, n <= 4."""
    if family in DEFECT:
        points = [["--n", str(n), "--m", str(m)] for m in range(1, 5) for n in range(1, 5)]
    else:
        points = [["--n", str(n)] for n in (*range(1, 14), 200)]
    return [["build", "--family", family, *point, "--format", fmt]
            for point in points for fmt in ("edges", "json")]


def _defect_points(family):
    return [["defect", "--family", family, "--m", m, "--n", n, "--format", fmt]
            for m in ("1", "2") for n in ("1", "2") for fmt in ("table", "json")]


def _oracle_routes(length):
    """Every route that builds a chain, one argv group each, at one length:
    count by oracle (a defect chain with m = 1), sequence by oracle, gamma,
    and defect (m = 1)."""
    return [
        [["count", "--family", f, *_arms(f, "1"), "--n", length, "--method", "oracle"]
         for f in ALL],
        [["sequence", "--family", f, "--max-n", length, "--method", "oracle"] for f in LINEAR],
        [["gamma", "--family", f, "--max-n", length] for f in ("tri", "hex-ortho", "hex-meta")],
        [["defect", "--family", f, "--m", "1", "--n", length] for f in DEFECT],
    ]


def _all_terms(families, *method):
    return [["sequence", "--family", f, "--max-n", "2000", "--method", *method]
            for f in families]


ROWS = [
    # the audit, and the scope options it no longer takes
    ([["verify", "--report", "json"]], 3,
     "68edc2755fc462f46b2191a09b8c7f1145103835295fee5f02725c0bc8a5be1e", EMPTY),
    ([["verify", "--report", "markdown"]], 3,
     "23489da56825ca555258eb1a6a0b608e4bacba31aa75e205edb60da64156c8c9", EMPTY),
    ([["verify", "--oracle-max", "16"]], 1, EMPTY, None),
    ([["verify", "--symbolic-max", "3"]], 1, EMPTY, None),
    # count and sequence by oracle on the longest chains of at most 40 vertices
    ([["count", "--family", f, "--n", n, "--method", "oracle"] for f, n in AT_THE_CAP], 0,
     "37a94b757ef4bbaca1bd835b3124889926061884f0a9be5a66b5f4175667f1b0", EMPTY),
    ([["sequence", "--family", f, "--max-n", n, "--method", "oracle"] for f, n in AT_THE_CAP],
     0, "ef23fc55208bc4c1b42c839e8b8621ce12724969e622c9a980ffbda32f4948ad", EMPTY),
    # every route that builds a chain runs at MAX_BUILD_LENGTH (2000) and is
    # refused one past it; the oracle's prefixes at 2000 print the derived
    # GFs' (the "every derived GF at the cap" row below has the same digest)
    *[(argvs, 0, out, EMPTY) for argvs, out in zip(_oracle_routes("2000"), (
        "fc5b2bb70fefd3129d1d6366bf4a74202413bd76b47c72c1277caaafed02da04",
        "d689bb54bcc64d1fa6bb166c79c31ab3bb1cdfefd9543597392ad964d54d563a",
        "e44b49008898784dda373bde5054b959103f8a18b8c091d6d6404df0d9e6f220",
        "b5953230d975013b388fbc33ec5a05922f2a9a284878c838fd4d37a3c9d9c879",
    ))],
    *[(argvs, 2, EMPTY, err) for argvs, err in zip(_oracle_routes("2001"), (
        "d8513624b5fe0a505d85e5b40aa231d9f278a84c5da728f0120e0539b8b297f5",
        "6b4cb20b3418b670bbfb813c32398a68f233206ff4f52e617339f0c004e367c0",
        "d5e01509bb52ad9588735655f7ce57944c3a98eba5ff697320316f4ec613c830",
        "162f787830bd409f13b7406d79ca2c7754953fe63fd99a8f19a86a86a878a94c",
    ))],
    # both defect formulas judged by the oracle on the 40-vertex (6, 6) chain,
    # and at every m, n <= 2 in both formats
    ([["defect", "--family", f, "--m", "6", "--n", "6", "--format", "json"]
      for f in DEFECT], 0,
     "0cba01b92375adfcf3282f680da36bb4d45ae937f0b7ee58d4ae507dbcb6788a", EMPTY),
    (_defect_points("p-defect"), 0,
     "8920ffa99e20da46c2d5695705be66bc0d726177768cdc421026a9bc19a08fef", EMPTY),
    (_defect_points("s-defect"), 0,
     "ff3673b241cc426c59346419f295edda4a12dff8c2b66d31f8e83f4e1a706a66", EMPTY),
    # every family's length-3 chain as built, in both formats
    ([["build", "--family", f, *_arms(f, "2"), "--n", "3", "--format", fmt]
      for f in ALL for fmt in ("json", "edges")], 0,
     "e2a257dc399153ca76683e25376110160a575ec6387bb69e0fd760c487670ff1", EMPTY),
    # every family's vertex numbering, one row per family
    (_numbering("tri"), 0,
     "f16a91d94502fa6bdf42c3fa3c7cbd3792b8a0017f1c1b5ff53653375a963105", EMPTY),
    (_numbering("sq-para"), 0,
     "20b8f6ecb749878326ae0a0bcf857e8e8829fea00e4fe8815c86539589ef4d0f", EMPTY),
    (_numbering("sq-ortho"), 0,
     "6cd6e470909e1411feefd25a17cad6d1f460838975c2dbe0978964427f407f7a", EMPTY),
    (_numbering("hex-ortho"), 0,
     "7ce151f35ddc4c5f15e279153c41ca71462488f338352dc0b21c0080579f406f", EMPTY),
    (_numbering("hex-meta"), 0,
     "77f0e6cf318f680dd96b456e3e3583db630bc564714c45a3abb9b5029654d84b", EMPTY),
    (_numbering("hex-para"), 0,
     "acb41c6c2815074e44bd003ee122631ef9ff7a47e373b978b22d82c13c31e0d7", EMPTY),
    (_numbering("p-defect"), 0,
     "7ac21e7922451c2e22ebfd37e4e6c274a258824011f27c04ed39098534bf94ca", EMPTY),
    (_numbering("s-defect"), 0,
     "574f02b92798993be9cf8ae8769823fd61f426e2654e07977d2c85981bab5f6a", EMPTY),
    # every family builds at MAX_BUILD_LENGTH (2000) and is refused one past it
    ([["build", "--family", f, *_arms(f, "1"), "--n", "2000"] for f in ALL], 0,
     "d3beb28ecf36db8695852902df59abad6bae701f260b04424c552b42456e867b", EMPTY),
    ([["build", "--family", f, *_arms(f, "1"), "--n", "2001"] for f in ALL], 2, EMPTY,
     "d8513624b5fe0a505d85e5b40aa231d9f278a84c5da728f0120e0539b8b297f5"),
    # without --max-n, gamma prints the rows the audit judges: tri through
    # n = 12, the hexagon chains through n = 5 (both formulas are ceil(3n/2))
    ([["gamma", "--family", "tri"]], 0,
     "7b520069fdf0184737cdacc2d6da65a556909132c5505e5dabf968cfe090b92f", EMPTY),
    ([["gamma", "--family", "hex-ortho"]], 0,
     "63af5ec8e67a6441c63ce2f94c9c736cfde429c0e6f61abefc1b66850323c2f1", EMPTY),
    ([["gamma", "--family", "hex-meta"]], 0,
     "63af5ec8e67a6441c63ce2f94c9c736cfde429c0e6f61abefc1b66850323c2f1", EMPTY),
    # the JSON form of count, sequence and gamma
    ([["count", "--family", "tri", "--n", "19", "--method", "oracle", "--format", "json"],
      ["sequence", "--family", "hex-para", "--max-n", "30", "--method", "recurrence",
       "--format", "json"],
      ["gamma", "--family", "tri", "--format", "json"]], 0,
     "35c3558c9189476e4d0f12710dfac63eae306c67c310f9304ecc94b2f8247681",
     "c07fd2a3ceee8ef7d8836888bd85013535e6eb9727692ecd738e3ac4e80a4bf3"),
    # count's other JSON shapes: a defect count, which carries m and n (the
    # formula's erratum warning on stderr), and a gf count, which names its
    # source (the printed GF's erratum warning on stderr)
    ([["count", "--family", "p-defect", "--m", "2", "--n", "3", "--method", "oracle",
       "--format", "json"]], 0,
     "1d1239f662e0bde432967acde159c2b5c946409d103e0c1c7ea7d39274d1534c", EMPTY),
    ([["count", "--family", "s-defect", "--m", "2", "--n", "3", "--method", "formula",
       "--format", "json"]], 0,
     "1deef587554ec539fdc2f28d62b38a04ba9c0042b740771f5723efd5367e568a",
     "4e7fdf798c5ff82c59b296be3fff1044f0e7f5f81c523731b29960fe510dbab9"),
    ([["count", "--family", "tri", "--n", "30", "--method", "gf", "--gf-source", source,
       "--format", "json"] for source in ("derived", "paper")], 0,
     "5e316ba7988ee598111f3a9aa1cec131b1fcf9337d85ff0aa6ec92df1aceb00f",
     "c225c13171fe8d4b02a31a2fa9cdbaf40b971d4c35a3fc6266cdd4177a57d7b4"),
    # hex-para's all-terms prefix at the sequence cap: the transfer route, and
    # the printed recurrence, whose errata warnings go to stderr
    (_all_terms(["hex-para"], "transfer"), 0,
     "70cec095f1fc70f7efa95d4b971af42945e3cccb9f954f4f5c715fe8656244e2", EMPTY),
    (_all_terms(["hex-para"], "recurrence"), 0,
     "3649c36ac9f097e500ec852fbb0edf831100b3798f97d5455836d4ec537fe345",
     "05b2b92c5fbf9245793adc17c1e26da3192374a3b5ed58e49892392a07746705"),
    # the other families' printed recurrences and every derived GF at the cap
    (_all_terms(LINEAR[:-1], "recurrence"), 0,
     "a26f49df84c5678e94d3d0a520d2e29dd38b94474e76d5c5590a1ce6e027efbc", EMPTY),
    (_all_terms(LINEAR, "gf"), 0,
     "d689bb54bcc64d1fa6bb166c79c31ab3bb1cdfefd9543597392ad964d54d563a", EMPTY),
    # every family's derived GF, as text and JSON, and its 200-term prefix
    ([argv for f in LINEAR for argv in (
        ["gf", "--family", f, "--source", "derived", "--format", "text"],
        ["gf", "--family", f, "--source", "derived", "--format", "json"],
        ["sequence", "--family", f, "--max-n", "200", "--method", "gf"],
    )], 0, "bb967160e55c0d4c6f43abb61635b09670f6094fc86133544f01ff2d23e973a5", EMPTY),
    # every family's printed GF as text and JSON, and the first 12 terms of its
    # printed recurrence and printed GF, errata warnings included
    ([["gf", "--family", f, "--source", "paper", "--format", fmt]
      for f in LINEAR for fmt in ("text", "json")], 0,
     "ed52c9d27627958cdcd789c20dec4b4bb576f733221fe0a8a53a574fb9973275", EMPTY),
    ([["sequence", "--family", f, "--max-n", "12", "--method", "recurrence"]
      for f in LINEAR], 0,
     "6b8a49853d0772d8573d1c6001412f8152c4ca7de8d853d00291e2ade5ca231c",
     "d9758747c3977633977675d4035394b8bbd334bd5bf3217d53670704ecc1ff70"),
    ([["sequence", "--family", f, "--max-n", "12", "--method", "gf", "--gf-source", "paper"]
      for f in LINEAR], 0,
     "3c36a17121e94663ca3aba24c3a442aa58f239e55c9646bab3a87e26e7f6e38a",
     "f5eab25b7570e71fa7d0039ab9c7d707c5a764bfdf515acbfd4e7dc727b8bd69"),
    # every family's transfer route and printed GF: the count at count's cap
    # and the prefix at the sequence cap
    ([argv for f in LINEAR for argv in (
        ["count", "--family", f, "--n", "100000", "--method", "transfer"],
        ["sequence", "--family", f, "--max-n", "2000", "--method", "transfer"],
    )], 0, "afc39ac1862c27321025a7653db60b711c8e663f547739b39d75295366440287", EMPTY),
    ([argv for f in LINEAR for argv in (
        ["count", "--family", f, "--n", "100000", "--method", "gf", "--gf-source", "paper"],
        ["sequence", "--family", f, "--max-n", "2000", "--method", "gf",
         "--gf-source", "paper"],
    )], 0,
     "bf04f3bcafcfe4548afe225e4aba4f8901475dfb54f98a19499b0e59aa4c04b4",
     "9daf628e4f47aebd603e522935affa5f71fe17f215dc7db59b58e75320da31d7"),
    # --gf-source paper names the printed GF, which only the gf method reads:
    # with any other method, the default transfer included, a usage error
    ([["count", "--family", "hex-para", "--n", "50", "--gf-source", "paper"],
      *[["count", "--family", "tri", "--n", "5", "--method", method, "--gf-source", "paper"]
        for method in ("oracle", "transfer", "recurrence")],
      ["count", "--family", "p-defect", "--m", "1", "--n", "2", "--method", "formula",
       "--gf-source", "paper"],
      ["sequence", "--family", "hex-para", "--max-n", "50", "--gf-source", "paper"],
      *[["sequence", "--family", "tri", "--max-n", "5", "--method", method,
         "--gf-source", "paper"] for method in ("oracle", "transfer", "recurrence")]], 1,
     EMPTY, None),
    # hex-para's count at count's cap (n = 10^5), route by route
    (_hex_para_count("transfer"), 0,
     "b47a22d76544d7707cd3e21f5acb322db1b0fe544819f309949edea5ad4650a1", EMPTY),
    (_hex_para_count("gf", "--gf-source", "derived"), 0,
     "b47a22d76544d7707cd3e21f5acb322db1b0fe544819f309949edea5ad4650a1", EMPTY),
    (_hex_para_count("recurrence"), 0,
     "6eca62e0f138aa7e1c7d15e588d748b895b3be7094626b57e5981639b492fd57",
     "c1d33dd393b3acbe8da9dcb0f1779cc2392a1e6baec93650060227b467643540"),
    (_hex_para_count("gf", "--gf-source", "paper"), 0,
     "17547a27c0f0664e7e6259667da75a2f0a4baee06f2ac6ed1821f0c77b122c2e",
     "8d677472e78c0129822bff08124c01a6c89c4810d1d89be2e1e1be22b9099b5c"),
    # both defect formulas at count's cap, states read as unit-weight counts;
    # s-defect's erratum warning carries the corrected value
    ([["count", "--family", "p-defect", "--method", "formula", "--m", "100000",
       "--n", "100000"]], 0,
     "56eee0ee5e17cab31047b7fbb19626e6287c89e088bf3d14b6ef592654709279", EMPTY),
    ([["count", "--family", "s-defect", "--method", "formula", "--m", "100000",
       "--n", "100000"]], 0,
     "e6638dd30afec31d51a6f3a6050518337d335388bfc7a05f3dcd7a899b9e4ca6",
     "808b78aa00e7e1eb505d75d53a57f07e292b7fc6670fad0ec86cde98446e86d3"),
]


def _row_id(argvs):
    more = f" +{len(argvs) - 1}" if len(argvs) > 1 else ""
    return " ".join(argvs[0]) + more


@pytest.mark.parametrize("argvs, code, out, err", [
    pytest.param(*row, id=_row_id(row[0])) for row in ROWS
])
def test_pin(capsys, argvs, code, out, err):
    stdout, stderr = [], []
    for argv in argvs:
        assert cli.main(argv) == code, argv
        captured = capsys.readouterr()
        stdout.append(captured.out)
        stderr.append(captured.err)
    assert hashlib.sha256("".join(stdout).encode()).hexdigest() == out
    if err is not None:
        assert hashlib.sha256("".join(stderr).encode()).hexdigest() == err


def test_the_table_covers_every_route():
    # rows reach every subcommand and every choice of each of its options
    # (every method, format, source and family), and both GF sources of the
    # gf method
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    covered = []
    for argvs, code, _, _ in ROWS:
        if code != 1:  # a usage error does not parse
            covered += [parser.parse_args(argv) for argv in argvs]
    assert {a.command for a in covered} == set(cli._HANDLERS)
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.choices:
                reached = {getattr(a, action.dest) for a in covered if a.command == command}
                assert reached == set(action.choices), (command, action.dest)
    assert {a.gf_source for a in covered if getattr(a, "method", None) == "gf"} == {
        "derived", "paper"
    }
    # and every shape of count's JSON document: a defect count by either
    # method, and a gf count from either source
    json_counts = {(a.family in DEFECT, a.method, a.gf_source if a.method == "gf" else None)
                   for a in covered if a.command == "count" and a.format == "json"}
    assert {(True, "oracle", None), (True, "formula", None),
            (False, "gf", "derived"), (False, "gf", "paper")} <= json_counts


def test_mis_listing_at_the_cap():
    # every set on the six linear chains at the 40-vertex cap, content and order
    sets = [
        list(enumerate_mis(build_chain(ChainSpec(Family(f), length=int(n))).graph))
        for f, n in AT_THE_CAP
    ]
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    assert digest == "9d298e6b071055fde3e995be38e31eb5f833d9333baf45235f565883c882f1de"
