"""One table pins every CLI output that must stay byte-identical.

A row is (argv group, exit code, sha256 of the group's concatenated stdout,
sha256 of its stderr or None where stderr is not pinned). One loop runs each
argv of a row in-process through ``cli.main``; every one must exit with the
row's code. The suite runs this module from ``src/``; CI copies it out of
the checkout and runs it again against the installed wheel, so it imports
only the standard library, pytest and ``cactusids``.

Run it on its own with ``python -m pytest tests/test_pins.py``.
"""

import argparse
import hashlib

import pytest

from cactusids import ChainSpec, Family, build_chain, cli, enumerate_mis

LINEAR = ("tri", "sq-para", "sq-ortho", "hex-ortho", "hex-meta", "hex-para")
ALL = LINEAR + ("p-defect", "s-defect")
# each linear family's longest chain under the oracle's 40-vertex cap
AT_THE_CAP = tuple(zip(LINEAR, ("19", "13", "13", "7", "7", "7")))
EMPTY = hashlib.sha256(b"").hexdigest()


def _arms(family, m):
    return ["--m", m] if family.endswith("-defect") else []


def _hex_para_count(*method):
    return [["count", "--family", "hex-para", "--n", "100000", "--method", *method]]


ROWS = [
    # the audit, and the scope options it no longer takes
    ([["verify", "--report", "json"]], 3,
     "68edc2755fc462f46b2191a09b8c7f1145103835295fee5f02725c0bc8a5be1e", None),
    ([["verify", "--report", "markdown"]], 3,
     "23489da56825ca555258eb1a6a0b608e4bacba31aa75e205edb60da64156c8c9", None),
    ([["verify", "--oracle-max", "16"]], 1, EMPTY, None),
    ([["verify", "--symbolic-max", "3"]], 1, EMPTY, None),
    # every oracle route runs up to the DP's 40-vertex cap and refuses past it
    ([["count", "--family", f, "--n", n, "--method", "oracle"] for f, n in AT_THE_CAP], 0,
     "37a94b757ef4bbaca1bd835b3124889926061884f0a9be5a66b5f4175667f1b0", None),
    ([["sequence", "--family", f, "--max-n", n, "--method", "oracle"] for f, n in AT_THE_CAP],
     0, "ef23fc55208bc4c1b42c839e8b8621ce12724969e622c9a980ffbda32f4948ad", None),
    ([["count", "--family", "tri", "--n", "20", "--method", "oracle"]], 2, EMPTY, None),
    # both defect formulas judged by the oracle on the 40-vertex (6, 6) chain
    ([["defect", "--family", f, "--m", "6", "--n", "6", "--format", "json"]
      for f in ("p-defect", "s-defect")], 0,
     "0cba01b92375adfcf3282f680da36bb4d45ae937f0b7ee58d4ae507dbcb6788a", None),
    # every family's length-3 chain as built, in both formats
    ([["build", "--family", f, *_arms(f, "2"), "--n", "3", "--format", fmt]
      for f in ALL for fmt in ("json", "edges")], 0,
     "e2a257dc399153ca76683e25376110160a575ec6387bb69e0fd760c487670ff1", None),
    # every family builds at MAX_BUILD_LENGTH (2000) and is refused one past it
    ([["build", "--family", f, *_arms(f, "1"), "--n", "2000"] for f in ALL], 0,
     "d3beb28ecf36db8695852902df59abad6bae701f260b04424c552b42456e867b", None),
    ([["build", "--family", f, *_arms(f, "1"), "--n", "2001"] for f in ALL], 2, EMPTY, None),
    # without --max-n, gamma prints the rows the audit judges: tri through
    # n = 12, the hexagon chains through n = 5 (both formulas are ceil(3n/2))
    ([["gamma", "--family", "tri"]], 0,
     "7b520069fdf0184737cdacc2d6da65a556909132c5505e5dabf968cfe090b92f", None),
    ([["gamma", "--family", "hex-ortho"]], 0,
     "63af5ec8e67a6441c63ce2f94c9c736cfde429c0e6f61abefc1b66850323c2f1", None),
    ([["gamma", "--family", "hex-meta"]], 0,
     "63af5ec8e67a6441c63ce2f94c9c736cfde429c0e6f61abefc1b66850323c2f1", None),
    # hex-para's all-terms prefix at the sequence cap: the transfer route, and
    # the printed recurrence, whose errata warnings go to stderr
    ([["sequence", "--family", "hex-para", "--max-n", "2000", "--method", "transfer"]], 0,
     "70cec095f1fc70f7efa95d4b971af42945e3cccb9f954f4f5c715fe8656244e2", None),
    ([["sequence", "--family", "hex-para", "--max-n", "2000", "--method", "recurrence"]], 0,
     "3649c36ac9f097e500ec852fbb0edf831100b3798f97d5455836d4ec537fe345", None),
    # every family's derived GF, as text and JSON, and its 200-term prefix
    ([argv for f in LINEAR for argv in (
        ["gf", "--family", f, "--source", "derived", "--format", "text"],
        ["gf", "--family", f, "--source", "derived", "--format", "json"],
        ["sequence", "--family", f, "--max-n", "200", "--method", "gf"],
    )], 0, "bb967160e55c0d4c6f43abb61635b09670f6094fc86133544f01ff2d23e973a5", None),
    # every family's transfer route and printed GF: the count at count's cap
    # and the prefix at the sequence cap
    ([argv for f in LINEAR for argv in (
        ["count", "--family", f, "--n", "100000", "--method", "transfer"],
        ["sequence", "--family", f, "--max-n", "2000", "--method", "transfer"],
    )], 0, "afc39ac1862c27321025a7653db60b711c8e663f547739b39d75295366440287", None),
    ([argv for f in LINEAR for argv in (
        ["count", "--family", f, "--n", "100000", "--method", "gf", "--gf-source", "paper"],
        ["sequence", "--family", f, "--max-n", "2000", "--method", "gf",
         "--gf-source", "paper"],
    )], 0, "bf04f3bcafcfe4548afe225e4aba4f8901475dfb54f98a19499b0e59aa4c04b4", None),
    # hex-para's count at count's cap (n = 10^5), route by route
    (_hex_para_count("transfer"), 0,
     "b47a22d76544d7707cd3e21f5acb322db1b0fe544819f309949edea5ad4650a1", None),
    (_hex_para_count("gf", "--gf-source", "derived"), 0,
     "b47a22d76544d7707cd3e21f5acb322db1b0fe544819f309949edea5ad4650a1", None),
    (_hex_para_count("recurrence"), 0,
     "6eca62e0f138aa7e1c7d15e588d748b895b3be7094626b57e5981639b492fd57", None),
    (_hex_para_count("gf", "--gf-source", "paper"), 0,
     "17547a27c0f0664e7e6259667da75a2f0a4baee06f2ac6ed1821f0c77b122c2e", None),
    # both defect formulas at count's cap, states read as unit-weight counts;
    # s-defect's erratum warning carries the corrected value
    ([["count", "--family", "p-defect", "--method", "formula", "--m", "100000",
       "--n", "100000"]], 0,
     "56eee0ee5e17cab31047b7fbb19626e6287c89e088bf3d14b6ef592654709279", None),
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
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    covered = []
    for argvs, code, _, _ in ROWS:
        if code != 1:  # a usage error does not parse
            covered += [parser.parse_args(argv) for argv in argvs]
    assert {a.command for a in covered} == set(cli._HANDLERS)
    for command in ("count", "sequence"):
        [method] = [a for a in commands.choices[command]._actions if a.dest == "method"]
        assert {a.method for a in covered if a.command == command} == set(method.choices)
    assert {a.gf_source for a in covered if getattr(a, "method", None) == "gf"} == {
        "derived", "paper"
    }
    assert {a.family for a in covered if hasattr(a, "family")} == {
        f.value for f in Family
    }


def test_mis_listing_at_the_cap():
    # every set on the six linear chains at the 40-vertex cap, content and order
    sets = [
        list(enumerate_mis(build_chain(ChainSpec(Family(f), length=int(n))).graph))
        for f, n in AT_THE_CAP
    ]
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    assert digest == "9d298e6b071055fde3e995be38e31eb5f833d9333baf45235f565883c882f1de"
