import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cactusids import cli, paper, verify
from cactusids.chains import (
    DEFECT_FAMILIES,
    ChainSpec,
    Family,
    LINEAR_FAMILIES,
    build_chain,
    to_json_dict,
)
from cactusids.cli import MAX_BUILD_LENGTH, MAX_LENGTH, main
from cactusids.graphs import count_ids
from cactusids.paper import (
    GAMMA_FORMULA,
    defect_formula_value,
    derived_gf,
    paper_gf,
    paper_recurrence,
    paper_transfer_system,
)
from cactusids.recurrences import eval_recurrence, run_transfer
from cactusids.verify import check_defect_formula, gamma_rows, max_length_within


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.dirname(os.path.dirname(cli.__file__))

# modules a fresh ``import cactusids.cli`` must not load: numpy, and the
# stdlib machinery that only some commands need (json, fractions with
# decimal) or that none does (dataclasses with inspect)
UNLOADED = ("numpy", "dataclasses", "inspect", "fractions", "decimal", "json")


def test_import_leaves_numpy_out():
    code = (
        "import sys, cactusids.cli; "
        f"print([m for m in {UNLOADED!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_derived_series_leave_fractions_out():
    # the derived series are integer work on the oracle's counts; a fresh
    # process that imported fractions (with decimal) for them would pay for
    # it in every ``gf --source derived`` and ``sequence --method gf``
    code = (
        "import sys\n"
        "from cactusids.chains import LINEAR_FAMILIES\n"
        "from cactusids.paper import derived_gf, derived_recurrence, derived_state_gfs\n"
        "for family in LINEAR_FAMILIES:\n"
        "    derived_gf(family), derived_state_gfs(family), derived_recurrence(family)\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_cold_audit_leaves_fractions_out():
    # the growth-rate claim is judged in integer arithmetic, so a fresh
    # ``verify`` loads neither fractions nor, with it, decimal
    code = (
        "import os, sys\n"
        "from cactusids import cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "cli.main(['verify', '--report', 'markdown'])\n"
        "sys.stdout = sys.__stdout__\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_fresh_process_json_matches_in_process(capsys):
    # pytest has json loaded already, so only a fresh interpreter exercises
    # the deferred import behind --format json as ``python -m`` runs it
    argv = ["build", "--family", "p-defect", "--m", "2", "--n", "2", "--format", "json"]
    result = subprocess.run(
        [sys.executable, "-m", "cactusids.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == run(capsys, *argv)[:2], result.stderr


class TestCount:
    def test_transfer(self, capsys):
        code, out, err = run(capsys, "count", "--family", "tri", "--n", "4")
        assert (code, out) == (0, "13\n")

    def test_oracle(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "hex-meta", "--n", "3", "--method", "oracle"
        )
        assert (code, out) == (0, "64\n")

    def test_oracle_reaches_the_dp_cap(self, capsys):
        # length 19 is the longest tri chain under the DP's 40-vertex cap
        code, out, err = run(
            capsys, "count", "--family", "tri", "--n", "19", "--method", "oracle"
        )
        expected = run_transfer(paper_transfer_system(Family.TRIANGULAR), 19)
        assert (code, out, err) == (0, "17711\n", "") and expected == 17711

    def test_methods_agree_where_defined(self, capsys):
        values = {}
        for method in ("oracle", "transfer", "recurrence", "gf"):
            code, out, _ = run(
                capsys, "count", "--family", "sq-para", "--n", "5", "--method", method
            )
            assert code == 0
            values[method] = out
        assert len(set(values.values())) == 1

    def test_paper_gf_warns_on_erratum(self, capsys):
        code, out, err = run(
            capsys,
            "count", "--family", "tri", "--n", "3",
            "--method", "gf", "--gf-source", "paper",
        )
        assert code == 0
        assert out == "3\n"
        assert "tri-gf" in err

    def test_printed_recurrence_warns_for_hex_para(self, capsys):
        code, out, err = run(
            capsys,
            "count", "--family", "hex-para", "--n", "4", "--method", "recurrence",
        )
        assert code == 0
        assert out == "311\n"
        assert "hex-para-recurrence" in err

    def test_derived_gf_is_silent(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "hex-para", "--n", "4", "--method", "gf"
        )
        assert (code, out, err) == (0, "309\n", "")

    def test_defect_count(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "p-defect", "--m", "1", "--n", "1",
            "--method", "oracle",
        )
        assert (code, out) == (0, "8\n")
        code, out, _ = run(
            capsys,
            "count", "--family", "s-defect", "--m", "1", "--n", "1",
            "--method", "formula",
        )
        assert (code, out) == (0, "6\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "tri", "--n", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"family": "tri", "method": "transfer", "count": 13, "n": 4}

    def test_usage_errors(self, capsys):
        for argv, message in [
            (("--family", "tri", "--n", "2", "--method", "formula"),
             "cactusids: error: --method formula applies only to defect families"),
            (("--family", "p-defect", "--n", "2"),
             "cactusids: error: p-defect requires --m and --n"),
            (("--family", "tri", "--n", "2", "--m", "1"),
             "cactusids: error: --m is only valid for defect families, not tri"),
            # transfer is count's default method
            (("--family", "p-defect", "--m", "1", "--n", "1"),
             "cactusids: error: defect families support --method oracle or formula, "
             "not transfer"),
            # only the gf method reads the printed GF
            (("--family", "hex-para", "--n", "50", "--gf-source", "paper"),
             "cactusids: error: --gf-source paper applies only to --method gf, not transfer"),
        ]:
            code, out, err = run(capsys, "count", *argv)
            assert (code, out, err.splitlines()[-1]) == (1, "", message), argv
        # argparse words the list of choices differently across Python versions
        code, out, err = run(capsys, "count", "--family", "nope", "--n", "1")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith(
            "cactusids count: error: argument --family: invalid choice: 'nope'"
        )

    @pytest.mark.parametrize("argv, flag", [
        (("count", "--family", "tri", "--n", "0"), "--n"),
        (("count", "--family", "tri", "--n", "-2", "--method", "oracle"), "--n"),
        (("count", "--family", "s-defect", "--m", "0", "--n", "1", "--method", "formula"),
         "--m"),
        (("count", "--family", "p-defect", "--m", "1", "--n", "0", "--method", "oracle"),
         "--n"),
        (("build", "--family", "tri", "--n", "0"), "--n"),
        (("build", "--family", "p-defect", "--m", "0", "--n", "2"), "--m"),
        (("build", "--family", "s-defect", "--m", "2", "--n", "-1"), "--n"),
        (("sequence", "--family", "tri", "--max-n", "0"), "--max-n"),
        (("gamma", "--family", "tri", "--max-n", "0"), "--max-n"),
        (("defect", "--family", "p-defect", "--m", "0", "--n", "1"), "--m"),
        (("defect", "--family", "s-defect", "--m", "1", "--n", "0"), "--n"),
    ])
    def test_lengths_below_one_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"cactusids: error: {flag} must be at least 1"

    def test_resource_limit_exit_code(self, capsys):
        # the oracle route builds its chain, so it takes build's cap
        too_long = MAX_BUILD_LENGTH + 1
        code, out, err = run(
            capsys, "count", "--family", "hex-para", "--n", str(too_long), "--method", "oracle"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"cactusids: resource limit: --n {too_long} is above the cap {MAX_BUILD_LENGTH}\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_counts_beyond_the_int_text_limit_print_exactly(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        expected = run_transfer(paper_transfer_system(Family.TRIANGULAR), 30000)
        code, out, err = run(
            capsys, "count", "--family", "tri", "--n", "30000", "--format", fmt
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            value = json.loads(out, parse_int=Decimal)["count"]
        else:
            value = Decimal(out)
        assert value == expected and value.adjusted() + 1 > limit
        assert sys.get_int_max_str_digits() == limit

    def test_lengths_above_the_caps_are_refused(self, capsys):
        for argv in (
            ("count", "--family", "tri", "--n", str(MAX_LENGTH + 1)),
            ("count", "--family", "hex-para", "--n", str(MAX_LENGTH + 1), "--method", "gf"),
            ("count", "--family", "s-defect", "--m", str(MAX_LENGTH + 1), "--n", "1",
             "--method", "formula"),
            ("sequence", "--family", "tri", "--max-n", str(MAX_BUILD_LENGTH + 1)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "resource limit" in err and "above the cap" in err

    @pytest.mark.parametrize("method", ["transfer", "recurrence", "gf", "oracle"])
    def test_every_sequence_method_has_the_one_cap(self, capsys, method):
        # sequence prints every count up to --max-n, so every method takes build's cap
        code, out, err = run(
            capsys, "sequence", "--family", "hex-para", "--max-n", "2001", "--method", method
        )
        assert (code, out) == (2, "")
        assert err == "cactusids: resource limit: --max-n 2001 is above the cap 2000\n"

    def test_oracle_refused_before_building(self, capsys, monkeypatch):
        # every route that builds a chain is refused one past build's cap,
        # whichever length flag carries it, before anything is built
        def no_build(spec):
            raise AssertionError("chain built above the cap")

        monkeypatch.setattr(cli, "build_chain", no_build)
        monkeypatch.setattr(paper, "build_chain", no_build)
        too_long = str(MAX_BUILD_LENGTH + 1)
        for argv in (
            ("count", "--family", "hex-para", "--n", too_long, "--method", "oracle"),
            ("count", "--family", "p-defect", "--m", too_long, "--n", "1",
             "--method", "oracle"),
            ("count", "--family", "s-defect", "--m", "1", "--n", too_long,
             "--method", "oracle"),
            ("sequence", "--family", "tri", "--max-n", too_long, "--method", "oracle"),
            ("gamma", "--family", "tri", "--max-n", too_long),
            ("defect", "--family", "p-defect", "--m", "6", "--n", too_long),
            ("defect", "--family", "s-defect", "--m", too_long, "--n", "1"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"{too_long} is above the cap {MAX_BUILD_LENGTH}" in err, argv

    @pytest.mark.parametrize("argv", [
        ("gamma", "--family", "tri", "--max-n", "1000000000"),
        ("defect", "--family", "p-defect", "--m", "1000000000", "--n", "1"),
    ], ids=lambda argv: argv[0])
    def test_huge_lengths_are_refused_at_once(self, argv):
        # the refusal is the length check made right after parsing; a child
        # limited to 512 MB of address space fails, rather than swamping the
        # machine, should it ever spell out 10^9 blocks
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "cactusids.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert "is above the cap 2000" in result.stderr
        assert elapsed < 5, elapsed

    @pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
    def test_gf_method_equals_series(self, capsys, family):
        for source, gf in (("derived", derived_gf(family)), ("paper", paper_gf(family))):
            series = gf.series(40)
            for n in (1, 2, 3, 4, 5, 17, 40):
                code, out, _ = run(
                    capsys, "count", "--family", family.value, "--n", str(n),
                    "--method", "gf", "--gf-source", source,
                )
                assert (code, out) == (0, f"{series[n]}\n"), (source, n)

    def test_s_defect_formula_warns(self, capsys):
        code, out, err = run(
            capsys,
            "count", "--family", "s-defect", "--m", "1", "--n", "1", "--method", "formula",
        )
        assert (code, out) == (0, "6\n")
        assert "s-defect-1-1" in err and "corrected value 7" in err
        code, out, err = run(
            capsys,
            "count", "--family", "p-defect", "--m", "2", "--n", "1", "--method", "formula",
        )
        assert (code, out, err) == (0, "14\n", "")


class TestOracleCeilingFlag:
    """No command takes an oracle ceiling: every oracle route runs up to the
    DP's 40-vertex cap, and the audit's range is the fixed AUDIT_CEILING."""

    @pytest.mark.parametrize("command", [
        ("count", "--family", "tri", "--n", "2", "--method", "oracle"),
        ("sequence", "--family", "tri", "--max-n", "2", "--method", "oracle"),
        ("gamma", "--family", "tri"),
        ("defect", "--family", "s-defect", "--m", "1", "--n", "1"),
        ("verify",),
    ], ids=lambda command: command[0])
    def test_no_command_takes_it(self, capsys, command):
        code, out, err = run(capsys, *command, "--oracle-max-vertices", "26")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --oracle-max-vertices 26" in err

    def test_nor_its_alias(self, capsys):
        code, out, err = run(capsys, "verify", "--oracle-max", "16")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --oracle-max 16" in err


class TestSequence:
    def test_csv_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--family", "sq-ortho", "--max-n", "6", "--format", "csv",
        )
        assert code == 0
        assert out == "n,count\n1,2\n2,4\n3,8\n4,16\n5,32\n6,64\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--family", "tri", "--max-n", "3", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["counts"] == [
            {"n": 1, "count": 3},
            {"n": 2, "count": 5},
            {"n": 3, "count": 8},
        ]

    def test_gf_method(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--family", "hex-para", "--max-n", "4", "--method", "gf",
        )
        assert out == "n,count\n1,5\n2,19\n3,76\n4,309\n"

    @pytest.mark.parametrize("method", ["gf", "oracle"])
    def test_exact_routes_never_step_the_transfer_system(self, capsys, monkeypatch, method):
        def refuse(*args):
            raise AssertionError("transfer_gf called")

        monkeypatch.setattr(cli, "transfer_gf", refuse)
        code, out, err = run(
            capsys, "sequence", "--family", "tri", "--max-n", "5", "--method", method,
        )
        assert (code, out, err) == (0, "n,count\n1,3\n2,5\n3,8\n4,13\n5,21\n", "")

    def test_oracle_reaches_the_dp_cap(self, capsys):
        argv = ("sequence", "--family", "tri", "--max-n", "19", "--method")
        oracle, transfer = run(capsys, *argv, "oracle"), run(capsys, *argv, "transfer")
        assert oracle == transfer and oracle[1].endswith("\n19,17711\n")

    def test_paper_gf_warns_on_each_erratum(self, capsys):
        code, out, err = run(
            capsys,
            "sequence", "--family", "tri", "--max-n", "3",
            "--method", "gf", "--gf-source", "paper",
        )
        assert (code, out) == (0, "n,count\n1,1\n2,2\n3,3\n")
        lines = err.splitlines()
        assert len(lines) == 3 and all("(claim tri-gf)" in line for line in lines)
        assert "gf value 1 differs from the transfer system value 3 at n = 1;" in lines[0]

    def test_printed_recurrence_warns_where_it_differs(self, capsys):
        code, out, err = run(
            capsys,
            "sequence", "--family", "hex-para", "--max-n", "5", "--method", "recurrence",
        )
        assert code == 0
        assert out.splitlines()[1:5] == ["1,5", "2,19", "3,76", "4,311"]
        lines = err.splitlines()
        assert len(lines) == 2 and all("(claim hex-para-recurrence)" in line for line in lines)
        assert "value 311 differs from the transfer system value 309 at n = 4;" in lines[0]

    @pytest.mark.parametrize("method", ["transfer", "gf"])
    def test_exact_routes_are_silent(self, capsys, method):
        code, out, err = run(
            capsys, "sequence", "--family", "hex-para", "--max-n", "8", "--method", method,
        )
        assert (code, err) == (0, "")
        expected = [f"{n},{run_transfer(paper_transfer_system(Family.HEX_PARA), n)}"
                    for n in range(1, 9)]
        assert out.splitlines() == ["n,count"] + expected

    def test_closed_pipe_exits_141_without_traceback(self):
        # 1.2 MB of output: far more than a pipe buffers, so the write fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "cactusids.cli",
             "sequence", "--family", "hex-para", "--max-n", "2000"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "n,count\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err, err


class TestGf:
    def test_published_hex_meta(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "hex-meta", "--source", "paper")
        assert (code, out) == (0, "(1 - x + 2x^2)/(1 - 3x - x^2 - 2x^3)\n")

    def test_derived_tri(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "tri")
        assert out == "(3x + 2x^2)/(1 - x - x^2)\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "sq-ortho", "--source", "paper", "--format", "json"
        )
        doc = json.loads(out)
        assert doc == {
            "family": "sq-ortho",
            "source": "paper",
            "text": "1/(1 - 2x)",
            "num": [1],
            "den": [1, -2],
        }


class TestBuild:
    def test_edges(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "tri", "--n", "1")
        assert code == 0
        assert out.splitlines() == [
            "# family=tri",
            "# length=1",
            "# vertices=3",
            "0 1",
            "0 2",
            "1 2",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "build", "--family", "p-defect", "--m", "1", "--n", "1",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["family"] == "p-defect"
        assert doc["n_vertices"] == 10
        assert len(doc["blocks"]) == 3
        assert len(doc["edges"]) == 12

    def test_lengths_above_the_cap_are_refused_before_building(self, capsys, monkeypatch):
        def no_build(spec):
            raise AssertionError("chain built above the cap")

        monkeypatch.setattr(cli, "build_chain", no_build)
        too_long = str(MAX_BUILD_LENGTH + 1)
        for argv in (
            ("build", "--family", "hex-para", "--n", too_long),
            ("build", "--family", "p-defect", "--m", too_long, "--n", "1"),
            ("build", "--family", "s-defect", "--m", "1", "--n", too_long),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "resource limit" in err and "above the cap" in err

    def test_length_at_the_cap_builds(self, capsys):
        code, out, err = run(capsys, "build", "--family", "tri", "--n", str(MAX_BUILD_LENGTH))
        assert (code, err) == (0, "")
        assert f"# vertices={2 * MAX_BUILD_LENGTH + 1}" in out.splitlines()


class TestGamma:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "gamma", "--family", "tri", "--max-n", "4")
        assert out == "n,formula,oracle,match\n1,1,1,yes\n2,1,1,yes\n3,2,2,yes\n4,2,2,yes\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "--family", "hex-ortho", "--max-n", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["rows"] == [
            {"n": 1, "formula_value": 2, "oracle_value": 2, "match": True},
            {"n": 2, "formula_value": 3, "oracle_value": 3, "match": True},
        ]

    def test_reaches_the_dp_cap(self, capsys):
        code, out, _ = run(capsys, "gamma", "--family", "tri", "--max-n", "19")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and [int(r[0]) for r in rows] == list(range(1, 20))
        assert all(r[3] == "yes" for r in rows)

    @pytest.mark.parametrize("family", list(GAMMA_FORMULA), ids=lambda f: f.value)
    def test_default_lengths_are_the_audits(self, capsys, family):
        # without --max-n, the rows behind <f>-gamma, in the audit's range
        code, out, _ = run(capsys, "gamma", "--family", family.value)
        lengths = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert code == 0 and lengths == list(range(1, len(lengths) + 1))
        assert verify.check_gamma_formula(family).details == (
            f"formula matches the oracle minimum for n = 1..{lengths[-1]}",
        )


class TestDefect:
    def test_refuted_table(self, capsys):
        code, out, _ = run(
            capsys, "defect", "--family", "s-defect", "--m", "1", "--n", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert "formula: 6" in lines
        assert "oracle: 7" in lines
        assert "verdict: refuted" in lines

    def test_confirmed_json(self, capsys):
        code, out, _ = run(
            capsys,
            "defect", "--family", "p-defect", "--m", "2", "--n", "1",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["verdict"] == "confirmed"
        assert doc["claimed_value"] == 14
        assert doc["oracle_value"] == 14
        assert doc["witness"] == [2, 1]

    def test_reaches_the_dp_cap(self, capsys):
        # the (6,6) s-defect chain has 3(6 + 6 + 1) + 1 = 40 vertices
        code, out, _ = run(capsys, "defect", "--family", "s-defect", "--m", "6", "--n", "6")
        lines = out.splitlines()
        assert code == 0 and "oracle: 7168" in lines and "verdict: refuted" in lines


# each linear route's flags, and the library value it must print at length n
_LINEAR_ROUTES = {
    "transfer": (("transfer",), lambda f, n: run_transfer(paper_transfer_system(f), n)),
    "recurrence": (("recurrence",), lambda f, n: eval_recurrence(paper_recurrence(f), n)),
    "derived-gf": (("gf", "--gf-source", "derived"),
                   lambda f, n: run_transfer(paper_transfer_system(f), n)),
    "paper-gf": (("gf", "--gf-source", "paper"), lambda f, n: paper_gf(f).series(n)[n]),
}


@pytest.mark.parametrize("route", _LINEAR_ROUTES)
@pytest.mark.parametrize("family", LINEAR_FAMILIES, ids=lambda f: f.value)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 400))
@example(n=1)
@example(n=400)
def test_count_and_sequence_agree_with_the_library(capsys, family, route, n):
    flags, library = _LINEAR_ROUTES[route]
    argv = ("--family", family.value, "--method", *flags)
    code, out, err = run(capsys, "count", *argv, "--n", str(n))
    seq_code, seq_out, seq_err = run(capsys, "sequence", *argv, "--max-n", str(n))
    assert (code, seq_code) == (0, 0)
    value = library(family, n)
    assert out == f"{value}\n"
    assert seq_out.splitlines()[-1] == f"{n},{value}"
    # a route warns exactly where its value is not the transfer system's
    differs = value != run_transfer(paper_transfer_system(family), n)
    assert err.count("warning:") == differs
    assert (f" at n = {n}; " in seq_err) == differs


def _drawn_chain(draw, families, max_vertices):
    """A chain of one of ``families`` with at most ``max_vertices`` vertices,
    and its length flags."""
    family = draw(st.sampled_from(families))
    if family in LINEAR_FAMILIES:
        n = draw(st.integers(1, max_length_within(family, max_vertices)))
        return ChainSpec(family, length=n), ("--n", str(n))
    arms = (max_vertices - 4) // 3  # m + n + 1 squares on one shared vertex
    m = draw(st.integers(1, arms - 1))
    n = draw(st.integers(1, arms - m))
    return ChainSpec(family, m=m, n=n), ("--m", str(m), "--n", str(n))


def _differential_case(draw, command):
    """A drawn invocation of ``command``: its argv, how to read its stdout,
    and the library value that reading must equal."""
    if command == "gf":
        family = draw(st.sampled_from(LINEAR_FAMILIES))
        source = draw(st.sampled_from(("paper", "derived")))
        gf = paper_gf(family) if source == "paper" else derived_gf(family)
        argv = ("gf", "--family", family.value, "--source", source, "--format", "json")
        return (argv, lambda out: [json.loads(out)[key] for key in ("num", "den")],
                [list(gf.numerator.coeffs), list(gf.denominator.coeffs)])
    if command == "count-oracle":
        spec, flags = _drawn_chain(draw, tuple(Family), 200)
        argv = ("count", "--family", spec.family.value, *flags, "--method", "oracle")
        return argv, int, count_ids(build_chain(spec).graph)
    if command == "count-formula":
        family = draw(st.sampled_from(DEFECT_FAMILIES))
        m, n = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))
        argv = ("count", "--family", family.value, "--m", str(m), "--n", str(n),
                "--method", "formula")
        return argv, int, defect_formula_value(family, m, n)
    if command == "gamma":
        family = draw(st.sampled_from(tuple(GAMMA_FORMULA)))
        top = max_length_within(family, 200)
        max_n = draw(st.none() | st.integers(1, top))
        argv = ("gamma", "--family", family.value, "--format", "json")
        argv += () if max_n is None else ("--max-n", str(max_n))
        rows = [(n, f, o, f == o) for n, f, o in gamma_rows(family, max_n)]
        return argv, lambda out: [tuple(row.values()) for row in json.loads(out)["rows"]], rows
    if command == "defect":
        spec, flags = _drawn_chain(draw, DEFECT_FAMILIES, 200)
        argv = ("defect", "--family", spec.family.value, *flags, "--format", "json")
        status = check_defect_formula(spec.family, spec.m, spec.n)
        return argv, json.loads, json.loads(json.dumps(status.to_json_dict()))
    spec, flags = _drawn_chain(draw, tuple(Family), 200)
    argv = ("build", "--family", spec.family.value, *flags, "--format", "json")
    return argv, json.loads, json.loads(json.dumps(to_json_dict(spec, build_chain(spec))))


@pytest.mark.parametrize(
    "command", ["gf", "count-oracle", "count-formula", "gamma", "defect", "build"]
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_commands_agree_with_the_library(capsys, command, data):
    argv, read, expected = _differential_case(data.draw, command)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert read(out) == expected


@pytest.fixture(scope="module")
def verify_json():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--report", "json"])
    return code, buf.getvalue()


class TestVerify:
    def test_exit_code_three_on_errata(self, verify_json):
        code, out = verify_json
        assert code == 3

    def test_report_contents(self, verify_json):
        _, out = verify_json
        doc = json.loads(out)
        assert doc["summary"]["refuted"] == 17
        ids = {c["id"]: c for c in doc["claims"]}
        assert ids["tri-gf"]["verdict"] == "refuted"
        assert ids["hex-meta-gf"]["verdict"] == "refuted"
        assert ids["hex-para-gf"]["verdict"] == "refuted"

    def test_byte_determinism(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--report", "markdown")
        code2, out2, _ = run(capsys, "verify", "--report", "markdown")
        assert code1 == code2 == 3
        assert out1 == out2

    # the verify tests judge at a cut range by patching AUDIT_CEILING; these
    # pin the whole report there, as the retired --oracle-max N printed it:
    # at 16 hex-para's formal seed a(0) is judged at n = 4, past the oracle's
    # n = 3, and 40 is the hard cap
    @pytest.mark.parametrize("ceiling, report, digest", [
        pytest.param(ceiling, report, digest, id=f"{ceiling}-{report}-{digest}")
        for ceiling, report, digest in (
            (16, "json", "070fe3f835b0533abbf9b133e3afc4e902a6664708e06f7fd63d86878491ee86"),
            (16, "markdown",
             "5978b1b9c441e20aad83ce6055e2b894c7b8529f011b2a38d8d281d0f23fd930"),
            (22, "json", "e1faa95ad4007c0fd6f77c9be13bdc0fb2e00fcd668dbeed4a4d448089da1086"),
            (22, "markdown",
             "e2e3734cbef35bd92c006f8321e1be062886a915f4193c93dcb25a3eec7c8d5b"),
            (40, "json", "5673017576ad21816982ad9e1c51f4670d630cbb9bd242a0549129d4bca48b27"),
            (40, "markdown",
             "46a6804bf48dfd6cc95cc409c49545f7d06ceca3855a3c56686699fe9c0fb98d"),
        )
    ])
    def test_report_digest_at_a_patched_range(
        self, capsys, monkeypatch, ceiling, report, digest
    ):
        monkeypatch.setattr(verify, "AUDIT_CEILING", ceiling)
        code, out, _ = run(capsys, "verify", "--report", report)
        assert code == 3
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_symbolic_range_is_not_an_option(self, capsys):
        # the transfer range is fixed, like the oracle's
        code, out, err = run(capsys, "verify", "--symbolic-max", "3")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --symbolic-max 3" in err
