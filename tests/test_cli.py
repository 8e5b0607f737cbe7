import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

from cactusids import cli, verify
from cactusids.chains import Family, LINEAR_FAMILIES
from cactusids.cli import MAX_BUILD_LENGTH, MAX_LENGTH, MAX_SEQUENCE_LENGTH, main
from cactusids.genfunc import derived_gf, paper_gf
from cactusids.recurrences import paper_transfer_system, run_transfer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cactusids.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


class TestCount:
    def test_transfer(self, capsys):
        code, out, err = run(capsys, "count", "--family", "tri", "--n", "4")
        assert (code, out) == (0, "13\n")

    def test_oracle(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "hex-meta", "--n", "3", "--method", "oracle"
        )
        assert (code, out) == (0, "64\n")

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
        assert run(capsys, "count", "--family", "tri", "--n", "2", "--method", "formula")[0] == 1
        assert run(capsys, "count", "--family", "p-defect", "--n", "2")[0] == 1
        assert run(capsys, "count", "--family", "tri", "--n", "2", "--m", "1")[0] == 1
        assert run(capsys, "count", "--family", "nope", "--n", "1")[0] == 1

    @pytest.mark.parametrize("argv, flag", [
        (("count", "--family", "tri", "--n", "0"), "--n"),
        (("count", "--family", "tri", "--n", "-2", "--method", "oracle"), "--n"),
        (("count", "--family", "s-defect", "--m", "0", "--n", "1", "--method", "formula"), "--m"),
        (("count", "--family", "p-defect", "--m", "1", "--n", "0", "--method", "oracle"), "--n"),
        (("build", "--family", "tri", "--n", "0"), "--n"),
        (("build", "--family", "p-defect", "--m", "0", "--n", "2"), "--m"),
        (("build", "--family", "s-defect", "--m", "2", "--n", "-1"), "--n"),
        (("verify", "--symbolic-max", "0"), "--symbolic-max"),
        (("verify", "--symbolic-max", "-5"), "--symbolic-max"),
    ])
    def test_lengths_below_one_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"cactusids: error: {flag} must be at least 1"

    def test_resource_limit_exit_code(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "hex-para", "--n", "10", "--method", "oracle"
        )
        assert code == 2
        assert "resource limit" in err

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
            ("sequence", "--family", "tri", "--max-n", str(MAX_SEQUENCE_LENGTH + 1)),
            ("verify", "--symbolic-max", str(MAX_SEQUENCE_LENGTH + 1)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "resource limit" in err and "above the cap" in err

    def test_oracle_refused_before_building(self, capsys, monkeypatch):
        def no_build(spec):
            raise AssertionError("chain built above the ceiling")

        monkeypatch.setattr(cli, "build_chain", no_build)
        monkeypatch.setattr(verify, "build_chain", no_build)
        for argv in (
            ("count", "--family", "hex-para", "--n", str(MAX_LENGTH), "--method", "oracle"),
            ("count", "--family", "p-defect", "--m", "500", "--n", "500",
             "--method", "oracle"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "above the oracle ceiling 26" in err

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
    @pytest.mark.parametrize("command", [
        ("gamma", "--family", "tri"),
        ("count", "--family", "tri", "--n", "2", "--method", "oracle"),
        ("verify",),
    ])
    def test_negative_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--oracle-max-vertices", "-5")
        assert (code, out) == (1, "")
        assert "--oracle-max-vertices must be nonnegative" in err
        assert "--max-n" not in err.splitlines()[-1]

    @pytest.mark.parametrize("ceiling, vertices", [("0", 3), ("2", 3)])
    def test_below_the_length_one_chain(self, capsys, ceiling, vertices):
        code, out, err = run(
            capsys, "gamma", "--family", "tri", "--oracle-max-vertices", ceiling
        )
        assert (code, out) == (2, "")
        assert f"below the {vertices} vertices of the length-1 tri chain" in err


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
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cactusids.cli",
             "sequence", "--family", "hex-para", "--max-n", "2000"],
            env=dict(os.environ, PYTHONPATH=src),
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

    def test_oracle_max_alias(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--report", "json", "--oracle-max", "22"
        )
        assert code == 3
        assert json.loads(out)["oracle_ceiling"] == 22

    # --oracle-max 16 --symbolic-max 3 judges hex-para's formal seed a(0) at
    # n = 4, past both the oracle and the symbolic range
    @pytest.mark.parametrize("report, digest, settings", [
        pytest.param(report, digest, settings, id=f"{report}-{digest}")
        for report, digest, settings in (
            ("json", "68edc2755fc462f46b2191a09b8c7f1145103835295fee5f02725c0bc8a5be1e", ()),
            ("markdown", "23489da56825ca555258eb1a6a0b608e4bacba31aa75e205edb60da64156c8c9", ()),
            ("json", "faf56aafb8105dc9529d551ba8c64d6c6794084ec04268d5ce21109c92d52be0",
             ("--oracle-max", "16", "--symbolic-max", "3")),
            ("markdown", "9d580666a2c3a71e72fa015f04411ed797bde937d335154c8b28fd21e33ea9d0",
             ("--oracle-max", "16", "--symbolic-max", "3")),
            ("json", "e1faa95ad4007c0fd6f77c9be13bdc0fb2e00fcd668dbeed4a4d448089da1086",
             ("--oracle-max", "22")),
            ("markdown", "e2e3734cbef35bd92c006f8321e1be062886a915f4193c93dcb25a3eec7c8d5b",
             ("--oracle-max", "22")),
            ("json", "deb404c2fe707e0832e8c8a3aeb0e487bd6e15017367df1ae7c16a61c4314152",
             ("--symbolic-max", "60")),
            ("json", "f8d72b14b18efd2b669da44e41613b0ae50a3f32d679ce3d4a75a84d233d52d1",
             ("--symbolic-max", "2000")),
        )
    ])
    def test_report_digest_at_the_defaults(self, capsys, report, digest, settings):
        code, out, _ = run(capsys, "verify", "--report", report, *settings)
        assert code == 3
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ceiling_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--oracle-max-vertices", "90")
        assert code == 2
        assert "hard cap" in err

    def test_ceiling_below_the_defect_grid(self, capsys):
        # a defect chain above the ceiling leaves only its grid point unchecked
        code, out, _ = run(capsys, "verify", "--report", "json", "--oracle-max", "15")
        assert code == 3
        doc = json.loads(out)
        assert doc["summary"]["unchecked"] == 2
        status = {c["id"]: c for c in doc["claims"]}["p-defect-2-2"]
        assert status["verdict"] == "unchecked"
        assert status["details"] == [
            "the p-defect chain (2,2) has 16 vertices, above the oracle ceiling 15"
        ]
        # a family with no chain under the ceiling still refuses the whole run
        code, out, err = run(capsys, "verify", "--oracle-max", "5")
        assert (code, out) == (2, "")
        assert "below the 6 vertices of the length-1 hex-ortho chain" in err
