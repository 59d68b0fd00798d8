"""Command-line interface: JSON shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import affrep
from affrep.cli import EXTEND_CELLS, cmd_table, cmd_verify, load_golden_table, main
from affrep.finitefield import DEFAULT_MAX_ORDER
from affrep.geomstrat import rep_class


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "elapsed_ms" else _strip_elapsed(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


class TestCount:
    def test_semi_engine_json(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--field", "3^2", "--genus", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "2991816"
        assert isinstance(payload["count"], str)
        assert (payload["p"], payload["n"], payload["q"]) == (3, 2, 9)

    @pytest.mark.parametrize("engine", ["naive", "semi", "closed", "generic"])
    def test_engines_agree(self, capsys, engine):
        code, out, _ = run_cli(
            capsys, ["count", "--field", "3", "--genus", "1", "--engine", engine]
        )
        assert code == 0
        assert json.loads(out)["count"] == "18"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, ["count", "--field", "2", "--genus", "1", "--output", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,n,q,genus,count")
        assert "4" in lines[1]

    def test_show_modulus(self, capsys):
        code, out, _ = run_cli(
            capsys, ["count", "--field", "2^3", "--genus", "1", "--show-modulus"]
        )
        assert code == 0
        assert json.loads(out)["modulus"] == "X^3 + X^2 + 1"

    def test_bad_field_descriptor(self, capsys):
        code, _, err = run_cli(capsys, ["count", "--field", "x", "--genus", "1"])
        assert code == 1
        assert "error" in err

    def test_not_prime(self, capsys):
        code, _, err = run_cli(capsys, ["count", "--field", "6", "--genus", "1"])
        assert code == 1
        assert "prime" in err

    def test_guard(self, capsys):
        code, _, err = run_cli(
            capsys, ["count", "--field", "19", "--genus", "3", "--engine", "naive", "--guard", "1000"]
        )
        assert code == 1

    def test_determinism(self, capsys):
        argv = ["count", "--field", "2^2", "--genus", "2"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        norm = lambda s: json.dumps(_strip_elapsed(json.loads(s)), sort_keys=False)
        assert norm(out1) == norm(out2)


class TestEPoly:
    def test_genus_one_default_plan(self, capsys):
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["epoly"] == "q^3 - q^2"
        assert payload["degree"] == 3
        assert payload["plan"] == [2, 3, 4, 5]
        assert [c["count"] for c in payload["counts"]] == ["4", "18", "48", "100"]

    def test_explicit_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, ["epoly", "--genus", "1", "--plan", "2,3,4,5,7"]
        )
        assert code == 0
        assert json.loads(out)["epoly"] == "q^3 - q^2"

    def test_csv_ingestion(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2,4\n3,18\n4,48\n5,100\n")
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["epoly"] == "q^3 - q^2"
        assert all(c["engine"] == "csv" for c in payload["counts"])

    def test_corrupted_csv_counts_fail(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n5,101\n")
        code, _, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 1

    def test_csv_bad_row_after_header_fails(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2,4\nx3,18\n3,18\n4,48\n5,100\n")
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "line 3" in err

    def test_bad_plan_token(self, capsys):
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--plan", "2,3,x"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --plan") and "'x'" in err

    def test_default_plan_beyond_the_largest_field(self, capsys):
        # 800 prime powers needed, about 600 lie within the field-order bound
        code, out, err = run_cli(capsys, ["epoly", "--genus", "200", "--engine", "closed"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "genus 200" in err and str(DEFAULT_MAX_ORDER) in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,count"
        assert lines[1:] == ["2,4", "3,18", "4,48", "5,100"]


class TestTqft:
    def test_genus_four_matches_stratification(self, capsys):
        code, out, _ = run_cli(capsys, ["tqft", "--genus", "4"])
        assert code == 0
        assert json.loads(out)["virtual_class"] == str(rep_class(4))

    def test_checks_and_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["tqft", "--genus", "2", "--show-matrix", "--verify-eigen", "--reconstruct"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"][0][0] == "q^5 - 2q^4 + q^3"
        assert all(payload["checks"].values())
        assert payload["reconstructed"]["c"] == "1"
        assert "caveat" in payload

    @pytest.mark.parametrize("command", ["tqft", "classes"])
    def test_guard(self, capsys, command):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, [command, "--genus", "100000", "--guard", "1"])
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "160000000000" in err and "guard 1)" in err

    def test_default_guard_admits_genus_240(self, capsys):
        code, out, _ = run_cli(capsys, ["tqft", "--genus", "240"])
        assert code == 0
        assert json.loads(out)["virtual_class"] == str(rep_class(240))


class TestClasses:
    def test_genus_one(self, capsys):
        code, out, _ = run_cli(capsys, ["classes", "--genus", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["representation"] == "q^3 - q^2"
        assert payload["moduli"] == payload["character"] == "q^2 - 2q + 1"


class TestTable:
    def test_full_reproduction(self):
        report = cmd_table()
        assert report.passed
        assert len(report.checks) == 25  # checksum + 24 cells
        assert report.checks[0]["name"] == "golden_checksum"

    def test_extend_fills_blank_cells(self):
        report = cmd_table(extend=True)
        assert report.passed
        names = {c["name"] for c in report.checks}
        for genus, q in EXTEND_CELLS:
            assert f"extend_g{genus}_q{q}" in names

    def test_tampered_golden_fails(self, capsys, tmp_path):
        cells, _ = load_golden_table()
        lines = ["genus,q,count"]
        for genus, q, count in cells:
            if (genus, q) == (2, 5):
                count += 1  # tamper one digit
            lines.append(f"{genus},{q},{count}")
        path = tmp_path / "tampered.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, ["table", "--golden", str(path)])
        assert code == 1
        payload = json.loads(out)
        by_name = {c["name"]: c["pass"] for c in payload["checks"]}
        assert not by_name["golden_checksum"]
        assert not by_name["cell_g2_q5"]
        assert by_name["cell_g2_q4"]

    @pytest.mark.parametrize("row", ["1,3", "1,x,18"])
    def test_malformed_golden_row_fails(self, capsys, tmp_path, row):
        path = tmp_path / "golden.csv"
        path.write_text(f"genus,q,count\n1,2,4\n{row}\n")
        code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"error: {path}, line 3: malformed golden row {row!r}\n"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "genus,q,expected,count"
        assert len(lines) == 25


class TestVerify:
    def test_three_methods_agree(self):
        report = cmd_verify(3)
        assert report.passed
        names = [c["name"] for c in report.checks]
        assert "stratification_vs_transfer_g3" in names
        assert "interpolation_vs_stratification_g3" in names
        assert "naive_vs_semi_g2_q5" in names

    def test_polynomial_level_only_for_high_genus(self):
        report = cmd_verify(10)
        assert report.passed
        assert any(c["name"] == "stratification_vs_transfer_g10" for c in report.checks)

    def test_usage_error_for_genus_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--genus-max", "0"])
        assert exc.value.code == 2

    def test_cli_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--genus-max", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["checks"]
        assert "caveat" in payload


class TestPretty:
    def test_pretty_table_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["classes", "--genus", "2", "--pretty"])
        assert code == 0
        assert "representation variety" in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--field", "2^2", "--genus", "2", "--threads", "2"],
            ["count", "--field", "2^2", "--genus", "2", "--guard", "0"],
            ["table", "--guard", "-5"],
            ["verify", "--output", "csv"],
            ["tqft", "--genus", "2", "--output", "csv"],
        ],
    )
    def test_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_startup_leaves_out_fractions_and_decimal():
    # every CLI command pays for what importing the CLI loads
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import affrep.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    src = str(Path(affrep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
