"""Command-line interface: JSON shapes, exit codes, determinism."""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affrep
from affrep import affcount, cli, tqft
from affrep.affcount import ENGINES, BudgetExceeded
from affrep.cli import EXTEND_CELLS, cmd_table, cmd_verify, load_golden_table, main
from affrep.exactpoly import Q
from affrep.finitefield import DEFAULT_MAX_ORDER, ECHO_CHARS, int_str_limit
from affrep.geomstrat import rep_class
from affrep.interpolate import prime_power
from affrep.tqft import closing_charge
from conftest import closed_count

ROOT = Path(__file__).resolve().parents[1]

def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _forbid_building(monkeypatch):
    # a class built or a chain of holed tori glued from here on fails the test
    from affrep import geomstrat, tqft

    def built(*args):
        raise AssertionError("a class was built before the guard decided")

    monkeypatch.setattr(geomstrat, "scaling_power", built)
    monkeypatch.setattr(tqft, "chain", built)


@pytest.fixture
def chains(monkeypatch):
    # (q, the genera kept) of every semi chain the CLI runs, in order
    ran, chain = [], cli.semi_counts

    def counted_chain(q, genera, budget=None):
        ran.append((q, sorted(genera)))
        return chain(q, genera, budget)

    monkeypatch.setattr(cli, "semi_counts", counted_chain)
    return ran


@pytest.fixture
def searches(monkeypatch):
    # (p, n) of every modulus search, one per field built with its default modulus
    from affrep import finitefield

    searched, search = [], finitefield._irreducible_moduli

    def counted_search(p, n):
        searched.append((p, n))
        return search(p, n)

    monkeypatch.setattr(finitefield, "_irreducible_moduli", counted_search)
    return searched


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
        results = json.loads(out)["results"]
        assert results["count"] == "2991816"
        assert isinstance(results["count"], str)
        assert (results["p"], results["n"], results["q"]) == (3, 2, 9)

    @pytest.mark.parametrize("engine", ["naive", "semi", "closed", "generic"])
    def test_engines_agree(self, capsys, engine):
        code, out, _ = run_cli(
            capsys, ["count", "--field", "3", "--genus", "1", "--engine", engine]
        )
        assert code == 0
        assert json.loads(out)["results"]["count"] == "18"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_elapsed_ms_is_within_the_command(self, capsys, engine):
        # pins the bound, not the timing
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, ["count", "--field", "5", "--genus", "2", "--engine", engine])
        wall_ms = (time.perf_counter() - t0) * 1000
        assert code == 0
        assert 0 <= json.loads(out)["results"]["elapsed_ms"] <= wall_ms

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
        assert json.loads(out)["results"]["modulus"] == "X^3 + X^2 + 1"

    def test_bad_field_descriptor(self, capsys):
        code, _, err = run_cli(capsys, ["count", "--field", "x", "--genus", "1"])
        assert code == 1
        assert "error" in err

    def test_not_prime(self, capsys):
        code, _, err = run_cli(capsys, ["count", "--field", "6", "--genus", "1"])
        assert code == 1
        assert "prime" in err

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "field,err",
        [
            ("4", "4 is not prime"),
            ("2^13", "2^13 exceeds the enumeration bound 4096"),
            ("2^0", "extension degree must be >= 1"),
        ],
    )
    def test_a_bad_field_is_refused_by_every_engine(self, capsys, searches, engine, field, err):
        # refused as building the field would refuse it, before any search
        argv = ["count", "--engine", engine, "--genus", "1", "--field", field]
        assert run_cli(capsys, argv) == (1, "", f"error: {err}\n")
        assert searches == []

    @pytest.mark.parametrize(
        "engine,show_modulus,built",
        [
            ("semi", False, []),
            ("closed", False, []),
            ("semi", True, [(2, 3)]),
            ("closed", True, [(2, 3)]),
            ("naive", False, [(2, 3)]),
            ("generic", False, [(2, 3)]),
            ("naive", True, [(2, 3)]),
        ],
    )
    def test_a_field_is_built_only_to_be_read(self, capsys, searches, engine, show_modulus, built):
        argv = ["count", "--engine", engine, "--genus", "1", "--field", "2^3"]
        code, out, _ = run_cli(capsys, argv + ["--show-modulus"] * show_modulus)
        assert code == 0
        assert searches == built
        results = json.loads(out)["results"]
        assert (results["p"], results["n"], results["q"], results["count"]) == (2, 3, 8, "448")
        assert ("modulus" in results) == show_modulus

    def test_guard(self, capsys):
        code, _, err = run_cli(
            capsys, ["count", "--field", "19", "--genus", "3", "--engine", "naive", "--guard", "1000"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "field,genus,engine,named",
        [
            ("2^12", "1000000000", "naive", "|G| = 16773120 and g = 1000000000"),
            ("2^12", "20000", "naive", "|G| = 16773120 and g = 20000"),
            # (g + 1)|G|^2 = 2 * 9312^2 is over 10^8: a table of 86.7 million entries
            ("97", "1", "naive", "(g+1)|G|^2 = 173426688 steps with |G| = 9312 and g = 1"),
            ("3", "100000000", "closed", "4g = 400000000"),
        ],
    )
    def test_guard_without_building_the_bound(self, capsys, field, genus, engine, named):
        # the guard decides before it builds the group table or the closed-form count
        t0 = time.perf_counter()
        argv = ["count", "--field", field, "--genus", genus, "--engine", engine]
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err and "(guard 100000000)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,digits",
        [
            (["--field", "2^12", "--genus", "300"], 4332),
            (["--field", "2^12", "--genus", "1000", "--engine", "closed"], 14447),
            (["--field", "2", "--genus", "7143"], 4301),
        ],
    )
    def test_unprintable_count_is_refused_before_counting(self, capsys, argv, digits):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["count", *argv])
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        limit = f"int-to-str limit of {sys.get_int_max_str_digits()}"
        assert err.startswith("error: ") and f"up to {digits} decimal" in err and limit in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,digits",
        [
            (["--field", "2^12", "--genus", "250", "--engine", "closed"], 3609),
            (["--field", "2", "--genus", "7142"], 4300),
        ],
    )
    def test_printable_count_near_the_limit(self, capsys, argv, digits):
        code, out, _ = run_cli(capsys, ["count", *argv])
        assert code == 0
        assert len(json.loads(out)["results"]["count"]) == digits

    def test_closed_count_without_a_printing_limit_is_bounded_by_the_guard(self):
        # PYTHONINTMAXSTRDIGITS=0 lifts the printing limit, so only the guard
        # refuses the genus-10^5 class, 2 * 10^5 + 1 binomials of 3125 words each
        src = str(Path(affrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"}
        argv = ["count", "--engine", "closed", "--genus", "100000", "--field", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "affrep.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: closed form needs 1958759768750 units, 1953759768750 to build the "
            "genus-100000 class and 4g = 400000 Horner steps on a count of up to 800000 bits "
            "at q = 2 (guard 100000000)\n"
        )

    def test_semi_count_without_a_printing_limit_is_bounded_by_the_guard(
        self, capsys, monkeypatch
    ):
        # with no printing limit only the guard refuses the genus-10^5 chain
        # over F_47: 10^5 steps on counts of up to 4g * 6 = 2.4 million bits,
        # 37500 words each, refused before the chain's first step
        monkeypatch.setattr(cli, "int_str_limit", lambda: 0)
        monkeypatch.setattr(affcount, "handle_distribution", lambda q: pytest.fail("chain ran"))
        argv = ["count", "--engine", "semi", "--genus", "100000", "--field", "47"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: semi count needs 3750000000 units, g = 100000 chain steps on counts of "
            "up to 2400000 bits at q = 47 (guard 100000000)\n"
        )

    def test_huge_characteristic_is_refused_before_trial_division(self, capsys):
        t0 = time.perf_counter()
        argv = ["count", "--field", "1000000000000000003", "--genus", "1"]
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(DEFAULT_MAX_ORDER) in err
        assert len(err.splitlines()) == 1

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
        results = json.loads(out)["results"]
        assert results["epoly"] == "q^3 - q^2"
        assert results["degree"] == 3
        assert results["plan"] == [2, 3, 4, 5]
        assert [c["count"] for c in results["counts"]] == ["4", "18", "48", "100"]

    @pytest.mark.parametrize("engine", ["semi", "closed"])
    def test_order_only_engines_build_no_field(self, capsys, monkeypatch, engine):
        # the same report with every modulus search refused
        from affrep import finitefield

        def no_search(p, n):
            raise AssertionError("a field was built")

        for argv in (["epoly", "--genus", "2"], ["epoly", "--genus", "1", "--plan", "2048,4096,3,5"]):
            argv += ["--engine", engine]
            code, out, _ = run_cli(capsys, argv)
            with monkeypatch.context() as patched:
                patched.setattr(finitefield, "_irreducible_moduli", no_search)
                searchless = run_cli(capsys, argv)
            assert code == searchless[0] == 0
            assert _strip_elapsed(json.loads(searchless[1])) == _strip_elapsed(json.loads(out))

    @pytest.mark.parametrize("engine", ["naive", "generic"])
    def test_table_engines_build_each_field(self, capsys, searches, engine):
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--engine", engine])
        assert code == 0
        assert searches == [(2, 1), (3, 1), (2, 2), (5, 1)]
        assert json.loads(out)["results"]["epoly"] == "q^3 - q^2"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("plan", ["2,3,4,5003", "2,3,4,6"])
    def test_a_bad_plan_is_refused_by_every_engine(self, capsys, engine, plan):
        # 5003 is a prime power over the largest field: semi and closed refuse
        # it as building F_5003 would, the table engines' charge first
        if plan.endswith("6"):
            err = "--plan '2,3,4,6': 6 is not a prime power"
        elif engine in ("semi", "closed"):
            err = "5003^1 exceeds the enumeration bound 4096"
        else:
            err = (
                f"the plan's 4 {engine} counts and their interpolation, to q = 5003, need "
                "1252501850600456 units in all, with 70 already charged (guard 100000000)"
            )
        argv = ["epoly", "--genus", "1", "--engine", engine, "--plan", plan]
        assert run_cli(capsys, argv) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "source,text,err",
        [
            ("--plan", "2,3,6", "--plan '2,3,6': plan needs at least 4 prime powers for genus 1"),
            ("--plan", "2,3,4,4", "--plan '2,3,4,4': plan prime powers must be pairwise distinct"),
            ("--plan", "0,2,3,4", "--plan '0,2,3,4': 0 is not a prime power"),
            ("--counts", "2,4\n3,18\n4,48\n6,180\n", "sample abscissa 6 is not a prime power"),
            ("--counts", "2,4\n1,0\n4,48\n5,100\n", "sample abscissa 1 is not a prime power"),
        ],
    )
    def test_each_order_is_factored_or_named(self, capsys, tmp_path, source, text, err):
        if source == "--counts":
            path = tmp_path / "counts.csv"
            path.write_text(text)
            text = str(path)
        argv = ["epoly", "--genus", "1", source, text]
        assert run_cli(capsys, argv) == (1, "", f"error: {err}\n")

    def test_explicit_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, ["epoly", "--genus", "1", "--plan", "2,3,4,5,7"]
        )
        assert code == 0
        assert json.loads(out)["results"]["epoly"] == "q^3 - q^2"

    def test_csv_ingestion(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2,4\n3,18\n4,48\n5,100\n")
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["epoly"] == "q^3 - q^2"
        assert all(c["engine"] == "csv" for c in results["counts"])

    def test_engine_is_reported_for_a_plan_only(self, capsys, tmp_path):
        # a plan is counted by semi unless --engine says otherwise; a CSV is not counted
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n5,100\n")
        engines = {}
        for source in (["--plan", "2,3,4,5"], ["--counts", str(path)]):
            code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", *source])
            assert code == 0
            engines[source[0]] = json.loads(out)["inputs"]["engine"]
        assert engines == {"--plan": "semi", "--counts": None}

    @pytest.mark.parametrize("points", [7, 8])
    def test_csv_of_4g_minus_one_points_is_refused(self, capsys, tmp_path, points):
        # genus 2 has 4g = 8 unknown coefficients: 7 points are one short
        path = tmp_path / "counts.csv"
        qs = [2, 3, 4, 5, 7, 8, 9, 11][:points]
        path.write_text("".join(f"{q},{closed_count(q, 2)}\n" for q in qs))
        code, out, err = run_cli(capsys, ["epoly", "--genus", "2", "--counts", str(path)])
        if points == 7:
            assert (code, out, err) == (1, "", "error: need at least 8 points, got 7\n")
        else:
            assert code == 0 and err == ""
            assert json.loads(out)["results"]["epoly"] == str(rep_class(2))

    def test_corrupted_csv_counts_fail(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n5,101\n")
        code, _, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 1

    def test_csv_not_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"q,count\n2\xff,4\n")
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert (code, out, err) == (1, "", f"error: {path}: not UTF-8, byte 9 is 0xff\n")

    def test_csv_bad_row_after_header_fails(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("q,count\n2,4\nx3,18\n3,18\n4,48\n5,100\n")
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "line 3" in err

    def test_csv_abscissa_not_a_prime_power_fails(self, capsys, tmp_path):
        # q^3 - q^2 fits these rows, so only the prime-power check can reject them
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n6,180\n")
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "6" in err and "prime power" in err
        assert len(err.splitlines()) == 1

    def test_huge_plan_abscissa_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--plan", "2,3,4,1000000007"])
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "1000000007" in err
        assert len(err.splitlines()) == 1

    def test_csv_huge_prime_abscissa(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("".join(f"{q},{q**3 - q**2}\n" for q in (2, 3, 4, 1000000007)))
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--counts", str(path)])
        assert time.perf_counter() - t0 < 1
        assert code == 0
        assert json.loads(out)["results"]["epoly"] == "q^3 - q^2"

    @pytest.mark.parametrize("source", ["--plan", "--counts"])
    def test_abscissa_over_the_guard(self, capsys, tmp_path, source):
        # factoring 1000000007 takes up to isqrt(1000000007) - 1 = 31621 trial
        # divisions and 4 one more: 31622 in all, refused before any is factored
        path = tmp_path / "counts.csv"
        path.write_text("".join(f"{q},{q**3 - q**2}\n" for q in (2, 3, 4, 1000000007)))
        value = "2,3,4,1000000007" if source == "--plan" else str(path)
        argv = ["epoly", "--genus", "1", source, value, "--guard", "31621"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: the 4 abscissae, to q = 1000000007, need up to 31622 trial divisions "
            "in all, to factor them (guard 31621)\n"
        )
        # the plan goes on to fail at the whole total; the counts go on to their
        # interpolation, 4g = 4 steps for each of 4 samples of up to 90 bits,
        # two words: 32 more units, and admitted at that total they interpolate
        argv[-1] = "31622"
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        if source == "--counts":
            assert err == (
                "error: interpolating 4 samples of up to 90 bits at genus 1 needs 32 units, "
                "with 31622 already charged (guard 31622)\n"
            )
            argv[-1] = str(31622 + 32)
            assert run_cli(capsys, argv)[0] == 0

    def test_bad_plan_token(self, capsys):
        code, out, err = run_cli(capsys, ["epoly", "--genus", "1", "--plan", "2,3,x"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --plan") and "'x'" in err

    @pytest.mark.parametrize(
        "args,named",
        [
            (["--counts", ""], "--counts needs a file name"),
            (["--plan", ""], "--plan '': entry 1 is empty"),
            (["--plan", "2,,3,4,5"], "--plan '2,,3,4,5': entry 2 is empty"),
            (["--plan", "2,3,4,5", "--counts", "COUNTS"], "exclude each other"),
            (["--counts", "COUNTS", "--engine", "naive"], "--engine and --counts exclude"),
        ],
        ids=["empty-counts", "empty-plan", "empty-token", "plan-and-counts", "engine-and-counts"],
    )
    def test_ignored_input_is_refused(self, capsys, tmp_path, args, named):
        # none of these may fall back to the default plan or drop a given input
        path = tmp_path / "counts.csv"
        path.write_text("2,4\n3,18\n4,48\n5,100\n")
        argv = ["epoly", "--genus", "1"] + [str(path) if a == "COUNTS" else a for a in args]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert len(err.splitlines()) == 1

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

    def test_unprintable_counts_are_refused_before_counting(self):
        # a genus-g plan needs 4g prime powers up to 4096, so no plan reaches
        # the default 4300 digits; a lower limit is reached
        src = str(Path(affrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"}
        argv = ["epoly", "--genus", "60", "--engine", "closed"]
        proc = subprocess.run(
            [sys.executable, "-m", "affrep.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: the genus-60 count over F_1307 may have up to 746 decimal digits, "
            "over Python's int-to-str limit of 640 (PYTHONINTMAXSTRDIGITS sets it)\n"
        )


class TestTqft:
    def test_genus_four_matches_stratification(self, capsys):
        code, out, _ = run_cli(capsys, ["tqft", "--genus", "4"])
        assert code == 0
        assert json.loads(out)["results"]["virtual_class"] == str(rep_class(4))

    def test_checks_and_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["tqft", "--genus", "2", "--show-matrix", "--verify-eigen", "--reconstruct"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["matrix"][0][0] == "q^5 - 2q^4 + q^3"
        assert all(c["pass"] for c in payload["checks"])
        assert [c["name"] for c in payload["checks"]] == [
            "eigenvector_scaling",
            "eigenvector_diagonal",
            "trace",
            "determinant",
            "transfer_matrix_from_stratification",
        ]
        assert payload["results"]["reconstructed"]["c"] == "1"
        assert "caveat" in payload

    # genus 3's class plus (q-2)^2 q^3 rebuilds d one too large, no multiple
    # of q(q-1), so the rebuilt matrix does not normalize; plus q^2, d is no
    # polynomial at all
    @pytest.mark.parametrize("change", [(Q - 2) ** 2 * Q**3, Q**2])
    def test_reconstruct_checks_the_matrix_from_stratification(self, capsys, monkeypatch, change):
        def perturbed(genus):
            return rep_class(genus) + change if genus == 3 else rep_class(genus)

        monkeypatch.setattr(cli, "rep_class", perturbed)
        code, out, err = run_cli(capsys, ["tqft", "--genus", "2", "--reconstruct"])
        assert (code, err) == (1, "")
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "transfer_matrix_from_stratification" and not check["pass"]
        assert check["details"].startswith("no matrix rebuilt from the classes normalizes: ")

    @pytest.mark.parametrize("command", ["tqft", "classes", "verify"])
    def test_guard(self, capsys, command):
        # three classes of (2g+1) w (1+w), w = ceil(2g/64); closing one
        # surface in u is charged at once by tqft.closing_charge; verify's
        # sweep of gluing stops at its first genus over the guard, genus 1,
        # whose torus costs the matrix's normalization, 65, and the genus-1
        # class built and printed once, 3 * 1 * (1 + 1)
        refusal = {
            "tqft": "genus 100000 needs 62508438250110 coefficient operations, weighted by "
            "64-bit words, to glue in u = q - 1 and shift back ",
            "classes": "genus 100000 needs 5861279306250 ",
            "verify": "genus 100000 needs 71 coefficient products, weighted by 64-bit words, "
            "for gluing and classes at genus 1 ",
        }[command]
        genus_flag = "--genus-max" if command == "verify" else "--genus"
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, [command, genus_flag, "100000", "--guard", "1"])
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and refusal in err and "guard 1)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["tqft", "--genus", "1200"],
            ["verify", "--genus-max", "600"],
            ["tqft", "--genus", "100000000"],
            ["verify", "--genus-max", "100000000"],
        ],
    )
    def test_default_guard_refuses(self, capsys, argv):
        # the running charge passes the guard near the boundary, however far
        # past it the genus is
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "(guard 100000000)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,first_work",
        [
            (["tqft", "--genus", "1155"], "close_surface"),
            (["classes", "--genus", "2560"], "rep_class"),
            (["verify", "--genus-max", "598"], "rep_class"),
        ],
    )
    def test_default_guard_boundary(self, capsys, monkeypatch, argv, first_work):
        # at the boundary the guard lets the command reach its first polynomial
        # work, stubbed here to stop it; one genus past it nothing is built
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(cli, first_work, admitted)
        with pytest.raises(Admitted):
            cli.COMMANDS[argv[0]](cli.parse_args(argv))
        _forbid_building(monkeypatch)
        argv[-1] = str(int(argv[-1]) + 1)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: genus {argv[-1]} needs ") and "(guard 100000000)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--genus", "1100"],
            ["tqft", "--genus", "1100", "--guard", "10000000000"],
            ["verify", "--genus-max", "1100", "--guard", "1000000000000"],
        ],
    )
    def test_unprintable_class_is_refused_before_building(self, capsys, monkeypatch, argv):
        # C(2200, 1100) has 661 digits; the bound from 2^2200 is 663
        _forbid_building(monkeypatch)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, argv)
            assert time.perf_counter() - t0 < 1
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1
        assert out == ""
        assert err == (
            "error: a genus-1100 class coefficient may have up to 663 decimal digits, "
            "over Python's int-to-str limit of 640 (PYTHONINTMAXSTRDIGITS sets it)\n"
        )

    @pytest.mark.parametrize(
        "argv", [["classes", "--genus", "240"], ["verify", "--genus-max", "2"], ["verify"]]
    )
    def test_default_guard_admits(self, capsys, argv):
        # these run in the benchmark's workloads, as does tqft at genus 240
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["command"] == argv[0]

    def test_default_guard_admits_genus_240(self, capsys):
        code, out, _ = run_cli(capsys, ["tqft", "--genus", "240"])
        assert code == 0
        assert json.loads(out)["results"]["virtual_class"] == str(rep_class(240))


class TestClasses:
    def test_genus_one(self, capsys):
        code, out, _ = run_cli(capsys, ["classes", "--genus", "1"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["representation"] == "q^3 - q^2"
        assert results["moduli"] == results["character"] == "q^2 - 2q + 1"


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

    def test_golden_not_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_bytes(b"genus,q,count\n1,2\xff,4\n")
        code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
        assert (code, out, err) == (1, "", f"error: {path}: not UTF-8, byte 17 is 0xff\n")

    def test_too_long_golden_cell_fails(self, capsys, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text("genus,q,count\n1,2," + "9" * 5000 + "\n")
        code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {path}, line 2: golden row '1,2,{'9' * 55}... (5006 characters) has a "
            f"cell of 5000 digits, over Python's int-from-str limit of "
            f"{sys.get_int_max_str_digits()} (PYTHONINTMAXSTRDIGITS sets it)\n"
        )

    def test_unprintable_golden_cell_is_refused_before_counting(
        self, capsys, tmp_path, monkeypatch
    ):
        # the genus-7200 count over F_2 is 2^14400, of 4335 digits
        monkeypatch.setattr(cli, "semi_counts", lambda *a, **k: pytest.fail("counted"))
        path = tmp_path / "golden.csv"
        path.write_text("genus,q,count\n1,2,4\n7200,2,5\n")
        code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
        assert code == 1
        assert out == ""
        limit = f"int-to-str limit of {sys.get_int_max_str_digits()}"
        assert err.startswith("error: the genus-7200 count over F_2 may have up to ")
        assert limit in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("genus", [0, -1])
    def test_genus_below_one_is_refused_next_to_a_chain(self, capsys, tmp_path, genus):
        # the genus-1 cell over F_2 runs a chain, which has no count at genus < 1
        path = tmp_path / "golden.csv"
        path.write_text(f"genus,q,count\n1,2,4\n{genus},2,4\n")
        code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
        assert (code, out, err) == (1, "", "error: genus must be >= 1\n")

    def test_one_chain_per_field(self, chains):
        # 32 cells over 12 distinct q: each q runs one chain, to the highest
        # genus any cell asks of it, and keeps the genera the cells ask
        report = cmd_table(extend=True)
        assert report.passed
        assert len(report.checks) == 1 + 32
        orders = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
        asked = [(q, sorted(c["genus"] for c in report.rows if c["q"] == q)) for q in orders]
        assert chains == asked
        assert asked[4] == (7, [1, 2, 3]) and asked[8] == (13, [2, 3])

    def test_extend_builds_no_field(self, monkeypatch):
        # a semi chain needs q alone, so the table builds no field at all
        from affrep import finitefield

        def no_field(*args, **kwargs):
            raise AssertionError("a field was built")

        for module in (cli, finitefield, affcount):
            monkeypatch.setattr(module, "make_field", no_field)
        assert cmd_table(extend=True).passed

    @pytest.mark.parametrize(
        "q,err",
        [
            (4099, "4099^1 exceeds the enumeration bound 4096"),
            (8192, "2^13 exceeds the enumeration bound 4096"),
            (4100, "4100 is not a prime power"),
        ],
    )
    def test_order_is_refused_as_a_field_build_would(self, capsys, tmp_path, q, err):
        path = tmp_path / "golden.csv"
        path.write_text(f"genus,q,count\n1,2,4\n1,{q},5\n")
        code, out, stderr = run_cli(capsys, ["table", "--golden", str(path)])
        assert (code, out, stderr) == (1, "", f"error: {err}\n")

    def test_every_order_is_factored_before_any_is_refused_as_too_large(self, capsys, tmp_path):
        # 5003 is a prime over the largest field order and 6 is no prime
        # power: whichever row comes first, the factoring names 6
        for rows in ("1,5003,1\n1,6,1\n", "1,6,1\n1,5003,1\n"):
            path = tmp_path / "golden.csv"
            path.write_text("genus,q,count\n" + rows)
            code, out, err = run_cli(capsys, ["table", "--golden", str(path)])
            assert (code, out, err) == (1, "", "error: 6 is not a prime power\n")

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

    def test_each_class_is_printed_once(self, capsys):
        # in rep_classes; the checks that compare a class give its degree
        code, out, _ = run_cli(capsys, ["verify", "--genus-max", "3"])
        assert code == 0
        assert [out.count(str(rep_class(g))) for g in (1, 2, 3)] == [1, 1, 1]
        checks = {c["name"]: c["details"] for c in json.loads(out)["checks"]}
        assert checks["stratification_vs_transfer_g2"] == "degree 7"
        assert checks["interpolation_vs_stratification_g3"] == "degree 11"

    # genus 2's class is q^7 - 4q^6 + 6q^5 - 3q^4
    @pytest.mark.parametrize(
        "change,details",
        [(Q**5, "q^5: 6 vs 7"), (Q**8, "q^8: 0 vs 1"), (-(Q**7), "q^7: 1 vs 0")],
    )
    def test_a_differing_coefficient_is_named(self, monkeypatch, change, details):
        def perturbed(matrix, genera):
            for g, transfer in tqft.surface_classes(matrix, genera):
                yield g, transfer + change if g == 2 else transfer

        monkeypatch.setattr(cli, "surface_classes", perturbed)
        checks = cmd_verify(3).checks
        assert [c["name"] for c in checks if not c["pass"]] == ["stratification_vs_transfer_g2"]
        named = {c["name"]: c["details"] for c in checks}
        assert named["stratification_vs_transfer_g2"] == f"coefficients of {details}"

    def test_handle_commutators_on_translations(self):
        checks = {c["name"]: c for c in cmd_verify(1).checks}
        for q in (2, 3, 4, 5):
            assert checks[f"handle_commutators_on_translations_q{q}"]["pass"]
        details = checks["handle_commutators_on_translations_q5"]["details"]
        assert details == (
            "h = 100 at the identity, [75] on the 4 other translations, "
            "0 off the translation subgroup"
        )

    def test_class_equation(self):
        checks = {c["name"]: c for c in cmd_verify(1).checks}
        for q in (2, 3, 4, 5):
            assert checks[f"class_equation_q{q}"]["pass"]
        details = checks["class_equation_q5"]["details"]
        assert details == "100 commuting pairs vs |G| k(G) = 20 * 5"

    def test_class_equation_is_checked_against_the_tally(self, monkeypatch):
        # a pass that loses a class fails only the class equation, at every q
        def one_class_lost(table, inv):
            return affcount.conjugacy_classes(table, inv)[1:]

        monkeypatch.setattr(cli, "conjugacy_classes", one_class_lost)
        failed = [c["name"] for c in cmd_verify(2).checks if not c["pass"]]
        assert failed == [f"class_equation_q{q}" for q in (2, 3, 4, 5)]

    @pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
    def test_handle_commutators_are_checked_against_semi(self, monkeypatch, shift):
        # h has the right shape at every q, so only semi's (N0, N1) can fail it
        def shifted(q):
            n0, n1 = affcount.handle_distribution(q)
            return n0 + shift[0], n1 + shift[1]

        monkeypatch.setattr(cli, "handle_distribution", shifted)
        checks = cmd_verify(1).checks
        failed = [c["name"] for c in checks if not c["pass"]]
        assert failed == [f"handle_commutators_on_translations_q{q}" for q in (2, 3, 4, 5)]

    def test_oracle_guard_boundary(self, monkeypatch):
        # the whole run charges 1873: gluing 65 + 16, and classes, each built
        # and printed once, 6 + 10;
        # then, refused as one total before any field, group table or
        # polynomial work, the semi chains, one per q = 2, 3, 4, 5, 7, 8, 9,
        # 11 of the genus-2 plan, to genus 2, isqrt(q) - 1 trial divisions
        # and 2 steps of one word each: 8 + 16 = 24, and the sweeps'
        # (g + 1)|G|^2 = 3|G|^2 at q = 2, 3, 4, 5, 12 + 108 + 432 + 1200 = 1752
        def no_work(*args):
            raise AssertionError("work done before the guard decided")

        monkeypatch.setattr(cli, "make_field", no_work)
        monkeypatch.setattr(cli, "aff_group_table", no_work)
        monkeypatch.setattr(cli, "surface_classes", no_work)
        with pytest.raises(BudgetExceeded, match=r"the semi chains and 1752 steps of table oracle "
                           r"sweeps at g = 2, to q = 11, need 1776 units in all, .*, with 97 "
                           r"already charged \(guard 1872\)"):
            cmd_verify(2, guard=1872)
        monkeypatch.undo()
        assert cmd_verify(2, guard=1873).passed

    def test_one_semi_chain_per_field(self, monkeypatch, chains):
        # each q of the largest interpolation plan, smallest_prime_powers(4g)
        # with g = min(genus_max, 3), runs one chain to g and keeps genus 1
        # to g; every interpolation and naive_vs_semi check reads those
        # chains, and the only fields built are the oracle's, q = 2-5
        built, field_of = [], cli.make_field

        def counted_field(p, n):
            built.append(p**n)
            return field_of(p, n)

        monkeypatch.setattr(cli, "make_field", counted_field)
        plan_3 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
        for genus_max, orders, chain_genus in [
            (1, plan_3[:4], 1),
            (2, plan_3[:8], 2),
            (3, plan_3, 3),
            (5, plan_3, 3),
        ]:
            built.clear()
            chains.clear()
            report = cmd_verify(genus_max)
            assert report.passed
            assert built == [2, 3, 4, 5]
            assert chains == [(q, list(range(1, chain_genus + 1))) for q in orders]
            names = [c["name"] for c in report.checks if c["name"].startswith("naive_vs_semi")]
            genera = range(1, min(genus_max, 2) + 1)
            assert names == [f"naive_vs_semi_g{g}_q{q}" for g in genera for q in (2, 3, 4, 5)]

    def test_one_table_per_field(self, monkeypatch):
        built, validated = [], []
        table_of, validate = cli.aff_group_table, affcount.validate_group_table

        def counted_table(field):
            built.append(field.order)
            return table_of(field)

        def counted_validate(table, identity):
            validated.append(len(table))
            return validate(table, identity)

        monkeypatch.setattr(cli, "aff_group_table", counted_table)
        monkeypatch.setattr(affcount, "validate_group_table", counted_validate)
        assert cmd_verify(5).passed
        assert built == [2, 3, 4, 5]
        assert validated == [2, 6, 12, 20]

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


@pytest.fixture
def ledgers(monkeypatch):
    # every Budget the CLI builds, kept for its used total after the command
    made = []

    class Recorded(affcount.Budget):
        __slots__ = ()

        def __init__(self, limit=affcount.DEFAULT_GUARD):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(cli, "Budget", Recorded)
    return made


def _assert_refused_within(code, out, err, ledgers, guard):
    # one ledger for the command, refused without passing its guard
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(f" (guard {guard})\n")
    assert len(err.splitlines()) == 1
    assert [ledger.limit for ledger in ledgers] == [guard]
    assert ledgers[0].used <= guard


class TestLedger:
    """--guard bounds the whole command: one Budget, charged phase by phase."""

    def test_epoly_plan_is_refused_before_counting(self, capsys, ledgers):
        # the default genus-3 plan 2, 3, 4, ..., 19 charges 3 chain steps on
        # counts of at most 12 * 5 = 60 bits, one word, per count, 36 in all,
        # and their interpolation 4g = 12 steps per count of one word, 144:
        # refused before the first count, not at q = 19
        code, out, err = run_cli(capsys, ["epoly", "--genus", "3", "--guard", "179"])
        _assert_refused_within(code, out, err, ledgers, 179)
        assert err == (
            "error: the plan's 12 semi counts and their interpolation, to q = 19, "
            "need 180 units in all (guard 179)\n"
        )
        assert ledgers[0].used == 0
        ledgers.clear()
        assert run_cli(capsys, ["epoly", "--genus", "3", "--guard", "180"])[0] == 0
        assert ledgers[0].used == 180

    @pytest.mark.parametrize("genus,counted", [(151, 9205866), (152, 0)])
    def test_epoly_default_plan_boundary(self, capsys, ledgers, genus, counted):
        # the default guard admits the default plan as far as it goes: its
        # counts charge 9205866 at genus 151, and its interpolation 4g = 604
        # steps per count, each of up to 4g * 13 = 7852 bits, 123 words; genus
        # 152 has no plan, as 608 prime powers are needed and 604 are at most 4096
        code, out, err = run_cli(capsys, ["epoly", "--genus", str(genus)])
        interpolated = 604 * 604 * 123 if genus == 151 else 0
        assert ledgers[0].used == counted + interpolated
        if genus == 151:
            assert (code, err) == (0, "")
            assert json.loads(out)["results"]["epoly"] == str(rep_class(151))
        else:
            assert (code, out) == (1, "")
            assert err == (
                "error: no default plan for genus 152: 608 prime powers needed, "
                "only 604 are <= 4096, the largest field order\n"
            )

    def test_golden_rows_are_refused_before_counting(self, capsys, tmp_path, ledgers):
        # the rows 1,4096 / 2,4096 / 3,4096 share one semi chain to genus 3,
        # 3 steps on counts of at most 12 * 13 = 156 bits, 3 words, and one
        # factoring of 4096, 63 trial divisions
        rows = "".join(f"{g},4096,{closed_count(4096, g)}\n" for g in (1, 2, 3))
        path = tmp_path / "golden.csv"
        path.write_text("genus,q,count\n" + rows)
        total = 3 * 3 + 63
        argv = ["table", "--golden", str(path), "--guard", str(total - 1)]
        code, out, err = run_cli(capsys, argv)
        _assert_refused_within(code, out, err, ledgers, total - 1)
        assert f"the cells, to q = 4096, need {total} units in all" in err
        assert ledgers[0].used == 0
        ledgers.clear()
        argv[-1] = str(total)
        code, out, _ = run_cli(capsys, argv)
        assert code == 1  # the file is not the packaged table's, but every cell passes
        assert [c["pass"] for c in json.loads(out)["checks"]] == [False, True, True, True]
        assert ledgers[0].used == total

    def test_csv_abscissae_are_charged_together(self, capsys, tmp_path, ledgers):
        # 4 takes isqrt(4) - 1 = 1 trial division and each of the two primes
        # isqrt(q) - 1 = 31621: 63243 in all, refused before any is factored
        path = tmp_path / "counts.csv"
        qs = (2, 3, 4, 1000000007, 1000000009)
        path.write_text("".join(f"{q},{q**3 - q**2}\n" for q in qs))
        total = 1 + 2 * 31621
        argv = ["epoly", "--genus", "1", "--counts", str(path), "--guard", str(total - 1)]
        code, out, err = run_cli(capsys, argv)
        _assert_refused_within(code, out, err, ledgers, total - 1)
        assert err == (
            f"error: the 5 abscissae, to q = 1000000009, need up to {total} trial divisions "
            f"in all, to factor them (guard {total - 1})\n"
        )
        assert ledgers[0].used == 0
        # then the interpolation, 4g = 4 steps for each of 5 samples of up to
        # 90 bits, two words: 40 units
        ledgers.clear()
        argv[-1] = str(total + 40)
        assert run_cli(capsys, argv)[0] == 0
        assert ledgers[0].used == total + 40

    def test_interpolation_is_refused_before_it_starts(self, capsys, tmp_path, ledgers):
        # the first 8000 prime powers, every count 7, at genus 2000: factoring
        # them takes 1439021 trial divisions, and interpolating them 4g = 8000
        # steps for each of the 8000 one-word samples, refused before any
        qs = itertools.islice(filter(prime_power, itertools.count(2)), 8000)
        path = tmp_path / "constant.csv"
        path.write_text("".join(f"{q},7\n" for q in qs))
        argv = ["epoly", "--genus", "2000", "--counts", str(path), "--guard", "1500000"]
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        _assert_refused_within(code, out, err, ledgers, 1500000)
        assert err == (
            "error: interpolating 8000 samples of up to 3 bits at genus 2000 needs 64000000 "
            "units, with 1439021 already charged (guard 1500000)\n"
        )

    @pytest.mark.parametrize("engine", ["naive", "generic"])
    def test_naive_count_charges_the_oracle_once(self, capsys, ledgers, engine):
        # (g + 1)|G|^2 = 3 * 20^2, charged once, not again by the table oracle
        argv = ["count", "--engine", engine, "--genus", "2", "--field", "5"]
        assert run_cli(capsys, argv)[0] == 0
        assert [ledger.used for ledger in ledgers] == [1200]

    def test_naive_genus_one_boundary(self, capsys, ledgers):
        # 2(q(q - 1))^2: 92643272 at q = 83 fits the default guard, 122680448
        # at q = 89 does not, and is refused before the table is built
        assert affcount.count_charge(83, 1, "naive")[0] == 92643272 <= affcount.DEFAULT_GUARD
        t0 = time.perf_counter()
        argv = ["count", "--engine", "naive", "--genus", "1", "--field", "89"]
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - t0 < 1
        _assert_refused_within(code, out, err, ledgers, affcount.DEFAULT_GUARD)
        assert "(g+1)|G|^2 = 122680448 steps with |G| = 7832 and g = 1" in err
        assert ledgers[0].used == 0

    def test_reconstruction_charges_only_the_closing(self, capsys, ledgers, monkeypatch):
        # the class is closed in u; --reconstruct rebuilds the matrix from the
        # stratification's genus 1-3 classes, a fixed amount of work, and
        # sweeps no q chain
        def no_sweep(*args):
            raise AssertionError("--reconstruct swept the q chain")

        monkeypatch.setattr(cli, "surface_classes", no_sweep)
        assert run_cli(capsys, ["tqft", "--genus", "2"])[0] == 0
        # normalizing costs 65, moving N to u 10, forming tr and -det there 6
        # and packing N 20; forming x_1 and x_2 3 words each, checking both,
        # building the window and reading x_2 back 2 * 2 + 8 words and its 5
        # slots, and shifting x_2 back 6
        assert ledgers.pop().used == closing_charge(2) == 65 + 10 + 6 + 20 + 6 + 12 + 5 + 6
        for genus in (1, 2, 6, 9):
            assert run_cli(capsys, ["tqft", "--genus", str(genus), "--reconstruct"])[0] == 0
            assert ledgers.pop().used == closing_charge(genus)
        # the guard the closing needs admits the reconstruction; one under it refuses
        argv = ["tqft", "--genus", "1", "--reconstruct", "--guard", str(closing_charge(1))]
        assert run_cli(capsys, argv)[0] == 0
        argv[-1] = str(closing_charge(1) - 1)
        ledgers.clear()
        code, out, err = run_cli(capsys, argv)
        _assert_refused_within(code, out, err, ledgers, closing_charge(1) - 1)
        assert "genus 1 needs 118 coefficient operations" in err
        assert "to glue in u = q - 1 and shift back" in err


class TestPretty:
    def test_pretty_table_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["classes", "--genus", "2", "--pretty"])
        assert code == 0
        assert out.splitlines() == [
            "representation: q^7 - 4q^6 + 6q^5 - 3q^4",
            "moduli: q^4 - 4q^3 + 6q^2 - 4q + 1",
            "character: q^4 - 4q^3 + 6q^2 - 4q + 1",
            "all checks pass",
        ]

    def test_pretty_nested_results_and_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, ["tqft", "--genus", "1", "--show-matrix", "--reconstruct", "--pretty"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["virtual_class: q^3 - q^2", "matrix:"]
        assert lines[2] == '  ["q^5 - 2q^4 + q^3", "q^6 - 4q^5 + 5q^4 - 2q^3"]'
        assert "reconstructed:" in lines and "  c: 1" in lines
        assert lines[-2].startswith("pass  transfer_matrix_from_stratification")
        assert lines[-1] == "all checks pass"

    def test_pretty_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["epoly", "--genus", "1", "--engine", "closed", "--pretty"])
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["plan: [2, 3, 4, 5]", "counts:"]
        assert lines[2].startswith('  {"p": 2, "n": 1, "q": 2, "genus": 1, "count": "4"')
        assert "epoly: q^3 - q^2" in lines and "degree: 3" in lines


def _load_benchmark_checker() -> types.ModuleType:
    # executed from its source, so nothing is written next to it
    path = ROOT / "perfbench" / "checker.py"
    module = types.ModuleType("benchmark_checker")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestOneReportSchema:
    """Every subcommand's JSON passes the benchmark's own output checker."""

    @pytest.fixture(scope="class")
    def checker(self):
        module = _load_benchmark_checker()
        return module.Checker(module.load_golden(ROOT))

    # the benchmark workloads' argv, tqft shrunk from genus 240
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--engine", "naive", "--genus", "1", "--field", "7"],
            ["epoly", "--genus", "14", "--engine", "closed"],
            ["epoly", "--genus", "1", "--engine", "closed", "--plan", "2048,2187,3125,4096"],
            ["tqft", "--genus", "24", "--verify-eigen", "--reconstruct"],
            ["classes", "--genus", "240"],
            ["table", "--extend"],
            ["verify", "--genus-max", "2"],
        ],
        ids=["count", "epoly", "epoly-plan", "tqft", "classes", "table", "verify"],
    )
    def test_checker_accepts(self, capsys, checker, argv):
        code, out, err = run_cli(capsys, argv)
        assert checker.problems(argv, code, out) == []
        payload = json.loads(out)
        assert set(payload) == {"command", "version", "inputs", "results", "checks", "caveat"}
        assert payload["command"] == argv[0]
        assert err == ""


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--field", "2^2", "--genus", "2", "--threads", "2"],
            ["count", "--field", "2^2", "--genus", "2", "--guard", "0"],
            ["table", "--guard", "-5"],
            ["verify", "--output", "csv"],
            ["tqft", "--genus", "2", "--output", "csv"],
            [],
            ["cnt"],
            ["count", "--genus", "1"],
            ["count", "--field", "3", "--genus", "x"],
            ["count", "--field", "3", "--genus", "1", "--engine", "foo"],
            ["count", "--field", "3", "--genus", "1", "--pretty=1"],
            ["table", "--golden", "--pretty"],
            ["table", "--ext"],
        ],
    )
    def test_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_an_integer_past_the_str_limit_is_named_and_cut(self, capsys):
        limit = int_str_limit()
        if not limit:
            pytest.skip("no int-from-str limit on this interpreter")
        digits = "9" * (limit + 700)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--field", "3", "--genus", digits])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        echo = f"'{digits[: ECHO_CHARS - 1]}... ({limit + 702} characters)"
        assert errors == [
            f"affrep: error: argument --genus: expected a positive integer, got {echo}, of "
            f"{limit + 700} digits, over Python's int-from-str limit of {limit} "
            "(PYTHONINTMAXSTRDIGITS sets it)"
        ]

    def test_a_plan_entry_past_the_str_limit_is_named_and_cut(self, capsys):
        # the plan is echoed once, cut, and its entry named by position and digits
        limit = int_str_limit()
        if not 0 < limit < 5000:
            pytest.skip("5000 digits are within the int-from-str limit here")
        argv = ["epoly", "--genus", "1", "--plan", "2,3,4," + "9" * 5000]
        assert run_cli(capsys, argv) == (
            1,
            "",
            f"error: --plan '2,3,4,{'9' * 53}... (5008 characters): entry 4 has 5000 digits, "
            f"over Python's int-from-str limit of {limit} (PYTHONINTMAXSTRDIGITS sets it)\n",
        )

    def test_a_field_past_the_str_limit_is_named_and_cut(self, capsys):
        limit = int_str_limit()
        if not 0 < limit < 5000:
            pytest.skip("5000 digits are within the int-from-str limit here")
        argv = ["count", "--genus", "1", "--field", "9" * 5000]
        assert run_cli(capsys, argv) == (
            1,
            "",
            f"error: malformed field descriptor '{'9' * 59}... (5002 characters), of 5000 "
            f"digits, over Python's int-from-str limit of {limit} (PYTHONINTMAXSTRDIGITS sets it)\n",
        )


def _kind_value(kind):
    # a value the option's kind accepts, as the text given on the command line
    if kind is cli.FLAG:
        return st.just(None)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is str:
        return st.text(max_size=12)
    return st.integers(1, 10**30).map(str)


@st.composite
def _valid_argv(draw):
    """A well-formed argv and the value it must give each option it names."""
    command = draw(st.sampled_from(list(cli.COMMAND_LINE)))
    table = cli.COMMAND_LINE[command][1]
    required = [name for name, (_, default, _) in table.items() if default is cli.REQUIRED]
    names = required + draw(st.lists(st.sampled_from(list(table)), max_size=6))
    names = draw(st.permutations(names))
    argv, last = [command], {}
    for name in names:
        kind = table[name][0]
        text = draw(_kind_value(kind))
        if text is None:
            argv.append(name)
            last[name] = True
            continue
        if draw(st.booleans()) and not text.startswith("--"):
            argv += [name, text]
        else:
            argv.append(f"{name}={text}")
        last[name] = text if kind is str or isinstance(kind, tuple) else int(text)
    return argv, last


_INT_JUNK = ["", "x", "0", "-5", "1.5", " 3 ", "1e3", "0x10", "1_0", "+7", "9" * 5000, "-0"]
_TOKEN_JUNK = ["--threads", "--gen", "--", "-", "-x", "x", "--version", "--=1", "---genus"]
_TOKEN_JUNK += ["-h=1", "--help=1", "--GENUS", "--pretty=", "--genus=", "--output=xml"]
_ALL_OPTIONS = sorted({name for _, table in cli.COMMAND_LINE.values() for name in table})

# values and stray tokens; -h and --help are left out, as they print help and exit 0
_JUNK_TOKENS = st.one_of(
    st.sampled_from(_ALL_OPTIONS + _TOKEN_JUNK + _INT_JUNK),
    st.sampled_from(_ALL_OPTIONS).map(lambda name: name + "="),
    st.tuples(st.sampled_from(_ALL_OPTIONS), st.sampled_from(_INT_JUNK + ["--5", "json"])).map(
        "=".join
    ),
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(list(cli.ENGINES) + ["csv", "json"]),
    st.text(max_size=8),
).filter(lambda token: token not in ("-h", "--help"))


@st.composite
def _junk_argv(draw):
    command = draw(st.sampled_from(list(cli.COMMAND_LINE) + ["cnt", "-x", "", "--pretty"]))
    tokens = draw(st.lists(_JUNK_TOKENS, max_size=8))
    return ([command] if draw(st.booleans()) or tokens else []) + tokens


def _parse(argv):
    """Run ``main`` with every command stubbed: the parsed args, or the exit and stderr."""
    seen = []

    def stub(args):
        seen.append(args)
        return cli.Report(args.command, {}, {})

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli.COMMANDS, {name: stub for name in cli.COMMANDS}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                assert main(argv) == 0
            except SystemExit as exc:
                return None, exc.code, out.getvalue(), err.getvalue()
    return seen[0], 0, out.getvalue(), err.getvalue()


def _assert_matches_table(args):
    table = cli.COMMAND_LINE[args.command][1]
    values = vars(args).copy()
    assert values.pop("command") in cli.COMMAND_LINE
    assert list(values) == [name[2:].replace("-", "_") for name in table]
    for (name, (kind, default, _)), value in zip(table.items(), values.values()):
        if value == default:
            assert default is not cli.REQUIRED, name
        elif kind is cli.FLAG:
            assert value is True
        elif isinstance(kind, tuple):
            assert value in kind
        elif kind is str:
            assert isinstance(value, str)
        else:
            assert type(value) is int and value >= 1


def _assert_usage_error(code, out, err, argv):
    assert code == 2, argv
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2, err
    assert lines[0].startswith("usage: affrep ")
    assert lines[1].startswith("affrep: error: ")
    assert sum("affrep: error:" in line for line in lines) == 1


class TestParserFuzz:
    """Every argv is parsed to what the option table allows, or refused with exit 2."""

    @settings(deadline=None)
    @given(_valid_argv())
    def test_well_formed_argv_is_parsed(self, case):
        argv, last = case
        args, code, _, err = _parse(argv)
        assert (code, err) == (0, ""), argv
        _assert_matches_table(args)
        for name, value in last.items():
            assert getattr(args, name[2:].replace("-", "_")) == value, (argv, name)

    @settings(deadline=None, max_examples=300)
    @given(_junk_argv())
    def test_any_argv_is_parsed_or_refused(self, argv):
        args, code, out, err = _parse(argv)
        if args is None:
            _assert_usage_error(code, out, err, argv)
        else:
            assert err == ""
            _assert_matches_table(args)
            # a value starting with -- is taken only in the --opt=value form
            for name in cli.COMMAND_LINE[args.command][1]:
                value = getattr(args, name[2:].replace("-", "_"))
                if isinstance(value, str) and value.startswith("--"):
                    assert f"{name}={value}" in argv


SUBCOMMAND_OPTIONS = {
    "count": [
        "--field", "--genus", "--engine", "--show-modulus", "--pretty", "--guard", "--output"
    ],
    "epoly": ["--genus", "--plan", "--engine", "--counts", "--pretty", "--guard", "--output"],
    "tqft": ["--genus", "--show-matrix", "--verify-eigen", "--reconstruct", "--pretty", "--guard"],
    "classes": ["--genus", "--pretty", "--guard"],
    "table": ["--extend", "--golden", "--pretty", "--guard", "--output"],
    "verify": ["--genus-max", "--pretty", "--guard"],
}


class TestHelp:
    def _help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_root_help_lists_every_subcommand(self, capsys):
        out = self._help(capsys, ["--help"])
        assert "{" + ",".join(SUBCOMMAND_OPTIONS) + "}" in out

    @pytest.mark.parametrize("command", list(SUBCOMMAND_OPTIONS))
    def test_subcommand_help_lists_its_options(self, capsys, command):
        out = self._help(capsys, [command, "--help"])
        assert out.startswith(f"usage: affrep {command} ")
        for option in SUBCOMMAND_OPTIONS[command]:
            assert option in out

    def test_usage_lists_each_commands_option_table(self, capsys):
        # the option table alone drives parsing, the usage line and the help
        assert list(cli.COMMAND_LINE) == list(SUBCOMMAND_OPTIONS)
        for command, options in SUBCOMMAND_OPTIONS.items():
            assert list(cli.COMMAND_LINE[command][1]) == options
            usage = self._help(capsys, [command, "-h"]).splitlines()[0]
            assert re.findall(r"--[\w-]+", usage) == options
            with pytest.raises(SystemExit):
                main([command, "--no-such-option"])
            assert capsys.readouterr().err.splitlines()[0] == usage

    def test_version(self, capsys):
        assert self._help(capsys, ["--version"]) == f"affrep {affrep.__version__}\n"


def test_startup_leaves_out_fractions_decimal_dataclasses_and_inspect():
    # every CLI command pays for what importing the CLI loads
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import affrep.cli; "
        "print(sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(affrep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_table_extend_leaves_out_argparse_gettext_and_locale():
    # argparse imports gettext, which imports locale: milliseconds of CPU per command
    probe = "\n".join(
        [
            "import contextlib, io, sys",
            "sys.path.insert(0, sys.argv[1])",
            "import affrep.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert affrep.cli.main(['table', '--extend']) == 0",
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
        ]
    )
    src = str(Path(affrep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
