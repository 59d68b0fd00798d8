"""Self-tests of the benchmark: output checks, span accounting, seeding, patching.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
from checker import (
    EXTEND_CELLS,
    Checker,
    GoldenError,
    closed_count,
    load_golden,
    parse_poly,
    rep_poly,
    torus_poly,
)
import hostspeed
from run import ROOT, Runner
from spans import SpanRecorder, Target, install, load_spans, self_times
from workloads import THREADS_ENV, WORKLOADS, child_env, plan_pass


def render(coeffs: list[int]) -> str:
    """The CLI's polynomial format, written independently for these tests."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c:
            mono = "" if power == 0 else ("q" if power == 1 else f"q^{power}")
            body = f"{abs(c)}{mono}" if abs(c) != 1 or not mono else mono
            terms.append((" - " if c < 0 else " + ") + body)
    text = "".join(terms)
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


@pytest.fixture(scope="module")
def checker():
    return Checker(load_golden(ROOT))


def result(argv, payload, rc=0, error=None):
    return {"argv": list(argv), "rc": rc, "stdout": json.dumps(payload), "error": error}


def error_rate(checker, *results) -> float:
    runner = Runner(checker)
    runner.check({"commands": list(results)})
    return runner.error_rate


# --- expected values and the golden table ----------------------------------


def test_closed_form_reproduces_golden_cells():
    golden = load_golden(ROOT)
    assert len(golden) == 24
    assert golden[(3, 19)] == closed_count(19, 3) == 84217678403958


def test_rep_poly_is_the_published_class():
    assert render(rep_poly(1)) == "q^3 - q^2"
    assert render(rep_poly(2)) == "q^7 - 4q^6 + 6q^5 - 3q^4"
    for g in (1, 2, 5):
        poly = rep_poly(g)
        for q in (2, 3, 7, 16):
            assert sum(c * q**i for i, c in enumerate(poly)) == closed_count(q, g)


def test_tampered_golden_table_is_rejected(tmp_path):
    target = tmp_path / "src/affrep/data/table1.csv"
    target.parent.mkdir(parents=True)
    raw = (ROOT / "src/affrep/data/table1.csv").read_text()
    target.write_text(raw.replace("3,19,84217678403958", "3,19,84217678403959"))
    with pytest.raises(GoldenError, match="sha256"):
        load_golden(tmp_path)


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("0", []),
        ("7", [7]),
        ("2q - 2", [-2, 2]),
        ("-q^2 + 1", [1, 0, -1]),
        ("q^3 - q^2", [0, 0, -1, 1]),
    ],
)
def test_parse_poly(text, coeffs):
    assert parse_poly(text) == coeffs
    assert render(coeffs) == text


@pytest.mark.parametrize("text", ["", "q^", "2x", "q + q", "1 2"])
def test_parse_poly_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_poly(text)


# --- a wrong output raises error_rate --------------------------------------


def test_wrong_count_raises_error_rate(checker):
    argv = ("count", "--engine", "naive", "--genus", "1", "--field", "3^2")
    good = result(argv, {"q": 9, "count": str(closed_count(9, 1))})
    bad = result(argv, {"q": 9, "count": str(closed_count(9, 1) + 1)})
    assert error_rate(checker, good) == 0
    assert error_rate(checker, good, bad) == 0.5


def test_wrong_table_cell_raises_error_rate(checker):
    cells = [{"genus": g, "q": q, "count": str(c)} for (g, q), c in load_golden(ROOT).items()]
    cells += [{"genus": g, "q": q, "count": str(closed_count(q, g))} for g, q in EXTEND_CELLS]
    payload = {"results": {"cells": cells}, "checks": [{"name": "golden_checksum", "pass": True}]}
    argv = ("table", "--extend")
    assert error_rate(checker, result(argv, payload)) == 0
    missing_cell = dict(payload, results={"cells": cells[:-1]})
    assert error_rate(checker, result(argv, missing_cell)) == 1
    cells[3]["count"] = str(int(cells[3]["count"]) * 2)
    assert error_rate(checker, result(argv, payload)) == 1


def test_wrong_polynomial_raises_error_rate(checker):
    g = 3
    wrong = rep_poly(g)
    wrong[5] += 1
    argv = ("classes", "--genus", str(g))
    classes = {"representation": render(rep_poly(g)), "moduli": render(torus_poly(g)),
               "character": render(torus_poly(g))}
    assert error_rate(checker, result(argv, classes)) == 0
    assert error_rate(checker, result(argv, dict(classes, representation=render(wrong)))) == 1

    argv = ("epoly", "--genus", "1", "--engine", "closed", "--plan", "2,3,4,5")
    counts = [{"q": q, "count": str(closed_count(q, 1))} for q in (2, 3, 4, 5)]
    epoly = {"epoly": render(rep_poly(1)), "counts": counts}
    assert error_rate(checker, result(argv, epoly)) == 0
    assert error_rate(checker, result(argv, dict(epoly, epoly="q^3 - 2q^2"))) == 1
    assert error_rate(checker, result(argv, dict(epoly, counts=counts[:3]))) == 1

    argv = ("tqft", "--genus", str(g))
    assert error_rate(checker, result(argv, {"virtual_class": render(rep_poly(g))})) == 0
    assert error_rate(checker, result(argv, {"virtual_class": render(wrong)})) == 1


def test_reconstructed_matrix_is_checked(checker):
    # the transfer matrix q(q-1)[[q^3-q^2, q^4-3q^3+2q^2], [q^3-2q^2, q^4-3q^3+3q^2]]
    # conjugated so that its lower-left entry is 1
    rec = {
        "a": "q^5 - 2q^4 + q^3",
        "b": "q^11 - 7q^10 + 19q^9 - 25q^8 + 16q^7 - 4q^6",
        "c": "1",
        "d": "q^6 - 4q^5 + 6q^4 - 3q^3",
    }
    argv = ("tqft", "--genus", "2", "--reconstruct")
    payload = {"virtual_class": render(rep_poly(2)), "checks": {"ok": True}, "reconstructed": rec}
    assert error_rate(checker, result(argv, payload)) == 0
    bad = dict(payload, reconstructed=dict(rec, d="q^6 - 4q^5 + 6q^4 - 2q^3"))
    assert error_rate(checker, result(argv, bad)) == 1


def test_failing_check_exit_status_and_crash_count_as_failures(checker):
    argv = ("verify", "--genus-max", "1")
    ok = {"results": {"rep_classes": {"1": "q^3 - q^2"}}, "checks": [{"name": "x", "pass": True}]}
    assert error_rate(checker, result(argv, ok)) == 0
    assert error_rate(checker, result(argv, dict(ok, checks=[{"name": "x", "pass": False}]))) == 1
    assert error_rate(checker, result(argv, ok, rc=1)) == 1
    assert error_rate(checker, result(argv, ok, error="Traceback ...\nValueError: boom")) == 1
    not_json = {"argv": list(argv), "rc": 0, "stdout": "not json", "error": None}
    assert error_rate(checker, not_json) == 1


# --- span accounting ------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10]; children a [1, 3] and b [2, 5] overlap; b has a grandchild;
    # c [9, 12] runs past the root's end and is clipped to it
    spans = [(-1, 0, 10), (0, 1, 3), (0, 2, 5), (2, 2.5, 4.5), (0, 9, 12)]
    expected = [10 - (4 + 1), 2, 3 - 2, 2, 3]
    parent, start, end = zip(*spans)
    assert self_times(parent, start, end) == pytest.approx(expected)

    perm = list(range(len(spans)))
    random.Random(4).shuffle(perm)  # spans listed out of start order
    where = {old: new for new, old in enumerate(perm)}
    shuffled = [spans[old] for old in perm]
    parent = [where[p] if p >= 0 else -1 for p, _, _ in shuffled]
    got = self_times(parent, [s for _, s, _ in shuffled], [e for _, _, e in shuffled])
    assert got == pytest.approx([expected[old] for old in perm])


def test_recorder_nests_wrapped_calls(tmp_path):
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda: inner(inner(0)))
    assert outer() == 2
    # outer [0, 5], inner [1, 2] and [3, 4]
    agg = rec.aggregate()
    assert agg["by_name"] == {"inner": [2, 2.0, 2.0], "outer": [1, 3.0, 5.0]}
    assert [None, "outer", 5.0] in agg["under"] and ["outer", "inner", 2.0] in agg["under"]
    rec.dump(tmp_path / "x.spans")
    names, arrays = load_spans(tmp_path / "x.spans")
    assert names == ["inner", "outer"]
    assert list(arrays["parent"]) == [-1, 0, 0] and list(arrays["end"]) == [5.0, 2.0, 4.0]


@pytest.fixture
def affrep_modules():
    sys.path.insert(0, str(ROOT / "src"))
    import affrep.cli

    yield affrep
    sys.path.remove(str(ROOT / "src"))


def test_install_patches_every_namespace(affrep_modules, capsys):
    affrep = affrep_modules
    from affrep import affcount, cli, exactpoly, interpolate

    originals = (affcount.count_semi, interpolate.count_points, exactpoly.IntPoly.__mul__)
    rec = SpanRecorder()
    restore = install(rec, layers.LAYER_TARGETS + (Target("affcount", "no_such_function"),))
    try:
        assert cli.count_semi is affcount.count_semi is affrep.count_semi
        assert affcount.count_semi is not originals[0]
        assert interpolate.count_points is affcount.count_points is not originals[1]
        assert exactpoly.IntPoly.__rmul__ is exactpoly.IntPoly.__mul__ is not originals[2]
        assert rec.missing == ["affcount.no_such_function"]
        assert cli.main(["epoly", "--genus", "1", "--plan", "2,3,4,5"]) == 0
    finally:
        restore()
    assert (affcount.count_semi, interpolate.count_points, exactpoly.IntPoly.__mul__) == originals
    assert cli.count_semi is originals[0]
    values = layers.pass_layers(dict(rec.aggregate(), counters=rec.counters, peaks=rec.peaks))
    assert values["affcount.semi_calls"] == 4
    assert values["affcount.tuples_visited"] == sum((q - 1) ** 2 for q in (2, 3, 4, 5))
    assert values["interpolate.points"] == 4 and values["interpolate.count_s"] > 0
    assert json.loads(capsys.readouterr().out)["epoly"] == "q^3 - q^2"


# --- seeding, environment and the whole loop --------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_the_command_order(name):
    commands = sorted(WORKLOADS[name].commands)
    orders = set()
    for seed in range(20):
        plan = plan_pass(name, seed, 0)
        assert sorted(plan) == commands
        assert plan == plan_pass(name, seed, 0)
        orders.add(tuple(plan))
    assert len(orders) > 1 if len(commands) > 1 else len(orders) == 1


def test_pass_environment_drops_thread_setting():
    assert child_env({THREADS_ENV: "4", "HOME": "/x"}) == {"HOME": "/x"}


def test_real_pass_checks_out(checker):
    runner = Runner(checker)
    report = runner.run_pass(
        "plain",
        [
            ("count", "--engine", "naive", "--genus", "1", "--field", "2^2"),
            ("tqft", "--genus", "3", "--verify-eigen", "--reconstruct"),
            ("epoly", "--genus", "1", "--engine", "closed", "--plan", "2,3,4,5,7"),
        ],
    )
    assert (runner.attempted, runner.failed) == (3, 0), runner.problems
    assert report["wall_s"] > 0 and report["setup_s"] > 0 and report["rss_kb"] > 0
    assert report["spawn"] < report["ready"] < report["start"] < report["end"]
    assert 0 < report["ready_cpu"] and 0 < report["pass_cpu_s"] <= report["cpu_s"]


def test_host_speed_is_the_mean_over_the_window_or_the_nearest_sample():
    probe = hostspeed.Probe(ROOT)
    ref = hostspeed.REFERENCE_S
    probe.samples = [(10.0, ref), (10.5, 2 * ref), (11.0, ref / 2), (20.0, 4 * ref)]
    assert probe.speed(10.4, 11.2) == pytest.approx((0.5 + 2.0) / 2)
    assert probe.speed(15.0, 15.1) == pytest.approx(2.0)  # none within: the nearest, 11.0
    assert probe.speed(19.0, 21.0) == pytest.approx(0.25)


def test_probe_process_samples_and_ends():
    with hostspeed.Probe(ROOT) as probe:
        subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    assert probe.proc.returncode == 0 and len(probe.samples) >= 2
    starts = [start for start, _ in probe.samples]
    assert starts == sorted(starts) and all(cpu > 0 for _, cpu in probe.samples)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-replay", "--seed", "1"]
        + ["--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
