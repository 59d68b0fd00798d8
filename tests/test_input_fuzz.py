"""Drawn inputs run through the real commands: ``q,count`` CSV bodies, golden
files, ``--field`` descriptors and ``--plan`` lists.

Each run either exits 0 with a correct result, or exits 1 with exactly one
``error:`` line and no traceback.  A small ``--guard`` keeps every run short:
an abscissa too large to factor within it is tested by the refusal it
raises, never by being factored.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affrep.affcount import ENGINES
from affrep.cli import main
from affrep.exactpoly import IntPoly
from conftest import closed_count

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
JUNK_CELLS = ("", " ", "x", "1e3", "0x10", "-", "1.5", '"3"', "\x00", "9" * 5000)
FUZZ = settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(argv: list[str], body: bytes) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(body)
        return _main([arg.replace("INPUT", str(path)) for arg in argv])


def _assert_one_error_line(code: int, out: str, err: str, max_chars: int | None = None) -> None:
    assert (code, out) == (1, ""), err
    assert err.startswith("error: ") and err.endswith("\n")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert max_chars is None or len(err) < max_chars, err[:200]


def _integers():
    # mostly small, now and then far past anything the guard admits
    return st.one_of(st.integers(-3, 40), st.integers(-(10**30), 10**30))


@st.composite
def _damaged(draw, rows: list[list[str]]) -> list[str]:
    # up to two cells replaced by junk or another integer, or given one more
    # digit, and now and then a later cell, blank or not
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row) - 1))
        cell = st.one_of(st.sampled_from(JUNK_CELLS), _integers().map(str))
        row[j] = draw(st.one_of(cell, st.just(row[j] + "1")))
        row += draw(st.lists(st.sampled_from(["", " ", "7"]), max_size=1))
    return [",".join(row) for row in rows]


@st.composite
def _sample_rows(draw, genus: int) -> list[str]:
    # about 4g distinct prime powers with their true counts, then damaged
    qs = draw(st.lists(st.sampled_from(PRIME_POWERS), min_size=4 * genus - 2, unique=True))
    return draw(_damaged([[str(q), str(closed_count(q, genus))] for q in qs[: 4 * genus + 2]]))


@st.composite
def _golden_rows(draw) -> list[str]:
    cells = st.tuples(st.integers(1, 3), st.sampled_from(PRIME_POWERS[:10]))
    rows = draw(st.lists(cells, max_size=6))
    return draw(_damaged([[str(g), str(q), str(closed_count(q, g))] for g, q in rows]))


@st.composite
def _body(draw, rows):
    # (the file's bytes, its number of rows with a nonblank cell): rows joined
    # by \n or \r\n, with blank lines and a header now and then; or, one time
    # in ten, any bytes
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40)), None
    lines = draw(rows)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["q,count", "genus,q,count", "genus", "x,y"])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ",", " , "])))
    # a first line with no number in it is a header
    cells = [[cell.strip(" +-") for cell in line.split(",")] for line in lines]
    count = sum(any(row) for row in cells)
    count -= bool(cells) and any(cells[0]) and not any(map(str.isdecimal, cells[0]))
    return (draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n").encode(), count


# text that int() cannot read: a character that is no decimal digit,
# whitespace, sign or underscore
_UNREADABLE = st.text(max_size=6).filter(
    lambda t: any(not (c.isdecimal() or c.isspace() or c in "+-^_") for c in t)
)
DESCRIPTOR_JUNK = ("", " ", "^", "2^", "^3", "2^^3", "3^2^2", "2**3", "0x10", "1e3", "1.5", "F_4")
# a token past Python's int-from-str limit, which the error cuts: no echo of it is long
LONG_TOKENS = ("9" * 5000, "2^" + "9" * 5000, "9" * 5000 + "^2")
ECHO_BOUND = 300


@st.composite
def _spelled(draw, value: int) -> str:
    # an integer as int() still reads it: padded with whitespace, a plus sign
    # or a leading zero when not negative
    prefix = draw(st.sampled_from(["", "+", "0"])) if value >= 0 else ""
    pad = st.sampled_from(["", " ", "\t"])
    return f"{draw(pad)}{prefix}{value}{draw(pad)}"


@st.composite
def _descriptor(draw):
    # (a --field text, the (p, n) it names, or None if it names none): p^n
    # with n from 0 to 13, a bare p, or text that is no descriptor
    if draw(st.integers(0, 3)) == 0:
        junk = st.sampled_from(DESCRIPTOR_JUNK + LONG_TOKENS)
        return draw(st.one_of(junk, _UNREADABLE)), None
    p = draw(st.one_of(st.integers(-3, 70), st.sampled_from([4093, 4096]), _integers()))
    n = draw(st.one_of(st.none(), st.integers(0, 13)))
    if n is None:
        return draw(_spelled(p)), (p, 1)
    return f"{draw(_spelled(p))}^{draw(_spelled(n))}", (p, n)


@st.composite
def _plan(draw, genus: int):
    # (a --plan text, its orders, or None if a token is no integer): about 4g
    # distinct small prime powers, up to two of them replaced by another
    # integer (a repeat, a non-prime power, a negative or a huge value) or junk
    tokens = draw(st.lists(
        st.sampled_from(PRIME_POWERS[:12]), min_size=4 * genus - 2, max_size=4 * genus + 2,
        unique=True,
    ))
    for _ in range(draw(st.integers(0, 2)) if tokens else 0):
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(st.one_of(_integers(), st.sampled_from(JUNK_CELLS[:8] + LONG_TOKENS[:1])))
    text = ",".join(draw(_spelled(t)) if isinstance(t, int) else t for t in tokens)
    return text, tokens if all(isinstance(t, int) for t in tokens) else None


def _fraction_interpolant(points: list[tuple[int, int]]) -> list[Fraction]:
    # the Lagrange form summed coefficient by coefficient, on fractions
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [lo - xj * hi for lo, hi in zip([Fraction(0)] + basis, basis + [0])]
                denom *= xi - xj
        coeffs = [a + b * Fraction(yi, denom) for a, b in zip(coeffs, basis)]
    return coeffs


class TestCountsCsv:
    """``epoly --counts``: any ``q,count`` body is interpolated or refused."""

    @FUZZ
    @given(st.data())
    def test_any_body(self, data):
        genus = data.draw(st.integers(1, 2))
        body, rows = data.draw(_body(_sample_rows(genus)))
        argv = ["epoly", "--genus", str(genus), "--counts", "INPUT", "--guard", "2000"]
        code, out, err = _run(argv, body)
        if code != 0:
            _assert_one_error_line(code, out, err)
            return
        assert err == ""
        results = json.loads(out)["results"]
        points = [(row["q"], int(row["count"])) for row in results["counts"]]
        assert rows is None or len(points) == rows  # no row dropped
        degree = 4 * genus - 1
        coeffs = _fraction_interpolant(points[: degree + 1])
        assert all(c.denominator == 1 for c in coeffs) and coeffs[-1] != 0
        poly = IntPoly([int(c) for c in coeffs])
        assert all(poly(q) == count for q, count in points)
        assert (results["epoly"], results["degree"]) == (str(poly), degree)

    @FUZZ
    @given(st.lists(st.sampled_from(PRIME_POWERS), min_size=4, max_size=8, unique=True))
    def test_true_counts_interpolate(self, qs):
        body = "".join(f"{q},{closed_count(q, 1)}\n" for q in qs).encode()
        code, out, err = _run(["epoly", "--genus", "1", "--counts", "INPUT"], body)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["epoly"] == "q^3 - q^2"


class TestGoldenFile:
    """``table --golden``: any golden file is checked cell by cell or refused."""

    @FUZZ
    @given(_body(_golden_rows()))
    def test_any_file(self, case):
        body, rows = case
        code, out, err = _run(["table", "--golden", "INPUT", "--guard", "3000"], body)
        if out == "":
            _assert_one_error_line(code, out, err)
            return
        assert err == "" and code == 1  # a drawn file is never the packaged table
        payload = json.loads(out)
        checks = payload["checks"]
        assert checks[0] == {
            "name": "golden_checksum",
            "pass": False,
            "details": "sha256 of the golden table file does not match",
        }
        cells = payload["results"]["cells"]
        assert rows is None or len(cells) == rows  # no row dropped
        for cell, check in zip(cells, checks[1:], strict=True):
            genus, q = cell["genus"], cell["q"]
            assert cell["count"] == str(closed_count(q, genus))
            assert check["pass"] == (cell["expected"] == cell["count"])
            assert check["name"] == f"cell_g{genus}_q{q}"

    def test_over_guard_abscissa_is_refused_by_its_charge(self):
        # isqrt(q) - 1 = 999999 trial divisions and 1 semi step on a count of
        # at most 4 * 40 = 160 bits, 3 words, for q = 10^12 + 39, refused
        # before any
        q = 10**12 + 39
        body = f"genus,q,count\n1,{q},5\n".encode()
        code, out, err = _run(["table", "--golden", "INPUT", "--guard", "3000"], body)
        _assert_one_error_line(code, out, err)
        assert err == (
            f"error: the cells, to q = {q}, need {999999 + 3} units in all, "
            "to factor q and count (guard 3000)\n"
        )


class TestFieldDescriptor:
    """``count --field``: any descriptor is counted, by every engine, or refused."""

    @FUZZ
    @given(_descriptor(), st.integers(1, 3), st.sampled_from(ENGINES))
    def test_any_descriptor(self, case, genus, engine):
        text, named = case
        argv = ["count", f"--field={text}", "--genus", str(genus), "--engine", engine]
        code, out, err = _main(argv + ["--guard", "5000"])
        if code != 0:
            _assert_one_error_line(code, out, err, ECHO_BOUND)
            return
        assert err == "" and named is not None
        results = json.loads(out)["results"]
        p, n = named
        assert (results["p"], results["n"], results["q"]) == (p, n, p**n)
        assert results["count"] == str(closed_count(p**n, genus))
        assert results["engine"] == engine


class TestPlan:
    """``epoly --plan``: any plan is counted and interpolated, or refused."""

    @FUZZ
    @given(st.data())
    def test_any_plan(self, data):
        genus = data.draw(st.integers(1, 2))
        text, orders = data.draw(_plan(genus))
        engine = data.draw(st.sampled_from((None, *ENGINES)))
        argv = ["epoly", "--genus", str(genus), f"--plan={text}", "--guard", "5000"]
        code, out, err = _main(argv + (["--engine", engine] if engine else []))
        if code != 0:
            _assert_one_error_line(code, out, err, ECHO_BOUND)
            return
        assert err == "" and orders is not None
        results = json.loads(out)["results"]
        assert results["plan"] == orders  # no entry dropped
        for row in results["counts"]:
            assert row["count"] == str(closed_count(row["q"], genus))
            assert row["engine"] == (engine or "semi")
        degree = 4 * genus - 1
        points = [(q, closed_count(q, genus)) for q in orders[: degree + 1]]
        poly = IntPoly([int(c) for c in _fraction_interpolant(points)])
        assert (results["epoly"], results["degree"]) == (str(poly), degree)
