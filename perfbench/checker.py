"""Output checks that do not depend on the ``affrep`` package.

Every expected value here is derived by the benchmark itself: point counts
from ``q^(2g-1)((q-1)^2g + q - 1)`` in plain ints, polynomials from the
binomial expansion of the same formula, and the golden table from its own
pinned sha256.  Nothing is imported from ``affrep``.

The checker reads the CLI's JSON loosely (it looks keys up wherever they
sit and takes check lists or dicts), so a change to the report layout does
not count as a failure, while a wrong number, a wrong polynomial or a
failing check always does.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from pathlib import Path

GOLDEN_RELPATH = Path("src/affrep/data/table1.csv")
GOLDEN_SHA256 = "b92b7e5c8263bcf2b9cfb9f8b1b73ed2cd2ebb4c3b12641abe867e1a5b6f2579"
# the blank cells of the reference table that ``table --extend`` fills in
EXTEND_CELLS = ((1, 7), (1, 8), (1, 9), (1, 11), (2, 13), (2, 16), (2, 17), (2, 19))


class GoldenError(ValueError):
    """The golden table is missing, altered, or disagrees with the closed form."""


# --- expected values --------------------------------------------------------


def closed_count(q: int, genus: int) -> int:
    """|Hom(surface group, Aff(1, F_q))| = q^(2g-1)((q-1)^2g + q - 1)."""
    return q ** (2 * genus - 1) * ((q - 1) ** (2 * genus) + q - 1)


def torus_poly(genus: int) -> list[int]:
    """Coefficients (low to high) of (q-1)^2g."""
    n = 2 * genus
    return [comb(n, k) * (-1) ** (n - k) for k in range(n + 1)]


def rep_poly(genus: int) -> list[int]:
    """Coefficients (low to high) of q^(2g-1)((q-1)^2g + q - 1)."""
    inner = torus_poly(genus)
    inner[0] -= 1
    inner[1] += 1
    return _trim([0] * (2 * genus - 1) + inner)


def is_prime_power(m: int) -> bool:
    if m < 2:
        return False
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return m == 1


def default_plan(genus: int) -> list[int]:
    """The 4g smallest prime powers, the interpolation plan for genus g."""
    out, m = [], 2
    while len(out) < 4 * genus:
        if is_prime_power(m):
            out.append(m)
        m += 1
    return out


def field_order(descriptor: str) -> int:
    base, _, exp = descriptor.partition("^")
    return int(base) ** int(exp or 1)


def load_golden(root: Path) -> dict[tuple[int, int], int]:
    """The golden (genus, q) -> count cells, after checking sha256 and closed form."""
    path = root / GOLDEN_RELPATH
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise GoldenError(f"cannot read {GOLDEN_RELPATH}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    if digest != GOLDEN_SHA256:
        raise GoldenError(f"{GOLDEN_RELPATH} has sha256 {digest}, expected {GOLDEN_SHA256}")
    cells = {}
    for line in raw.decode().splitlines()[1:]:
        g, q, c = (int(x) for x in line.split(","))
        if c != closed_count(q, g):
            raise GoldenError(f"golden cell g={g} q={q} is {c}, closed form {closed_count(q, g)}")
        cells[(g, q)] = c
    return cells


# --- polynomial text --------------------------------------------------------

_TERM = re.compile(r"(\d*)(?:(q)(?:\^(\d+))?)?")


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def parse_poly(text: str) -> list[int]:
    """Parse the CLI's rendering of a polynomial in q, e.g. ``q^3 - 2q + 7``."""
    text = text.strip()
    if text == "0":
        return []
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    terms = [parts[0].removeprefix("-")] + parts[2::2]
    coeffs: dict[int, int] = {}
    for sign, term in zip(signs, terms):
        m = _TERM.fullmatch(term)
        if not term or m is None:
            raise ValueError(f"bad term {term!r} in {text!r}")
        power = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        if power in coeffs:
            raise ValueError(f"repeated power q^{power} in {text!r}")
        coeffs[power] = (-1 if sign == "-" else 1) * (int(m.group(1)) if m.group(1) else 1)
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return _trim(out)


def _pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _padd(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


# --- reading the JSON -------------------------------------------------------


def _find_all(obj, key: str):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == key:
                yield v
            yield from _find_all(v, key)
    elif isinstance(obj, list):
        for v in obj:
            yield from _find_all(v, key)


def _find(obj, key: str):
    for value in _find_all(obj, key):
        return value
    raise KeyError(key)


def _checks(payload) -> list[tuple[str, bool]]:
    """Every named check the payload reports, as (name, passed)."""
    out = []
    for checks in _find_all(payload, "checks"):
        if isinstance(checks, dict):
            out += [(str(k), v is True) for k, v in checks.items()]
        elif isinstance(checks, list):
            out += [(str(c.get("name")), c.get("pass") is True) for c in checks]
    return out


def _options(argv) -> dict[str, str]:
    opts, i = {}, 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key], i = argv[i + 1], i + 2
        else:
            opts[key], i = "", i + 1
    return opts


class Checker:
    """Judges one CLI command's exit status and stdout against derived values."""

    def __init__(self, golden: dict[tuple[int, int], int] | None, golden_problem: str = ""):
        self.golden = golden
        self.golden_problem = golden_problem

    def problems(self, argv, rc, stdout: str, error: str | None = None) -> list[str]:
        """Reasons the command failed; empty when it succeeded and is correct."""
        if error:
            return [f"raised: {error.strip().splitlines()[-1]}"]
        if rc != 0:
            return [f"exit status {rc}"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON document"]
        out = [f"check {name} failed" for name, ok in _checks(payload) if not ok]
        try:
            out += getattr(self, "_" + argv[0])(_options(argv), payload)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            out.append(f"unreadable output ({type(exc).__name__}: {exc})")
        return out

    @staticmethod
    def _poly(payload, key: str, expected: list[int]) -> list[str]:
        got = parse_poly(_find(payload, key))
        return [] if got == expected else [f"{key} is wrong"]

    def _count(self, opts, payload) -> list[str]:
        q, g = field_order(opts["field"]), int(opts["genus"])
        got = int(_find(payload, "count"))
        return [] if got == closed_count(q, g) else [f"count q={q} g={g} is {got}"]

    def _epoly(self, opts, payload) -> list[str]:
        g = int(opts["genus"])
        plan = [int(x) for x in opts["plan"].split(",")] if "plan" in opts else default_plan(g)
        out = self._poly(payload, "epoly", rep_poly(g))
        counts = {int(r["q"]): int(r["count"]) for r in _find(payload, "counts")}
        if sorted(counts) != sorted(plan):
            out.append(f"counted at {sorted(counts)}, plan is {sorted(plan)}")
        out += [f"count q={q} is wrong" for q, c in counts.items() if c != closed_count(q, g)]
        return out

    def _tqft(self, opts, payload) -> list[str]:
        g = int(opts["genus"])
        out = self._poly(payload, "virtual_class", rep_poly(g))
        if ("verify-eigen" in opts or "reconstruct" in opts) and not _checks(payload):
            out.append("no checks reported")
        if "reconstruct" in opts:
            rec = _find(payload, "reconstructed")
            a, b, c, d = (parse_poly(rec[k]) for k in "abcd")
            if c != [1]:
                out.append("reconstructed lower-left entry is not 1")
            # top-left entry of [[a, b], [1, d]]^k must be (q(q-1))^k times the class
            group, norm = [0, -1, 1], [1]
            top, bottom = [1], []
            for k in range(1, 7):
                top, bottom = _padd(_pmul(a, top), _pmul(b, bottom)), _padd(top, _pmul(d, bottom))
                norm = _pmul(norm, group)
                if top != _pmul(norm, rep_poly(k)):
                    out.append(f"reconstructed matrix gives a wrong genus-{k} class")
        return out

    def _classes(self, opts, payload) -> list[str]:
        g = int(opts["genus"])
        return (
            self._poly(payload, "representation", rep_poly(g))
            + self._poly(payload, "moduli", torus_poly(g))
            + self._poly(payload, "character", torus_poly(g))
        )

    def _table(self, opts, payload) -> list[str]:
        if self.golden is None:
            return [f"golden table unusable: {self.golden_problem}"]
        if not _checks(payload):
            return ["no checks reported"]
        cells = {(int(c["genus"]), int(c["q"])): int(c["count"]) for c in _find(payload, "cells")}
        expected = set(self.golden) | (set(EXTEND_CELLS) if "extend" in opts else set())
        out = [] if set(cells) == expected else ["table covers the wrong cells"]
        for (g, q), c in cells.items():
            if c != closed_count(q, g) or c != self.golden.get((g, q), c):
                out.append(f"cell g={g} q={q} is {c}")
        return out

    def _verify(self, opts, payload) -> list[str]:
        g_max = int(opts["genus-max"])
        if not _checks(payload):
            return ["no checks reported"]
        classes = _find(payload, "rep_classes")
        return [
            f"rep class g={g} is wrong"
            for g in range(1, g_max + 1)
            if parse_poly(classes[str(g)]) != rep_poly(g)
        ]
