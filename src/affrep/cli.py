"""Command-line entry point tying the engines together.

Subcommands::

    count    one point count over one field
    epoly    counting polynomial from point counts (or an ingested CSV)
    tqft     transfer-matrix class, matrix display, identity checks
    classes  representation / moduli / character classes for a genus
    table    recompute the reference count table and compare cell by cell
    verify   cross-check the three methods against each other

Output is JSON on stdout (``--pretty`` for a human-readable rendering,
``--output csv`` for the tabular commands count, epoly and table).  Counts
serialize as decimal strings so 53-bit JSON consumers cannot truncate them.
Exit status is 0 exactly when every reported check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from csv import writer as csv_writer
from importlib import resources

from . import __version__
from .affcount import (
    DEFAULT_GUARD,
    ENGINES,
    BudgetExceeded,
    CountRecord,
    count_closed,
    count_naive,
    count_points,
    count_semi,
)
from .exactpoly import ONE, PolyMatrix
from .finitefield import make_field, parse_descriptor
from .geomstrat import character_class, moduli_class, rep_class
from .interpolate import (
    default_plan,
    epoly_from_counts,
    epoly_from_samples,
    plan_from_text,
    prime_power,
    samples_from_csv,
)
from .tqft import (
    LOCALIZATION_CAVEAT,
    build_transfer,
    close_surface,
    eigen_verify,
    reconstruct_transfer,
    surface_class,
)

GOLDEN_SHA256 = "b92b7e5c8263bcf2b9cfb9f8b1b73ed2cd2ebb4c3b12641abe867e1a5b6f2579"

# cells the reference table leaves blank, computable all the same
EXTEND_CELLS = ((1, 7), (1, 8), (1, 9), (1, 11), (2, 13), (2, 16), (2, 17), (2, 19))


@dataclasses.dataclass
class Report:
    """Machine-readable outcome of a command: inputs, results and checks."""

    command: str
    inputs: dict
    results: dict
    checks: list[dict]
    caveat: str = LOCALIZATION_CAVEAT
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def as_json(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "caveat": self.caveat,
        }


def _check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "details": details}


def load_golden_table(path: str | None = None) -> tuple[list[tuple[int, int, int]], bool]:
    """Load the golden (genus, q, count) cells; also report checksum validity.

    A checksum failure does not abort: the per-cell comparison still runs so
    a tampered cell surfaces as its own failed check.  Blank lines are
    skipped and only the first line may be a header; any other row that is
    not three integers raises :class:`ValueError` naming its line.
    """
    if path is None:
        raw = resources.files("affrep").joinpath("data/table1.csv").read_bytes()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    checksum_ok = hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
    source = path or "packaged golden table"
    cells = []
    for line_num, line in enumerate(raw.decode().splitlines(), start=1):
        line = line.strip()
        if not line or (line_num == 1 and line.startswith("genus")):
            continue
        try:
            g, q, c = map(int, line.split(","))
        except ValueError:
            raise ValueError(f"{source}, line {line_num}: malformed golden row {line!r}") from None
        cells.append((g, q, c))
    return cells, checksum_ok


def _field_for_order(q: int):
    decomposition = prime_power(q)
    if decomposition is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*decomposition)


def cmd_table(
    extend: bool = False,
    golden_path: str | None = None,
    guard: int = DEFAULT_GUARD,
) -> Report:
    """Recompute every filled reference cell and compare, cell by cell."""
    cells, checksum_ok = load_golden_table(golden_path)
    checks = [
        _check(
            "golden_checksum",
            checksum_ok,
            "sha256 of the golden table file" + ("" if checksum_ok else " does not match"),
        )
    ]
    computed_cells = []
    for genus, q, expected in cells:
        rec = count_semi(_field_for_order(q), genus, guard=guard)
        ok = rec.count == expected
        checks.append(
            _check(
                f"cell_g{genus}_q{q}",
                ok,
                f"expected {expected}, counted {rec.count}",
            )
        )
        computed_cells.append(
            {"genus": genus, "q": q, "expected": str(expected), "count": str(rec.count)}
        )
    if extend:
        for genus, q in EXTEND_CELLS:
            rec = count_semi(_field_for_order(q), genus, guard=guard)
            oracle = count_closed(q, genus)
            checks.append(
                _check(
                    f"extend_g{genus}_q{q}",
                    rec.count == oracle,
                    f"closed form {oracle}, counted {rec.count}",
                )
            )
            computed_cells.append(
                {"genus": genus, "q": q, "expected": str(oracle), "count": str(rec.count)}
            )
    return Report(
        command="table",
        inputs={"extend": extend, "golden": golden_path or "packaged"},
        results={"cells": computed_cells},
        checks=checks,
    )


def cmd_verify(genus_max: int, guard: int = DEFAULT_GUARD) -> Report:
    """Cross-check the three methods up to the requested genus."""
    if genus_max < 1:
        raise ValueError("genus-max must be >= 1")
    checks = []
    data = build_transfer()
    for g in range(1, genus_max + 1):
        geometric = rep_class(g)
        transfer = close_surface(g, data)
        checks.append(
            _check(
                f"stratification_vs_transfer_g{g}",
                geometric == transfer,
                f"{geometric} vs {transfer}",
            )
        )
    for g in range(1, min(genus_max, 3) + 1):
        interp = epoly_from_counts(g, guard=guard).epoly
        checks.append(
            _check(
                f"interpolation_vs_stratification_g{g}",
                interp == rep_class(g),
                f"interpolated {interp}",
            )
        )
    for g in range(1, min(genus_max, 2) + 1):
        for q in (2, 3, 4, 5):
            field = _field_for_order(q)
            naive = count_naive(field, g, guard=guard).count
            semi = count_semi(field, g, guard=guard).count
            checks.append(
                _check(f"naive_vs_semi_g{g}_q{q}", naive == semi, f"{naive} vs {semi}")
            )
    return Report(
        command="verify",
        inputs={"genus_max": genus_max},
        results={"rep_classes": {str(g): str(rep_class(g)) for g in range(1, genus_max + 1)}},
        checks=checks,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affrep",
        description="Exact classes and point counts of rank-one affine "
        "representation varieties of surface groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument(
            "--guard", type=_positive_int, default=DEFAULT_GUARD, help="enumeration budget"
        )

    def tabular(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument(
            "--output", choices=("json", "csv"), default="json", help="output format"
        )

    p_count = sub.add_parser("count", help="count points over one finite field")
    p_count.add_argument("--field", required=True, help="field descriptor p^n, e.g. 3^2")
    p_count.add_argument("--genus", type=_positive_int, required=True)
    p_count.add_argument("--engine", choices=ENGINES, default="semi")
    p_count.add_argument(
        "--show-modulus", action="store_true", help="include the field modulus in the output"
    )
    tabular(p_count)

    p_epoly = sub.add_parser("epoly", help="counting polynomial via exact interpolation")
    p_epoly.add_argument("--genus", type=_positive_int, required=True)
    p_epoly.add_argument("--plan", help="comma-separated prime powers, e.g. 2,3,4,5")
    p_epoly.add_argument("--engine", choices=ENGINES, default="semi")
    p_epoly.add_argument("--counts", help="CSV file of q,count samples instead of counting")
    tabular(p_epoly)

    p_tqft = sub.add_parser("tqft", help="transfer-matrix virtual class")
    p_tqft.add_argument("--genus", type=_positive_int, required=True)
    p_tqft.add_argument("--show-matrix", action="store_true")
    p_tqft.add_argument("--verify-eigen", action="store_true")
    p_tqft.add_argument("--reconstruct", action="store_true")
    common(p_tqft)

    p_classes = sub.add_parser("classes", help="representation/moduli/character classes")
    p_classes.add_argument("--genus", type=_positive_int, required=True)
    common(p_classes)

    p_table = sub.add_parser("table", help="recompute and check the reference count table")
    p_table.add_argument("--extend", action="store_true", help="also fill the blank cells")
    p_table.add_argument("--golden", help="path to an alternative golden CSV")
    tabular(p_table)

    p_verify = sub.add_parser("verify", help="cross-check the three methods")
    p_verify.add_argument("--genus-max", type=_positive_int, default=3)
    common(p_verify)

    return parser


def _emit_json(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _emit_csv(rows: list[dict]) -> None:
    out = csv_writer(sys.stdout)
    if rows:
        out.writerow(rows[0].keys())
        for row in rows:
            out.writerow(row.values())


def _run_count(args) -> int:
    p, n = parse_descriptor(args.field)
    field = make_field(p, n)
    rec = count_points(field, args.genus, engine=args.engine, guard=args.guard)
    payload = rec.as_json()
    if args.show_modulus:
        payload["modulus"] = field.modulus_text()
    if args.output == "csv":
        _emit_csv([payload])
    elif args.pretty:
        print(
            f"|Hom| over F_{rec.q} (genus {rec.genus}, engine {rec.engine}): "
            f"{rec.count}  [{payload['elapsed_ms']} ms]"
        )
        if args.show_modulus:
            print(f"  modulus: {field.modulus_text()}")
    else:
        _emit_json(payload, pretty=False)
    return 0


def _run_epoly(args) -> int:
    if args.counts:
        samples = samples_from_csv(args.counts)
        epoly = epoly_from_samples(args.genus, samples)
        plan_powers = [q for q, _ in samples]
        records = []
        for q, c in samples:
            decomposition = prime_power(q)
            if decomposition is None:
                raise ValueError(f"sample abscissa {q} is not a prime power")
            p, k = decomposition
            records.append(
                CountRecord(p=p, n=k, q=q, genus=args.genus, count=c, engine="csv", elapsed=0.0)
            )
    else:
        if args.plan:
            try:
                plan = plan_from_text(args.genus, args.plan)
            except ValueError as exc:
                raise ValueError(f"--plan {args.plan!r}: {exc}") from None
        else:
            plan = default_plan(args.genus)
        result = epoly_from_counts(args.genus, plan, engine=args.engine, guard=args.guard)
        epoly, records = result.epoly, result.records
        plan_powers = list(plan.prime_powers)
    payload = {
        "genus": args.genus,
        "plan": plan_powers,
        "counts": [rec.as_json() for rec in records],
        "epoly": str(epoly),
        "degree": epoly.degree,
    }
    if args.output == "csv":
        _emit_csv([{"q": rec.q, "count": str(rec.count)} for rec in records])
    elif args.pretty:
        print(f"genus {args.genus}: {epoly}  (degree {epoly.degree})")
        for rec in records:
            print(f"  q={rec.q}: {rec.count}")
    else:
        _emit_json(payload, pretty=False)
    return 0


def _check_polynomial_budget(genus: int, guard: int) -> None:
    products = (4 * genus) ** 2
    if products > guard:
        raise BudgetExceeded(
            f"genus {genus} needs {products} coefficient products, (4g)^2 for one product "
            f"of two degree-4g polynomials (guard {guard})"
        )


def _run_tqft(args) -> int:
    _check_polynomial_budget(args.genus, args.guard)
    data = build_transfer()
    virtual_class = close_surface(args.genus, data)
    checks: dict = {}
    payload: dict = {
        "genus": args.genus,
        "virtual_class": str(virtual_class),
    }
    if args.show_matrix:
        payload["matrix"] = [[str(e) for e in row] for row in data.matrix]
    if args.verify_eigen:
        checks.update(eigen_verify(data).as_json())
    if args.reconstruct:
        a, b, d = reconstruct_transfer(
            close_surface(1, data), close_surface(2, data), close_surface(3, data)
        )
        payload["reconstructed"] = {"a": str(a), "b": str(b), "c": "1", "d": str(d)}
        reconstructed = PolyMatrix.from_rows([[a, b], [ONE, d]])
        checks["reconstruction_roundtrip"] = all(
            surface_class(reconstructed, g) == close_surface(g, data) for g in range(1, 7)
        )
    payload["checks"] = checks
    payload["caveat"] = LOCALIZATION_CAVEAT
    if args.pretty:
        print(f"genus {args.genus}: {virtual_class}")
        for name, ok in checks.items():
            print(f"  {name}: {'pass' if ok else 'FAIL'}")
    else:
        _emit_json(payload, pretty=False)
    return 0 if all(checks.values()) else 1


def _run_classes(args) -> int:
    _check_polynomial_budget(args.genus, args.guard)
    payload = {
        "genus": args.genus,
        "representation": str(rep_class(args.genus)),
        "moduli": str(moduli_class(args.genus)),
        "character": str(character_class(args.genus)),
    }
    if args.pretty:
        print(f"representation variety: {payload['representation']}")
        print(f"moduli space:           {payload['moduli']}")
        print(f"character variety:      {payload['character']}")
    else:
        _emit_json(payload, pretty=False)
    return 0


def _emit_report(report: Report, args) -> int:
    if report.command == "table" and args.output == "csv":
        _emit_csv(report.results["cells"])
    elif args.pretty:
        for check in report.checks:
            status = "pass" if check["pass"] else "FAIL"
            print(f"{status:4}  {check['name']}  {check['details']}")
        print(f"{'all checks pass' if report.passed else 'FAILURES PRESENT'}")
    else:
        _emit_json(report.as_json(), pretty=False)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "count":
            return _run_count(args)
        if args.command == "epoly":
            return _run_epoly(args)
        if args.command == "tqft":
            return _run_tqft(args)
        if args.command == "classes":
            return _run_classes(args)
        if args.command == "table":
            report = cmd_table(extend=args.extend, golden_path=args.golden, guard=args.guard)
            return _emit_report(report, args)
        if args.command == "verify":
            report = cmd_verify(args.genus_max, guard=args.guard)
            return _emit_report(report, args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
