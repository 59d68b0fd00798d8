"""Command-line entry point tying the engines together.

Subcommands::

    count    one point count over one field
    epoly    counting polynomial from point counts (or an ingested CSV)
    tqft     transfer-matrix class, matrix display, identity checks
    classes  representation / moduli / character classes for a genus
    table    recompute the reference count table and compare cell by cell
    verify   cross-check the three methods against each other

Every command returns one :class:`Report` (command, version, inputs,
results, checks, caveat), printed as JSON on stdout; ``--pretty`` renders it
as text and ``--output csv`` writes its rows (count, epoly and table).
Counts serialize as decimal strings so 53-bit JSON consumers cannot
truncate them.  Exit status is 0 exactly when every reported check passes.
``--guard N`` bounds the work of the whole command: it builds one
:class:`~affrep.affcount.Budget`, which every phase charges before it runs.
:func:`parse_args` reads argv against one option table,
:data:`COMMAND_LINE`, which also renders the usage line and the help; a
usage error exits 2.
"""

from __future__ import annotations

import hashlib
import json
import sys
from csv import writer as csv_writer
from importlib import resources
from pathlib import Path
from itertools import zip_longest
from types import SimpleNamespace

from . import __version__
from .affcount import (
    DEFAULT_GUARD,
    ENGINES,
    Budget,
    aff_group_table,
    charge_ahead,
    conjugacy_classes,
    count_charge,
    count_digits_bound,
    count_points,
    count_semi,  # not called here; perfbench's tracer patches cli.count_semi too
    handle_distribution,
    oracle_counts,
    semi_counts,
)
from .exactpoly import ONE, IntPoly, NotDivisible, Record
from .finitefield import (
    FieldOrder,
    echo_int,
    int_str_limit,
    make_field,
    parse_descriptor,
    short_repr,
)
from .geomstrat import character_class, class_charge, moduli_class, rep_class
from .interpolate import (
    default_plan,
    epoly_from_counts,
    epoly_from_samples,
    factor_orders,
    interpolation_charge,
    plan_from_text,
    row_error,
    samples_from_csv,
    smallest_prime_powers,
    utf8_text,
)
from .tqft import (
    LOCALIZATION_CAVEAT,
    ReconstructionError,
    build_transfer,
    close_surface,
    closing_charge,
    eigen_verify,
    gluing_charge,
    normalized,
    reconstruct_transfer,
    surface_classes,
)

GOLDEN_SHA256 = "b92b7e5c8263bcf2b9cfb9f8b1b73ed2cd2ebb4c3b12641abe867e1a5b6f2579"

# cells the reference table leaves blank, computable all the same
EXTEND_CELLS = ((1, 7), (1, 8), (1, 9), (1, 11), (2, 13), (2, 16), (2, 17), (2, 19))

# the fields F_{p^n} over which verify checks the table oracle against semi
ORACLE_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1))


class Report(Record):
    """Machine-readable outcome of a command: inputs, results and checks.

    ``inputs`` holds the command's own parameters under names that no
    result uses; ``rows`` is what ``--output csv`` writes.
    """

    __slots__ = ("command", "inputs", "results", "checks", "rows", "caveat", "version")

    def __init__(
        self,
        command: str,
        inputs: dict,
        results: dict,
        checks: list[dict] | None = None,
        rows: list[dict] | None = None,
        caveat: str = LOCALIZATION_CAVEAT,
        version: str = __version__,
    ):
        checks = [] if checks is None else checks
        rows = [] if rows is None else rows
        super().__init__(command, inputs, results, checks, rows, caveat, version)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def as_json(self) -> dict:
        keys = ("command", "version", "inputs", "results", "checks", "caveat")
        return {key: getattr(self, key) for key in keys}


def _check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "details": details}


def _same_class(name: str, left: IntPoly, right: IntPoly) -> dict:
    # the degree, or the lowest power of q whose coefficients differ, with both
    pairs = enumerate(zip_longest(left.coeffs, right.coeffs, fillvalue=0))
    diff = next((f"coefficients of q^{k}: {x} vs {y}" for k, (x, y) in pairs if x != y), None)
    return _check(name, diff is None, diff or f"degree {left.degree}")


def load_golden_table(path: str | None = None) -> tuple[list[tuple[int, int, int]], bool]:
    """Load the golden (genus, q, count) cells; also report checksum validity.

    A checksum failure does not abort: the per-cell comparison still runs so
    a tampered cell surfaces as its own failed check.  Blank lines are
    skipped and only the first line may be a header; any other row that is
    not three integers raises the :class:`ValueError` of
    :func:`~affrep.interpolate.row_error`, naming its line.
    """
    golden = resources.files("affrep") / "data/table1.csv" if path is None else Path(path)
    raw = golden.read_bytes()
    checksum_ok = hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
    source = path or "packaged golden table"
    cells = []
    for line_num, line in enumerate(utf8_text(raw, source).splitlines(), start=1):
        line = line.strip()
        if not line or (line_num == 1 and line.startswith("genus")):
            continue
        parts = line.split(",")
        try:
            g, q, c = map(int, parts)
        except ValueError:
            raise row_error(f"{source}, line {line_num}", "golden", line, parts) from None
        cells.append((g, q, c))
    return cells, checksum_ok


def _semi_chains(budget: Budget, genera: dict[int, set[int]], what="the cells", later=0):
    """Each q's one semi chain, which keeps the genera ``genera`` maps q to.

    First ``what`` is refused if the trial division that factors each q and
    its chain, plus ``later`` units to come, would pass the guard
    (:func:`~affrep.interpolate.factor_orders`).  Then each q is refused as
    building F_q would refuse it, but no field is built.
    """
    later += sum(count_charge(q, max(gs), "semi")[0] for q, gs in genera.items())
    what += ", to q = {1}, need {2} units in all, to factor q and count"
    for p, n in factor_orders(budget, list(genera), later, what):
        FieldOrder(p, n)
    return {q: semi_counts(q, gs, budget) for q, gs in genera.items()}


def _charge_gluing(budget: Budget, genus: int) -> None:
    """Charge gluing to ``genus`` and each class, built and printed once, genus by genus."""
    for g in range(1, genus + 1):
        units = gluing_charge(g) + class_charge(g)
        what = "genus {} needs {} coefficient products, weighted by 64-bit words, for gluing"
        budget.charge(units, what + " and classes at genus {}", genus, units, g)


def _check_printable(genus: int, q: int | None = None) -> None:
    # a count over F_q, or with no q a coefficient of the genus-g class, prints
    # in decimal, which CPython refuses for an int of more than int_str_limit()
    # digits; a class coefficient is below 2^2g, the genus-g count over F_2
    what = f"the genus-{genus} count over F_{q}" if q else f"a genus-{genus} class coefficient"
    limit, digits = int_str_limit(), count_digits_bound(q or 2, genus)
    if limit and digits > limit:
        raise ValueError(
            f"{what} may have up to {digits} decimal digits, "
            f"over Python's int-to-str limit of {limit} (PYTHONINTMAXSTRDIGITS sets it)"
        )


def cmd_count(
    field: str,
    genus: int,
    engine: str = "semi",
    show_modulus: bool = False,
    guard: int = DEFAULT_GUARD,
) -> Report:
    """One point count over the field named by a ``p^n`` descriptor.

    The descriptor is refused as :func:`~affrep.finitefield.make_field`
    would refuse it, but F_q is built only to be read: by a table engine,
    after the guard, or for ``show_modulus``.
    """
    order = FieldOrder(*parse_descriptor(field))
    budget = Budget(guard)
    charge_ahead(budget, *count_charge(order.order, genus, engine))  # the guard refuses first
    _check_printable(genus, order.order)
    spec = make_field(order.p, order.n) if show_modulus else order
    results = count_points(spec, genus, engine, budget).as_json()
    if show_modulus:
        results["modulus"] = spec.modulus_text()
    inputs = {"field": field, "genus": genus, "engine": engine, "guard": guard}
    return Report("count", inputs, results, rows=[results])


def cmd_epoly(
    genus: int,
    plan_text: str | None = None,
    engine: str | None = None,
    counts_file: str | None = None,
    guard: int = DEFAULT_GUARD,
) -> Report:
    """Counting polynomial from a plan's point counts, or from a ``q,count`` CSV.

    A CSV excludes a plan and an engine, as nothing is counted; a plan is
    counted by ``semi`` unless an engine is given.  An empty CSV path or
    plan is an error, not a request for the default plan.  The trial
    division that factors the abscissae is refused as one total before any,
    and the interpolation is charged before it starts.
    """
    if counts_file is not None and plan_text is not None:
        raise ValueError("--plan and --counts exclude each other; give one of them")
    if counts_file is not None and engine is not None:
        raise ValueError("--engine and --counts exclude each other: a CSV is read, not counted")
    if counts_file == "":
        raise ValueError("--counts needs a file name")
    budget = Budget(guard)
    if counts_file is not None:
        samples = samples_from_csv(counts_file)
        try:
            factor_orders(budget, [q for q, _ in samples])
        except ValueError as exc:
            raise ValueError(f"sample abscissa {exc}") from None
        bits = max((abs(c).bit_length() for _, c in samples), default=0)
        budget.charge(*interpolation_charge(genus, len(samples), bits))
        epoly = epoly_from_samples(genus, samples)
        counts = [{"q": q, "count": str(c), "engine": "csv"} for q, c in samples]
    else:
        if plan_text is not None:
            try:
                plan = plan_from_text(genus, plan_text, budget)
            except ValueError as exc:
                raise ValueError(f"--plan {short_repr(plan_text)}: {exc}") from None
        else:
            plan = default_plan(genus)
        _check_printable(genus, max(p**n for p, n in plan))
        engine = engine or "semi"
        result = epoly_from_counts(genus, plan, engine=engine, budget=budget)
        epoly, counts = result.epoly, [rec.as_json() for rec in result.records]
    inputs = {
        "genus": genus,
        "plan_text": plan_text,
        "engine": engine,
        "counts_file": counts_file,
        "guard": guard,
    }
    results = {
        "plan": [row["q"] for row in counts],
        "counts": counts,
        "epoly": str(epoly),
        "degree": epoly.degree,
    }
    rows = [{"q": row["q"], "count": row["count"]} for row in counts]
    return Report("epoly", inputs, results, rows=rows)


def cmd_tqft(
    genus: int,
    show_matrix: bool = False,
    verify_eigen: bool = False,
    reconstruct: bool = False,
    guard: int = DEFAULT_GUARD,
) -> Report:
    """Transfer-matrix class of genus g, with identity checks and M rebuilt from rep_class(1..3)."""
    budget = Budget(guard)
    matrix = build_transfer()
    units = closing_charge(genus)
    closing = "genus {} needs {} coefficient operations, weighted by 64-bit words, to glue in u"
    budget.charge(units, closing + " = q - 1 and shift back", genus, units)
    _check_printable(genus)
    virtual = close_surface(genus, matrix)
    results: dict = {"virtual_class": str(virtual)}
    checks = []
    if show_matrix:
        results["matrix"] = [[str(e) for e in row] for row in matrix]
    if verify_eigen:
        checks += [_check(name, ok) for name, ok in eigen_verify(matrix)]
    if reconstruct:
        try:
            a, b, d = reconstruct_transfer(rep_class(1), rep_class(2), rep_class(3))
            results["reconstructed"] = {"a": str(a), "b": str(b), "c": "1", "d": str(d)}
            same, details = normalized(((a, b), (ONE, d))) == normalized(matrix), "N and j"
        except (NotDivisible, ReconstructionError) as exc:
            same, details = False, f"no matrix rebuilt from the classes normalizes: {exc}"
        checks.append(_check("transfer_matrix_from_stratification", same, details))
    inputs = {
        "genus": genus,
        "show_matrix": show_matrix,
        "verify_eigen": verify_eigen,
        "reconstruct": reconstruct,
        "guard": guard,
    }
    return Report("tqft", inputs, results, checks)


def cmd_classes(genus: int, guard: int = DEFAULT_GUARD) -> Report:
    """Representation, moduli and character classes for one genus."""
    units = 3 * class_charge(genus)
    products = "genus {} needs {} coefficient products, weighted by 64-bit words"
    Budget(guard).charge(units, products + ", for three classes", genus, units)
    _check_printable(genus)
    results = {
        "representation": str(rep_class(genus)),
        "moduli": str(moduli_class(genus)),
        "character": str(character_class(genus)),
    }
    return Report("classes", {"genus": genus, "guard": guard}, results)


def cmd_table(
    extend: bool = False,
    golden_path: str | None = None,
    guard: int = DEFAULT_GUARD,
) -> Report:
    """Recompute every filled reference cell and compare, cell by cell.

    The cells are grouped by q into one chain each, which keeps the genera
    asked of q (:func:`_semi_chains`).  A cell whose count may be too long
    to print, or whose chain and trial division take the budget's total past
    the guard, is refused before any is counted.  An extended cell expects
    the stratification's class at q.
    """
    budget = Budget(guard)
    cells, checksum_ok = load_golden_table(golden_path)
    checksum = "sha256 of the golden table file" + ("" if checksum_ok else " does not match")
    checks = [_check("golden_checksum", checksum_ok, checksum)]
    targets = [("cell", genus, q, count, "expected") for genus, q, count in cells]
    if extend:
        targets += [("extend", g, q, rep_class(g)(q), "closed form") for g, q in EXTEND_CELLS]
    for _, genus, q, _, _ in targets:
        _check_printable(genus, q)
    genera: dict[int, set[int]] = {}  # the genera asked of each q, kept from its one chain
    for _, genus, q, _, _ in targets:
        if genus < 1:
            raise ValueError("genus must be >= 1")
        genera.setdefault(q, set()).add(genus)
    chains = _semi_chains(budget, genera)
    computed_cells = []
    for kind, genus, q, expected, source in targets:
        count = chains[q][genus]
        details = f"{source} {expected}, counted {count}"
        checks.append(_check(f"{kind}_g{genus}_q{q}", count == expected, details))
        computed_cells.append(
            {"genus": genus, "q": q, "expected": str(expected), "count": str(count)}
        )
    inputs = {"extend": extend, "golden": golden_path or "packaged", "guard": guard}
    return Report("table", inputs, {"cells": computed_cells}, checks, rows=computed_cells)


def cmd_verify(genus_max: int, guard: int = DEFAULT_GUARD) -> Report:
    """Cross-check the three methods up to the requested genus.

    Stratification is checked against the transfer matrix at every genus up
    to ``genus_max``, from one sweep of gluing, interpolation at genus 1-3
    and the table oracle against ``semi`` at genus 1-2 over F_q, q = 2-5.
    Every ``semi`` count is read from one chain per q of the largest
    interpolation plan (:func:`_semi_chains`), and only the oracle's four
    fields are built.  One :func:`~affrep.affcount.oracle_counts` sweep per
    table gives the oracle's counts and its handle commutators h, which must
    equal ``semi``'s :func:`~affrep.affcount.handle_distribution`; h at the
    identity, the commuting pairs tallied one by one, must also equal |G|
    k(G) from the table's :func:`~affrep.affcount.conjugacy_classes`, by the
    class equation.  Each class is printed once, in ``rep_classes``.  One
    budget takes every charge; the chains' and the sweeps' total is refused
    before any field, table or polynomial work.
    """
    if genus_max < 1:
        raise ValueError("genus-max must be >= 1")
    budget = Budget(guard)
    matrix, surfaces = build_transfer(), range(1, genus_max + 1)
    # rep_class builds each class, printed once, in rep_classes; the checks print its degree
    _charge_gluing(budget, genus_max)
    interp_genus, oracle_genus = min(genus_max, 3), min(genus_max, 2)
    # the largest plan holds every smaller plan's orders, among them the oracle's 2-5
    genera = dict.fromkeys(smallest_prime_powers(4 * interp_genus), range(1, interp_genus + 1))
    steps = sum(count_charge(p**n, oracle_genus, "naive")[0] for p, n in ORACLE_FIELDS)
    what = f"the semi chains and {steps} steps of table oracle sweeps at g = {oracle_genus}"
    chains = _semi_chains(budget, genera, what, steps)
    _check_printable(genus_max)
    sweeps = {}
    for p, n in ORACLE_FIELDS:
        table, ident = aff_group_table(make_field(p, n))
        counts, h = oracle_counts(table, ident, oracle_genus, budget)
        # the sweep validated the table, so each row holds the identity once, at the inverse
        inv = [row.index(ident) for row in table]
        sweeps[p**n] = (ident, counts, h, len(table), len(conjugacy_classes(table, inv)))
    # each class is compared as the sweep yields it and kept only as its text,
    # but for the interpolations' genera
    checks, rep_classes, geometric = [], {}, {}
    for g, transfer in surface_classes(matrix, surfaces):
        expected = rep_class(g)
        checks.append(_same_class(f"stratification_vs_transfer_g{g}", expected, transfer))
        rep_classes[str(g)] = str(expected)
        if g <= interp_genus:
            geometric[g] = expected
    for g in range(1, interp_genus + 1):
        samples = [(q, chains[q][g]) for q in smallest_prime_powers(4 * g)]
        interp = epoly_from_samples(g, samples)
        checks.append(_same_class(f"interpolation_vs_stratification_g{g}", interp, geometric[g]))
    for g in range(1, oracle_genus + 1):
        for q, (_, naive_counts, *_) in sweeps.items():
            naive, semi = naive_counts[g - 1], chains[q][g]
            checks.append(_check(f"naive_vs_semi_g{g}_q{q}", naive == semi, f"{naive} vs {semi}"))
    for q, (ident, _, h, order, classes) in sweeps.items():
        # semi and tqft assume one handle's commutator is a translation, equally
        # often each nonzero one, (N0, N1) times; the oracle's h, from the
        # table alone, tests it
        translations = range(ident, ident + q)  # (1, b) has index ident + idx(b)
        outside = sum(n for z, n in h.items() if z not in translations)
        nonzero = sorted({h[t] for t in translations[1:]})
        details = (
            f"h = {h[ident]} at the identity, {nonzero} on the {q - 1} other "
            f"translations, {outside} off the translation subgroup"
        )
        ok = outside == 0 and [h[ident], *nonzero] == list(handle_distribution(q))
        checks.append(_check(f"handle_commutators_on_translations_q{q}", ok, details))
        details = f"{h[ident]} commuting pairs vs |G| k(G) = {order} * {classes}"
        checks.append(_check(f"class_equation_q{q}", h[ident] == order * classes, details))
    inputs = {"genus_max": genus_max, "guard": guard}
    return Report("verify", inputs, {"rep_classes": rep_classes}, checks)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        digits = sum(map(str.isdecimal, text))
        raise ValueError(f"expected a positive integer, got {echo_int(text, digits)}")
    return value


# An option's kind is how its value is read: FLAG takes no value and sets
# True, a tuple lists the accepted choices, anything else is a function of
# the value's text.  REQUIRED marks an option with no default.
FLAG = None
REQUIRED = object()

_GENUS = {"--genus": (_positive_int, REQUIRED, "surface genus g")}
_COMMON = {
    "--pretty": (FLAG, False, "human-readable output"),
    "--guard": (_positive_int, DEFAULT_GUARD, "enumeration budget"),
}
_TABULAR = {**_COMMON, "--output": (("json", "csv"), "json", "output format")}

# each subcommand's help line and its options: name -> (kind, default, help)
COMMAND_LINE = {
    "count": (
        "count points over one finite field",
        {
            "--field": (str, REQUIRED, "field descriptor p^n, e.g. 3^2"),
            **_GENUS,
            "--engine": (ENGINES, "semi", "counting engine"),
            "--show-modulus": (FLAG, False, "include the field modulus in the output"),
            **_TABULAR,
        },
    ),
    "epoly": (
        "counting polynomial via exact interpolation",
        {
            **_GENUS,
            "--plan": (str, None, "comma-separated prime powers, e.g. 2,3,4,5"),
            "--engine": (ENGINES, None, "counting engine of a plan (default semi)"),
            "--counts": (str, None, "CSV file of q,count samples instead of counting"),
            **_TABULAR,
        },
    ),
    "tqft": (
        "transfer-matrix virtual class",
        {
            **_GENUS,
            "--show-matrix": (FLAG, False, "include the transfer matrix"),
            "--verify-eigen": (FLAG, False, "check the eigenvalue identities"),
            "--reconstruct": (FLAG, False, "rebuild the matrix from genus 1-3 classes"),
            **_COMMON,
        },
    ),
    "classes": ("representation/moduli/character classes", {**_GENUS, **_COMMON}),
    "table": (
        "recompute and check the reference count table",
        {
            "--extend": (FLAG, False, "also fill the blank cells"),
            "--golden": (str, None, "path to an alternative golden CSV"),
            **_TABULAR,
        },
    ),
    "verify": (
        "cross-check the three methods",
        {"--genus-max": (_positive_int, 3, "highest genus to check"), **_COMMON},
    ),
}

DESCRIPTION = (
    "Exact classes and point counts of rank-one affine representation varieties\n"
    "of surface groups."
)


def _metavar(name: str, kind) -> str:
    if kind is FLAG:
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {name[2:].replace('-', '_').upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: affrep [-h] [--version] {{{','.join(COMMAND_LINE)}}} ..."
    parts = (
        _metavar(name, kind) if default is REQUIRED else f"[{_metavar(name, kind)}]"
        for name, (kind, default, _) in COMMAND_LINE[command][1].items()
    )
    return f"usage: affrep {command} [-h] {' '.join(parts)}"


def _help(command: str | None) -> str:
    """The help of the root (``command`` None) or of one subcommand."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        options.append(("--version", "show the version and exit"))
        commands = [f"  {name:20}  {help_line}" for name, (help_line, _) in COMMAND_LINE.items()]
        body = [DESCRIPTION, "", "commands:", *commands]
    else:
        help_line, table = COMMAND_LINE[command]
        options += [(_metavar(name, kind), text) for name, (kind, _, text) in table.items()]
        body = [help_line]
    # a name wider than its column puts its help on the next line
    rows = [f"  {n:20}  {t}" if len(n) <= 20 else f"  {n}\n{'':24}{t}" for n, t in options]
    return "\n".join([_usage(command), "", *body, "", "options:", *rows])


def _usage_error(command: str | None, message: str):
    sys.stderr.write(f"{_usage(command)}\naffrep: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against :data:`COMMAND_LINE`: a subcommand, then its options.

    A value follows its option as ``--opt value`` (not starting with ``--``)
    or ``--opt=value``; the last of a repeated option counts.  Help and
    ``--version`` exit 0; a usage error prints the usage line and one
    ``affrep: error:`` line on stderr and exits 2.  An option's value is
    returned under its name without dashes, e.g. ``genus_max``.
    """
    first = argv[0] if argv else None
    if first in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if first == "--version":
        print(f"affrep {__version__}")
        raise SystemExit(0)
    if first not in COMMAND_LINE:
        what = "a command is required" if first is None else f"unknown command {first!r}"
        _usage_error(None, f"{what} (choose from {', '.join(COMMAND_LINE)})")
    table = COMMAND_LINE[first][1]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(first))
            raise SystemExit(0)
        name, eq, text = token.partition("=") if token.startswith("--") else (token, "", "")
        if name not in table:
            _usage_error(first, f"unrecognized argument {token!r}")
        kind = table[name][0]
        if kind is FLAG:
            if eq:
                _usage_error(first, f"argument {name}: takes no value, got {text!r}")
            values[name] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _usage_error(first, f"argument {name}: expected one value")
        if isinstance(kind, tuple) and text not in kind:
            choices = f"choose from {', '.join(kind)}"
            _usage_error(first, f"argument {name}: invalid choice {text!r} ({choices})")
        try:
            values[name] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            _usage_error(first, f"argument {name}: {exc}")
    missing = [n for n, (_, default, _) in table.items() if default is REQUIRED and n not in values]
    if missing:
        _usage_error(first, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(
        command=first,
        **{n[2:].replace("-", "_"): values.get(n, default) for n, (_, default, _) in table.items()},
    )


def _emit_csv(rows: list[dict]) -> None:
    out = csv_writer(sys.stdout)
    if rows:
        out.writerow(rows[0].keys())
        for row in rows:
            out.writerow(row.values())


def _emit_pretty(report: Report) -> None:
    for key, value in report.results.items():
        if isinstance(value, dict):
            value = [f"{name}: {item}" for name, item in value.items()]
        if isinstance(value, list) and value and not isinstance(value[0], int):
            print(f"{key}:")
            for item in value:
                print(f"  {item if isinstance(item, str) else json.dumps(item)}")
        else:
            print(f"{key}: {value}")
    for check in report.checks:
        status = "pass" if check["pass"] else "FAIL"
        print(f"{status:4}  {check['name']}  {check['details']}")
    print(f"{'all checks pass' if report.passed else 'FAILURES PRESENT'}")


def _emit_report(report: Report, args) -> int:
    if getattr(args, "output", "json") == "csv":
        _emit_csv(report.rows)
    elif args.pretty:
        _emit_pretty(report)
    else:
        print(json.dumps(report.as_json()))
    return 0 if report.passed else 1


COMMANDS = {
    "count": lambda a: cmd_count(a.field, a.genus, a.engine, a.show_modulus, a.guard),
    "epoly": lambda a: cmd_epoly(a.genus, a.plan, a.engine, a.counts, a.guard),
    "tqft": lambda a: cmd_tqft(a.genus, a.show_matrix, a.verify_eigen, a.reconstruct, a.guard),
    "classes": lambda a: cmd_classes(a.genus, a.guard),
    "table": lambda a: cmd_table(a.extend, a.golden, a.guard),
    "verify": lambda a: cmd_verify(a.genus_max, a.guard),
}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _emit_report(COMMANDS[args.command](args), args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
