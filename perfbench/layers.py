"""Which ``affrep`` functions the traced run wraps, and the per-layer metrics.

Span names are ``module.function`` or ``module.Class.method``.  Times are
self times (span duration minus the time of its child spans), so every
traced second lands in exactly one layer.  The one exception is
``interpolate.count_s``, the whole time of the counting step of the
interpolation path (``count_points`` called from ``epoly_from_counts``),
which is inclusive so that ``count_s`` and ``lagrange_s`` split an
``epoly`` run in two.

``affcount.tuples_visited`` is computed from (engine, q, genus) of each
engine call, not counted inside the loops.
"""

from __future__ import annotations

from spans import Target


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _tuples(size, genus_pos: int):
    # size(args, kwargs) is the number of values one of the 2g coordinates ranges over
    def note(rec, args, kwargs, result, idx):
        genus = _arg(args, kwargs, genus_pos, "genus")
        rec.count("affcount.tuples_visited", size(args, kwargs) ** (2 * genus))

    return note


def _semi_size(args, kwargs):
    return _arg(args, kwargs, 0, "field").order - 1


def _naive_size(args, kwargs):
    q = _arg(args, kwargs, 0, "field").order
    return q * (q - 1)


def _generic_size(args, kwargs):
    return len(_arg(args, kwargs, 0, "table"))


def _points(rec, args, kwargs, result, idx):
    rec.count("interpolate.points", len(_arg(args, kwargs, 0, "points")))


def _coeff_bits(rec, args, kwargs, result, idx):
    cs = result.coeffs
    if cs:
        rec.peak("exactpoly.max_coeff_bits", max(max(cs), -min(cs)).bit_length())


LAYER_TARGETS = (
    Target("finitefield", "make_field"),
    Target("finitefield", "FqElem.__mul__"),
    Target("finitefield", "FqElem.__add__"),
    Target("finitefield", "FqElem.__sub__"),
    Target("finitefield", "FqElem.__neg__"),
    Target("finitefield", "FqElem.__pow__"),
    Target("finitefield", "FqElem.inv"),
    Target("affcount", "count_points"),
    Target("affcount", "count_semi", _tuples(_semi_size, 1)),
    Target("affcount", "count_naive", _tuples(_naive_size, 1)),
    Target("affcount", "count_group_generic", _tuples(_generic_size, 2)),
    Target("affcount", "aff_group_table"),
    Target("affcount", "validate_group_table"),
    Target("affcount", "AffElem.__mul__"),
    Target("interpolate", "epoly_from_counts"),
    Target("interpolate", "epoly_from_samples"),
    Target("interpolate", "lagrange_interpolate", _points),
    Target("exactpoly", "IntPoly.__mul__", _coeff_bits),
    Target("exactpoly", "IntPoly.exact_div"),
    Target("exactpoly", "RatPoly.__mul__"),
    Target("exactpoly", "PolyMatrix.__pow__"),
    Target("tqft", "build_transfer"),
    Target("tqft", "close_surface"),
    Target("tqft", "eigen_verify"),
    Target("tqft", "reconstruct_transfer"),
    Target("geomstrat", "rep_class"),
    Target("cli", "load_golden_table"),
)

# span opened by the benchmark around each CLI command
ROOT_SPAN = "cli.main"


def _spot_count(engine: str):
    # marks e.g. affcount.semi_g3_q19_s with the duration of that call
    def note(rec, args, kwargs, result, idx):
        genus, field = _arg(args, kwargs, 1, "genus"), _arg(args, kwargs, 0, "field")
        rec.mark(f"affcount.{engine}_g{genus}_q{field.order}_s", idx)

    return note


def _spot_close(rec, args, kwargs, result, idx):
    rec.mark(f"tqft.close_surface_g{_arg(args, kwargs, 0, 'genus')}_s", idx)


# The spot pass wraps only these, so the calls are timed without nested spans.
SPOT_TARGETS = (
    Target("affcount", "count_semi", _spot_count("semi")),
    Target("affcount", "count_naive", _spot_count("naive")),
    Target("tqft", "close_surface", _spot_close),
)
SPOT_METRICS = ("affcount.semi_g3_q19_s", "affcount.naive_g2_q5_s", "tqft.close_surface_g240_s")

_FF = "finitefield.FqElem."
_CALLS = {
    "finitefield.mul_calls": (_FF + "__mul__",),
    "finitefield.add_calls": (_FF + "__add__", _FF + "__sub__"),
    "finitefield.inv_calls": (_FF + "inv",),
    "finitefield.make_field_calls": ("finitefield.make_field",),
    "affcount.semi_calls": ("affcount.count_semi",),
    "affcount.naive_calls": ("affcount.count_naive",),
    "affcount.generic_calls": ("affcount.count_group_generic",),
    "affcount.affelem_mul_calls": ("affcount.AffElem.__mul__",),
    "interpolate.epoly_calls": ("interpolate.epoly_from_samples",),
    "exactpoly.ratpoly_mul_calls": ("exactpoly.RatPoly.__mul__",),
    "exactpoly.intpoly_mul_calls": ("exactpoly.IntPoly.__mul__",),
    "exactpoly.exact_div_calls": ("exactpoly.IntPoly.exact_div",),
}
_SELF_S = {
    "finitefield.arith_s": tuple(
        _FF + m for m in ("__mul__", "__add__", "__sub__", "__neg__", "__pow__", "inv")
    ),
    "finitefield.make_field_s": ("finitefield.make_field",),
    "affcount.semi_s": ("affcount.count_semi",),
    "affcount.naive_s": ("affcount.count_naive",),
    "affcount.generic_s": ("affcount.count_group_generic",),
    "affcount.group_table_s": ("affcount.aff_group_table",),
    "affcount.validate_table_s": ("affcount.validate_group_table",),
    "interpolate.lagrange_s": ("interpolate.lagrange_interpolate",),
    "exactpoly.ratpoly_mul_s": ("exactpoly.RatPoly.__mul__",),
    "exactpoly.intpoly_mul_s": ("exactpoly.IntPoly.__mul__",),
    "exactpoly.exact_div_s": ("exactpoly.IntPoly.exact_div",),
    "exactpoly.matpow_s": ("exactpoly.PolyMatrix.__pow__",),
    "tqft.build_transfer_s": ("tqft.build_transfer",),
    "tqft.close_surface_s": ("tqft.close_surface",),
    "tqft.eigen_verify_s": ("tqft.eigen_verify",),
    "tqft.reconstruct_s": ("tqft.reconstruct_transfer",),
    "geomstrat.rep_class_s": ("geomstrat.rep_class",),
    "cli.self_s": (ROOT_SPAN,),
    "cli.golden_load_s": ("cli.load_golden_table",),
}
_UNDER = {"interpolate.count_s": ("interpolate.epoly_from_counts", "affcount.count_points")}
_COUNTERS = ("affcount.tuples_visited", "interpolate.points")
_PEAKS = ("exactpoly.max_coeff_bits",)

# every per-layer metric with its unit, in reporting order
PER_LAYER = (
    [(name, "count") for name in _CALLS]
    + [(name, "s") for name in _SELF_S]
    + [(name, "s") for name in _UNDER]
    + [(name, "count") for name in _COUNTERS]
    + [("exactpoly.max_coeff_bits", "bits")]
    + [("cli.stdout_bytes", "bytes"), ("proc.cpu_s", "s"), ("trace.overhead_ratio", "ratio")]
    + [(name, "s") for name in SPOT_METRICS]
)


def pass_layers(report: dict) -> dict[str, float]:
    """The span-derived per-layer values of one traced pass."""
    by_name = report["by_name"]
    out: dict[str, float] = {}
    for metric, names in _CALLS.items():
        out[metric] = sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)
    for metric, names in _SELF_S.items():
        out[metric] = sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)
    for metric, (parent, child) in _UNDER.items():
        out[metric] = sum(t for p, c, t in report["under"] if p == parent and c == child)
    for metric in _COUNTERS:
        out[metric] = report["counters"].get(metric, 0)
    for metric in _PEAKS:
        out[metric] = report["peaks"].get(metric, 0)
    return out
