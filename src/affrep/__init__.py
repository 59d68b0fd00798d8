"""Exact computation of virtual classes and point counts of rank-one affine
representation varieties of closed orientable surfaces.

Three independent methods are implemented and cross-verified: stratification
closed forms (:mod:`affrep.geomstrat`), finite-field point counting with
exact interpolation (:mod:`affrep.affcount`, :mod:`affrep.interpolate`), and
a transfer-matrix computation (:mod:`affrep.tqft`).  All arithmetic is exact
(arbitrary-precision integers); nothing here rounds.
"""

from .affcount import (
    AffElem,
    BudgetExceeded,
    CountRecord,
    InvalidGroupTable,
    aff_elements,
    aff_group_table,
    aff_identity,
    commutator,
    commutator_distribution,
    count_closed,
    count_group_generic,
    count_naive,
    count_points,
    count_semi,
)
from .exactpoly import (
    ONE,
    Q,
    ZERO,
    DimensionMismatch,
    IntPoly,
    NotDivisible,
    PolyMatrix,
)
from .finitefield import (
    FieldMismatch,
    FieldSpec,
    FqElem,
    InverseOfZero,
    NotPrime,
    OrderTooLarge,
    make_field,
)
from .geomstrat import (
    GenusOutOfRange,
    character_class,
    moduli_class,
    rep_class,
    xs_closed,
    xs_recursive,
)
from .interpolate import (
    DuplicateAbscissa,
    EPolyResult,
    ExtraPointMismatch,
    NonIntegerCoefficients,
    SamplePlan,
    default_plan,
    epoly_from_counts,
    epoly_from_samples,
    lagrange_interpolate,
)
from .tqft import (
    LOCALIZATION_CAVEAT,
    CircleState,
    ReconstructionError,
    TransferConsistencyError,
    TransferData,
    apply_transfer,
    build_transfer,
    close_surface,
    eigen_verify,
    reconstruct_transfer,
)

__version__ = "0.1.0"
