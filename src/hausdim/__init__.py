"""Certified Hausdorff-dimension brackets for 1-D iterated function systems.

The pipeline: an IFS family (ifs) yields derivative-ratio bounds on the
transfer operator's positive eigenfunction (bounds), which drive the
rigorous interpolation corrections of the collocation matrices
(discretize); Collatz-Wielandt power iteration encloses their spectral
radii (spectral) and a safeguarded secant solve brackets the dimension
(solver).  higher_order adds the non-certified degree-d collocation
study and cli the command-line front end.
"""

from .bounds import (
    BoundConstants,
    BoundPlan,
    RatioBoundPair,
    bound_M1,
    bound_M2,
    cantor_constants,
    general_constants,
    mobius_ratio_bounds,
    ratio_bounds,
    refined_M2_upper,
)
from .discretize import (
    CollocationPlan,
    ErrorModel,
    MatrixTriple,
    Mesh,
    SparseNonnegMatrix,
    assemble,
    collocation_plan,
    dump_matrix,
    error_model,
    interp_weights,
    make_mesh,
    row_sums,
)
from .errors import (
    BadIndex,
    BadParams,
    ConfigError,
    EmptyFamily,
    ErrTooLarge,
    HausdimError,
    MapEscapesDomain,
    MissingDerivatives,
    NegativeEntry,
    NoContractionBound,
    NonPositiveDigit,
    NonPositiveVector,
    NoSignChange,
    NumericError,
    OutOfDomain,
    ParamOutOfRange,
    PowerDivergence,
    ZeroRowSum,
)
from .higher_order import (
    HighOrderMatrix,
    HighOrderResult,
    assemble_highorder,
    dominant_magnitude,
    highorder_dimension,
)
from .ifs import (
    Continuants,
    MapFamily,
    MapSpec,
    apply_word,
    continuants,
    eval_map,
    make_cantor_family,
    make_custom_family,
    make_mobius_family,
    reduce_domain,
)
from .solver import (
    ConvergenceStudy,
    DimensionBracket,
    bracket_dimension,
    convergence_study,
    enclosure_at,
    log_radius,
    radius,
    solve_root,
)
from .spectral import (
    ConeParams,
    SpectralEnclosure,
    collatz_wielandt,
    cone_membership,
    hilbert_metric,
    logconvex_check,
    power_enclosure,
)

__version__ = "0.1.0"
