"""Nearest-singularity radar for polynomial homotopies.

The package estimates the parameter value where the tracked solution path
of a homotopy breaks down, from nothing but Taylor coefficients of the
path: ratios of consecutive coefficients converge to the singular value
and Richardson extrapolation accelerates them. Supporting layers supply
double-double scalars, truncated series, polynomial systems, a predictor
corrector tracker, circle sampling with inverse DFTs, and exact solving
of binomial start systems.
"""

from .errors import (
    BranchJump,
    DivisionByZero,
    EvaluationSingular,
    InconclusiveRadar,
    InvalidArgument,
    NoConvergence,
    NotApplicable,
    OverflowRisk,
    SingradarError,
    SingularExponentMatrix,
    SingularJacobian,
    StepUnderflow,
)
from .fourier import (
    CircleSamples,
    default_step,
    direct_inverse_dft,
    inverse_dft,
    sample_circle,
    taylor_coefficients,
)
from .monomial import (
    IntMatrix,
    NormalFormResult,
    det,
    hermite_normal_form,
    identity,
    smith_normal_form,
    solve_binomial,
)
from .polysys import (
    DEFAULT_GAMMA,
    EXPLICIT_T,
    Homotopy,
    Monomial,
    PolySystem,
    Term,
    TMonomial,
    binomial_parts,
    evaluate,
    fixture,
    homotopy_from_json,
    homotopy_to_json,
    make_gamma_homotopy,
)
from .radar import (
    COEFFICIENTS_VANISH,
    CONVERGED,
    INCONCLUSIVE,
    RadarRun,
    RadiusEstimate,
    RichardsonTable,
    detect_last_pole,
    fabry_estimate,
    locate_singularity,
    recondition,
    richardson,
    scale_to_unit,
)
from .scalars import DOUBLE, EXTENDED, ExtComplex, ExtReal, is_extended, promote
from .series import TruncatedSeries
from .tracker import (
    PathState,
    TrackerConfig,
    default_config,
    newton_correct,
    track_to,
)

__version__ = "0.1.0"

__all__ = [
    "BranchJump",
    "CircleSamples",
    "COEFFICIENTS_VANISH",
    "CONVERGED",
    "DEFAULT_GAMMA",
    "DOUBLE",
    "DivisionByZero",
    "EXPLICIT_T",
    "EXTENDED",
    "EvaluationSingular",
    "ExtComplex",
    "ExtReal",
    "Homotopy",
    "INCONCLUSIVE",
    "InconclusiveRadar",
    "IntMatrix",
    "InvalidArgument",
    "Monomial",
    "NoConvergence",
    "NormalFormResult",
    "NotApplicable",
    "OverflowRisk",
    "PathState",
    "PolySystem",
    "RadarRun",
    "RadiusEstimate",
    "RichardsonTable",
    "SingradarError",
    "SingularExponentMatrix",
    "SingularJacobian",
    "StepUnderflow",
    "Term",
    "TMonomial",
    "TrackerConfig",
    "TruncatedSeries",
    "binomial_parts",
    "default_config",
    "default_step",
    "det",
    "detect_last_pole",
    "direct_inverse_dft",
    "evaluate",
    "fabry_estimate",
    "fixture",
    "hermite_normal_form",
    "homotopy_from_json",
    "homotopy_to_json",
    "identity",
    "inverse_dft",
    "is_extended",
    "locate_singularity",
    "make_gamma_homotopy",
    "newton_correct",
    "promote",
    "recondition",
    "richardson",
    "sample_circle",
    "scale_to_unit",
    "smith_normal_form",
    "solve_binomial",
    "taylor_coefficients",
    "track_to",
]
