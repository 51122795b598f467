"""minfinity: augment a zero-minimum loss with two auxiliary scalars so that
every finite critical point of the result certifies a global minimum of the
base loss, while strictly positive local minima turn into minima at infinity.
"""

from .augment import (AugConfig, AugEval, AugGradient, AugPoint,
                      SaturationError, Thresholds, evaluate, gradient)
from .fields import (BadMinimum, DimensionError, DomainError, FieldError,
                     NonFiniteError, NormalizationError, ScalarField,
                     field_names, get_field, normalize, zero_min_field_names)
from .landscape import (ContourGrid, CriticalPointReport, find_critical_points,
                        probe_infimum, sample_contour, stationarity_scan)
from .optimize import (OptimizerSpec, OutcomeLabel, Trajectory,
                       classify_trajectory, compare_baseline, run_optimizer,
                       run_plain)

__version__ = "0.1.0"

__all__ = [
    "AugConfig", "AugEval", "AugGradient", "AugPoint", "BadMinimum",
    "ContourGrid", "CriticalPointReport", "DimensionError", "DomainError",
    "FieldError", "NonFiniteError", "NormalizationError", "OptimizerSpec",
    "OutcomeLabel", "SaturationError", "ScalarField", "Thresholds",
    "Trajectory", "classify_trajectory", "compare_baseline", "evaluate",
    "field_names", "find_critical_points", "get_field",
    "gradient", "normalize", "probe_infimum", "run_optimizer", "run_plain",
    "sample_contour", "stationarity_scan", "zero_min_field_names",
    "__version__",
]
