"""Metrology figures of merit for photon-subtracted, photon-added, and
photon-catalyzed two-mode squeezed vacuum states.

The analytic layer computes heralding probabilities, Wigner functions,
quadrature moments, quantum Fisher information, and parity-detection phase
sensitivities in a Mach-Zehnder interferometer from closed-form Gaussian
generating functions; an independent truncated Fock-space oracle validates
every route.
"""

from .analytics import (
    PhaseSpacePoint,
    SensitivityReport,
    WignerKernel,
    j2_second_moment,
    merit,
    moment,
    parity_expectation,
    phase_sensitivity,
    qcrb,
    qfi,
    sensitivity_report,
    success_probability,
    weighted_merit,
    wigner,
    wigner_polynomial,
)
from .dual import Dual
from .errors import (
    ConsistencyError,
    ConstructionError,
    DegenerateOperationError,
    DegenerateStateError,
    NGError,
    NormalizationError,
    ParameterError,
    StationaryPointError,
    TruncationError,
    UsageError,
)
from .model import (
    ModelParams,
    NGOperationSpec,
    derive_params,
    operation_from_table,
    tmsv_spec,
)
from .series import (
    DerivativeSpec,
    GeneratingExponent,
    coefficient_array,
    mixed_partial_at_zero,
)
from .sweep import (
    FIGURES,
    QUANTITIES,
    Axis,
    SweepRecord,
    SweepRequest,
    run_sweep,
    to_csv,
    to_json,
)

__version__ = "0.1.0"

__all__ = [
    "Dual",
    "GeneratingExponent",
    "DerivativeSpec",
    "coefficient_array",
    "mixed_partial_at_zero",
    "NGOperationSpec",
    "ModelParams",
    "tmsv_spec",
    "operation_from_table",
    "derive_params",
    "PhaseSpacePoint",
    "WignerKernel",
    "SensitivityReport",
    "success_probability",
    "wigner",
    "wigner_polynomial",
    "moment",
    "j2_second_moment",
    "qfi",
    "qcrb",
    "parity_expectation",
    "phase_sensitivity",
    "merit",
    "weighted_merit",
    "sensitivity_report",
    "Axis",
    "SweepRequest",
    "SweepRecord",
    "QUANTITIES",
    "FIGURES",
    "run_sweep",
    "to_csv",
    "to_json",
    "NGError",
    "ParameterError",
    "ConstructionError",
    "ConsistencyError",
    "DegenerateOperationError",
    "DegenerateStateError",
    "StationaryPointError",
    "TruncationError",
    "NormalizationError",
    "UsageError",
    "__version__",
]
