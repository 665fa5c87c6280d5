"""Sandwiched Renyi entropies, protocol simulation, and converse bounds."""

import os as _os


def _thread_cap():
    """``RENYI_SC_THREADS`` as an int (0 = auto), or None when it is not an integer >= 0."""
    try:
        n = int(_os.environ.get("RENYI_SC_THREADS", "0"))
    except ValueError:
        return None
    return n if n >= 0 else None


# RENYI_SC_THREADS=n caps the BLAS/OpenMP pools, which read these variables
# once, when numpy loads: so before the first import here that loads numpy
_cap = _thread_cap()
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_cap))

from .bounds import (
    BoundEntry,
    BoundReport,
    ExponentCurve,
    converse_bound,
    exponent_curve,
    vn_limit_check,
)
from .channels import (
    ChannelSpec,
    apply_channel,
    apply_channels,
    channel_from_kraus,
    dephasing_channel,
    identity_channel,
    isometry_channel,
    measurement_channel,
)
from .entropies import (
    AlphaParams,
    OptimizedValue,
    OptimizerConfig,
    alpha_params,
    cmi_generalizations,
    conditional_entropy,
    conditional_mutual_information,
    mutual_information,
    quantum_relative_entropy,
    renyi_entropy,
    sandwiched_divergence,
    von_neumann_entropy,
)
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionMismatchError,
    InvalidChannelError,
    NotPositiveSemidefiniteError,
    RenyiscError,
    UsageError,
)
from .harness import (
    Counterexample,
    SuiteReport,
    brute_force_min_divergence,
    check_protocol_bounds,
    falsify_bound_comparison,
    run_inequality_suite,
)
from .linalg import fidelity, purify, schatten_norm
from .protocols import (
    KINDS,
    ProtocolInstance,
    ProtocolOutcome,
    ideal_measurement_state,
    pretty_good_decoder,
    run_protocol,
    specialize,
)
from .spaces import (
    LabeledOperator,
    SystemSpace,
    density_operator,
    embed,
    identity,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_systems,
)

__all__ = [
    "AlphaParams",
    "BoundEntry",
    "BoundReport",
    "BudgetExceededError",
    "ChannelSpec",
    "ConvergenceError",
    "Counterexample",
    "DimensionMismatchError",
    "ExponentCurve",
    "InvalidChannelError",
    "KINDS",
    "LabeledOperator",
    "NotPositiveSemidefiniteError",
    "OptimizedValue",
    "OptimizerConfig",
    "ProtocolInstance",
    "ProtocolOutcome",
    "RenyiscError",
    "SuiteReport",
    "SystemSpace",
    "UsageError",
    "apply_channel",
    "apply_channels",
    "brute_force_min_divergence",
    "channel_from_kraus",
    "check_protocol_bounds",
    "converse_bound",
    "dephasing_channel",
    "exponent_curve",
    "falsify_bound_comparison",
    "ideal_measurement_state",
    "identity_channel",
    "isometry_channel",
    "measurement_channel",
    "pretty_good_decoder",
    "run_inequality_suite",
    "run_protocol",
    "specialize",
    "vn_limit_check",
    "alpha_params",
    "cmi_generalizations",
    "conditional_entropy",
    "conditional_mutual_information",
    "density_operator",
    "embed",
    "fidelity",
    "identity",
    "maximally_entangled",
    "maximally_mixed",
    "mutual_information",
    "partial_trace",
    "permute_systems",
    "purify",
    "quantum_relative_entropy",
    "renyi_entropy",
    "sandwiched_divergence",
    "schatten_norm",
    "von_neumann_entropy",
]

__version__ = "0.1.0"
