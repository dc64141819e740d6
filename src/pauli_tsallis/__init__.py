"""Tsallis-entropy uncertainty and certainty bounds for the Pauli triple.

Measuring sigma_x, sigma_y and sigma_z on a qubit yields three binary
outcome distributions.  This package computes their Tsallis entropies of
any order alpha > 0, the state-independent lower and upper bounds on the
three-entropy sum (with tightness and equality conditions), the rescaled
average-entropy band, and a brute-force grid oracle that independently
verifies every bound, equality condition and monotonicity/concavity
property.  A CLI exposes evaluation, bound reporting, CSV band/table
output and the verification suite.
"""

from .bounds import (
    BoundSet,
    UnsupportedAlphaError,
    bound_set,
    h_tilde,
    integer_order,
    interpolated_lower_bound,
    kernel_f,
    kernel_g,
    rescaled_band,
)
from .entropy import (
    ProbPair,
    TsallisParam,
    alpha_log,
    as_param,
    h_alpha,
    pair_entropy,
    phi,
    tsallis_entropy,
)
from .states import (
    BlochVector,
    MeasurementTriple,
    PureStateAngles,
    StateLike,
    bloch_from_angles,
    canonicalize_to_D,
    eigenstate_witnesses,
    measurement_triple,
    probs_from_angles,
    probs_from_bloch,
)
from .verify import (
    DEFAULT_SEED,
    GridSpec,
    ScanReport,
    certify_equality_conditions,
    check_alpha_concavity,
    check_kernel_monotonicity,
    entropic_sum,
    full_domain_orders,
    g_sum,
    refined_maximum,
    sample_mixed_states,
    sample_pure_states,
    scan_extrema,
    scan_full_domain_consistency,
    scan_orders,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TsallisParam",
    "ProbPair",
    "as_param",
    "alpha_log",
    "h_alpha",
    "pair_entropy",
    "tsallis_entropy",
    "phi",
    "PureStateAngles",
    "BlochVector",
    "MeasurementTriple",
    "StateLike",
    "probs_from_angles",
    "probs_from_bloch",
    "measurement_triple",
    "bloch_from_angles",
    "canonicalize_to_D",
    "eigenstate_witnesses",
    "BoundSet",
    "UnsupportedAlphaError",
    "bound_set",
    "interpolated_lower_bound",
    "h_tilde",
    "rescaled_band",
    "kernel_f",
    "kernel_g",
    "integer_order",
    "GridSpec",
    "ScanReport",
    "DEFAULT_SEED",
    "entropic_sum",
    "g_sum",
    "scan_extrema",
    "scan_orders",
    "scan_full_domain_consistency",
    "full_domain_orders",
    "certify_equality_conditions",
    "check_kernel_monotonicity",
    "check_alpha_concavity",
    "refined_maximum",
    "sample_pure_states",
    "sample_mixed_states",
]
