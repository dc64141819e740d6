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

from . import entropy, states, bounds, verify
from .entropy import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *entropy.__all__, *states.__all__, *bounds.__all__, *verify.__all__]
