"""State-independent bounds on the sum of the three Pauli Tsallis entropies.

Lower bounds (uncertainty relations).  The entropic sum
H_alpha(x) + H_alpha(y) + H_alpha(z) is at least 2 ln_alpha(2) for every
alpha in (0, 1] and every integer alpha >= 2.  Both branches are tight:
equality holds exactly at the six Pauli eigenstates (and, for alpha = 2, 3,
at every pure state, where the sum is constant).  For non-integer
alpha > 1 only an interpolated bound is available, obtained from concavity
of the power-sum functional in alpha between neighbouring integers:

    2 (1 - 2^(1-n)) / (alpha - 1) + 2^(1-n) (alpha - n) / (alpha - 1),

with n = floor(alpha).  It coincides with the tight value at integers but
is not tight in between (in the limit alpha -> 1+ it gives 1 while the
tight bound is 2 ln 2).

Upper bounds (certainty relations).  For any state the sum is at most
3 ln_alpha(2), attained exactly at the completely mixed state.  In the
pure-state case the stronger bound 3 h_tilde(alpha) holds for
alpha in (0, 1] and integer alpha >= 2, where h_tilde(alpha) is the binary
Tsallis entropy of the pair ((1 + 1/sqrt3)/2, (1 - 1/sqrt3)/2); the
maximizer is the state whose three outcome distributions all equal that
pair.  For non-integer alpha > 1 no analytic pure-state upper bound is
returned; only an empirical grid estimate exists (see the verify module),
and it is kept clearly separate from the analytic results here.

Dividing by the per-observable scale ln_alpha(2) and averaging gives the
rescaled band [2/3, R_alpha] with R_alpha = h_tilde(alpha) / ln_alpha(2).

Kernels.  kernel_f and kernel_g are the kernels whose monotonicity
in u drives the optimization over the reduced rectangle: the azimuthal
derivative of the entropic sum is proportional to
u v [f_alpha(u) - f_alpha(v)], and its power-sum counterpart to
u v [g_alpha(u) - g_alpha(v)].  Both are even-power expansions in u with
strictly positive coefficients, which is what makes the kernels monotone.
Each is evaluated in one form with no subtraction, so neither cancels:
g_alpha as its finite polynomial on all of [0, 1], f_alpha through exp,
log1p, expm1 and atanh, which stays accurate near u = 0 and near
alpha = 1 (the Shannon order alpha = 1 keeps its exact form).  Both take a
float or a whole array, evaluated in one numpy pass whose values are
bitwise the float ones.  g_alpha grows like 2^(alpha-1); an order whose
coefficients or values exceed the float range (from about alpha = 1026
on) raises ValueError instead of returning inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .entropy import AlphaLike, ProbPair, TsallisParam, alpha_log, as_param, tsallis_entropy

__all__ = [
    "INTEGER_TOL",
    "MAXIMIZER_PAIR",
    "UnsupportedAlphaError",
    "BoundSet",
    "integer_order",
    "is_proven_order",
    "interpolated_lower_bound",
    "h_tilde",
    "rescaled_band",
    "kernel_f",
    "kernel_g",
    "bound_set",
]

# |alpha - round(alpha)| below this counts as an exact integer order.  The
# interpolated bound coincides with the tight one at integers, so the
# tie-break is value-neutral; it only decides the tightness flag.
INTEGER_TOL = 1e-12

_INV_SQRT3 = 1.0 / math.sqrt(3.0)

# Outcome pair of the pure-state maximizer: all three measurements yield
# this distribution (up to swapping) at the maximizing states.
MAXIMIZER_PAIR = ProbPair((1.0 + _INV_SQRT3) / 2.0, (1.0 - _INV_SQRT3) / 2.0)


class UnsupportedAlphaError(ValueError):
    """Raised when a bound is requested outside its proven validity range."""


def integer_order(alpha: AlphaLike) -> Optional[int]:
    """Return alpha as an int when it is integral within INTEGER_TOL, else None."""
    a = as_param(alpha).alpha
    n = round(a)
    if abs(a - n) < INTEGER_TOL:
        return int(n)
    return None


def is_proven_order(alpha: AlphaLike) -> bool:
    """True for alpha in (0, 1] and integer alpha >= 2, the proven range.

    There the lower bound 2 ln_alpha(2) is tight, the pure-state upper
    bound 3 h_tilde(alpha) and the rescaled band hold, and the equality
    conditions are certified.  Other orders get the interpolated lower
    bound and only empirical pure-state upper information.
    """
    a = as_param(alpha).alpha
    if a <= 1.0:
        return True
    n = integer_order(a)
    return n is not None and n >= 2


def interpolated_lower_bound(alpha: AlphaLike) -> float:
    """Concavity-interpolated lower bound on the entropic sum for alpha > 1.

    With n = floor(alpha), returns
    2 (1 - 2^(1-n))/(alpha - 1) + 2^(1-n) (alpha - n)/(alpha - 1).
    At integer alpha this equals the tight value 2 ln_alpha(2); between
    integers it is a valid but generally non-tight lower bound.
    """
    a = as_param(alpha).alpha
    if a <= 1.0:
        raise ValueError(f"interpolated bound requires alpha > 1, got {a!r}")
    n = math.floor(a)
    w = 2.0 ** (1 - n)
    return 2.0 * (1.0 - w) / (a - 1.0) + w * (a - n) / (a - 1.0)


def h_tilde(alpha: AlphaLike) -> float:
    """Per-observable entropy of the pure-state maximizer.

    The Tsallis entropy of the pair ((1 + 1/sqrt3)/2, (1 - 1/sqrt3)/2);
    3 h_tilde(alpha) is the pure-state maximum of the entropic sum for
    alpha in (0, 1] and integer alpha >= 2.
    """
    return tsallis_entropy(MAXIMIZER_PAIR, alpha)


def rescaled_band(alpha: AlphaLike) -> tuple[float, float]:
    """Endpoints (2/3, R_alpha) of the rescaled average-entropy band.

    For pure states the average of the three entropies, divided by the
    scale ln_alpha(2), ranges exactly over [2/3, R_alpha] with
    R_alpha = h_tilde(alpha) / ln_alpha(2).  Valid for alpha in (0, 1] and
    integer alpha >= 2 (where both endpoints are attained); any other
    alpha raises UnsupportedAlphaError.
    """
    bounds = bound_set(alpha)
    if bounds.r_alpha is None:
        raise UnsupportedAlphaError(
            f"rescaled band is proven only for alpha in (0, 1] and integer alpha >= 2, "
            f"got {bounds.alpha.alpha!r}"
        )
    return 2.0 / 3.0, bounds.r_alpha


def kernel_f(u: Union[float, np.ndarray], alpha: AlphaLike) -> Union[float, np.ndarray]:
    """Monotone kernel f_alpha(u) for entropic orders alpha in (0, 1].

    f_alpha(u) = ((1-u)^(alpha-1) - (1+u)^(alpha-1)) / ((1-alpha) u), with
    the Shannon form 2 atanh(u) / u at alpha = 1.  Defined on [0, 1);
    strictly increasing, with f_alpha(0) = 2 for every alpha.  Evaluated
    with b = alpha - 1 as

        -(1+u)^b expm1(-2 b atanh u) / (b u),

    which has no subtraction, so it keeps full precision near u = 0 and
    near alpha = 1 alike.  Below u = 1e-8 it returns 2.0, which is
    f_alpha(u) rounded: f_alpha(u) - 2 < 2 u^2 is below half an ulp of 2.

    u is a float or an array.  A float is evaluated as a one-element array,
    so its value is bitwise that of the same u in an array.  Raises
    ValueError naming the first u (in array order) outside [0, 1), NaN
    included.
    """
    a = as_param(alpha)
    if a.alpha > 1.0:
        raise ValueError(f"kernel_f requires alpha in (0, 1], got {a.alpha!r}")
    x = u.astype(float, copy=False) if isinstance(u, np.ndarray) else np.array([float(u)])
    bad = _first(x, np.logical_not((0.0 <= x) & (x < 1.0)))  # NaN included
    if bad is not None:
        raise ValueError(f"kernel_f requires u in [0, 1), got {bad!r}")
    v = np.maximum(x, 1e-8)  # keeps b u from underflowing; those points get 2.0
    if a.is_shannon:
        values = 2.0 * np.arctanh(v) / v
    else:
        b = a.alpha - 1.0
        values = -np.exp(b * np.log1p(v)) * np.expm1(-2.0 * b * np.arctanh(v)) / (b * v)
    values[x < 1e-8] = 2.0
    return values if isinstance(u, np.ndarray) else float(values[0])


@functools.lru_cache(maxsize=None)
def _kernel_g_coefficients(n: int) -> tuple[float, ...]:
    # Cached: each exact binomial costs O(n) big-integer work.
    # float() of the exact integer raises OverflowError beyond the float range
    return tuple(float(2 * math.comb(n - 1, 2 * k + 1)) for k in range(n // 2))


def _first(u: Union[float, np.ndarray], mask) -> Optional[float]:
    """The first u (in array order) where mask holds, or None."""
    if isinstance(u, np.ndarray):
        hits = u[mask]
        return float(hits[0]) if hits.size else None
    return u if mask else None


def kernel_g(u: Union[float, np.ndarray], alpha_int: AlphaLike) -> Union[float, np.ndarray]:
    """Monotone kernel g_alpha(u) for integer entropic orders alpha >= 1.

    g_alpha(u) = ((1+u)^(alpha-1) - (1-u)^(alpha-1)) / u on [0, 1], an even
    polynomial of degree alpha - 2 with positive coefficients
    2 C(alpha-1, 2k+1), which is evaluated term by term on all of [0, 1]:
    no subtraction, so no cancellation.  g_1 = 0, g_2 = 2, g_3 = 4
    identically (returned exactly); for alpha >= 4 the kernel strictly
    increases.

    u is a float or a 1-D array.  An array is evaluated in one numpy pass
    by the same IEEE operations, in the same order, as a float, so each of
    its values is bitwise kernel_g of that element.  Raises ValueError
    naming the first offending u (in array order) for u outside [0, 1] or
    NaN, and naming the order when a coefficient or a value exceeds the
    float range (g_alpha(1) = 2^(alpha-1), so from about alpha = 1026 on).
    """
    n = integer_order(alpha_int)
    if n is None or n < 1:
        raise ValueError(f"kernel_g requires an integer alpha >= 1, got {as_param(alpha_int).alpha!r}")
    x = u.astype(float, copy=False) if isinstance(u, np.ndarray) else float(u)
    bad = _first(x, np.logical_not((0.0 <= x) & (x <= 1.0)))  # NaN included
    if bad is not None:
        raise ValueError(f"kernel_g requires u in [0, 1], got {bad!r}")
    try:
        coefficients = _kernel_g_coefficients(n)
    except OverflowError:
        raise ValueError(
            f"kernel_g at alpha={float(n)!r}: a coefficient 2 C(alpha-1, 2k+1) exceeds the float range"
        ) from None
    # g_n(u) = sum_{k=0}^{floor(n/2)-1} 2 C(n-1, 2k+1) u^(2k)
    total = 0.0
    u2 = x * x
    upow = 1.0
    with np.errstate(over="ignore"):  # an overflow is reported below
        for c in coefficients:
            total += c * upow
            upow *= u2
    bad = _first(x, ~np.isfinite(total))
    if bad is not None:
        raise ValueError(f"kernel_g at alpha={float(n)!r} exceeds the float range at u={bad!r}")
    # g_1, g_2 and g_3 are constants; an array argument gets one per element
    return np.full_like(x, total) if isinstance(x, np.ndarray) else total


@dataclass(frozen=True)
class BoundSet:
    """All analytic bounds applying at one entropic order.

    upper_pure, h_tilde and r_alpha are populated only where the
    pure-state analysis is proven (alpha in (0, 1] or integer alpha >= 2);
    elsewhere they are None and only the empirical machinery of the verify
    module applies.
    """

    alpha: TsallisParam
    lower: float
    lower_is_tight: bool
    upper_mixed: float
    upper_pure: Optional[float]
    upper_pure_is_tight: bool
    h_tilde: Optional[float]
    r_alpha: Optional[float]


def bound_set(alpha: AlphaLike) -> BoundSet:
    """Assemble the full BoundSet for one entropic order.

    The one place that branches on the proven range.  Each bound has one
    name, its field here: rescaled_band, the verify module and the CLI
    read the fields rather than recompute them.
    """
    a = as_param(alpha)
    scale = alpha_log(2.0, a)  # the per-observable scale ln_alpha(2)
    # fields in BoundSet order
    if not is_proven_order(a):
        return BoundSet(a, interpolated_lower_bound(a), False, 3.0 * scale, None, False, None, None)
    ht = h_tilde(a)
    return BoundSet(a, 2.0 * scale, True, 3.0 * scale, 3.0 * ht, True, ht, ht / scale)
