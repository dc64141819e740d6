"""Tsallis entropy machinery for two-outcome distributions.

The entropic order alpha > 0 selects one member of the one-parameter family

    H_alpha(p) = (sum_j p_j^alpha - 1) / (1 - alpha) = sum_j h_alpha(p_j),

which recovers the Shannon entropy -sum_j p_j ln p_j in the limit
alpha -> 1.  That limit is implemented as an exact branch (selected when
alpha == 1), never as a numerical limit of the alpha != 1 formula, so the
0/0 cancellation near alpha = 1 cannot occur.

Conventions used throughout: 0^alpha = 0 for every alpha > 0 and
0 * ln 0 = 0, so that h_alpha(0) = h_alpha(1) = 0 exactly.

pair_entropy is the one implementation of the three-branch formula.  The
scalar functions evaluate it on one-element arrays, so a scalar value is
bit for bit the value the grid scans compute for the same pair.  (numpy
scalars would not do: they use libm pow, arrays the SIMD pow.)

Integer orders.  In the pow branch an integer order n >= 4 whose binary
power takes at most _MAX_SQUARING_MULTIPLIES multiplications (6: n = 4
to 22, 24 to 26, 28, 32 to 34, 36, 40, 48 and 64) gets p^n by repeated
squaring: a few multiplications in place of numpy's general pow, at
0.4-0.7 of its cost per scan block.  The branch starts at 4: numpy
already squares at n = 2, and at n = 2 and 3 the pure-state sum is
constant, so rounding alone picks the grid witnesses there; those keep
the bits of p ** a, as every non-integer order does.  Against 50-digit
mpmath the squaring chain and pow are both within 6e-17 absolute; the
chain's relative rounding grows with n, so its grid sums agree with
pow's to within 7 ulps at the orders it covers.  Powers of 1/2, 0 and 1
are exact either way, so the sums at the eigenstates, the analytic
minimizers, are unchanged bit for bit.

In place.  _pair_entropy_into, the kernel behind pair_entropy, runs
every pass in two arrays of the pair's shape, one per side: a new array
holding both for pair_entropy, a scan block's workspace for the grid
scans.  The pow branch writes each side's power straight into its
array from p or m, never from a copy of them (_power).  The log branches
guard log(0) with max(p, 5e-324), one plain comparison that leaves every
p > 0 as it is (5e-324 is the smallest positive float); the factor
p = 0 then cancels the finite log it gets.
Each branch keeps the operation order of the plain formulas -p ln p - m ln m, -p expm1((a-1) ln p) / (a-1) + ...
and ((p^a - p) + (m^a - m)) / (1 - a), negating the sum once rather
than each side (negation is exact: -(A + B) is (-A) - B).  So, the sign
of a zero or of a NaN aside, its values are bit for bit the plain
formulas'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "SUM_TOL",
    "CLAMP_TOL",
    "TsallisParam",
    "ProbPair",
    "AlphaLike",
    "as_param",
    "alpha_log",
    "h_alpha",
    "pair_entropy",
    "tsallis_entropy",
    "phi",
]

# |p_plus + p_minus - 1| allowed on construction of a ProbPair.
SUM_TOL = 1e-12
# Within this distance of alpha = 1 the power-difference forms lose
# ~eps/|alpha - 1| to cancellation, so the expm1 forms are used instead;
# outside it the direct pow forms are the more accurate ones.
EXPM1_WINDOW = 0.01
# Rounding excursions outside [0, 1] that are silently clamped; anything
# larger is an error.  sin/cos arithmetic routinely lands ~1e-16 outside.
CLAMP_TOL = 1e-12
# An integer order n >= 4 whose binary power takes at most this many
# multiplications gets x^n by repeated squaring instead of numpy's pow.
# Measured on 32 x 2001 scan blocks (2-core Xeon, numpy 2.4.6, median of
# 150): the pow branch costs ~700-790 us with pow (more where x^n
# underflows: 2.7 ms at n = 256) and ~250 + 40 k us with a chain of k
# multiplications, so the chain wins up to k ~ 10-12.  6 keeps it at
# least 30% ahead, and keeps its grid sums within 7 ulps of pow's (401^2
# grid); the chain's rounding grows with n (26 ulps at n = 256, still
# ~1e-16 absolute).
_MAX_SQUARING_MULTIPLIES = 6


@dataclass(frozen=True)
class TsallisParam:
    """Entropic order alpha > 0.

    ``is_shannon`` is derived on construction and is true exactly when
    alpha == 1.0, so the invariant alpha = 1 <=> Shannon branch cannot be
    violated by callers.
    """

    alpha: float
    is_shannon: bool = field(init=False)

    def __post_init__(self) -> None:
        try:
            alpha = float(self.alpha)
        except OverflowError:  # an int beyond the float range
            alpha = math.inf
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise ValueError(f"entropic order must be a positive real, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "is_shannon", alpha == 1.0)


AlphaLike = Union[float, TsallisParam]


def as_param(alpha: AlphaLike) -> TsallisParam:
    """Coerce a bare float (or int) into a validated TsallisParam."""
    if isinstance(alpha, TsallisParam):
        return alpha
    return TsallisParam(alpha)


def _clamped_probability(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not -CLAMP_TOL <= v <= 1.0 + CLAMP_TOL:
        raise ValueError(f"{name} = {value!r} is outside [0, 1] beyond tolerance {CLAMP_TOL}")
    return min(max(v, 0.0), 1.0)


@dataclass(frozen=True)
class ProbPair:
    """A binary outcome distribution (p_plus, p_minus).

    Components must sum to 1 within SUM_TOL.  Components within CLAMP_TOL
    outside [0, 1] are clamped on construction; larger violations raise.
    """

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        p = _clamped_probability(self.p_plus, "p_plus")
        m = _clamped_probability(self.p_minus, "p_minus")
        if abs(float(self.p_plus) + float(self.p_minus) - 1.0) > SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1 within {SUM_TOL}, "
                f"got {self.p_plus!r} + {self.p_minus!r}"
            )
        object.__setattr__(self, "p_plus", p)
        object.__setattr__(self, "p_minus", m)


DistLike = Union[ProbPair, Sequence[float]]


def _as_pair(dist: DistLike) -> ProbPair:
    if isinstance(dist, ProbPair):
        return dist
    p, m = dist
    return ProbPair(float(p), float(m))


def alpha_log(u: float, alpha: AlphaLike) -> float:
    """alpha-logarithm ln_alpha(u) = (u^(1-alpha) - 1) / (1 - alpha).

    Returns the natural log of u on the Shannon branch alpha = 1.
    ln_alpha(n) is the maximal alpha-entropy of an n-outcome distribution,
    so ln_alpha(2) is the scale of a single binary measurement.

    Raises ValueError for u <= 0.
    """
    a = as_param(alpha)
    u = float(u)
    if not u > 0.0:
        raise ValueError(f"alpha_log requires u > 0, got {u!r}")
    if a.is_shannon:
        return math.log(u)
    if abs(a.alpha - 1.0) < EXPM1_WINDOW:
        return math.expm1((1.0 - a.alpha) * math.log(u)) / (1.0 - a.alpha)
    return (u ** (1.0 - a.alpha) - 1.0) / (1.0 - a.alpha)


def pair_entropy(p: np.ndarray, m: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Elementwise h_alpha(p) + h_alpha(m) for float64 arrays p, m in [0, 1].

    Shannon branch at alpha = 1, expm1 forms within EXPM1_WINDOW of it,
    direct pow forms elsewhere, with p^n and m^n by repeated squaring at
    the integer orders n >= 4 that _MAX_SQUARING_MULTIPLIES admits (see
    the module docstring).  Every branch gives h_alpha(0) = 0 exactly, so
    m = 0 yields h_alpha(p) alone.

    Each branch works in place in one new array, one half per side
    (module docstring): 8 passes over the block on the Shannon branch, 14
    on the expm1 branch and 6 on the pow branch (each side's power written
    straight into its half; a squaring chain multiplies instead), and the log
    branches guard log(0) with max(p, 5e-324).  The sign of a zero or of
    a NaN aside, the values are bit for bit those of the plain formulas.
    The result is a new array; p and m are never written.  p and m must
    have one shape, of at least one dimension (numpy turns a 0-d result
    into a scalar, which the in-place passes cannot write).
    """
    return _pair_entropy_into(p, m, alpha, np.empty((2, *p.shape)))


def _pair_entropy_into(p: np.ndarray, m: np.ndarray, alpha: TsallisParam, out: np.ndarray) -> np.ndarray:
    """pair_entropy computed in out, a float64 array of shape (2, *p.shape).

    The result is written into out[0] and returned; out[1] is
    overwritten.  A pass writes out before it has read all of p and m,
    so out must not overlap them: ValueError where their memory bounds
    meet (np.may_share_memory, a cheap and conservative check).
    """
    if np.may_share_memory(out, p) or np.may_share_memory(out, m):
        raise ValueError("out must not share memory with p or m")
    a = alpha.alpha
    total, other = out
    if abs(a - 1.0) < EXPM1_WINDOW:
        _log_term(p, a - 1.0, total)
        total += _log_term(m, a - 1.0, other)
        # -(A + B) is (-A) - B bit for bit: negation is exact
        return np.negative(total, out=total)
    _power(p, a, total)
    total -= p
    _power(m, a, other)
    other -= m
    total += other
    total /= 1.0 - a
    return total


def _log_term(x: np.ndarray, b: float, out: np.ndarray) -> np.ndarray:
    """x ln x at b = 0, else x expm1(b ln x) / b, into out: minus h_alpha(x), b = alpha - 1.

    The guard max(x, 5e-324) leaves every x > 0 as it is and gives x = 0
    a finite log, which the factor x = 0 then cancels; a NaN stays NaN.
    """
    t = np.maximum(x, 5e-324, out=out)
    np.log(t, out=t)
    if b:
        t *= b
        np.expm1(t, out=t)
    t *= x
    if b:
        t /= b
    return t


def _squaring_bits(a: float) -> Optional[str]:
    """The bits of the order n after its leading one, or None where pow is used."""
    if a < 4.0 or not a.is_integer():
        return None
    n = int(a)
    bits = bin(n)[3:]
    # one squaring per bit, one more multiplication per set bit
    return bits if len(bits) + bits.count("1") <= _MAX_SQUARING_MULTIPLIES else None


def _power(x: np.ndarray, a: float, out: np.ndarray) -> np.ndarray:
    """x ** a into out, by left-to-right repeated squaring where _squaring_bits allows it.

    Elsewhere x ** a is written straight into out, one pass with no copy
    of x: np.sqrt at 0.5 (as numpy's ** does), np.square at 2 and
    np.power at every other order, so the bits are those of x ** a.  At
    0.5 and 2 np.power gives the same bits (the tests check it bitwise)
    but took 1.6-1.8x as long on scan blocks (2-core Xeon, numpy 2.4.6).
    """
    bits = _squaring_bits(a)
    if bits is None:
        if a == 0.5:
            return np.sqrt(x, out=out)
        if a == 2.0:
            return np.square(x, out=out)
        return np.power(x, a, out=out)
    r = np.multiply(x, x, out=out)
    if bits[0] == "1":
        r *= x
    for bit in bits[1:]:
        r *= r
        if bit == "1":
            r *= x
    return r


def _scalar_pair_entropy(p: float, m: float, alpha: AlphaLike) -> float:
    value = pair_entropy(np.array([p]), np.array([m]), as_param(alpha))
    # + 0.0 turns the kernel's -0.0 at a deterministic pair into 0.0
    return float(value[0]) + 0.0


def h_alpha(u: float, alpha: AlphaLike) -> float:
    """Per-outcome entropy term h_alpha(u) = (u^alpha - u) / (1 - alpha).

    Shannon branch: -u ln u with the convention 0 ln 0 = 0.  Vanishes
    exactly at u = 0 and u = 1 (the only zeros: h_alpha is strictly
    concave on [0, 1], h_alpha'' = -alpha u^(alpha-2) < 0 for u > 0).

    Raises ValueError outside [0, 1], NaN included.
    """
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"h_alpha requires u in [0, 1], got {u!r}")
    return _scalar_pair_entropy(u, 0.0, alpha)


def tsallis_entropy(dist: DistLike, alpha: AlphaLike) -> float:
    """Tsallis entropy H_alpha of a binary distribution.

    Equals h_alpha(p_plus) + h_alpha(p_minus); lies in
    [0, alpha_log(2, alpha)], with the maximum at the equiprobable pair and
    zero exactly at the two deterministic pairs.  Bit for bit equal to
    pair_entropy at the same pair.
    """
    d = _as_pair(dist)
    return _scalar_pair_entropy(d.p_plus, d.p_minus, alpha)


def phi(dist: DistLike, alpha: AlphaLike) -> float:
    """Power sum Phi_alpha = p_plus^alpha + p_minus^alpha.

    Equals 1 at alpha = 1, is nonincreasing in alpha for a fixed
    distribution, and is convex as a function of alpha (its second
    alpha-derivative is sum_j p_j^alpha (ln p_j)^2 >= 0 over the nonzero
    components).
    """
    a = as_param(alpha).alpha
    d = _as_pair(dist)
    # 0^alpha = 0 is what ** already gives for alpha > 0, and x ** 1.0 is x
    # exactly, so alpha = 1 needs no branch of its own.
    return d.p_plus ** a + d.p_minus ** a
