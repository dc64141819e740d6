"""Brute-force verification of the entropic-sum bounds.

Everything here re-derives the analytic results numerically and
independently of them: exhaustive grid scans of the entropic sum over the
reduced rectangle D (optionally over the full angle domain, unfolded
from a grid on D and compared with it to validate the symmetry reduction),
certification of the equality conditions, kernel monotonicity checks and
concavity/convexity property checks.  Scans never use the bound formulas
to steer the search; the formulas enter only when the observed extrema
are compared against them afterwards.  Grid values come from
entropy.pair_entropy, the kernel the scalar API uses, so a grid value
equals entropic_sum at that grid point bit for bit wherever numpy's
float64 sin and cos agree with math's.

Grids are uniform with both endpoints included, so the corners of D, which
are the analytic minimizers, are exactly represented and tight bounds are
attained on the grid rather than merely approached.  Grid evaluation is
chunked into blocks of whole tau rows holding about _CHUNK_POINTS grid
points each, so every temporary of a block fits a core's L2 cache (a
block wider than the budget is a single row; GridSpec caps its width).
Blocks are reduced deterministically (values compared first, earlier grid
point wins ties), so results do not depend on chunking, and tie-breaking
is always lowest tau, then lowest phi.

A scan evaluates every order it is given in one pass.  cos phi and sin phi
are taken once per scan, and the order-independent stage of each block
(sin 2 tau, cos 2 tau and the outcome probabilities of the three Bloch
components) once per block for all orders; only pair_entropy and the
reduction run per order.  An order's arithmetic is the same whichever
orders share its pass, so scan_extrema and scan_full_domain_consistency
are scan_orders and full_domain_orders with one order.  A non-finite
value in a block raises ValueError naming the order and the grid point.
With several orders the first one met is reported: blocks in grid order,
and within a block the orders in the order given.  Certification
evaluates its states in one batch under the same rule, so a NaN can never
let a check pass.  Grids and certification share one pair formula,
(1/2 + h, 1/2 - h) with h = s/2, and clip to [-1, 1] only the 1-D trig
vectors (the Bloch components when certifying): |h| <= 1/2 then keeps
both in [0, 1] without a clip of the grid.  Halving is exact (short of
subnormals, where 1/2 +- h is 1/2 anyway), so fl(1/2 + s/2) = fl(1 + s)/2,
fl((a/2) b) = fl(a b)/2 and the pairs are bitwise clip((1 +- s)/2, 0, 1).

All stochastic checks take an explicit seed; DEFAULT_SEED fixes the
default so failures are reproducible.  Pure states are sampled uniformly
on the sphere (area measure), mixed states uniformly in the ball.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .bounds import bound_set, integer_order, is_proven_order, kernel_f, kernel_g
from .entropy import AlphaLike, TsallisParam, as_param, pair_entropy, phi, tsallis_entropy
from .states import (
    HALF_PI,
    QUARTER_PI,
    TWO_PI,
    PureStateAngles,
    StateLike,
    bloch_from_angles,
    eigenstate_witnesses,
    measurement_triple,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_GRID",
    "GridSpec",
    "ScanReport",
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

DEFAULT_SEED = 12345

# Grid points evaluated per chunk, rounded down to whole tau rows (at least
# one).  At 65,536 points each float64 temporary of a block is 512 KB and
# stays in a core's L2 cache; blocks a few times that ran about 3x slower.
# In cache the per-order pow/log kernel dominates: 45-155 ms per order at
# 2001^2 against ~21 ms for the shared pair stage (2-core Xeon, numpy 2.4).
# Results do not depend on it (deterministic reduction).
_CHUNK_POINTS = 65_536

# refined_maximum's box: +-_REFINE_WINDOW coarse steps, _REFINE_FACTOR times finer.
_REFINE_WINDOW = 2
_REFINE_FACTOR = 10


@dataclass(frozen=True)
class GridSpec:
    """Uniform scan grid; endpoints of each interval are grid points.

    n_tau, n_phi count the points along tau and phi over D, at least 2
    each; every scan function takes its grid on D.  Counts must be integers
    (numpy integers included); anything else raises TypeError.
    Each count is capped at MAX_POINTS (1,000,001), which keeps a one-row
    scan block near 8 MB per temporary; a larger count raises ValueError.
    """

    MAX_POINTS: ClassVar[int] = 1_000_001

    n_tau: int
    n_phi: int

    def __post_init__(self) -> None:
        for name in ("n_tau", "n_phi"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"GridSpec.{name} must be an integer, got {value!r}") from None
        if not (2 <= self.n_tau <= self.MAX_POINTS and 2 <= self.n_phi <= self.MAX_POINTS):
            raise ValueError(
                f"grid axes need at least 2, at most {self.MAX_POINTS} points, got {self.n_tau}x{self.n_phi}"
            )


DEFAULT_GRID = GridSpec(2001, 2001)


@dataclass(frozen=True)
class ScanReport:
    """Extrema of the entropic sum over a grid on D, with witnesses.

    min_gap = min_value - analytic_lower (nonnegative up to rounding);
    max_gap = analytic_upper - max_value where a proven pure-state upper
    bound exists, else None.

    max_value is a measured value, not an analytic bound: for non-integer
    alpha > 1 it is the only pure-state upper information available.  For
    alpha in (0, 1] and integer alpha >= 2 it lies within grid tolerance
    below 3 h_tilde(alpha).
    """

    alpha: TsallisParam
    min_value: float
    max_value: float
    argmin: PureStateAngles
    argmax: PureStateAngles
    analytic_lower: Optional[float]
    analytic_upper: Optional[float]
    min_gap: Optional[float]
    max_gap: Optional[float]
    grid: GridSpec


def entropic_sum(state: StateLike, alpha: AlphaLike) -> float:
    """H_alpha(sigma_x) + H_alpha(sigma_y) + H_alpha(sigma_z) at a state."""
    a = as_param(alpha)
    triple = measurement_triple(state)
    return sum(tsallis_entropy(pair, a) for pair in triple.pairs())


def g_sum(state: StateLike, alpha: AlphaLike) -> float:
    """Power-sum form 3 - Phi_alpha(px) - Phi_alpha(qy) - Phi_alpha(rz).

    Identically 0 at alpha = 1 and equal to (alpha - 1) * entropic_sum
    otherwise; constant (1 and 3/2) on pure states at alpha = 2, 3.
    """
    a = as_param(alpha)
    triple = measurement_triple(state)
    return 3.0 - sum(phi(pair, a) for pair in triple.pairs())


# ---------------------------------------------------------------------------
# Vectorized grid machinery
# ---------------------------------------------------------------------------

_Pairs = list[tuple[np.ndarray, np.ndarray]]


def _half_pairs(*halves: np.ndarray) -> _Pairs:
    """(p, m) = (1/2 + h, 1/2 - h) per h = s/2; |h| <= 1/2 puts p and m in [0, 1] exactly."""
    return [(0.5 + h, 0.5 - h) for h in halves]


def _clipped_pairs(*components: np.ndarray) -> _Pairs:
    """_half_pairs of Bloch components s clipped to [-1, 1]: bitwise clip((1 +- s)/2, 0, 1), NaN kept."""
    return _half_pairs(*(0.5 * np.clip(s, -1.0, 1.0) for s in components))


def _pair_sums(pairs: _Pairs, alpha: TsallisParam) -> np.ndarray:
    """Entropic sums from the (x, y, z) outcome pairs.

    The result has the shape of the x pair; the y and z pairs broadcast
    against it, so a grid passes its z pair as one value per row.
    """
    total = pair_entropy(*pairs[0], alpha)
    for p, m in pairs[1:]:
        total += pair_entropy(p, m, alpha)
    return total


def _entropic_sums(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Entropic sums at Bloch components (bx, by, bz); by and bz broadcast against bx."""
    return _pair_sums(_clipped_pairs(bx, by, bz), alpha)


def _extrema(values: np.ndarray, alpha: TsallisParam, where: Callable) -> tuple[int, float, int, float]:
    """(argmin, min, argmax, max) of values, flat indices, lowest index on ties.

    Raises ValueError naming alpha and where(k) at a non-finite pick:
    argmin and argmax stop at the first NaN, and -inf or +inf is itself the
    extremum, so checking the two picked values catches every one.
    """
    k_min, k_max = int(np.argmin(values)), int(np.argmax(values))
    v_min, v_max = float(values.flat[k_min]), float(values.flat[k_max])
    for k, v in ((k_min, v_min), (k_max, v_max)):
        if not math.isfinite(v):
            raise ValueError(f"entropic sum is {v!r} at alpha={alpha.alpha!r}, {where(k)}")
    return k_min, v_min, k_max, v_max


def _grid_pairs(tau: np.ndarray, cos_phi: np.ndarray, sin_phi: np.ndarray) -> _Pairs:
    """The order-independent stage of a block: outcome pairs on the grid tau x phi.

    The x and y pairs have shape (len(tau), len(phi)); the z pair depends
    on tau alone, one value per row.  cos_phi, sin_phi must lie in [-1, 1].
    """
    half_s2t, half_c2t = (0.5 * np.clip(f(2.0 * tau), -1.0, 1.0)[:, None] for f in (np.sin, np.cos))
    return _half_pairs(half_s2t * cos_phi, half_s2t * sin_phi, half_c2t)


def _scan_rectangle(
    alphas: Sequence[TsallisParam], tau_grid: np.ndarray, phi_grid: np.ndarray
) -> list[tuple[float, tuple[int, int], float, tuple[int, int]]]:
    """Exact grid extrema of every order in one pass, lowest-(tau, phi) tie-breaking.

    Returns (min, (i, j), max, (i, j)) per order.  The trig of phi is taken
    once per scan and the outcome pairs once per block; only pair_entropy
    and the reduction run per order.  Raises ValueError at the first
    non-finite grid value met (see _extrema): blocks in grid order, and
    within a block the orders in the given order.
    """
    if not alphas:
        return []
    n_phi = len(phi_grid)
    rows = max(1, _CHUNK_POINTS // n_phi)
    cos_phi, sin_phi = (np.clip(f(phi_grid), -1.0, 1.0) for f in (np.cos, np.sin))
    lows, highs = [[] for _ in alphas], [[] for _ in alphas]  # per order, per block: (value, (i, j))
    for i0 in range(0, len(tau_grid), rows):
        pairs = _grid_pairs(tau_grid[i0 : i0 + rows], cos_phi, sin_phi)

        def where(k: int) -> str:
            return f"(tau, phi) = ({float(tau_grid[i0 + k // n_phi])!r}, {float(phi_grid[k % n_phi])!r})"

        for alpha, low, high in zip(alphas, lows, highs):
            k_min, v_min, k_max, v_max = _extrema(_pair_sums(pairs, alpha), alpha, where)
            low.append((v_min, divmod(i0 * n_phi + k_min, n_phi)))
            high.append((v_max, divmod(i0 * n_phi + k_max, n_phi)))
    # min and max return the first of equal keys: the earlier block keeps ties
    value = operator.itemgetter(0)
    return [(*min(low, key=value), *max(high, key=value)) for low, high in zip(lows, highs)]


def scan_orders(alphas: Sequence[AlphaLike], grid: Optional[GridSpec] = None) -> list[ScanReport]:
    """scan_extrema for every order in alphas, in one pass over the grid.

    Reports come back in the order of alphas, each equal to what
    scan_extrema returns for its order alone.  A non-finite value raises
    ValueError as in scan_extrema; with several orders, the one reported
    is the first met: blocks in grid order, and within a block the orders
    in the given order.
    """
    params = [as_param(a) for a in alphas]
    grid = grid if grid is not None else DEFAULT_GRID
    tau_grid = np.linspace(0.0, QUARTER_PI, grid.n_tau)
    phi_grid = np.linspace(0.0, QUARTER_PI, grid.n_phi)
    reports = []
    for a, (mn, (i_mn, j_mn), mx, (i_mx, j_mx)) in zip(params, _scan_rectangle(params, tau_grid, phi_grid)):
        bounds = bound_set(a)
        low, up = bounds.lower, bounds.upper_pure
        reports.append(
            ScanReport(
                alpha=a,
                min_value=mn,
                max_value=mx,
                argmin=PureStateAngles(float(tau_grid[i_mn]), float(phi_grid[j_mn])),
                argmax=PureStateAngles(float(tau_grid[i_mx]), float(phi_grid[j_mx])),
                analytic_lower=low,
                analytic_upper=up,
                min_gap=mn - low,
                max_gap=(up - mx) if up is not None else None,
                grid=grid,
            )
        )
    return reports


def scan_extrema(alpha: AlphaLike, grid: Optional[GridSpec] = None) -> ScanReport:
    """Exhaustive evaluation of the entropic sum over a grid on D.

    Returns exact extrema over the grid points (no refinement) together
    with witness states.  Corners of D are on the grid, so for tight
    orders the grid minimum equals the analytic bound to rounding.  This
    is scan_orders with one order.
    """
    return scan_orders([alpha], grid)[0]


def full_domain_orders(alphas: Sequence[AlphaLike], grid: GridSpec) -> list[bool]:
    """scan_full_domain_consistency for every order in alphas, in one full-domain pass.

    Results come back in the order of alphas; a non-finite value raises
    as in scan_orders, the full domain being scanned before D.
    """
    params = [as_param(a) for a in alphas]
    full_grid = GridSpec(2 * grid.n_tau - 1, 8 * grid.n_phi - 7)
    tau_full = np.linspace(0.0, HALF_PI, full_grid.n_tau)
    phi_full = np.linspace(0.0, TWO_PI, full_grid.n_phi)
    full = _scan_rectangle(params, tau_full, phi_full)
    # the leading block, tau and phi up to pi/4, is the grid on D
    reduced = _scan_rectangle(params, tau_full[: grid.n_tau], phi_full[: grid.n_phi])
    h = QUARTER_PI / (min(grid.n_tau, grid.n_phi) - 1)
    tol = (2.0 * h) ** 2
    return [
        abs(mn_f - mn_d) <= tol and abs(mx_f - mx_d) <= tol
        for (mn_f, _, mx_f, _), (mn_d, _, mx_d, _) in zip(full, reduced)
    ]


def scan_full_domain_consistency(alpha: AlphaLike, grid: GridSpec) -> bool:
    """Check that the full domain and D give the same extrema.

    grid is the grid on D.  It is unfolded to the full domain, tau in
    [0, pi/2] and phi in [0, 2 pi], with the same steps: 2 n_tau - 1 by
    8 n_phi - 7 points, whose leading n_tau x n_phi block is the grid on D.
    Both are scanned and their extrema compared.  An unfolding with an
    axis above GridSpec.MAX_POINTS raises ValueError before any scan.  The
    four symmetry maps of the states module send every full-domain point
    onto a point of D's grid (to rounding), so where the reduction holds
    the two extrema agree to a few ulps.  The tolerance is (2 h)^2 with h
    the coarsest step, the grid error of an extremum between two
    different grids; against a rounding-level gap it is a wide margin.
    This is full_domain_orders with one order.
    """
    return full_domain_orders([alpha], grid)[0]


# ---------------------------------------------------------------------------
# Random-state sampling
# ---------------------------------------------------------------------------


def sample_pure_states(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n Bloch vectors drawn uniformly on the unit sphere, shape (n, 3)."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=n)
    az = rng.uniform(0.0, TWO_PI, size=n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def sample_mixed_states(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n Bloch vectors drawn uniformly in the unit ball, shape (n, 3)."""
    rng = np.random.default_rng(seed)
    directions = sample_pure_states(n, seed=rng.integers(0, 2**63))
    radii = rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0)
    return directions * radii[:, None]


# ---------------------------------------------------------------------------
# Certification and property checks
# ---------------------------------------------------------------------------

_MAXIMIZER_STATE = PureStateAngles(math.atan(math.sqrt(2.0)) / 2.0, QUARTER_PI)


def certify_equality_conditions(
    alpha: AlphaLike,
    tolerance: float,
    n_samples: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Certify attainment and strictness of the tight bounds at one order.

    For alpha in (0, 1] or integer alpha >= 2, checks that
      (a) the entropic sum at all six Pauli eigenstates equals the lower
          bound within ``tolerance``;
      (b) for alpha not in {2, 3}, every one of ``n_samples`` random
          non-eigenstate pure states exceeds the bound by a strictly
          positive margin; for alpha in {2, 3}, every sampled pure state
          attains the bound within ``tolerance`` (the sum is constant);
      (c) for alpha in (0, 1] or integer alpha >= 4, the state whose three
          outcome distributions are all ((1 +- 1/sqrt3)/2) attains the
          pure-state maximum 3 h_tilde(alpha) within ``tolerance``;
      (d) impure states aligned with a measurement axis (0 < |b| < 1)
          strictly exceed the lower bound, which therefore cannot be
          saturated by any impure state.

    All states are evaluated in one batch.  Raises ValueError for orders
    outside the tight range, for n_samples below 1, and at a non-finite sum
    anywhere in the batch, naming the order and the Bloch vector.
    """
    a = as_param(alpha)
    if not is_proven_order(a):
        raise ValueError(
            f"equality conditions are proven only for alpha in (0, 1] and integer "
            f"alpha >= 2, got {a.alpha!r}"
        )
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    bounds = bound_set(a)
    low = bounds.lower
    # one batch: the six eigenstates, the maximizer, 19 impure states on each
    # axis (t-major: (t, 0, 0), (0, t, 0), (0, 0, t)), then the samples
    fixed = [*eigenstate_witnesses(), bloch_from_angles(_MAXIMIZER_STATE)]
    axis = (np.linspace(0.05, 0.95, 19)[:, None, None] * np.eye(3)).reshape(-1, 3)
    b = np.vstack([[(w.b_x, w.b_y, w.b_z) for w in fixed], axis, sample_pure_states(n_samples, seed=seed)])
    sums = _entropic_sums(b[:, 0], b[:, 1], b[:, 2], a)
    _extrema(sums, a, lambda k: f"Bloch vector {tuple(b[k].tolist())}")  # raises if non-finite
    eigen, top, impure, sampled = np.split(sums, [6, 7, 7 + len(axis)])

    checks = [np.max(np.abs(eigen - low)) <= tolerance, np.min(impure) > low]
    if integer_order(a) in (2, 3):
        checks.append(np.max(np.abs(sampled - low)) <= tolerance)
    else:
        checks += [np.min(sampled) > low, abs(top[0] - bounds.upper_pure) <= tolerance]
    return bool(all(checks))


def check_kernel_monotonicity(kernel: str, alpha: AlphaLike, n_points: int) -> bool:
    """Check monotone increase of kernel_f or kernel_g on a grid of (0, 1).

    kernel "f" takes alpha in (0, 1], kernel "g" integer alpha >= 1.
    Successive values must strictly increase for f at every alpha in
    (0, 1] and for g with alpha >= 4; g is constant for alpha <= 3, so
    there they need only be nondecreasing.  Either kernel is evaluated in
    one numpy pass over the whole grid, whose values are bitwise its scalar
    ones.  Raises ValueError, before allocating the grid, for n_points
    below 2, where there is nothing to compare, and above
    GridSpec.MAX_POINTS; and, through kernel_g, for an order whose g
    exceeds the float range, naming the first u where it does.
    """
    a = as_param(alpha)
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points!r}")
    if n_points > GridSpec.MAX_POINTS:
        raise ValueError(f"n_points must be at most {GridSpec.MAX_POINTS}, got {n_points!r}")
    if kernel not in ("f", "g"):
        raise ValueError(f"kernel must be 'f' or 'g', got {kernel!r}")
    u = np.arange(1, n_points + 1) / (n_points + 1)
    diffs = np.diff(kernel_f(u, a) if kernel == "f" else kernel_g(u, a))
    if kernel == "f" or (integer_order(a) or 0) >= 4:
        return bool(np.all(diffs > 0.0))
    return bool(np.all(diffs >= 0.0))


def check_alpha_concavity(
    state: StateLike, alpha_lo: float, alpha_hi: float, n_points: int
) -> bool:
    """Midpoint-concavity of the power-sum form g_sum in the order alpha.

    On a uniform alpha grid, every interior point must dominate the mean
    of its neighbours within 1e-12.  Affine stretches (deterministic
    outcome components) pass as the degenerate case.  Raises ValueError
    for n_points below 3, which leaves no interior point.
    """
    if not (1.0 <= alpha_lo < alpha_hi):
        raise ValueError(f"need 1 <= alpha_lo < alpha_hi, got {alpha_lo!r}, {alpha_hi!r}")
    if n_points < 3:
        raise ValueError(f"n_points must be at least 3, got {n_points!r}")
    triple = measurement_triple(state)
    alphas = np.linspace(alpha_lo, alpha_hi, n_points)
    values = np.array([g_sum(triple, float(x)) for x in alphas])
    mids = values[1:-1]
    chords = (values[:-2] + values[2:]) / 2.0
    return bool(np.all(mids >= chords - 1e-12))


def _refine_axis(center: float, n_coarse: int) -> np.ndarray:
    """The refinement grid along one axis, +-_REFINE_WINDOW coarse steps around center."""
    half = _REFINE_WINDOW * (QUARTER_PI / (n_coarse - 1))
    n = 2 * _REFINE_WINDOW * _REFINE_FACTOR + 1
    return np.linspace(max(0.0, center - half), min(QUARTER_PI, center + half), n)


def refined_maximum(alpha: AlphaLike, grid: Optional[GridSpec] = None) -> tuple[float, PureStateAngles]:
    """Grid maximum after one level of local refinement around the argmax.

    Rescans a +-_REFINE_WINDOW-step box around the coarse argmax with a
    step _REFINE_FACTOR times finer (clipped to D), which reaches ~1e-8 of
    the true maximum from the default grid without any derivative-based optimizer.
    Deterministic: refined candidates replace the coarse one only when
    strictly larger.
    """
    a = as_param(alpha)
    grid = grid if grid is not None else DEFAULT_GRID
    report = scan_extrema(a, grid)
    tau_grid = _refine_axis(report.argmax.tau, grid.n_tau)
    phi_grid = _refine_axis(report.argmax.phi, grid.n_phi)
    ((_, _, mx, (i, j)),) = _scan_rectangle([a], tau_grid, phi_grid)
    if mx > report.max_value:
        return mx, PureStateAngles(float(tau_grid[i]), float(phi_grid[j]))
    return report.max_value, report.argmax
