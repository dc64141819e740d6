"""Brute-force verification of the entropic-sum bounds.

Everything here re-derives the analytic results numerically and
independently of them: exhaustive grid scans of the entropic sum over the
reduced rectangle D (optionally over the full angle domain, to validate
the symmetry reduction), certification of the equality conditions, kernel
monotonicity checks and concavity/convexity property checks.  Scans never
use the bound formulas to steer the search; the formulas enter only when
the observed extrema are compared against them afterwards.  Grid values
come from entropy.pair_entropy, the kernel the scalar API uses, so a grid
value equals entropic_sum at that grid point bit for bit wherever numpy's
float64 sin and cos agree with math's.

Grids are uniform with both endpoints included, so the corners of D, which
are the analytic minimizers, are exactly represented and tight bounds are
attained on the grid rather than merely approached.  Grid evaluation is
chunked into blocks of whole tau rows holding about _CHUNK_POINTS grid
points each, so every temporary of a block fits a core's L2 cache (a
block wider than the budget is a single row; GridSpec caps its width).
Blocks are reduced deterministically (values compared first, earlier grid
point wins ties), so results do not depend on chunking, and tie-breaking
is always lowest tau, then lowest phi.  A non-finite value in a block
raises ValueError naming the order and the grid point; certification
evaluates its states in one batch under the same rule, so a NaN can never
let a check pass.

All stochastic checks take an explicit seed; DEFAULT_SEED fixes the
default so failures are reproducible.  Pure states are sampled uniformly
on the sphere (area measure), mixed states uniformly in the ball.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .bounds import bound_set, h_tilde, integer_order, is_proven_order, kernel_f, kernel_g, lower_bound
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
    "scan_full_domain_consistency",
    "certify_equality_conditions",
    "check_kernel_monotonicity",
    "check_alpha_concavity",
    "refined_maximum",
    "sample_pure_states",
    "sample_mixed_states",
]

DEFAULT_SEED = 12345

# Grid points evaluated per chunk, rounded down to whole tau rows (at least
# one).  The scan is bound by memory traffic, not by the pow/log arithmetic:
# at 65,536 points each float64 temporary of a block is 512 KB and stays in
# a core's L2 cache; blocks a few times that cache ran about 3x slower.
# Results do not depend on it (deterministic reduction).
_CHUNK_POINTS = 65_536

# refined_maximum's box: +-_REFINE_WINDOW coarse steps, _REFINE_FACTOR times finer.
_REFINE_WINDOW = 2
_REFINE_FACTOR = 10


@dataclass(frozen=True)
class GridSpec:
    """Uniform scan grid; endpoints of each interval are grid points.

    n_tau, n_phi count the points along tau and phi, at least 2 each.  The
    scans lay them over D; scan_full_domain_consistency lays the same
    counts over tau in [0, pi/2], phi in [0, 2 pi) as well.  Counts must be
    integers (numpy integers included); anything else raises TypeError.
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


def _pair_entropy_sum(s: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """pair_entropy of p+- = (1 +- s)/2, clipped to [0, 1] like the ProbPair clamp."""
    p = np.clip((1.0 + s) / 2.0, 0.0, 1.0)
    m = np.clip((1.0 - s) / 2.0, 0.0, 1.0)
    return pair_entropy(p, m, alpha)


def _entropic_sums(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Entropic sums at Bloch components (bx, by, bz).

    The result has the shape of bx; by and bz broadcast against it, so a
    grid passes its z-term as one value per row.
    """
    total = _pair_entropy_sum(bx, alpha)
    total += _pair_entropy_sum(by, alpha)
    total += _pair_entropy_sum(bz, alpha)
    return total


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


def _grid_entropic_sum(tau: np.ndarray, phi_vals: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Entropic sum on the Cartesian grid tau x phi_vals, shape (len(tau), len(phi_vals))."""
    s2t = np.sin(2.0 * tau)[:, None]
    # the z-term depends on tau alone: one value per row
    c2t = np.cos(2.0 * tau)[:, None]
    return _entropic_sums(s2t * np.cos(phi_vals), s2t * np.sin(phi_vals), c2t, alpha)


def _scan_rectangle(
    alpha: TsallisParam,
    tau_grid: np.ndarray,
    phi_grid: np.ndarray,
) -> tuple[float, tuple[int, int], float, tuple[int, int]]:
    """Exact grid extrema with deterministic lowest-(tau, phi) tie-breaking.

    Raises ValueError at a non-finite grid value (see _extrema).
    """
    n_phi = len(phi_grid)
    rows = max(1, _CHUNK_POINTS // n_phi)
    lows, highs = [], []  # per block: (value, (i, j)) of its extrema
    for i0 in range(0, len(tau_grid), rows):
        block = _grid_entropic_sum(tau_grid[i0 : i0 + rows], phi_grid, alpha)
        k_min, v_min, k_max, v_max = _extrema(
            block,
            alpha,
            lambda k: f"(tau, phi) = ({float(tau_grid[i0 + k // n_phi])!r}, {float(phi_grid[k % n_phi])!r})",
        )
        lows.append((v_min, divmod(i0 * n_phi + k_min, n_phi)))
        highs.append((v_max, divmod(i0 * n_phi + k_max, n_phi)))
    # min and max return the first of equal keys: the earlier block keeps ties
    return (*min(lows, key=operator.itemgetter(0)), *max(highs, key=operator.itemgetter(0)))


def _grid_on_D(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(0.0, QUARTER_PI, grid.n_tau), np.linspace(0.0, QUARTER_PI, grid.n_phi)


def scan_extrema(alpha: AlphaLike, grid: Optional[GridSpec] = None) -> ScanReport:
    """Exhaustive evaluation of the entropic sum over a grid on D.

    Returns exact extrema over the grid points (no refinement) together
    with witness states.  Corners of D are on the grid, so for tight
    orders the grid minimum equals the analytic bound to rounding.
    """
    a = as_param(alpha)
    grid = grid if grid is not None else DEFAULT_GRID
    tau_grid, phi_grid = _grid_on_D(grid)
    mn, (i_mn, j_mn), mx, (i_mx, j_mx) = _scan_rectangle(a, tau_grid, phi_grid)
    bounds = bound_set(a)
    low, up = bounds.lower, bounds.upper_pure
    return ScanReport(
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


def scan_full_domain_consistency(alpha: AlphaLike, grid: GridSpec) -> bool:
    """Check that the full domain and D give the same extrema.

    Scans tau in [0, pi/2], phi in [0, 2 pi) on the given grid and a grid
    of the same point counts on D, and compares the extrema.  The
    tolerance is (2 h)^2 with h the coarsest step: extrema sit at interior
    quadratic flat points or exactly on-grid corners, so their grid error
    is quadratic in the step.
    """
    a = as_param(alpha)
    tau_full = np.linspace(0.0, HALF_PI, grid.n_tau)
    phi_full = np.linspace(0.0, TWO_PI, grid.n_phi)
    mn_f, _, mx_f, _ = _scan_rectangle(a, tau_full, phi_full)
    mn_d, _, mx_d, _ = _scan_rectangle(a, *_grid_on_D(grid))
    h = max(
        HALF_PI / (grid.n_tau - 1),
        TWO_PI / (grid.n_phi - 1),
    )
    tol = (2.0 * h) ** 2
    return abs(mn_f - mn_d) <= tol and abs(mx_f - mx_d) <= tol


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
    outside the tight range, and at a non-finite sum anywhere in the batch,
    naming the order and the Bloch vector.
    """
    a = as_param(alpha)
    if not is_proven_order(a):
        raise ValueError(
            f"equality conditions are proven only for alpha in (0, 1] and integer "
            f"alpha >= 2, got {a.alpha!r}"
        )
    low, _ = lower_bound(a)
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
        checks += [np.min(sampled) > low, abs(top[0] - 3.0 * h_tilde(a)) <= tolerance]
    return bool(all(checks))


def check_kernel_monotonicity(kernel: str, alpha: AlphaLike, n_points: int) -> bool:
    """Check monotone increase of kernel_f or kernel_g on a grid of (0, 1).

    kernel "f" takes alpha in (0, 1], kernel "g" integer alpha >= 1.
    Successive values must be nondecreasing; strictly increasing is
    required for f with alpha < 1 and for g with alpha >= 4 (g is constant
    for alpha <= 3, f is still strictly increasing at alpha = 1 but only
    nondecrease is demanded there).
    """
    a = as_param(alpha)
    u = np.arange(1, n_points + 1) / (n_points + 1)
    if kernel == "f":
        values = [kernel_f(float(x), a) for x in u]
        strict = a.alpha < 1.0
    elif kernel == "g":
        values = [kernel_g(float(x), a) for x in u]
        strict = (integer_order(a) or 0) >= 4
    else:
        raise ValueError(f"kernel must be 'f' or 'g', got {kernel!r}")
    diffs = np.diff(values)
    if strict:
        return bool(np.all(diffs > 0.0))
    return bool(np.all(diffs >= 0.0))


def check_alpha_concavity(
    state: StateLike, alpha_lo: float, alpha_hi: float, n_points: int
) -> bool:
    """Midpoint-concavity of the power-sum form g_sum in the order alpha.

    On a uniform alpha grid, every interior point must dominate the mean
    of its neighbours within 1e-12.  Affine stretches (deterministic
    outcome components) pass as the degenerate case.
    """
    if not (1.0 <= alpha_lo < alpha_hi):
        raise ValueError(f"need 1 <= alpha_lo < alpha_hi, got {alpha_lo!r}, {alpha_hi!r}")
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
    _, _, mx, (i, j) = _scan_rectangle(a, tau_grid, phi_grid)
    if mx > report.max_value:
        return mx, PureStateAngles(float(tau_grid[i]), float(phi_grid[j]))
    return report.max_value, report.argmax
