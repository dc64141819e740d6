"""Brute-force verification of the entropic-sum bounds.

Everything here re-derives the analytic results numerically and
independently of them: exact grid scans of the entropic sum over the
reduced rectangle D (optionally over the full angle domain, unfolded
from a grid on D and compared with it to validate the symmetry reduction),
certification of the equality conditions, kernel monotonicity checks and
concavity/convexity property checks.  Scans never use the bound
formulas: a ScanReport holds only what its scan measured, and callers
compare it with bounds.bound_set afterwards.  Certification reads its
bounds, and the proven range, from bound_set.  Grid values come from
pair_entropy's kernel, the one the scalar API uses, so a grid value
equals entropic_sum at that grid point bit for bit wherever numpy's
float64 sin and cos agree with math's.

Grids are uniform with both endpoints included, so the corners of D, which
are the analytic minimizers, are exactly represented and tight bounds are
attained on the grid rather than merely approached.  Grid evaluation is
chunked into blocks of whole rows of tiles (below), and the blocks are
split into contiguous runs, one per worker, of about equal kept work
(grid points to evaluate, not rows): a scan takes one worker per usable
CPU, at most _MAX_WORKERS (two; no larger count was measured), one per
_WORKER_POINTS grid points its stage evaluates (every grid point where
no tile is skipped) and one per block, so small scans (refinement
windows, test grids) and pruned scans with little kept work stay in the
calling thread.  The first run is the caller's own, the others go to
helper threads started for the scan, run in copies of the caller's
context (so numpy's error state holds in them) and joined before it
returns.  The workers share the _CHUNK_POINTS budget: a block
takes rows of tiles while its stage evaluates at most _CHUNK_POINTS /
workers points (one row of tiles may hold more, at most
max(_WORKER_POINTS / _MAX_WORKERS, n_phi) points; GridSpec caps n_phi).
Each scan allocates one workspace, seven arrays per worker of its
largest block's points, and the stage, its rectangles packed one after
another, and the kernel write into it, so no block allocates a temporary
of its own and every array stays in a core's L2 cache.  The worker cap
bounds the workspace whatever the CPU count: at most
7 max(_CHUNK_POINTS, _MAX_WORKERS n_phi) float64 values.  The bound pass
(below) stays within that bound too: it takes its subgrid and its tile
bounds a chunk at a time, in 8 max(_CHUNK_POINTS / 2, n_phi) and
14 max(_CHUNK_POINTS / 4, n_phi) values, and keeps two column indices
per order and row of tiles.

Pruning.  A scan of at least _PRUNE_POINTS grid points skips, for each
order, the tiles that cannot hold a grid extremum or a tie with one.  A
tile (_tile_edges) is a rectangle of about _TILE_SIDE^2 grid points.  The
sum is F(h_x) + F(h_y) + F(h_z), where F(h) is the pair entropy of
(1/2 + h, 1/2 - h): symmetric in h and, for every alpha > 0, falling as
|h| grows, since binary Tsallis entropy is symmetric and concave.  The
grid's h_x is fl(a b), a product of a row's (sin 2 tau)/2 and a column's
cos phi (sin phi for h_y), so |h_x| = fl(|a| |b|); fl is monotone, so the
products of the least and of the greatest |a| and |b| over the tile's
rows and columns bound every |h_x| of the tile, and h_z, (cos 2 tau)/2,
is bounded by its rows alone.  F at the greatest |h| of the three,
summed by the grid's own kernel in the grid's order, gives LB, a lower
bound of the tile's grid sums; F at the least |h| gives UB.  The
incumbents are the least and greatest sums over a subgrid of true grid
points (_subgrid): every other tile's first row and column, the rows
taken before _tile_edges caps them, and the grid's last.  An order
skips a tile when LB > least + _PRUNE_MARGIN and UB < greatest -
_PRUNE_MARGIN.  This is sound: the computed F is monotone in |h| only up
to rounding, and the margin covers that rounding and the two additions,
so every grid sum of a skipped tile exceeds least, which is at least the
grid minimum, and falls below greatest, at most the grid maximum.
Neither extremum nor any tie with it lies in a skipped tile, so the
extrema and their witnesses are those of the exhaustive scan, which an
infinite margin gives.  Pruning speeds up the exact grid answer and
proves nothing between grid points.  The bound pass (_kept_spans) runs
in the calling thread and leaves each order's span in each row of
tiles, from its first kept tile to its last (measured as fast as
separate runs of kept tiles, with fewer kernel calls); the stage runs on
the span of every order's kept tiles.  Consecutive rows of tiles with
the same span form one rectangle, and each order's kernel runs on its
own rectangles in the block's workspace (_blocks).

Extrema merge deterministically on (value, tau index, phi index), so
results do not depend on chunking, tiles or workers, and tie-breaking is
always lowest tau, then lowest phi.  The bytes cannot depend on the
worker count either: a grid value's arithmetic is that of its point
alone (the same operations in the same order, out= or not), whichever
thread computed it.

A scan evaluates every order it is given in one pass.  The stage vectors,
(sin 2 tau)/2 and (cos 2 tau)/2 per row and cos phi and sin phi per
column, are taken once per scan, and the order-independent stage of each
block (the outcome probabilities of the x and y Bloch components) once
per block for all orders.  The z component depends on the row alone, so
each order's z term, the pair entropy of (1/2 + h_z, 1/2 - h_z), is
taken once per scan too, one value per grid row from the grid's own
kernel; the subgrid and the blocks add slices of it.  Only the x and y
pair entropies and the reduction run per block and order.  An order's
arithmetic, and the tiles it skips, are the same whichever orders share
its pass, so scan_extrema and scan_full_domain_consistency are
scan_orders and full_domain_orders with one order.  A non-finite value
raises ValueError naming the order, and the grid point where there is
one.  The first one met is reported.  Computing the z terms raises
nothing: a non-finite z term is met in the first sum that adds it, at
the first grid point of its row that the order evaluates.  The bound
pass comes first: its subgrid in chunks of rows, in grid order, and
within a chunk the orders in the order given (the chunk's first
non-finite sum in grid order, with its grid point), then its tile bounds
in chunks of rows of tiles, the same way (the tile named by its first
and last grid points).  Then the blocks, in grid order; within a block
the orders in the order given, and within an order its rectangles, each
in grid order.  An error in a run stops the later runs at their next
block, and the earliest run's error is raised in the caller, after every
helper has ended.  Certification evaluates its
states in one batch under the same rule, so a NaN can never let a check
pass.  Grids and certification share one pair formula, (1/2 + h, 1/2 - h)
with h = s/2, and clip to [-1, 1] only the 1-D trig vectors (the Bloch
components when certifying): |h| <= 1/2 then keeps both in [0, 1]
without a clip of the grid.  Halving is exact (short of subnormals, where
1/2 +- h is 1/2 anyway), so fl(1/2 + s/2) = fl(1 + s)/2,
fl((a/2) b) = fl(a b)/2 and the pairs are bitwise clip((1 +- s)/2, 0, 1).

All stochastic checks take an explicit seed; DEFAULT_SEED fixes the
default so failures are reproducible.  Pure states are sampled uniformly
on the sphere (area measure), mixed states uniformly in the ball.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .bounds import bound_set, integer_order, kernel_f, kernel_g
from .entropy import AlphaLike, TsallisParam, _pair_entropy_into, as_param, pair_entropy, phi, tsallis_entropy
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

# Grid points a block's stage evaluates, shared among a scan's workers; a
# block takes whole rows of tiles (at least one).  At 65,536 points and
# one worker each float64 array of a block is 512 KB, 256 KB each with two,
# and a worker's seven arrays stay in a core's L2 cache; blocks a few times
# that ran about 3x slower.  In cache the per-order pair_entropy kernel
# dominates.  All blocks of an exhaustive 2001^2 scan in one thread, best
# of 7, at 16 and 32 rows per block: 36-43 ms per order on the squaring
# chain (4), 53-64 ms on pow at 0.5, 80-118 ms at 2.5, 47-60 ms on
# Shannon's branch and 84-101 ms on expm1's, against 14-23 ms for the
# shared pair stage (2-core Xeon, numpy 2.4.6).  A pruned scan packs its
# blocks with the points of its spans, not the rows of tiles they cross,
# so it runs few full blocks: each kernel call costs tens of microseconds
# of Python besides 12-30 ns a point.  The bound pass's chunks take their
# size from it too.  Results do not depend on it (deterministic reduction).
# The budget stays shared rather than one per worker: a full block per
# worker cut the raw scan time by about 20%, but it doubled the workspace,
# and the benchmark's host-speed probe, run between passes, then took
# fewer page faults and ran faster, which hid the gain (ROADMAP item 5).
_CHUNK_POINTS = 65_536
# A scan takes at most one worker per full default chunk of grid points.
# Fixed at import, so a budget set for a test shapes the blocks alone.
_WORKER_POINTS = _CHUNK_POINTS
# Most worker threads a scan takes.  One and two workers were measured
# (BENCH_15.json, 2-core Xeon); more are unverified: each halves the blocks
# again, so the per-block Python work, which holds the interpreter lock,
# grows while the arithmetic per thread shrinks.  Workers hand the lock
# over at each numpy call, so the calls a block makes per order, not only
# its arithmetic, set how long they wait on each other.  The cap also
# bounds the scan's workspace, which holds seven block arrays per worker.
_MAX_WORKERS = 2
# Pruning (module docstring).  A tile holds about _TILE_SIDE^2 grid points:
# on 2001^2, 16 x 16 tiles leave 5.1% of the points to evaluate at
# alpha = 0.5, 8.9% at 1 and 18.7% at 4; on 101 x 40001 the 1 x 400 tiles
# leave 2.6-5.4% at 0.5, 1, 1.005 and 4, where 32 x 32 tiles left 95%.
# Scans of fewer than _PRUNE_POINTS grid points are exhaustive: at 513^2
# the bound pass and the extra kernel calls cost more than the skipped
# tiles saved at three of four order sets, and at 801^2 pruning won where
# an order kept under about half of the points (2-core Xeon, numpy 2.4.6).
_TILE_SIDE = 16
_PRUNE_POINTS = 2**19
# An order skips a tile only when its lower bound exceeds the incumbent
# minimum by more than this and its upper bound falls short of the
# incumbent maximum by more than this.  It covers rounding: the computed
# pair entropy rose with |h| by at most 1.7e-14 over 3 million |h| values
# in [0, 1/2] at 30 orders from 0.01 to 1000 (the most at 0.98999, where
# pow's cancellation near alpha = 1 peaks; at most 4.5e-16 at the orders
# off (0.9, 1.05)), so a grid sum lies within 3 x 1.7e-14 plus two
# roundings of its tile's bounds, under 6e-14.  math.inf gives the
# exhaustive scan.
_PRUNE_MARGIN = 1e-12

# refined_maximum's box: +-_REFINE_WINDOW coarse steps, _REFINE_FACTOR times finer.
_REFINE_WINDOW = 2
_REFINE_FACTOR = 10


def _count(value: int, name: str) -> int:
    """value as an int through operator.index; TypeError naming name for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Uniform scan grid; endpoints of each interval are grid points.

    n_tau, n_phi count the points along tau and phi over D, at least 2
    each; every scan function takes its grid on D.  Counts must be integers
    (numpy integers included); anything else raises TypeError.
    Each count is capped at MAX_POINTS (1,000,001), which keeps a one-row
    scan block near 8 MB per array and a scan's workspace, seven such
    arrays for each of at most two workers, near 112 MB (a pruned scan's
    bound pass holds less); each order of a scan adds one n_tau-long
    vector, its z term per row.  A larger count raises ValueError.
    """

    MAX_POINTS: ClassVar[int] = 1_000_001

    n_tau: int
    n_phi: int

    def __post_init__(self) -> None:
        for name in ("n_tau", "n_phi"):
            object.__setattr__(self, name, _count(getattr(self, name), f"GridSpec.{name}"))
        if not (2 <= self.n_tau <= self.MAX_POINTS and 2 <= self.n_phi <= self.MAX_POINTS):
            raise ValueError(
                f"grid axes need at least 2, at most {self.MAX_POINTS} points, got {self.n_tau}x{self.n_phi}"
            )


DEFAULT_GRID = GridSpec(2001, 2001)


@dataclass(frozen=True)
class ScanReport:
    """Extrema of the entropic sum over a grid on D, with witnesses.

    Every field is measured or given; the report holds no bound.  Against
    bound_set(alpha), min_value - lower is nonnegative up to rounding, and
    where upper_pure is not None (the proven range) max_value lies within
    grid tolerance below it.  For non-integer alpha > 1 max_value is the
    only pure-state upper information available.  points_evaluated counts
    the grid points at which the scan ran the order's kernel: n_tau n_phi
    where the scan is exhaustive, fewer where it prunes (module
    docstring), and the same for any worker count or chunk budget.
    """

    alpha: TsallisParam
    min_value: float
    max_value: float
    argmin: PureStateAngles
    argmax: PureStateAngles
    grid: GridSpec
    points_evaluated: int


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


def _pair_sums(pairs: _Pairs, z_term: np.ndarray, alpha: TsallisParam, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entropic sums from the x and y outcome pairs and the z term, the z pair's entropies.

    The result has the shape of the x pair; the y pair has that shape too,
    and z_term broadcasts against it, so a grid passes its z term as one
    value per row, each computed once per scan.  out, of shape
    (3, *x shape), takes the x and y terms (entropy._pair_entropy_into's
    out): the sum is written into out[0] and returned.  Without out one
    such array is allocated.
    """
    x, y = pairs
    if out is None:
        out = np.empty((3, *x[0].shape))
    total = _pair_entropy_into(*x, alpha, out[:2])
    total += _pair_entropy_into(*y, alpha, out[1:])
    total += z_term
    return total


def _entropic_sums(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Entropic sums at Bloch components (bx, by, bz) of one shape."""
    x, y, z = _clipped_pairs(bx, by, bz)
    return _pair_sums([x, y], pair_entropy(*z, alpha), alpha)


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


_Stage = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _stage(tau_grid: np.ndarray, phi_grid: np.ndarray) -> _Stage:
    """A scan's 1-D stage vectors: (sin 2 tau)/2, (cos 2 tau)/2 per row and cos phi, sin phi per column.

    Each sine and cosine is clipped to [-1, 1], so every Bloch half h of
    the grid, a product of two of these (x and y) or (cos 2 tau)/2 itself
    (z), has |h| <= 1/2.
    """
    half_s2t, half_c2t = (0.5 * np.clip(f(2.0 * tau_grid), -1.0, 1.0) for f in (np.sin, np.cos))
    cos_phi, sin_phi = (np.clip(f(phi_grid), -1.0, 1.0) for f in (np.cos, np.sin))
    return half_s2t, half_c2t, cos_phi, sin_phi


def _grid_pairs(stage: _Stage, rows, cols, out: np.ndarray) -> None:
    """The x and y outcome pairs on the grid rows x cols, written into out[:4].

    rows and cols (slices or index arrays) select from the stage vectors;
    out has shape (5, rows, cols), and out[4] is overwritten.  The z pair
    depends on the row alone, _half_pairs of the stage's (cos 2 tau)/2, and
    a scan takes its entropies once (_scan_rectangle).
    """
    half_s2t, _, cos_phi, sin_phi = stage
    s2t = half_s2t[rows][:, None]
    h = out[4]
    for k, trig in ((0, cos_phi[cols]), (2, sin_phi[cols])):
        # _half_pairs of s2t * trig, each pass written into out
        np.multiply(s2t, trig, out=h)
        np.add(0.5, h, out=out[k])
        np.subtract(0.5, h, out=out[k + 1])


def _workers(points: int) -> int:
    """Threads for a scan that evaluates this many grid points: the usable CPUs, at most _MAX_WORKERS and one per _WORKER_POINTS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, points // _WORKER_POINTS))


def _tile_steps(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[int, int]:
    """Rows and columns of a tile about square in angle, with about _TILE_SIDE^2 points and at least one of each."""
    d_tau, d_phi = ((float(axis[-1]) - float(axis[0])) / (len(axis) - 1) for axis in (tau_grid, phi_grid))
    side = max(_TILE_SIDE * math.sqrt(d_tau * d_phi), d_tau, d_phi)
    return max(1, round(side / d_tau)), max(1, round(side / d_phi))


def _tile_edges(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pruned scan's tile boundaries: grid indices from 0 to n_tau, and from 0 to n_phi.

    Tiles take _tile_steps (16 x 16 on 2001^2 and on the 501 x 2001
    full-domain unfolding, 1 x 400 on 101 x 40001), with at most
    max(1, _WORKER_POINTS / _MAX_WORKERS / n_phi) rows: a row of tiles then
    holds at most max(_WORKER_POINTS / _MAX_WORKERS, n_phi) points, so a
    block, at least one row of tiles, keeps the workspace bound of the
    module docstring.  The last tile along an axis may be shorter.
    """
    n_tau, n_phi = len(tau_grid), len(phi_grid)
    rows, cols = _tile_steps(tau_grid, phi_grid)
    rows = min(rows, max(1, _WORKER_POINTS // _MAX_WORKERS // n_phi))
    return np.append(np.arange(0, n_tau, rows), n_tau), np.append(np.arange(0, n_phi, cols), n_phi)


def _subgrid(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The incumbent subgrid's rows and columns: every other tile's first grid index along each axis, and the last.

    The tiles are _tile_steps's, before _tile_edges caps their rows, so a
    wide grid's thin tiles do not make the subgrid denser.  Every other
    tile, not every one: at twelve orders from 0.25 to 10 on 801^2, 2001^2,
    101 x 40001 and the 501 x 2001 unfolding, each order's points evaluated
    came out within 0.2% of the grid of those with every tile's first row
    and column, mostly fewer, from a quarter of the subgrid.
    """
    steps = _tile_steps(tau_grid, phi_grid)
    return tuple(
        np.union1d(np.arange(0, len(axis), 2 * step), len(axis) - 1) for axis, step in zip((tau_grid, phi_grid), steps)
    )


def _incumbents(
    alphas: Sequence[TsallisParam],
    stage: _Stage,
    z_terms: np.ndarray,
    sub: tuple[np.ndarray, np.ndarray],
    where: Callable[[int, int], str],
) -> list[tuple[float, float]]:
    """Each order's least and greatest sum over the subgrid sub = (rows, columns) of true grid points.

    z_terms, of shape (orders, grid rows, 1), holds each order's z term per
    grid row.  The subgrid is evaluated a chunk of rows at a time, at most
    max(_CHUNK_POINTS / 2, columns) points, in one array of eight planes
    of that size, and within a chunk the orders in the given order.  Raises
    ValueError at a non-finite sum, naming its grid point (see _extrema).
    """
    rows, cols = sub
    step = max(1, _CHUNK_POINTS // 2 // cols.size)
    scratch = np.empty((8, min(step, rows.size) * cols.size))
    least, greatest = [math.inf] * len(alphas), [-math.inf] * len(alphas)
    for r in range(0, rows.size, step):
        chunk = rows[r : r + step]
        # the chunk's x and y pairs and stage scratch, then the kernel's three arrays
        w = scratch[:, : chunk.size * cols.size].reshape(8, chunk.size, cols.size)
        _grid_pairs(stage, chunk, cols, w[:5])
        pairs = [(w[0], w[1]), (w[2], w[3])]
        for o, alpha in enumerate(alphas):
            _, low, _, high = _extrema(
                _pair_sums(pairs, z_terms[o, chunk], alpha, out=w[5:]),
                alpha,
                lambda k: where(chunk[k // cols.size], cols[k % cols.size]),
            )
            least[o], greatest[o] = min(least[o], low), max(greatest[o], high)
    return list(zip(least, greatest))


def _abs_ranges(v: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest |v| over each tile's span v[edges[t] : edges[t + 1]], edges running from 0 to len(v)."""
    a = np.abs(v)
    return np.minimum.reduceat(a, edges[:-1]), np.maximum.reduceat(a, edges[:-1])


def _tile_ranges(stage: _Stage, row_edges: np.ndarray, col_edges: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """_abs_ranges of (sin 2 tau)/2 and (cos 2 tau)/2 per row of tiles, then of cos phi and sin phi per column."""
    half_s2t, half_c2t, cos_phi, sin_phi = stage
    return [
        *(_abs_ranges(v, row_edges) for v in (half_s2t, half_c2t)),
        *(_abs_ranges(v, col_edges) for v in (cos_phi, sin_phi)),
    ]


def _bound_pairs(ranges: list[tuple[np.ndarray, np.ndarray]], tiles: slice, out: np.ndarray) -> _Pairs:
    """The (x, y, z) outcome pairs at the greatest |h| and at the least of each tile in the rows of tiles `tiles`.

    ranges is _tile_ranges.  Each pair has shape (2, rows of tiles,
    columns of tiles), the z pair one value per row of tiles: index 0
    holds the greatest |h|, whose sums are the tiles' lower bounds LB, and
    index 1 the least, whose sums are the upper bounds UB (module
    docstring).  The grid's |h| is fl(|a| |b|) and fl is monotone, so the
    products of the ends of the tile's row and column ranges of |a| and
    |b| bound it.  The x and y pairs are written into out[:8], of shape
    (12, rows of tiles, columns of tiles), and out[8:] is overwritten.
    """
    (s_lo, s_hi), (z_lo, z_hi), (x_lo, x_hi), (y_lo, y_hi) = ranges
    s_lo, s_hi, z_lo, z_hi = (v[tiles] for v in (s_lo, s_hi, z_lo, z_hi))
    plus, minus, h = (out[k : k + 4].reshape(2, 2, *out.shape[1:]) for k in (0, 4, 8))  # x then y; greatest |h| then least
    for k, (lo, hi) in enumerate(((x_lo, x_hi), (y_lo, y_hi))):
        np.multiply.outer(s_hi, hi, out=h[k, 0])
        np.multiply.outer(s_lo, lo, out=h[k, 1])
    # _half_pairs of h, written into out
    np.add(0.5, h, out=plus)
    np.subtract(0.5, h, out=minus)
    return [(plus[0], minus[0]), (plus[1], minus[1]), *_half_pairs(np.stack([z_hi, z_lo])[:, :, None])]


def _kept_spans(
    alphas: Sequence[TsallisParam],
    stage: _Stage,
    z_terms: np.ndarray,
    row_edges: np.ndarray,
    col_edges: np.ndarray,
    sub: tuple[np.ndarray, np.ndarray],
    where: Callable[[int, int], str],
) -> np.ndarray:
    """The bound pass: each order's span in each row of tiles.

    Returns spans, of shape (orders, rows of tiles, 2): the first grid
    column of the order's first kept tile in the row and the end column
    of its last, (0, 0) where it keeps none; the order evaluates every
    tile between them.  An order keeps a tile unless its lower bound
    LB > least + _PRUNE_MARGIN and its upper bound UB < greatest -
    _PRUNE_MARGIN, least and greatest being its incumbents over the
    subgrid sub (_incumbents, which adds z_terms) and LB and UB the sums
    of _bound_pairs, whose z terms are taken from the bounds' own z pairs.
    The bounds are taken a chunk of rows of tiles at a time, at most
    max(_CHUNK_POINTS / 4, columns of tiles) tiles of fourteen values, and
    within a chunk the orders in the given order.  Raises ValueError at a
    non-finite subgrid sum (_incumbents) or tile bound, naming the tile.
    The pass runs in the calling thread: on two workers, each allocating
    its chunks' arrays, it took 1.8 ms on 2001^2 at alpha = 2.5 against
    1.4 ms on one (2-core Xeon, numpy 2.4.6).
    """
    incumbents = _incumbents(alphas, stage, z_terms, sub, where)
    ranges = _tile_ranges(stage, row_edges, col_edges)
    n_rows, n_cols = len(row_edges) - 1, len(col_edges) - 1
    spans = np.empty((len(alphas), n_rows, 2), dtype=int)
    step = max(1, _CHUNK_POINTS // 4 // n_cols)
    # a chunk's x and y pairs, then its sums' three arrays of two planes (the pairs' scratch before)
    scratch = np.empty((14, min(step, n_rows) * n_cols))
    for t0 in range(0, n_rows, step):
        w = scratch[:, : (min(t0 + step, n_rows) - t0) * n_cols].reshape(14, -1, n_cols)
        *pairs, z_pair = _bound_pairs(ranges, slice(t0, t0 + step), w[:12])
        sums = w[8:].reshape(3, 2, -1, n_cols)
        for o, (alpha, (least, greatest)) in enumerate(zip(alphas, incumbents)):
            lb, ub = _pair_sums(pairs, pair_entropy(*z_pair, alpha), alpha, out=sums)
            finite = np.isfinite(lb) & np.isfinite(ub)
            if not finite.all():
                t, u = divmod(int(np.argmin(finite)), n_cols)
                v = lb[t, u] if not math.isfinite(lb[t, u]) else ub[t, u]
                t += t0
                raise ValueError(
                    f"entropic sum bound is {float(v)!r} at alpha={alpha.alpha!r}, on the tile from "
                    f"{where(row_edges[t], col_edges[u])} to {where(row_edges[t + 1] - 1, col_edges[u + 1] - 1)}"
                )
            keep = (lb <= least + _PRUNE_MARGIN) | (ub >= greatest - _PRUNE_MARGIN)
            ends = np.stack([np.argmax(keep, axis=1), n_cols - np.argmax(keep[:, ::-1], axis=1)], axis=1)
            spans[o, t0 : t0 + len(keep)] = np.where(keep.any(axis=1)[:, None], col_edges[ends], 0)
    return spans


def _outside(spans: np.ndarray, row_edges: np.ndarray, sub: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """Per order, its subgrid points outside its spans: the points where only the bound pass ran its kernel."""
    rows, cols = sub
    at = spans[:, np.searchsorted(row_edges, rows, side="right") - 1]  # each subgrid row's span
    inside = np.searchsorted(cols, at[..., 1]) - np.searchsorted(cols, at[..., 0])
    return (rows.size * cols.size - inside.sum(axis=1)).tolist()


def _blocks(spans: np.ndarray, row_edges: np.ndarray, budget: int) -> tuple[list[tuple[list, list]], np.ndarray]:
    """Rows of tiles packed into blocks, in grid order, with each block's rectangles and their points.

    spans, of shape (1 + orders, rows of tiles, 2), holds the stage's span
    in each row of tiles, and then each order's (as _kept_spans).  A block
    takes rows of tiles while its stage rectangles hold at most budget
    points, and at least one row; a row of tiles with an empty stage span
    belongs to no block.  Consecutive rows of tiles with the same stage
    span share a stage rectangle [row, end row, column, end column,
    offset], offset being its first point in the block's packed
    workspace; an order's rectangles [stage rectangle, row, end row,
    column, end column] join consecutive rows of tiles of one stage
    rectangle with the same span.  So each list of rectangles is in grid
    order and holds no grid point twice.  Returns (stage rectangles,
    rectangles per order) per block, and the points of each block's
    rectangles, shape (1 + orders, blocks): the stage's, then each order's.
    """
    rows = row_edges.tolist()
    stage, *orders = spans.tolist()
    blocks: list[tuple[list, list]] = []
    areas: list[list[int]] = []
    for t, ((c0, c1), *own_spans) in enumerate(zip(stage, *orders)):
        if c0 == c1:
            continue
        r0, r1 = rows[t], rows[t + 1]
        if not blocks or areas[-1][0] + (r1 - r0) * (c1 - c0) > budget:
            blocks.append(([], [[] for _ in orders]))
            areas.append([0] * len(spans))
        (rects, order_rects), area = blocks[-1], areas[-1]
        joined = bool(rects) and rects[-1][1] == r0 and rects[-1][2] == c0 and rects[-1][3] == c1
        if joined:
            rects[-1][1] = r1
        else:
            rects.append([r0, r1, c0, c1, area[0]])
        area[0] += (r1 - r0) * (c1 - c0)
        for o, (own, (d0, d1)) in enumerate(zip(order_rects, own_spans), 1):
            if d0 == d1:
                continue
            last = own[-1] if joined and own else None
            if last is not None and last[0] == len(rects) - 1 and last[2] == r0 and last[3] == d0 and last[4] == d1:
                last[2] = r1
            else:
                own.append([len(rects) - 1, r0, r1, d0, d1])
            area[o] += (r1 - r0) * (d1 - d0)
    return blocks, np.array(areas).T


def _scan_rectangle(
    alphas: Sequence[TsallisParam], tau_grid: np.ndarray, phi_grid: np.ndarray
) -> list[tuple[float, tuple[int, int], float, tuple[int, int], int]]:
    """Exact grid extrema of every order in one pass, lowest-(tau, phi) tie-breaking.

    Returns (min, (i, j), max, (i, j), points evaluated) per order.  The
    stage vectors and each order's z term per row are taken once per
    scan, and the bound pass (_kept_spans) gives each order's span per
    row of tiles.  The blocks, whole rows of tiles packed by the points
    their stage evaluates (_blocks), are split into contiguous runs of
    about equal kept work, one per worker: the first runs in the calling
    thread, each other in a helper thread under the caller's context
    (numpy's error state included), and every worker writes into its own
    part of one workspace.  In a block the stage runs on its stage
    rectangles, each packed into the worker's part, then each order's
    kernel on its own rectangles, adding a slice of its z term.  Raises
    ValueError at the first non-finite value met: the bound pass's first,
    then blocks in grid order, within a block the orders in the given
    order, and within an order its rectangles in grid order (see
    _extrema).  An error in a run stops every later run at its
    next block and is raised here after every helper has ended; the
    earliest run's error wins.
    """
    if not alphas:
        return []
    n_tau, n_phi = len(tau_grid), len(phi_grid)

    def where(i: int, j: int) -> str:
        return f"(tau, phi) = ({float(tau_grid[i])!r}, {float(phi_grid[j])!r})"

    stage = _stage(tau_grid, phi_grid)
    # each order's z term per row, from the grid's own kernel: order o's into
    # z_terms[o], the next plane its kernel's scratch
    ((z_plus, z_minus),) = _half_pairs(stage[1])
    z_terms = np.empty((len(alphas) + 1, n_tau))
    for o, alpha in enumerate(alphas):
        _pair_entropy_into(z_plus, z_minus, alpha, z_terms[o : o + 2])
    z_terms = z_terms[:, :, None]  # one value per row, broadcast along it
    if n_tau * n_phi >= _PRUNE_POINTS:
        row_edges, col_edges = _tile_edges(tau_grid, phi_grid)
        sub = _subgrid(tau_grid, phi_grid)
        spans = _kept_spans(alphas, stage, z_terms, row_edges, col_edges, sub, where)
        outside = _outside(spans, row_edges, sub)
    else:  # the exhaustive scan: each row of tiles is a block, and every tile is kept
        rows = max(1, _CHUNK_POINTS // _workers(n_tau * n_phi) // n_phi)
        row_edges = np.append(np.arange(0, n_tau, rows), n_tau)
        spans = np.tile([0, n_phi], (len(alphas), len(row_edges) - 1, 1))
        outside = [0] * len(alphas)
    # the stage's span in each row of tiles: from the first column any order keeps to the last
    kept = spans[..., 0] < spans[..., 1]
    union = np.stack([np.where(kept, spans[..., 0], n_phi).min(axis=0), spans[..., 1].max(axis=0)], axis=1)
    union[~kept.any(axis=0)] = 0
    # one worker per _WORKER_POINTS points the stage evaluates, which share the point budget
    workers = _workers(int(np.diff(row_edges) @ (union[:, 1] - union[:, 0])))
    blocks, areas = _blocks(np.concatenate([union[None], spans]), row_edges, _CHUNK_POINTS // workers)
    n_blocks = len(blocks)
    workers = min(workers, n_blocks)
    # the points evaluated: the kernel's rectangles, and the subgrid's points outside them
    points = [int(a.sum()) + out for a, out in zip(areas[1:], outside)]
    # kept work per block, the stage counted as one order's kernel
    work = areas.sum(axis=0)
    # run k starts at the first block whose midpoint in the cumulative work reaches k / workers of it
    middle = np.cumsum(work) - work / 2.0
    bounds = [0, *np.searchsorted(middle, work.sum() * np.arange(1, workers) / workers).tolist(), n_blocks]
    # per worker: the largest block's packed x and y pairs and stage scratch, then the kernel's three arrays
    workspace = np.empty((workers, 7, int(areas[0].max())))
    found = [[[] for _ in alphas] for _ in range(n_blocks)]  # per block and order: ((min, (i, j)), (max, (i, j)))
    errors: list[Optional[BaseException]] = [None] * workers  # per run, the error that ended it

    def run(k: int) -> None:
        """Worker k's blocks, a contiguous run in grid order, in its part of the workspace."""
        part = workspace[k]
        for b in range(bounds[k], bounds[k + 1]):
            if any(e is not None for e in errors[:k]):
                return  # an earlier run failed: its error is the one raised
            rects, order_rects = blocks[b]
            views = []
            for r0, r1, c0, c1, offset in rects:
                w = part[:5, offset : offset + (r1 - r0) * (c1 - c0)].reshape(5, r1 - r0, c1 - c0)
                _grid_pairs(stage, slice(r0, r1), slice(c0, c1), w)
                views.append(w)
            for o, alpha in enumerate(alphas):
                for s, r0, r1, c0, c1 in order_rects[o]:
                    i0, j0 = rects[s][0], rects[s][2]
                    w = views[s][:4, r0 - i0 : r1 - i0, c0 - j0 : c1 - j0]
                    pairs = [(w[0], w[1]), (w[2], w[3])]
                    width = c1 - c0
                    # the kernel's three arrays, after the stage's four: contiguous
                    # whatever the span's width, so its in-place pow, log and expm1
                    # run on contiguous rows, as in every exhaustive scan
                    out = part[4:, : (r1 - r0) * width].reshape(3, r1 - r0, width)

                    def at(j: int) -> tuple[int, int]:
                        return r0 + j // width, c0 + j % width

                    k_min, v_min, k_max, v_max = _extrema(
                        _pair_sums(pairs, z_terms[o, r0:r1], alpha, out=out), alpha, lambda j: where(*at(j))
                    )
                    found[b][o].append(((v_min, at(k_min)), (v_max, at(k_max))))

    def helper(k: int) -> None:
        try:
            run(k)
        except BaseException as exc:  # raised in the caller, after the join
            errors[k] = exc

    # each helper runs in its own copy of the caller's context (one context cannot run in two threads)
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(helper, k)) for k in range(1, workers)
    ]
    try:
        for thread in helpers:
            thread.start()
        run(0)
        for thread in helpers:
            thread.join()
    except BaseException as exc:  # an interrupt included: stop every helper at its next block
        errors[0] = exc
        raise
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    results = []
    for o, count in enumerate(points):
        lows, highs = zip(*(pair for per_block in found for pair in per_block[o]))
        # on (value, (i, j)): ties keep the lowest (i, j) whichever block found them
        v_min, at_min = min(lows)
        v_max, at_max = min(highs, key=lambda c: (-c[0], c[1]))
        results.append((v_min, at_min, v_max, at_max, count))
    return results


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
    return [
        ScanReport(
            alpha=a,
            min_value=mn,
            max_value=mx,
            argmin=PureStateAngles(float(tau_grid[i_mn]), float(phi_grid[j_mn])),
            argmax=PureStateAngles(float(tau_grid[i_mx]), float(phi_grid[j_mx])),
            grid=grid,
            points_evaluated=points,
        )
        for a, (mn, (i_mn, j_mn), mx, (i_mx, j_mx), points) in zip(
            params, _scan_rectangle(params, tau_grid, phi_grid)
        )
    ]


def scan_extrema(alpha: AlphaLike, grid: Optional[GridSpec] = None) -> ScanReport:
    """Exact extrema of the entropic sum over a grid on D.

    Returns the extrema over the grid points (no refinement) together
    with witness states, those of an exhaustive evaluation (a pruned scan
    skips only tiles that hold neither extremum nor a tie with one).  Corners of D are on the grid, so for tight
    orders the grid minimum equals bound_set(alpha).lower to rounding.  This
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
        for (mn_f, _, mx_f, _, _), (mn_d, _, mx_d, _, _) in zip(full, reduced)
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


def _seed(seed: int) -> int:
    """seed as an int; TypeError for a non-integer (None included), ValueError below 0."""
    seed = _count(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    return seed


def sample_pure_states(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n Bloch vectors drawn uniformly on the unit sphere, shape (n, 3).

    n = 0 gives shape (0, 3).  Raises ValueError for a negative n or seed
    and TypeError for a non-integer one (a seed of None included).
    """
    n = _count(n, "n")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    rng = np.random.default_rng(_seed(seed))
    z = rng.uniform(-1.0, 1.0, size=n)
    az = rng.uniform(0.0, TWO_PI, size=n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def sample_mixed_states(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n Bloch vectors drawn uniformly in the unit ball, shape (n, 3).

    seed is checked as in sample_pure_states, and n by sample_pure_states,
    which draws the directions.
    """
    rng = np.random.default_rng(_seed(seed))
    directions = sample_pure_states(n, seed=rng.integers(0, 2**63))
    radii = rng.uniform(0.0, 1.0, size=len(directions)) ** (1.0 / 3.0)
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
    outside the tight range, for n_samples below 1, for a tolerance that
    is negative, infinite or NaN, and at a non-finite sum anywhere in the
    batch, naming the order and the Bloch vector.  A non-integer n_samples
    raises TypeError.
    """
    bounds = bound_set(alpha)
    a = bounds.alpha
    if bounds.upper_pure is None:
        raise ValueError(
            f"equality conditions are proven only for alpha in (0, 1] and integer "
            f"alpha >= 2, got {a.alpha!r}"
        )
    n_samples = _count(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
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
    ones.  Raises ValueError, before allocating the grid, for an order
    outside bound_set's proven range (so 1 + 1e-13 never passes on g_1 = 0),
    for n_points below 2, where there is nothing to compare, and above
    GridSpec.MAX_POINTS; and, through kernel_g, for an order whose g
    exceeds the float range, naming the first u where it does.  A
    non-integer n_points raises TypeError.
    """
    a = as_param(alpha)
    if bound_set(a).upper_pure is None:
        raise ValueError(f"kernel monotonicity needs alpha in (0, 1] or integer alpha >= 2, got {a.alpha!r}")
    n_points = _count(n_points, "n_points")
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
    unless 1 <= alpha_lo < alpha_hi < inf (NaN included), for n_points
    below 3, which leaves no interior point, and TypeError for a
    non-integer n_points.
    """
    if not (1.0 <= alpha_lo < alpha_hi < math.inf):
        raise ValueError(f"need 1 <= alpha_lo < alpha_hi < inf, got {alpha_lo!r}, {alpha_hi!r}")
    n_points = _count(n_points, "n_points")
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
    ((_, _, mx, (i, j), _),) = _scan_rectangle([a], tau_grid, phi_grid)
    if mx > report.max_value:
        return mx, PureStateAngles(float(tau_grid[i]), float(phi_grid[j]))
    return report.max_value, report.argmax
