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
pair_entropy's kernel, the one the scalar API uses: where its scale is
exact a grid sum adds the x and y numerators first and scales them once
(_pair_sums), which on the scans' outcome pairs changes no bit (the
entropy module's operation order).  So a grid value equals entropic_sum
at that grid point bit for bit wherever numpy's float64 sin and cos
agree with math's.

Grids are uniform with both endpoints included, so the corners of D, which
are the analytic minimizers, are exactly represented and tight bounds are
attained on the grid rather than merely approached.  Grid evaluation is
chunked into blocks of whole rows of tiles (below), and the blocks are
split into contiguous runs, one per worker, of about equal kept work
(grid points to evaluate, not rows): a scan takes one worker per usable
CPU, at most _MAX_WORKERS (two; no larger count was measured), one per
_WORKER_POINTS grid points its stage evaluates (every grid point outside
the exact tiles where no tile is skipped) and one per block, so small
scans (refinement windows, test grids) and scans with little kept work
stay in the calling thread.  The first run is the caller's own, the others go to helper
threads started for the scan, run in copies of the caller's context (so
numpy's error state holds in them) and joined before it returns.  The
workers share the _CHUNK_POINTS budget: a block takes rows of tiles with
the same spans (below) while it holds at most _CHUNK_POINTS /
_MAX_WORKERS points, whatever the worker count (one row of tiles may hold
more, at most max(_WORKER_POINTS / _MAX_WORKERS, n_phi) points; GridSpec
caps n_phi), so the blocks do not depend on the workers and one worker's
arrays fit a core's L2 cache as two workers' do.
One block runner (_run) evaluates every grid: a scan's, and its
incumbent subgrid (below).  Each run allocates one workspace, eight
arrays per worker of its largest block's points: the stage writes a
block's four outcome planes, p over m, each x over y (p_x, p_y, m_x,
m_y), at the start of the worker's part, and each order's kernel its
four after them, so no block allocates a temporary of its own.  The
kernel takes the four planes whole (_pair_sums): each pass of it runs
over both outcomes and both axes in one numpy call, so at alpha = 2 an
order makes five calls per block (the power, the power minus p, the
sides' sum, the axes' sum and the z term) where one call per axis and
side took twelve.  The two workers hand the interpreter lock over at
each numpy call, and on 16-row blocks of 2001 columns the calls were
short enough that the workers ran one after the other (_MAX_WORKERS):
few, long calls per block let them overlap.  Each worker's run, and the
bound pass, sets numpy's
ufunc buffer to its row's length (_row_buffer: a multiple of 16, at most
numpy's default 8192) and restores the caller's: numpy's buffered iterator
copies the operands of a row broadcast whose row is shorter than the
buffer, which made the stage's product and each order's z-term
addition two to five times slower on 2001-column blocks, and no
elementwise result depends on the buffer.  The worker cap bounds the workspace
whatever the CPU count: at most 8 max(_CHUNK_POINTS, _MAX_WORKERS n_phi)
float64 values, and the subgrid's run, on fewer rows and columns, ends
before the grid's starts.  The tile bounds (below) stay within that
bound too: they are taken a chunk of rows of tiles at a time, in
14 max(_CHUNK_POINTS / 4, columns of tiles) values (one axis's kernel
at a time, on views of the chunk's pairs), their boxes on the
sphere a batch of at most _WORKER_POINTS / 16 kept tiles at a time, in
38 values per tile (14 for the box, 24 for _box_bound's scratch; 2.4
_CHUNK_POINTS values at the default budget), and the bound pass keeps
two column indices per order and row of tiles.

Pruning.  Every scan skips, for each order, the tiles that cannot hold a
grid extremum or a tie with one.  A tile (_tile_edges) is a rectangle of
about _TILE_SIDE^2 grid points.  The sum is F(h_x) + F(h_y) + F(h_z),
where F(h) is the pair entropy of (1/2 + h, 1/2 - h): symmetric in h
and, for every alpha > 0, falling as |h| grows, since binary Tsallis
entropy is symmetric and concave.  The
grid's h_x is fl(a b), a product of a row's (sin 2 tau)/2 and a column's
cos phi (sin phi for h_y), so |h_x| = fl(|a| |b|); fl is monotone, so the
products of the least and of the greatest |a| and |b| over the tile's
rows and columns bound every |h_x| of the tile, and h_z, (cos 2 tau)/2,
is bounded by its rows alone.  So the tile bounds are grid sums too, on
a grid of one point per tile.  The tile stage (_tile_stage) holds, per
row of tiles, the greatest |(sin 2 tau)/2| and |(cos 2 tau)/2| over its
rows and, per column of tiles, the greatest |cos phi| and |sin phi| over
its columns; its sums, formed as the grid's (_grid_pairs, the x and y
pair entropies plus the z terms from _z_terms), are F at the greatest |h|
of the three, LB, a lower bound of the tile's grid sums.  Stacked under
it, the least |values| give UB.  The incumbents are the least and
greatest sums of an exhaustive run over a subgrid of true grid points
(_subgrid): every other tile's first row and column, the rows taken
before _tile_edges caps them, and the grid's last; the run takes the
stage and the z terms at those rows and columns.  An order skips a tile
when LB > least + _PRUNE_MARGIN and UB < greatest - _PRUNE_MARGIN.  This
is sound: the computed F is monotone in |h| only up to rounding, and the
margin covers that rounding and the two additions, so every grid sum of
a skipped tile exceeds least, which is at least the grid minimum, and
falls below greatest, at most the grid maximum.  Neither extremum nor
any tie with it lies in a skipped tile, so the extrema and their
witnesses are those of the exhaustive scan.  A tile is exact
(_exact_tiles) when its greatest and least |h| give bitwise the same
outcome pairs on all three axes: on x and y the pairs of LB and UB, on z
_half_pair of its rows' greatest and least |(cos 2 tau)/2|.  Every grid
sum of an exact tile then equals its LB bit for bit: fl is monotone, so
each of the tile's p = fl(1/2 + |h|) and m = fl(1/2 - |h|) is pinned by
its two ends; F is even in h (a negative h swaps p and m, whose terms
add the same either way); LB adds the x, y and z terms in the grid's
order; and the tile stage's products are the grid's own.  So no order
evaluates an exact tile: each merges (LB, the tile's first grid point)
into its extrema, on the key of a block's result, and every other point
of the tile ties it after that point.  Exactness depends on the grid
alone, so the plan finds the exact tiles once.  An exact tile needs no
margin: an infinite margin skips no tile and still resolves the exact
ones.  Grid row tau = 0 is a row of exact tiles (_tile_edges), and so is
every 1 x 1 tile.  Pruning speeds up the exact grid answer and proves
nothing between grid points.  A scan may instead decide, one-sided,
whether its extrema lie within a tolerance of extrema it is given, grid
values of its own grid: it cuts at those, at a margin lower by the
tolerance, with no subgrid (full_domain_orders, against D's; the
argument is _scan_rectangle's).  The bound pass (_kept_spans) runs in the
calling thread and leaves each order's span in each row of tiles, from
its first kept tile to its last (measured as fast as separate runs of
kept tiles, with fewer kernel calls); the grid's run takes those spans,
and its stage runs on the span of every order's kept tiles.  Each block is
one rectangle of that stage, consecutive rows of tiles in which the
stage's span and every order's stay the same, so each order's kernel
runs on one rectangle in it, the block's rows times the order's span
(_blocks).

The sphere.  LB and UB treat the three |h| as independent, so they are
loose to first order in a tile's size, and kept 63-100% of 2001^2 at
orders from 1.7 to 3.2.  But every grid point lies on the pure-state
sphere to rounding.  With w = h^2, the sum is sum_k G(w_k), G(w) =
F(sqrt w), and at a grid point, with a, b a row's (sin 2 tau)/2 and
(cos 2 tau)/2 and c, s a column's cos phi and sin phi, w_x + w_y + w_z =
fl(a c)^2 + fl(a s)^2 + b^2 lies within |a^2 + b^2 - 1/4| +
|c^2 + s^2 - 1| / 4 of 1/4, plus the products' rounding (at most 2^-54).
eta (_slab) is the largest such distance over the stage plus a pad of
2^-46, 128 units of 2^-53, over ten times the at most 12 such units by
which the rounding of the products, of eta itself and of the sums of
squares below (the room, the split's filled levels and its share) can
move them; so each of those errors moves the slab outward.  So each
grid point of a tile lies in the tile's box B, w_k in [L_k, U_k] (the
squares of its least and greatest |h| per axis), and in the slab
|w_x + w_y + w_z - 1/4| <= eta.  G falls, and its slope is -alpha /
2^(alpha - 1) times K(2 sqrt w), K(u) twice the mean of (1 + t)^(alpha - 2)
over [-u, u]; by Hermite-Hadamard K rises for alpha < 2 and alpha > 3
and falls between, so G is concave off [2, 3] and convex inside
(_sphere_regime; the paper's kernel-monotonicity lemma, behind its
tight bounds, is the case alpha in (0, 1] or integer).  At 2 and 3 G is
affine and every pure state's sum is the same, so at _PRUNE_MARGIN every
tile ties an extremum and no bound can skip one; at a negative margin
(a decision's) they are bounded as concave, which affine G is too.
Each tile the monotone test keeps is bounded as its box B (_box_bound,
which takes the |h| ranges and F at them and knows nothing of tiles),
on two sides, each keeping the tighter of its bounds:
  * The chord side, LB where G is concave.  For every lam >= 0,
    G(w) + lam w is concave on [L, U], so it is least at an end, and
    with sum_k w_k <= S = 1/4 + eta,
    sum_k G(w_k) >= sum_k min(G(L_k), G(U_k) + lam (U_k - L_k)) - lam (S - sum_k L_k).
    This is the dual of minimising the three chords of G over B in the
    slab, so at its best lam, one of the chords' falls, it is the
    greedy's value (mass on the steepest chord first); any lam >= 0 gives
    a sound bound.  G(L_k) and G(U_k) are F at the box's least and
    greatest |h|, for a tile the tile bounds' own kernel values.  Where G
    is convex, max and S = 1/4 - eta give UB the same way.
  * The split side, UB where G is concave, on every box: on a tile the
    chord side has decided it decides nothing more, but the tiles it
    leaves undecided were 61-91% of the kept ones on 2001^2 (634 of 761
    at alpha = 0.5, 9,322 of 15,318 at 2.5), not worth a second gather.
    The greatest sum_k G(w_k) over B
    with sum_k w_k >= 1/4 - eta lies, by KKT (G concave, decreasing, the
    same for the three axes), at the clipped equal split w_k =
    clip(t, L_k, U_k) that sums to 1/4 - eta, or at L where sum L exceeds
    it.  The levels that the six breakpoints L_k, U_k fill, with no
    sort, tell which axes the split leaves full (U_k), empty (L_k) or
    free, and so t, the share of the free ones (with none free, the
    greatest full U_k).  Each |h| is sqrt(t) rounded down and clipped to
    the box's least and greatest |h|, so it lies in [0, 1/2]; the slab's
    pad keeps the computed t at most the exact one, so every |h| is at
    most the split's and, F falling, the sum of F there bounds the
    maximum above.  Where G is convex, the least sum with
    sum_k w_k <= 1/4 + eta lies at the split of 1/4 + eta, with t at
    least the exact one and sqrt(t) rounded up, and bounds LB.  Three
    kernel values per box.
Error budget.  These bounds compare grid sums with the exact G, so they
need eps_F, the kernel's absolute error against the exact pair entropy
at (1/2 + h, 1/2 - h): at most 1.5e-14 over [0, 1/2] at 30 orders from
0.01 to 1000 (1.1e-14 at 0.98999 and 0.99, the edges of the expm1 window,
where the pow form's cancellation peaks; a 50-digit mpmath test pins it
and the regime of G).  A grid sum lies within 3 eps_F and two roundings
(under 7e-16) of the exact sum at its point.  A chord-side bound lies
within 3 eps_F of its exact value, plus about 30 roundings of values
under 4 (under 1.4e-14; at a lam that can win, lam (S - sum L) is under
3, and lam itself carries no error: any lam >= 0 is sound).  A split-side
bound lies within 3 eps_F and two roundings of the exact sum at its
split.  So a grid sum of a skipped tile lies past its LB or UB by at
most 6 eps_F + 1.5e-14, under 1e-13, ten times under _PRUNE_MARGIN, as
the monotone bounds' 6e-14 is.  On 2001^2 every order but 2 and 3 then
evaluates 4,381 points: the tiles around each order's extrema and the
subgrid's points outside them.  Grid row tau = 0, a row of tiles of its
own (_tile_edges) whose every point (an eigenstate for every phi) ties
the minimum, is exact, and only the subgrid evaluates it.

Extrema merge deterministically on (value, tau index, phi index), so
results do not depend on chunking, tiles or workers, and tie-breaking is
always lowest tau, then lowest phi.  The bytes cannot depend on the
worker count either: a grid value's arithmetic is that of its point
alone (the same operations in the same order, out= or not), whichever
thread computed it.

A scan evaluates every order it is given in one pass.  The stage vectors,
(sin 2 tau)/2 and (cos 2 tau)/2 per row and cos phi and sin phi per
column, are taken once per grid (_Plan: a GridSpec keeps its plan, and
every later scan of it reuses the axes, the stage, the tiles, the
subgrid, the tile stage, the exact tiles and the slab), and the
order-independent stage
of each block (the outcome probabilities of the x and y Bloch
components) once per block for all orders.  The z
component depends on the row alone, so each order's z term, the pair
entropy of (1/2 + h_z, 1/2 - h_z), is taken once per scan, one value per
grid row from the grid's own kernel; the subgrid and the blocks add
slices of it.  Only the x and y pair entropies and the reduction run per
block and order.  An order's arithmetic, and the tiles it skips, are the
same whichever orders share its pass, so scan_extrema and
scan_full_domain_consistency are scan_orders and full_domain_orders with
one order.  A non-finite value raises ValueError naming the order, and
the grid point where there is one.  Computing the z terms raises
nothing: a non-finite z term is met in the first sum that adds it, at
the first grid point of its row that the order evaluates.  A scan
meets its values in three steps: the subgrid run (a decision runs none),
then the tile bounds (a non-finite bound names its tile by its first and
last grid points; in a chunk of rows of tiles the orders in the given
order, each order's tile bounds before its boxes, and in a batch of
boxes the chord side before the split side), then the grid run.  An
exact tile's grid sums are its LB, so a non-finite value there is met as
its tile bound, and the grid run never reaches it.  A run reports its
first non-finite value in grid order: the least (row, column) over every
order, ties going to the order given first.  It takes its blocks, each
whole rows of the grid, in grid order, and raises at the first block
that holds a non-finite value, for the least (row, column) over all of
that block's orders; so the value named does not depend on the blocks
or the workers.  An error in a run stops the later runs at their next
block, and the earliest run's error is raised in the caller, after
every helper has ended.  Certification evaluates its states in one batch
and names its first non-finite sum, so a NaN can never let a check
pass.  Grids, tile boxes and certification share one pair formula
(_half_pair), (1/2 + h, 1/2 - h) with h = s/2, and clip to [-1, 1] only
the 1-D trig vectors (the Bloch components when certifying): |h| <= 1/2
then keeps both in [0, 1] without a clip of the grid.  Halving is exact
(short of subnormals, where 1/2 +- h is 1/2 anyway), so fl(1/2 + s/2) =
fl(1 + s)/2, fl((a/2) b) = fl(a b)/2 and the pairs are bitwise
clip((1 +- s)/2, 0, 1).

All stochastic checks take an explicit seed; DEFAULT_SEED fixes the
default so failures are reproducible.  Pure states are sampled uniformly
on the sphere (area measure), mixed states uniformly in the ball.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional, Sequence

import numpy as np

from .bounds import bound_set, integer_order, kernel_f, kernel_g
from .entropy import (
    AlphaLike,
    TsallisParam,
    _exact_scale,
    _pair_entropy_into,
    _pair_numerator_into,
    as_param,
    phi,
    tsallis_entropy,
)
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
    "certify_orders",
    "certify_equality_conditions",
    "check_kernel_monotonicity",
    "check_alpha_concavity",
    "refined_maximum",
    "sample_pure_states",
    "sample_mixed_states",
]

DEFAULT_SEED = 12345

# Grid points the blocks of a scan's workers hold together: a block takes
# whole rows of tiles (at least one) while it holds at most _CHUNK_POINTS /
# _MAX_WORKERS points, whatever the worker count.  Each float64 array of
# such a block is 256 KB, and a worker's eight arrays (2 MB) fit a core's
# 2 MiB L2 cache; with one worker's blocks at the whole 65,536 points (4
# MB), one thread took 43-47 ms for the blocks of an exhaustive 2001^2
# scan at 2 against 30-37 ms on 16-row blocks (best of 7-9, taskset -c 0;
# with seven arrays, 8.8 against 7.5 ns a point, ROADMAP item 6); blocks a
# few times that ran about 3x slower.  The per-order kernel dominates.
# All blocks of an exhaustive 2001^2 scan in
# one thread, best of 5, at 16 and 32 rows per block, with the ufunc
# buffer at the row's 2000 (_run): 20-24 ms per order at 2 and 67-68 ms
# at 3, whose numerators are summed first and scaled once (_pair_sums),
# 35-36 ms at 0.5, 37-40 ms on the squaring chain (4), 74 ms at 2.5, 43-44
# ms on Shannon's branch and 83-85 ms on expm1's, against 9.5-12 ms for
# the shared pair stage (2-core Xeon, numpy 2.4.6).  A scan measures its
# blocks by the points of their spans, not the rows of tiles they cross,
# so it runs few blocks: each kernel call costs tens of microseconds of
# Python besides 12-30 ns a point.  The incumbent subgrid's run sizes its
# blocks by it, and the tile bounds' chunks take their size from it too.
# Results do not depend on it (deterministic reduction).
# The budget stays shared rather than one per worker: a full block per
# worker cut the raw scan time by about 20%, but it doubled the workspace,
# and the benchmark's host-speed probe, run between passes, then took
# fewer page faults and ran faster, which hid the gain (ROADMAP item 6,
# blocked on mending that probe, item 1).
_CHUNK_POINTS = 65_536
# A scan takes at most one worker per full default chunk of grid points.
# Fixed at import, so a budget set for a test shapes the blocks alone.
_WORKER_POINTS = _CHUNK_POINTS
# Most worker threads a scan takes.  One and two workers were measured
# (BENCH_15.json, 2-core Xeon); more are unverified: each adds a run whose
# per-block Python work holds the interpreter lock while the arithmetic
# per thread shrinks.  Workers hand the lock over at each numpy call, so
# the calls a block makes per order, not only its arithmetic, set how long
# they wait on each other: with one call per axis and side (about 17 per
# block at 2, stage and _extrema included), the blocks of an exhaustive
# 2001^2 scan at 2, 16 x 2001 each, took 25.2 ms on one thread and 25.0
# ms on two (best of 5), the two workers running one after the other.  So
# a block's kernel runs each pass over both outcomes and both axes in one
# call (_pair_sums; 10 calls per block at 2): 16-row blocks then took 30-41
# ms on one thread and 22-29 ms on two (27-35 ms at seven arrays; three
# rounds, best of 7, a noisy host).  The cap also bounds the scan's
# workspace, which holds eight block arrays per worker.
_MAX_WORKERS = 2
# Pruning (module docstring).  A tile holds about _TILE_SIDE^2 grid points:
# on 2001^2, with the monotone bounds alone, 16 x 16 tiles left 5.1% of the
# points to evaluate at alpha = 0.5, 8.9% at 1 and 18.7% at 4; on
# 101 x 40001 the 1 x 400 tiles left 2.6-5.4% at 0.5, 1, 1.005 and 4, where
# 32 x 32 tiles left 95%.  With the sphere bounds, and grid row tau = 0 a
# row of exact tiles of its own, every order but 2 and 3 evaluates 0.11%
# of 2001^2, 0.094% of 101 x 40001 and 0.19% of 801^2.
_TILE_SIDE = 16
# An order skips a tile only when its lower bound exceeds the incumbent
# minimum by more than this and its upper bound falls short of the
# incumbent maximum by more than this.  It covers rounding: the computed
# pair entropy rose with |h| by at most 1.7e-14 over 3 million |h| values
# in [0, 1/2] at 30 orders from 0.01 to 1000 (the most at 0.98999, where
# pow's cancellation near alpha = 1 peaks; at most 4.5e-16 at the orders
# off (0.9, 1.05)), so a grid sum lies within 3 x 1.7e-14 plus two
# roundings of its tile's bounds, under 6e-14; the sphere bounds' error
# budget, which adds the kernel's error against the exact pair entropy, is
# under 1e-13 (module docstring).  math.inf skips no tile, but an exact
# tile needs no margin and is still resolved from its bounds: the scan then
# evaluates every grid point but the exact tiles' outside its subgrid.
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
    scan block near 8 MB per array and a scan's workspace, eight such
    arrays for each of at most two workers, near 128 MB (a scan's subgrid
    run and tile bounds hold less); each order of a scan adds one
    n_tau-long vector, its z term per row.  A larger count raises
    ValueError.  The check functions' counts (certification's n_samples,
    the kernel and concavity checks' n_points) share the cap.

    The first scan of an instance builds its plan (_Plan: the axes, the
    stage and the tiles), and the instance keeps it until it is freed, for
    every later scan: about 3 (n_tau + n_phi) float64 values, about 48 MB
    at MAX_POINTS per axis.  Its arrays are read-only.  Building takes no
    lock: first scans of two instances in two threads build at once, and
    two threads that first scan one instance together may each build a
    plan, both then scanning with the one stored first.  Two equal
    instances do not share a plan: to scan a grid again, reuse one
    instance, or pass every order to one scan_orders call.  The plan is
    not a field: ==, hash, repr, dataclasses.replace, copies and pickles
    see the two counts alone.
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

    @property
    def _plan(self) -> _Plan:
        """The scan plan of this grid on D, built on first use and kept in the instance's __dict__."""
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = _Plan(np.linspace(0.0, QUARTER_PI, self.n_tau), np.linspace(0.0, QUARTER_PI, self.n_phi))
            plan = self.__dict__.setdefault("_plan", plan)  # one plan for every thread, whichever built first
        return plan

    def __getstate__(self) -> dict:
        """The two counts, without the plan: a pickle of a scanned grid, or of its reports, stays small."""
        return {"n_tau": self.n_tau, "n_phi": self.n_phi}


DEFAULT_GRID = GridSpec(2001, 2001)


def _points(value: int, name: str, least: int) -> int:
    """value as an int (_count), from least to GridSpec.MAX_POINTS; ValueError naming name outside that range."""
    value = _count(value, name)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if value > GridSpec.MAX_POINTS:
        raise ValueError(f"{name} must be at most {GridSpec.MAX_POINTS}, got {value!r}")
    return value


@dataclass(frozen=True)
class ScanReport:
    """Extrema of the entropic sum over a grid on D, with witnesses.

    Every field is measured or given; the report holds no bound.  Against
    bound_set(alpha), min_value - lower is nonnegative up to rounding, and
    where upper_pure is not None (the proven range) max_value lies within
    grid tolerance below it.  For non-integer alpha > 1 max_value is the
    only pure-state upper information available.  points_evaluated counts
    the grid points at which the scan ran the order's kernel: those of the
    tiles it keeps and of its incumbent subgrid, fewer than n_tau n_phi
    wherever it skips a tile or resolves an exact one from its bounds
    (module docstring), and the same for any worker count or chunk budget.
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

def _half_pair(h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(p, m) = (1/2 + h, 1/2 - h), the one pair formula: out, or a new array, with p in out[0] and m in out[1].

    h = s/2 for a Bloch component s; |h| <= 1/2 puts p and m in [0, 1] exactly.
    """
    if out is None:
        out = np.empty((2, *h.shape))
    # out[0] and out[1], not p, m = out: unpacking took about 1 us more per
    # call, and every block of a scan makes two (+4% on the benchmark's
    # acceptance_scans, whose constant orders run hundreds of blocks)
    np.add(0.5, h, out=out[0])
    np.subtract(0.5, h, out=out[1])
    return out


def _clipped_pairs(*components: np.ndarray) -> np.ndarray:
    """_half_pair of the Bloch components s, stacked and clipped to [-1, 1]: p over m, each of shape (components, ...).

    Bitwise clip((1 +- s)/2, 0, 1), NaN kept.  Components must have one shape.
    """
    return _half_pair(0.5 * np.clip(np.stack(components), -1.0, 1.0))


def _pair_sums(
    pairs: np.ndarray, z_term: np.ndarray, alpha: TsallisParam, scale: Optional[float], out: np.ndarray
) -> np.ndarray:
    """Entropic sums from the x and y outcome pairs and the z term, the z pair's entropies.

    pairs, of shape (2, 2, ...), holds p over m, each the x axis over the
    y (_grid_pairs' layout, or views of it), and the result has the shape
    of one plane; z_term broadcasts against it, so a grid passes its z
    term as one value per row, each computed once per scan.  out, of
    pairs' shape, takes both axes' numerators N_x and N_y in one kernel
    call (entropy._pair_numerator_into, each pass over both sides and
    both axes): the sum is written into out[0, 0] and returned.  scale is
    _exact_scale(alpha), 1/c, decided once per order.  Where it is a
    number the two numerators are summed first and scaled once, S =
    fl(fl(N_x + N_y) scale + Z), at scale -1 S = fl(Z - (N_x + N_y)) with
    no scaling pass; at None both are divided by c = 1 - alpha in one
    pass, as pair_entropy divides each, and then summed.  Either way S is
    fl(fl(F_x + F_y) + Z) bit for bit, F_x and F_y the pairs'
    pair_entropy: every pair from _half_pair lies in 2^-54 Z within [0,
    1], so each numerator is +0 or at least 2^-159 in magnitude, of the
    sign of c, and a nonzero N_x + N_y at least 2^-211; multiplying such
    values by +-2^k (|k| <= 52) is exact and commutes with
    round-to-nearest, and negation is always exact (the entropy module's
    operation order; a NaN's sign aside).  Each element sees p^a - p and
    m^a - m (or their log terms), their sum, x + y, the scale and + z in
    that order, whichever pairs share its call, so no grid sum depends on
    the block or span that held it.
    """
    numerators = _pair_numerator_into(pairs, alpha, out)
    total = numerators[0]
    if scale is None:  # c is no power of two: each axis divided, as pair_entropy does
        numerators /= 1.0 - alpha.alpha
        total += numerators[1]
    else:
        total += numerators[1]
        if scale == -1.0:
            return np.subtract(z_term, total, out=total)
        total *= scale
    total += z_term
    return total


def _entropic_sums(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, alpha: TsallisParam) -> np.ndarray:
    """Entropic sums at Bloch components (bx, by, bz) of one shape."""
    pairs = _clipped_pairs(bx, by, bz)
    xy, z = pairs[:, :2], pairs[:, 2]
    z_term = _pair_entropy_into(z, alpha, np.empty(z.shape))
    return _pair_sums(xy, z_term, alpha, _exact_scale(alpha), np.empty(xy.shape))


def _extrema(values: np.ndarray, alpha: TsallisParam, where: Callable) -> tuple[int, float, int, float]:
    """(argmin, min, argmax, max) of values, flat indices, lowest index on ties.

    Raises ValueError naming alpha and where(k) at the first non-finite
    value in flat order.  argmin and argmax stop at the first NaN, and -inf
    or +inf is itself the extremum, so any non-finite value leaves a
    non-finite pick; only then does a second pass find the first one.
    """
    k_min, k_max = int(np.argmin(values)), int(np.argmax(values))
    v_min, v_max = float(values.flat[k_min]), float(values.flat[k_max])
    if not (math.isfinite(v_min) and math.isfinite(v_max)):
        k = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"entropic sum is {float(values.flat[k])!r} at alpha={alpha.alpha!r}, {where(k)}")
    return k_min, v_min, k_max, v_max


_Stage = tuple[np.ndarray, np.ndarray, np.ndarray]


def _stage(tau_grid: np.ndarray, phi_grid: np.ndarray) -> _Stage:
    """A scan's stage vectors: (sin 2 tau)/2 and (cos 2 tau)/2 per row, and trig, cos phi stacked over sin phi per column.

    trig has shape (2, columns), so one product with a row's (sin 2 tau)/2
    gives both the x and the y halves (_grid_pairs).  Each sine and cosine
    is clipped to [-1, 1], so every Bloch half h of the grid, a product of
    two of these (x and y) or (cos 2 tau)/2 itself (z), has |h| <= 1/2.
    """
    half_s2t, half_c2t = (0.5 * np.clip(f(2.0 * tau_grid), -1.0, 1.0) for f in (np.sin, np.cos))
    # cos and sin written into trig's rows: stacking new arrays took three
    # times the memory, and on a 40001-column grid the allocator kept that
    # peak resident (+1 MB peak RSS)
    trig = np.empty((2, len(phi_grid)))
    np.cos(phi_grid, out=trig[0])
    np.sin(phi_grid, out=trig[1])
    return half_s2t, half_c2t, np.clip(trig, -1.0, 1.0, out=trig)


def _grid_pairs(stage: _Stage, rows, cols, out: np.ndarray) -> None:
    """The x and y outcome pairs on the grid rows x cols, written into out, p over m, each x over y.

    rows and cols (slices or index arrays) select from the stage vectors'
    last axis, and any leading axes broadcast (_tile_stage stacks two
    stages); out has shape (2, 2, ..., rows, cols): out[0] holds (p_x,
    p_y) and out[1] (m_x, m_y), the layout _pair_sums takes.  One product
    writes both halves h = (sin 2 tau)/2 (cos phi, sin phi) into out[1],
    and the pairs follow from them in place: p = 1/2 + h into out[0], then
    m = 1/2 - h over h (_half_pair's formula, on both axes at once).  The z pair
    depends on the row alone, _half_pair of the stage's (cos 2 tau)/2, and
    a scan takes its entropies once (_z_terms).
    """
    half_s2t, _, trig = stage
    h = np.multiply(half_s2t[..., rows, None], trig[..., None, cols], out=out[1])
    np.add(0.5, h, out=out[0])
    np.subtract(0.5, h, out=h)


def _z_terms(alphas: Sequence[TsallisParam], stage: _Stage) -> np.ndarray:
    """Each order's z term per stage row, shape (orders, ..., rows, 1): the kernel on _half_pair of (cos 2 tau)/2.

    Computing them raises nothing: a non-finite z term is met in the
    first sum that adds it.
    """
    pair = _half_pair(stage[1])
    # order o's into z_terms[o], the next plane its kernel's scratch
    z_terms = np.empty((len(alphas) + 1, *pair.shape[1:]))
    for o, alpha in enumerate(alphas):
        _pair_entropy_into(pair, alpha, z_terms[o : o + 2])
    return z_terms[:-1, ..., None]  # one value per row, broadcast along it


def _workers(points: int) -> int:
    """Threads for a scan that evaluates this many grid points: the usable CPUs, at most _MAX_WORKERS and one per _WORKER_POINTS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, points // _WORKER_POINTS))


@contextlib.contextmanager
def _row_buffer(row: int) -> Iterator[None]:
    """numpy's ufunc buffer at the length of a row, in the multiples of 16 it takes and at most its default 8192.

    The caller's size comes back on exit, on error too (module docstring).
    """
    old = np.setbufsize(min(max(16, row // 16 * 16), 8192))
    try:
        yield
    finally:
        np.setbufsize(old)


def _tile_steps(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[int, int]:
    """Rows and columns of a tile about square in angle, with about _TILE_SIDE^2 points and at least one of each."""
    d_tau, d_phi = ((float(axis[-1]) - float(axis[0])) / (len(axis) - 1) for axis in (tau_grid, phi_grid))
    side = max(_TILE_SIDE * math.sqrt(d_tau * d_phi), d_tau, d_phi)
    return max(1, round(side / d_tau)), max(1, round(side / d_phi))


def _tile_edges(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A scan's tile boundaries: grid indices from 0 to n_tau, and from 0 to n_phi.

    Tiles take _tile_steps (16 x 16 on 2001^2 and on the 501 x 2001
    full-domain unfolding, 1 x 400 on 101 x 40001), with at most
    max(1, _WORKER_POINTS / _MAX_WORKERS / n_phi) rows: a row of tiles then
    holds at most max(_WORKER_POINTS / _MAX_WORKERS, n_phi) points, so a
    block, at least one row of tiles, keeps the workspace bound of the
    module docstring.  The last tile along an axis may be shorter.  Grid
    row 0 is a row of tiles of its own: tau = 0 is the z eigenstate at every
    phi, so each of its points ties the minimum, and its tiles are exact
    (_exact_tiles), resolved from their bounds.  No edge repeats:
    np.maximum.reduceat takes the element at a repeated start, not an empty
    reduction, so a repeated edge would give an unsound tile bound.
    """
    n_tau, n_phi = len(tau_grid), len(phi_grid)
    rows, cols = _tile_steps(tau_grid, phi_grid)
    rows = min(rows, max(1, _WORKER_POINTS // _MAX_WORKERS // n_phi))
    row_edges = np.append(np.arange(0, n_tau, rows), n_tau)
    if rows > 1:  # row 0's own row of tiles
        row_edges = np.insert(row_edges, 1, 1)
    return row_edges, np.append(np.arange(0, n_phi, cols), n_phi)


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
        np.append(np.arange(0, len(axis) - 1, 2 * step), len(axis) - 1)
        for axis, step in zip((tau_grid, phi_grid), steps)
    )


def _tile_stage(stage: _Stage, row_edges: np.ndarray, col_edges: np.ndarray) -> _Stage:
    """The tile bounds' stage: each stage vector's greatest |value| per row or column of tiles, stacked on its least.

    The row vectors have shape (2, rows of tiles) and trig (2, 2, columns
    of tiles): the axis (cos phi, sin phi), then the bound.  A tile's grid
    |h| is fl(|a| |b|) and fl is monotone, so the grid sums of the first
    stage are the tiles' lower bounds LB and those of the second their
    upper bounds UB (module docstring).
    """
    starts = (row_edges[:-1], row_edges[:-1], col_edges[:-1])
    return tuple(
        np.stack([f.reduceat(np.abs(v), s, axis=-1) for f in (np.maximum, np.minimum)], axis=-2)
        for v, s in zip(stage, starts)
    )


def _exact_tiles(tile_stage: _Stage) -> np.ndarray:
    """The exact tiles' flat indices in the grid of tiles, ascending (module docstring).

    A tile is exact when its greatest and least |h| give bitwise the same
    outcome pairs on all three axes: on x and y the pairs _grid_pairs
    writes on the tile stage for LB and UB, on z _half_pair of its rows'
    greatest and least |(cos 2 tau)/2|.  Only rows of tiles whose z pairs
    agree are compared, _WORKER_POINTS / 4 tiles at a time.
    """
    z = _half_pair(tile_stage[1])
    rows = np.flatnonzero((z[:, 0] == z[:, 1]).all(axis=0))
    n_cols = tile_stage[2].shape[-1]
    step = max(1, _WORKER_POINTS // 4 // n_cols)
    pairs = np.empty((2, 2, 2, min(step, rows.size) * n_cols))
    exact = [np.empty(0, dtype=int)]
    for k in range(0, rows.size, step):
        chunk = rows[k : k + step]
        w = pairs[..., : chunk.size * n_cols].reshape(2, 2, 2, chunk.size, n_cols)
        _grid_pairs(tile_stage, chunk, slice(None), w)
        same = (w[:, :, 0] == w[:, :, 1]).all(axis=(0, 1))
        exact.append((chunk[:, None] * n_cols + np.arange(n_cols))[same])
    return np.concatenate(exact)


def _sphere_regime(alpha: TsallisParam) -> Optional[bool]:
    """Whether G(w) = F(sqrt w) is concave on [0, 1/4]: True off [2, 3], False inside, None at 2 and 3.

    At 2 and 3 G is affine, so concave and convex (module docstring).
    """
    a = alpha.alpha
    return None if a in (2.0, 3.0) else not 2.0 < a < 3.0


def _slab(stage: _Stage) -> float:
    """eta: every grid point of the stage has |h_x^2 + h_y^2 + h_z^2 - 1/4| <= eta, with rounding (module docstring).

    NaN stage values are left out: their own tiles' bounds raise, where a NaN eta would name the first box bounded.
    """
    half_s2t, half_c2t, (cos_phi, sin_phi) = stage
    rows = np.fmax.reduce(np.abs(half_s2t * half_s2t + half_c2t * half_c2t - 0.25))
    columns = np.fmax.reduce(np.abs(cos_phi * cos_phi + sin_phi * sin_phi - 1.0))
    return float(rows) + float(columns) / 4.0 + 2.0**-46


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only views of arrays."""
    views = tuple(a.view() for a in arrays)
    for view in views:
        view.flags.writeable = False
    return views


class _Plan:
    """What every scan of one grid shares, whatever its orders: the axes, the stage and the tiles.

    A GridSpec keeps its plan on D; full_domain_orders and refined_maximum's
    window build one per call.  Besides the axes and the stage (_stage, or
    the one given: full_domain_orders builds D's plan from views of the
    unfolding's, so D's grid values are the unfolding's bit for bit), a
    plan holds the tile edges (_tile_edges), the incumbent subgrid's rows
    and columns (_subgrid) and its stage, the tile stage (_tile_stage), the
    exact tiles' flat indices (_exact_tiles) and the slab's eta (_slab).
    Each stage is three arrays, its one trig array holding cos phi and
    sin phi together, so a plan keeps one copy of each.
    Everything that depends on the orders, on _CHUNK_POINTS or on the CPU
    count (the z terms, the blocks, the workers, the workspaces) stays per
    scan.  Every array is a read-only view, so
    scans in any thread share it.  On 101 x 40001 the plan took 1.9 ms (the
    stage 1.3 ms) of a 3.7 ms first scan at alpha = 0.5, and the scan
    repeated took 2.4 ms (best of 30, 2-core Xeon, numpy 2.4.6).
    """

    def __init__(self, tau_grid: np.ndarray, phi_grid: np.ndarray, stage: Optional[_Stage] = None) -> None:
        self.tau_grid, self.phi_grid = _read_only(tau_grid, phi_grid)
        self.stage: _Stage = _read_only(*(_stage(tau_grid, phi_grid) if stage is None else stage))
        self.row_edges, self.col_edges, self.sub_rows, self.sub_cols = _read_only(
            *_tile_edges(tau_grid, phi_grid), *_subgrid(tau_grid, phi_grid)
        )
        rows, cols = self.sub_rows, self.sub_cols
        half_s2t, half_c2t, trig = self.stage
        self.sub_stage: _Stage = _read_only(half_s2t[rows], half_c2t[rows], trig[:, cols])
        self.tile_stage: _Stage = _read_only(*_tile_stage(self.stage, self.row_edges, self.col_edges))
        (self.exact,) = _read_only(_exact_tiles(self.tile_stage))
        self.eta = _slab(self.stage)


def _tile_boxes(
    tile_stage: _Stage, terms: tuple, bounds: np.ndarray, t0: int, kept: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each kept tile's box, gathered into work[:14]: its greatest and least |h| per axis, F there, and its LB and UB.

    terms holds a chunk's x and y terms, each of shape (2, rows, columns
    of tiles), and the order's z term per row of tiles, shape (2, rows of
    tiles); bounds the chunk's LB and UB; kept the n kept tiles' flat
    indices in the chunk, whose first row of tiles is t0.  Returns h, g
    and (LB, UB) as _box_bound takes them, views of work, with every |h|
    the tile stage's own product.
    """
    n = kept.size
    fx, fy, z = terms
    n_cols = fx.shape[-1]
    rows = kept // n_cols + t0
    h, g = work[:6, :n].reshape(2, 3, n), work[6:12, :n].reshape(2, 3, n)
    np.take(tile_stage[0], rows, axis=1, out=h[:, 2], mode="clip")
    for axis, trig in enumerate(tile_stage[2]):
        np.take(trig, kept % n_cols, axis=1, out=h[:, axis], mode="clip")
        h[:, axis] *= h[:, 2]
    np.take(tile_stage[1], rows, axis=1, out=h[:, 2], mode="clip")
    for axis, f in enumerate((fx, fy)):
        np.take(f.reshape(2, -1), kept, axis=1, out=g[:, axis], mode="clip")
    np.take(z, rows, axis=1, out=g[:, 2], mode="clip")
    box_bounds = np.take(bounds.reshape(2, -1), kept, axis=1, out=work[12:14, :n], mode="clip")
    return h, g, box_bounds


def _check_bounds(values: np.ndarray, alpha: TsallisParam, where: Callable[[int], str]) -> None:
    """Raise ValueError at the first non-finite value of a 1-D array of bounds, naming its box through where."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"entropic sum bound is {float(values[k])!r} at alpha={alpha.alpha!r}, {where(k)}")


def _box_bound(
    alpha: TsallisParam, concave: bool, h: np.ndarray, g: np.ndarray, bounds: np.ndarray, eta: float,
    work: np.ndarray, where: Callable[[int], str],
) -> None:
    """Tighten n boxes' (LB, UB) in place on the sphere: the chord side, then the split side (module docstring).

    A box is w_k = h_k^2 in [L_k, U_k] per axis k (x, y, z) within the slab
    |sum_k w_k - 1/4| <= eta.  h, of shape (2, 3, n), holds each box's
    greatest |h| per axis stacked on its least, g the pair entropies F
    there, bounds, of shape (2, n), the boxes' LB and UB, and concave is
    _sphere_regime(alpha), True or False.  work, of shape (24, n) or
    wider, is scratch.  Each side keeps the tighter of its old and new
    bounds.  Raises ValueError naming box k through where(k) at a
    non-finite chord side, then at a non-finite split value.
    """
    n = h.shape[-1]
    hi, lo = h
    g_hi, g_lo = g
    # the chord side, LB where G is concave and UB where convex: the best
    # dual value over lam = each chord's fall, with S = 1/4 +- eta
    width, tmp, slopes = (work[k : k + 3, :n] for k in (0, 3, 6))
    room, value, shift = work[9:12, :n]
    np.subtract(hi, lo, out=width)
    width *= np.add(hi, lo, out=tmp)
    np.multiply(lo, lo, out=tmp)
    np.add(tmp[0], tmp[1], out=room)
    room += tmp[2]
    np.subtract(0.25 + eta if concave else 0.25 - eta, room, out=room)
    # each chord's fall, a lam >= 0; the floor on the width keeps lam (U - L) and lam (S - sum L) finite
    np.subtract(g_lo, g_hi, out=slopes)
    np.maximum(slopes, 0.0, out=slopes)
    slopes /= np.maximum(width, 2.0**-1000, out=tmp)
    pick, best = (np.minimum, np.maximum) if concave else (np.maximum, np.minimum)
    chord, split_side = bounds if concave else bounds[::-1]
    for lam in slopes:
        np.multiply(lam, width, out=tmp)
        tmp += g_hi
        pick(tmp, g_lo, out=tmp)
        np.add(tmp[0], tmp[1], out=value)
        value += tmp[2]
        value -= np.multiply(lam, room, out=shift)
        best(chord, value, out=chord)
    _check_bounds(chord, alpha, where)
    # the split side, UB where G is concave and LB where convex: F at the
    # clipped equal split of the total
    squares, states, tmp = (work[k : k + 6, :n] for k in (0, 6, 12))
    np.multiply(h, h, out=squares.reshape(2, 3, n))
    # the level sum_k clip(b, L_k, U_k) filled at each breakpoint b, U_k (rows 0-2) and L_k (3-5)
    for k in range(3):
        np.maximum(squares, squares[3 + k], out=tmp)
        np.minimum(tmp, squares[k], out=tmp)
        if k:
            states += tmp
        else:
            states[...] = tmp
    total = 0.25 - eta if concave else 0.25 + eta
    # at the split an axis is full (U_k) where U_k fills at most the total,
    # empty (L_k) where L_k fills more, and free otherwise: 1 in rows 0-2
    # where full, in rows 3-5 where empty
    np.greater(states, total, out=states)
    np.subtract(1.0, states[:3], out=states[:3])
    np.multiply(squares, states, out=tmp)
    free, left, level = work[0:3, :n]
    np.add.reduce(states, axis=0, out=free)
    np.subtract(3.0, free, out=free)
    np.subtract(total, tmp[0], out=left)
    for k in range(1, 6):
        left -= tmp[k]
    # the free axes share what the fixed ones leave; with none free, every
    # level from the greatest full U_k to the least empty L_k gives the split
    np.maximum(tmp[0], tmp[1], out=level)
    np.maximum(level, tmp[2], out=level)
    np.divide(left, free, out=level, where=free > 0.0)
    np.maximum(level, 0.0, out=level)
    np.sqrt(level, out=level)
    np.nextafter(level, 0.0 if concave else 1.0, out=level)
    root = work[3:6, :n]
    np.maximum(level, lo, out=root)
    np.minimum(root, hi, out=root)
    pair = _half_pair(root, work[6:12, :n].reshape(2, 3, n))
    terms = _pair_entropy_into(pair, alpha, work[18:24, :n].reshape(2, 3, n))
    split = np.add(terms[0], terms[1], out=work[0, :n])
    split += terms[2]
    _check_bounds(split, alpha, where)
    (np.minimum if concave else np.maximum)(split_side, split, out=split_side)


def _kept_spans(
    alphas: Sequence[TsallisParam], plan: _Plan, cuts: list[tuple[float, float]], where: Callable, margin: float
) -> tuple[np.ndarray, list[list]]:
    """The bound pass: each order's span in each row of tiles, from the plan's tile stage and the slab's eta.

    Returns spans, of shape (orders, rows of tiles, 2): the first grid
    column of the order's first kept tile in the row and the end column
    of its last, (0, 0) where it keeps none; the order evaluates every
    tile between them.  An order keeps a tile unless LB > least + margin
    and UB < greatest - margin, (least, greatest) being its cuts (the
    incumbents, or a decision's given extrema), and never keeps an exact
    tile (plan.exact), whose grid sums are its LB.  Returns too, per order,
    the exact tiles' extrema: for each chunk that holds one, ((min, (i, j)),
    (max, (i, j))) as _run's, the least and greatest LB and the first grid
    point of the first exact tile that holds each.  LB and UB are the sums on
    _tile_stage, taken a chunk of rows of tiles at a time (at most
    max(_CHUNK_POINTS / 4, columns of tiles) tiles of fourteen values),
    within a chunk the orders in the given order.  At every order but 2
    and 3, and at those too where the margin is negative, the tiles those
    keep are then bounded as boxes on the sphere, a batch of
    _WORKER_POINTS / 16 at a time: gathered (_tile_boxes), bounded
    (_box_bound) and kept or skipped.  Raises ValueError at a non-finite
    tile bound, naming the tile: an order's sums, then its boxes.  The
    pass runs in the calling thread, under a ufunc buffer of a row of tiles
    (_row_buffer; with the monotone bounds alone, on
    two workers each allocating its chunks' arrays, it took 1.8 ms on
    2001^2 at alpha = 2.5 against 1.4 ms on one).  On 2001^2 it takes
    about 1 ms at the orders whose G is concave and 3.7 ms at 2.5, where
    the most tiles are kept (best of 64 per order on one CPU, 2-core
    Xeon, numpy 2.4.6).
    """
    tile_stage, row_edges, col_edges = plan.tile_stage, plan.row_edges, plan.col_edges
    z_terms = _z_terms(alphas, tile_stage)[..., 0]
    n_rows, n_cols = len(row_edges) - 1, len(col_edges) - 1
    spans = np.empty((len(alphas), n_rows, 2), dtype=int)
    step = max(1, _CHUNK_POINTS // 4 // n_cols)
    # a chunk's x and y pairs, then its sums' three arrays, each of LB then UB
    scratch = np.empty((7, 2, min(step, n_rows) * n_cols))
    # a batch of kept tiles' boxes (_tile_boxes, work[:14]), then _box_bound's
    # scratch (work[14:]); the batch is fixed at import, as _WORKER_POINTS
    # is, so a chunk budget set for a test does not shrink it.  work grows to
    # the most kept tiles a batch has held: a full batch's 1.2 MB, allocated
    # and freed by every scan, made the allocator return and fault in that
    # memory again (about 300 minor faults a scan on 101 x 40001)
    batch = _WORKER_POINTS // 16
    work = np.empty((38, 0))

    def tile(k: int) -> str:
        """The tile of flat index k in the grid of tiles, by its first and last grid points."""
        t, u = divmod(int(k), n_cols)
        start, end = where(row_edges[t], col_edges[u]), where(row_edges[t + 1] - 1, col_edges[u + 1] - 1)
        return f"on the tile from {start} to {end}"

    def first_point(k: int) -> tuple[int, int]:
        """The first grid point (i, j) of the tile of flat index k."""
        t, u = divmod(int(k), n_cols)
        return int(row_edges[t]), int(col_edges[u])

    resolved: list[list] = [[] for _ in alphas]
    # the chunks' broadcasts have rows of n_cols tiles
    with _row_buffer(n_cols):
        for t0 in range(0, n_rows, step):
            tiles = slice(t0, t0 + step)
            w = scratch[..., : (min(t0 + step, n_rows) - t0) * n_cols].reshape(7, 2, -1, n_cols)
            pairs = w[:4].reshape(2, 2, *w.shape[1:])
            _grid_pairs(tile_stage, tiles, slice(None), pairs)
            first = t0 * n_cols
            # the chunk's exact tiles, by flat index in the chunk
            exact = plan.exact[np.searchsorted(plan.exact, first) : np.searchsorted(plan.exact, first + w[0, 0].size)]
            exact = exact - first
            for o, (alpha, (least, greatest)) in enumerate(zip(alphas, cuts)):
                # one axis at a time, (p, m) = w[0::2] and w[1::2], so the chunk needs no eighth array
                fx = _pair_entropy_into(pairs[:, 0], alpha, w[4:6])
                fy = _pair_entropy_into(pairs[:, 1], alpha, w[5:7])
                bounds = np.add(fx, fy, out=w[6])
                bounds += z_terms[o, :, tiles, None]
                lb, ub = bounds
                if not np.isfinite(bounds).all():
                    _check_bounds(np.where(np.isfinite(lb), ub, lb).ravel(), alpha, lambda k: tile(first + k))
                low_cut, high_cut = least + margin, greatest - margin
                keep = (lb <= low_cut) | (ub >= high_cut)
                if exact.size:  # every grid sum of an exact tile is its LB
                    keep.ravel()[exact] = False
                    values = lb.ravel()[exact]
                    picks = exact[[np.argmin(values), np.argmax(values)]]
                    resolved[o].append(tuple((float(lb.flat[k]), first_point(first + k)) for k in picks))
                concave = _sphere_regime(alpha)
                if concave is None and margin < 0.0:  # affine G is concave too
                    concave = True
                kept_tiles = np.flatnonzero(keep) if concave is not None else ()
                for k0 in range(0, len(kept_tiles), batch):
                    kept = kept_tiles[k0 : k0 + batch]
                    if work.shape[1] < kept.size:
                        work = np.empty((38, kept.size))
                    h, g, box_bounds = _tile_boxes(tile_stage, (fx, fy, z_terms[o]), bounds, t0, kept, work)
                    _box_bound(alpha, concave, h, g, box_bounds, plan.eta, work[14:], lambda k: tile(first + kept[k]))
                    low, high = box_bounds
                    keep.ravel()[kept] = (low <= low_cut) | (high >= high_cut)
                ends = np.stack([np.argmax(keep, axis=1), n_cols - np.argmax(keep[:, ::-1], axis=1)], axis=1)
                spans[o, t0 : t0 + len(keep)] = np.where(keep.any(axis=1)[:, None], col_edges[ends], 0)
    return spans, resolved


def _outside(spans: np.ndarray, plan: _Plan) -> list[int]:
    """Per order, its subgrid points outside its spans: the points where only the bound pass ran its kernel."""
    rows, cols = plan.sub_rows, plan.sub_cols
    at = spans[:, np.searchsorted(plan.row_edges, rows, side="right") - 1]  # each subgrid row's span
    inside = np.searchsorted(cols, at[..., 1]) - np.searchsorted(cols, at[..., 0])
    return (rows.size * cols.size - inside.sum(axis=1)).tolist()


def _blocks(spans: np.ndarray, row_edges: np.ndarray) -> tuple[list[list], list[int], int, list[int]]:
    """A run's blocks in grid order, each a rectangle in which each order's points are one too, and their split.

    spans, of shape (orders, rows of tiles, 2), holds each order's span in
    each row of tiles (as _kept_spans).  The stage's span in a row of
    tiles runs from the first column any order keeps to the last; a row
    of tiles where no order keeps any belongs to no block.  A block [row,
    end row, spans], spans the stage's then each order's, joins
    consecutive rows of tiles whose spans, the stage's and every order's,
    are all the same, while it holds at most _CHUNK_POINTS / _MAX_WORKERS
    points, and takes at least one row.  So each order's points in a
    block are the block's rows times its span.  The run takes one worker
    per _WORKER_POINTS points its stage evaluates (_workers), at most one
    per block, and its blocks are split into contiguous runs of about
    equal kept work, the stage counted as one order's kernel: run k starts
    at the first block whose midpoint in the cumulative work reaches k /
    workers of it.  Returns the blocks, the runs' bounds (run k takes
    blocks[bounds[k] : bounds[k + 1]], one run per worker), the largest
    block's stage points and each order's points.  One pass over the
    spans' lists lays it all out, with no numpy call: every scan runs its
    subgrid and its grid through here.
    """
    edges = row_edges.tolist()
    budget = _CHUNK_POINTS // _MAX_WORKERS
    blocks: list[list] = []
    points = 0  # the stage's
    for t, own in enumerate(spans.transpose(1, 0, 2).tolist()):
        kept = [span for span in own if span[0] < span[1]]
        if not kept:
            continue
        r0, r1 = edges[t], edges[t + 1]
        row = [[min(c0 for c0, _ in kept), max(c1 for _, c1 in kept)], *own]
        c0, c1 = row[0]
        points += (r1 - r0) * (c1 - c0)
        if blocks and blocks[-1][1:] == [r0, row] and (r1 - blocks[-1][0]) * (c1 - c0) <= budget:
            blocks[-1][1] = r1
        else:
            blocks.append([r0, r1, row])
    areas = [[(r1 - r0) * (c1 - c0) for c0, c1 in row] for r0, r1, row in blocks]
    workers = min(_workers(points), len(blocks))
    bounds = [0]
    if workers > 1:
        work = [sum(area) for area in areas]
        total, cumulative = sum(work), 0
        for b, w in enumerate(work):
            cumulative += w
            while len(bounds) < workers and cumulative - w / 2.0 >= total * len(bounds) / workers:
                bounds.append(b)
    bounds += [len(blocks)] * (workers + 1 - len(bounds))
    totals = [sum(column) for column in zip(*areas)] or [0] * (1 + len(spans))
    return blocks, bounds, max((area[0] for area in areas), default=0), totals[1:]


def _scan_rectangle(
    alphas: Sequence[TsallisParam], plan: _Plan, against: Optional[tuple[list, float]] = None
) -> list[tuple[float, tuple[int, int], float, tuple[int, int], int]]:
    """Grid extrema of every order in one pass over the plan's grid, lowest-(tau, phi) tie-breaking.

    Returns (min, (i, j), max, (i, j), points evaluated) per order.  Each
    order's z term per row (_z_terms) is taken once per scan.  Without
    against the extrema are exact: the scan runs its incumbent subgrid (an
    exhaustive _run on the stage and z terms at the plan's subgrid rows
    and columns), the bound pass (_kept_spans) at _PRUNE_MARGIN, cut at the
    subgrid's extrema, and _run on each order's spans, and merges the exact
    tiles' and the subgrid's extrema into the blocks' (_merged).

    against = (known, tol) asks for a one-sided decision instead: known
    holds per order a scan result whose extrema are grid values of this
    plan at their (i, j) (full_domain_orders: D's), and tol >= 0.  The scan
    runs no subgrid, cuts at known's extrema at the margin _PRUNE_MARGIN -
    tol and merges them into its result, so its min is at most known's and
    its max at least known's.  A skipped tile's sums lie within the bound
    error, under 1e-13, of its LB and UB, so above known min - tol + 9e-13
    and below known max + tol - 9e-13.  Where the exact min lies more than
    tol below known's (the gap's rounding is far under 9e-13), no skipped
    tile holds it or a tie with it, and the result's min and witness are
    the exact ones, bit for bit; elsewhere the result's min lies between
    the exact min and known's.  The max likewise.  So max(known min - min,
    max - known max) <= tol on the result is the exhaustive scan's bool.
    Raises ValueError at the first non-finite value met: the subgrid run's,
    then the tile bounds', then the grid run's (see _run).
    """
    tau_grid, phi_grid, rows, cols = plan.tau_grid, plan.phi_grid, plan.sub_rows, plan.sub_cols

    def where(i: int, j: int) -> str:
        return f"(tau, phi) = ({float(tau_grid[i])!r}, {float(phi_grid[j])!r})"

    z_terms = _z_terms(alphas, plan.stage)
    if against is None:
        subgrid = _run(
            alphas, plan.sub_stage, z_terms[:, rows], *_whole_rows(len(alphas), rows.size, cols.size),
            lambda i, j: where(rows[i], cols[j]),
        )
        # each order's subgrid extrema, at their grid points
        known = [
            (low, (int(rows[i]), int(cols[j])), high, (int(rows[k]), int(cols[l])))
            for low, (i, j), high, (k, l) in (_merged(found) for found, _ in subgrid)
        ]
        margin = _PRUNE_MARGIN
    else:
        given, tol = against
        known, margin = [found[:4] for found in given], _PRUNE_MARGIN - tol
    spans, resolved = _kept_spans(alphas, plan, [(low, high) for low, _, high, _ in known], where, margin)
    results = _run(alphas, plan.stage, z_terms, plan.row_edges, spans, where)
    # the points evaluated: the kernel's blocks, and the subgrid's points outside them
    outside = _outside(spans, plan) if against is None else [0] * len(alphas)
    return [
        (*_merged([*found, *exact, ((low, at_low), (high, at_high))]), points + extra)
        for (found, points), exact, (low, at_low, high, at_high), extra in zip(results, resolved, known, outside)
    ]


def _merged(extrema: list) -> tuple[float, tuple[int, int], float, tuple[int, int]]:
    """(min, (i, j), max, (i, j)) of candidate extrema, each ((min, (i, j)), (max, (i, j))).

    Merged on (value, (i, j)), a total order: ties keep the lowest (i, j),
    whichever block or tile found them.
    """
    lows, highs = zip(*extrema)
    v_min, at_min = min(lows)
    v_max, at_max = min(highs, key=lambda c: (-c[0], c[1]))
    return v_min, at_min, v_max, at_max


def _whole_rows(orders: int, n_tau: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """The incumbent subgrid's row edges and spans for _run: blocks of whole rows, every point kept.

    A block takes _CHUNK_POINTS / _MAX_WORKERS points, at least one row.
    """
    rows = max(1, _CHUNK_POINTS // _MAX_WORKERS // n_phi)
    row_edges = np.append(np.arange(0, n_tau, rows), n_tau)
    return row_edges, np.tile([0, n_phi], (orders, len(row_edges) - 1, 1))


def _run(
    alphas: Sequence[TsallisParam],
    stage: _Stage,
    z_terms: np.ndarray,
    row_edges: np.ndarray,
    spans: np.ndarray,
    where: Callable[[int, int], str],
) -> list[tuple[float, tuple[int, int], float, tuple[int, int], int]]:
    """Each order's grid extrema over its spans, with the points its kernel ran on.

    stage is a scan's stage (or a subgrid of it), z_terms each order's z
    term per stage row, of shape (orders, rows, 1), row_edges the rows of
    tiles and spans, of shape (orders, rows of tiles, 2), each order's span
    in each (as _kept_spans).  Returns, per order, its blocks' extrema,
    each ((min, (i, j)), (max, (i, j))) with indices into the stage, in no
    set order (_merged takes the least and greatest), and the points its
    kernel ran on; spans that keep nothing give no extrema and 0 points,
    with no workspace and no helper thread.  The blocks, rectangles of the
    stage (_blocks), are split into contiguous runs of about equal kept
    work, one per worker: the first runs in the calling thread, each other
    in a helper thread under the caller's context (numpy's error state
    included), and every worker writes into its own part of one workspace.
    In a block the stage runs on the block, at the start of the worker's
    part, then the kernel of each order with a non-empty span on the
    block's rows times that span, adding a slice of its z term.  Raises
    ValueError at the first non-finite value in grid order, the least
    (row, column) over every order, ties going to the order given first:
    the blocks come in grid order, each whole rows of the stage, and the
    first that holds a non-finite value raises for the least (row, column)
    over all of its orders (each order's first, from _extrema, which names
    the point through where), so neither the blocks nor the workers change
    the value named.  An error in a run stops every
    later run at its next block and is raised here after every helper has
    ended; the earliest run's error wins.
    """
    n_phi = stage[2].shape[-1]
    blocks, bounds, largest, points = _blocks(spans, row_edges)
    if not blocks:  # every span empty
        return [([], 0) for _ in alphas]
    workers = len(bounds) - 1
    # per worker: the largest block's x and y pairs, then the kernel's four arrays
    workspace = np.empty((workers, 8, largest))
    scales = [_exact_scale(alpha) for alpha in alphas]  # once per order, not per block
    # per order, each block's ((min, (i, j)), (max, (i, j))), in whatever order the workers append them
    found: list[list] = [[] for _ in alphas]
    errors: list[Optional[BaseException]] = [None] * workers  # per run, the error that ended it

    def run(k: int) -> None:
        """Worker k's blocks, a contiguous run in grid order, in its part of the workspace, under a row-sized ufunc buffer."""
        part = workspace[k]
        with _row_buffer(n_phi):
            for i0, i1, ((j0, j1), *own) in blocks[bounds[k] : bounds[k + 1]]:
                if any(e is not None for e in errors[:k]):
                    return  # an earlier run failed: its error is the one raised
                pairs = part[:4, : (i1 - i0) * (j1 - j0)].reshape(2, 2, i1 - i0, j1 - j0)
                _grid_pairs(stage, slice(i0, i1), slice(j0, j1), pairs)
                bad = []  # each order's first non-finite value in the block: (point, order, error)
                for o, (alpha, (c0, c1)) in enumerate(zip(alphas, own)):
                    if c0 == c1:
                        continue
                    width = c1 - c0
                    # the kernel's four arrays, after the stage's four: contiguous
                    # whatever the span's width, so its in-place pow, log and expm1
                    # run on contiguous rows
                    out = part[4:, : (i1 - i0) * width].reshape(2, 2, i1 - i0, width)

                    def at(j: int) -> tuple[int, int]:
                        return i0 + j // width, c0 + j % width

                    def named(j: int) -> str:
                        bad.append((at(j), o))
                        return where(*at(j))

                    values = _pair_sums(pairs[..., c0 - j0 : c1 - j0], z_terms[o, i0:i1], alpha, scales[o], out)
                    try:
                        k_min, v_min, k_max, v_max = _extrema(values, alpha, named)
                    except ValueError as exc:
                        bad[-1] += (exc,)
                        continue
                    found[o].append(((v_min, at(k_min)), (v_max, at(k_max))))
                if bad:
                    raise min(bad, key=lambda b: b[:2])[2]

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
    return list(zip(found, points))


def scan_orders(alphas: Sequence[AlphaLike], grid: Optional[GridSpec] = None) -> list[ScanReport]:
    """scan_extrema for every order in alphas, in one pass over the grid.

    Reports come back in the order of alphas, each equal to what
    scan_extrema returns for its order alone.  A non-finite value raises
    ValueError as in scan_extrema; with several orders, the one reported
    is the first in grid order, the least (tau, phi) over every order,
    ties going to the order given first, whatever the number of workers
    (a scan meets its subgrid's values first, then its tile bounds';
    module docstring).  The grid's plan (GridSpec) is built on its first
    scan and reused by every later one; no order, no plan.
    """
    params = [as_param(a) for a in alphas]
    if not params:
        return []
    grid = grid if grid is not None else DEFAULT_GRID
    plan = grid._plan
    tau_grid, phi_grid = plan.tau_grid, plan.phi_grid
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
            params, _scan_rectangle(params, plan)
        )
    ]


def scan_extrema(alpha: AlphaLike, grid: Optional[GridSpec] = None) -> ScanReport:
    """Exact extrema of the entropic sum over a grid on D.

    Returns the extrema over the grid points (no refinement) together
    with witness states, those of an exhaustive evaluation (a scan skips
    only tiles that hold neither extremum nor a tie with one, and takes an
    exact tile's sums from its bound).  Corners of
    D are on the grid, so for tight orders the grid minimum equals
    bound_set(alpha).lower to rounding.  This is scan_orders with one
    order.
    """
    return scan_orders([alpha], grid)[0]


def full_domain_orders(alphas: Sequence[AlphaLike], grid: GridSpec) -> list[bool]:
    """scan_full_domain_consistency for every order in alphas, in one full-domain pass.

    Results come back in the order of alphas; a non-finite value raises
    as in scan_orders, D being scanned before the full domain.  D's grid
    is the unfolding's leading block, and its plan takes views of the
    unfolding's stage, so D's extrema are grid values of the unfolding at
    the same (i, j): D is scanned exactly, and the unfolding decides
    against them at the tolerance (_agree; the one-sided argument is
    _scan_rectangle's).  No order builds no plan.
    """
    params = [as_param(a) for a in alphas]
    full_grid = GridSpec(2 * grid.n_tau - 1, 8 * grid.n_phi - 7)
    if not params:
        return []
    plan = _Plan(np.linspace(0.0, HALF_PI, full_grid.n_tau), np.linspace(0.0, TWO_PI, full_grid.n_phi))
    # the leading block, tau and phi up to pi/4, is the grid on D
    half_s2t, half_c2t, trig = plan.stage
    rows, cols = slice(grid.n_tau), slice(grid.n_phi)
    reduced = _Plan(plan.tau_grid[rows], plan.phi_grid[cols], (half_s2t[rows], half_c2t[rows], trig[:, cols]))
    h = QUARTER_PI / (min(grid.n_tau, grid.n_phi) - 1)
    return _agree(params, reduced, plan, (2.0 * h) ** 2)


def _agree(alphas: Sequence[TsallisParam], reduced: _Plan, full: _Plan, tol: float) -> list[bool]:
    """Per order, whether full's grid extrema lie within tol of reduced's, as exhaustive scans decide it.

    reduced's grid values must be those of full's leading block, bit for
    bit (full_domain_orders), so full's min is at most reduced's and its
    max at least.  reduced is scanned exactly, then full against its
    extrema at tol, one scan each (_scan_rectangle).
    """
    found = _scan_rectangle(alphas, reduced)
    decided = _scan_rectangle(alphas, full, (found, tol))
    return [max(d[0] - f[0], f[2] - d[2]) <= tol for d, f in zip(found, decided)]


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
    The answer is that of exhaustive scans from one scan of each grid:
    the full domain's is a one-sided decision against D's extrema
    (_scan_rectangle).  This is full_domain_orders with one order.
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

    n = 0 gives shape (0, 3).  Raises ValueError for a negative n or seed,
    and for n above GridSpec.MAX_POINTS before anything is drawn (a
    memory-sized request would take several arrays of 8 n bytes), and
    TypeError for a non-integer n or seed (a seed of None included).
    """
    n = _count(n, "n")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    n = _points(n, "n", 0)
    rng = np.random.default_rng(_seed(seed))
    z = rng.uniform(-1.0, 1.0, size=n)
    az = rng.uniform(0.0, TWO_PI, size=n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def sample_mixed_states(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n Bloch vectors drawn uniformly in the unit ball, shape (n, 3).

    seed is checked as in sample_pure_states, and n, capped at
    GridSpec.MAX_POINTS, by sample_pure_states before it draws the
    directions.
    """
    rng = np.random.default_rng(_seed(seed))
    directions = sample_pure_states(n, seed=rng.integers(0, 2**63))
    radii = rng.uniform(0.0, 1.0, size=len(directions)) ** (1.0 / 3.0)
    return directions * radii[:, None]


# ---------------------------------------------------------------------------
# Certification and property checks
# ---------------------------------------------------------------------------

_MAXIMIZER_STATE = PureStateAngles(math.atan(math.sqrt(2.0)) / 2.0, QUARTER_PI)


def certify_orders(
    alphas: Sequence[AlphaLike],
    tolerance: float,
    n_samples: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> list[bool]:
    """certify_equality_conditions for every order in alphas, on one batch of states.

    The batch is drawn, stacked and clipped once (_clipped_pairs), then each
    order takes its z term, its sums (_pair_sums) and its checks; results
    come back in the order of alphas.  Every order, n_samples and tolerance
    are validated before anything is drawn, and a non-finite sum raises at
    the first order, in the given order, that has one; otherwise as
    certify_equality_conditions.  No order draws nothing.
    """
    sets = [bound_set(alpha) for alpha in alphas]
    for bounds in sets:
        if bounds.upper_pure is None:
            raise ValueError(
                f"equality conditions are proven only for alpha in (0, 1] and integer "
                f"alpha >= 2, got {bounds.alpha.alpha!r}"
            )
    n_samples = _points(n_samples, "n_samples", 1)
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    if not sets:
        return []
    # one batch: the six eigenstates, the maximizer, 19 impure states on each
    # axis (t-major: (t, 0, 0), (0, t, 0), (0, 0, t)), then the samples
    fixed = [*eigenstate_witnesses(), bloch_from_angles(_MAXIMIZER_STATE)]
    axis = (np.linspace(0.05, 0.95, 19)[:, None, None] * np.eye(3)).reshape(-1, 3)
    b = np.vstack([[(w.b_x, w.b_y, w.b_z) for w in fixed], axis, sample_pure_states(n_samples, seed=seed)])
    pairs = _clipped_pairs(b[:, 0], b[:, 1], b[:, 2])
    xy, z = pairs[:, :2], pairs[:, 2]
    out, z_out = np.empty(xy.shape), np.empty(z.shape)
    results = []
    for bounds in sets:
        a, low = bounds.alpha, bounds.lower
        sums = _pair_sums(xy, _pair_entropy_into(z, a, z_out), a, _exact_scale(a), out)
        _extrema(sums, a, lambda k: f"Bloch vector {tuple(b[k].tolist())}")  # raises if non-finite
        eigen, top, impure, sampled = np.split(sums, [6, 7, 7 + len(axis)])
        checks = [np.max(np.abs(eigen - low)) <= tolerance, np.min(impure) > low]
        if integer_order(a) in (2, 3):
            checks.append(np.max(np.abs(sampled - low)) <= tolerance)
        else:
            checks += [np.min(sampled) > low, abs(top[0] - bounds.upper_pure) <= tolerance]
        results.append(bool(all(checks)))
    return results


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
    outside the tight range, for n_samples below 1 or above
    GridSpec.MAX_POINTS (before any state is drawn), for a tolerance that
    is negative, infinite or NaN, and at a non-finite sum anywhere in the
    batch, naming the order and the Bloch vector.  A non-integer n_samples
    raises TypeError.  This is certify_orders with one order.
    """
    return certify_orders([alpha], tolerance, n_samples, seed)[0]


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
    n_points = _points(n_points, "n_points", 2)
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
    below 3, which leaves no interior point, or above GridSpec.MAX_POINTS
    (before the order grid is allocated; each point is one scalar g_sum),
    and TypeError for a non-integer n_points.
    """
    if not (1.0 <= alpha_lo < alpha_hi < math.inf):
        raise ValueError(f"need 1 <= alpha_lo < alpha_hi < inf, got {alpha_lo!r}, {alpha_hi!r}")
    n_points = _points(n_points, "n_points", 3)
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
    window = _Plan(_refine_axis(report.argmax.tau, grid.n_tau), _refine_axis(report.argmax.phi, grid.n_phi))
    ((_, _, mx, (i, j), _),) = _scan_rectangle([a], window)
    if mx > report.max_value:
        return mx, PureStateAngles(float(window.tau_grid[i]), float(window.phi_grid[j]))
    return report.max_value, report.argmax
