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
chunked into blocks of whole grid rows (below), and the blocks are
split into contiguous runs, one per worker, of about equal kept work
(grid points to evaluate, not rows): a scan takes one worker per usable
CPU, at most _MAX_WORKERS (two; no larger count was measured), one per
_WORKER_POINTS grid points its stage evaluates (every grid point outside
the exact tiles where no tile is skipped) and one per block, so small
scans (test grids) and scans with little kept work stay in the calling
thread.  The first run is the caller's own, the others go to helper
threads started for the scan, run in copies of the caller's context (so
numpy's error state holds in them) and joined before it returns.  The
workers share the _CHUNK_POINTS budget: a block takes grid rows of rows
of tiles with the same spans (below), at most _CHUNK_POINTS /
_MAX_WORKERS points, whatever the worker count (a block is at least one
grid row, so it may hold more, at most n_phi points; GridSpec caps
n_phi), so the blocks do not depend on the workers and one worker's
arrays fit a core's L2 cache as two workers' do.
One block runner (_run) evaluates a scan's grid (each order's nine-point
samples aside, below).  Each run allocates one workspace, eight
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
float64 values.  The bound pass (below) takes every tile at once and
the orders one by one, and reads nothing of _CHUNK_POINTS: it holds 6
values per tile (each order's x and y terms and their sums, LB over UB,
one axis's kernel at a time on views of the plan's tile pairs), plus 3
for each tile the order in hand keeps (its flat index, LB and UB), plus
one batch of boxes on the sphere, at most _WORKER_POINTS / 16 kept tiles
of 35 values (17 for the box, 18 for _box_bound's scratch; 2.2
_CHUNK_POINTS values), and two column indices per order and row of
tiles.  Tiles number about sqrt(n_tau n_phi) (Pruning, below), so on a
square grid that is under the workspace bound: 12,420 values for the
tiles of 2001^2, about 48 MB at MAX_POINTS^2 (GridSpec).

Pruning.  Every scan skips, for each order, the tiles that cannot hold a
grid extremum or a tie with one.  A tile (_tile_edges) is a rectangle of
about sqrt(n_tau n_phi) grid points (_tile_steps), so the bound pass over
every tile and the points of the few tiles kept both grow as the square
root of the grid's points.  The sum is F(h_x) + F(h_y) + F(h_z),
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
it, the least |values| give UB; the sphere bounds (below) tighten both.
Each order takes its incumbents from its own bounds: least is the least
UB over its tiles and greatest the greatest LB, exact tiles (below, LB =
UB) included.  Where no exact tile's sum gives an incumbent, the tile
that does is sampled (_sampled): the grid sums at its first, middle and
last rows by its first, middle and last columns, true grid values, may
lower least or raise greatest, and the tile is kept.  An order skips a
tile when LB > least + _PRUNE_MARGIN and UB < greatest - _PRUNE_MARGIN.
This is sound: the computed F is monotone in |h| only up to rounding,
so every grid sum of a tile lies within the bound error, under 1e-13
(Error budget, below), of its LB and UB.  Each UB is then at least its
tile's greatest sum less that error, so least is at least the grid
minimum less it, and greatest is at most the grid maximum plus it; a
sample is a grid value, between the two.  Every grid sum of a skipped
tile exceeds the minimum, and falls below the maximum, by more than the
margin less two bound errors.  Neither extremum nor any tie with it lies
in a skipped tile, so the extrema and their witnesses are those of the
exhaustive scan.  A tile is exact
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
tolerance, and samples no tile (full_domain_orders, against D's; the
argument is _scan_rectangle's).  The bound pass (_kept_spans) runs in the
calling thread and leaves each order's span in each row of tiles, from
its first kept tile to its last (measured as fast as separate runs of
kept tiles, with fewer kernel calls); the grid's run takes those spans,
and its stage runs on the span of every order's kept tiles.  Each block is
one rectangle of that stage, consecutive rows of tiles in which the
stage's span and every order's stay the same, cut by grid rows to the
budget, so each order's kernel runs on one rectangle in it, the block's
rows times the order's span (_blocks).

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
which knows nothing of tiles: it takes F at the box's |h| ends and the
box's geometry, its chord widths and, per regime, its room and split,
which _box_geometry takes from the |h| ends and eta alone, so a plan
holds them for every tile), on two sides, each keeping the tighter of
its bounds:
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
split.  So a grid sum of a tile lies past its LB or UB by at most 6
eps_F + 1.5e-14, under 1e-13, ten times under _PRUNE_MARGIN, as the
monotone bounds' 6e-14 is.  The incumbents carry that one budget too:
the least UB lies at most that far below the grid minimum, and the
greatest LB above the maximum, so a skipped tile's sums lie more than
the margin less two budgets past them (Pruning, above).  On 2001^2 each
CI-pinned order from 0.25 to 10 but 2 and 3, and 30, then evaluates
1,890 points: the few 45 x 45 tiles around each order's extrema.  Grid
row tau = 0, a row of tiles of its own (_tile_edges) whose every point
(an eigenstate for every phi) ties the minimum, is exact, and no order
evaluates it.

Extrema merge deterministically on (value, tau index, phi index), so
results do not depend on chunking, tiles or workers, and tie-breaking is
always lowest tau, then lowest phi.  The bytes cannot depend on the
worker count either: a grid value's arithmetic is that of its point
alone (the same operations in the same order, out= or not), whichever
thread computed it.

A scan evaluates every order it is given in one pass.  The stage vectors,
(sin 2 tau)/2 and (cos 2 tau)/2 per row and cos phi and sin phi per
column, are taken once per grid (_Plan: a GridSpec keeps its plan, and
every later scan of it reuses the axes, the stage, the tiles, the tile
stage and pairs, the exact tiles, the slab and the tiles' box
geometry), and the order-independent stage
of each block (the outcome probabilities of the x and y Bloch
components) once per block for all orders.  The z
component depends on the row alone, so each order's z term, the pair
entropy of (1/2 + h_z, 1/2 - h_z), is taken once per scan, one value per
grid row from the grid's own kernel; the blocks and the samples add
slices of it.  Only the x and y pair entropies and the reduction run per
block and order.  An order's arithmetic, and the tiles it skips, are the
same whichever orders share its pass, so scan_extrema and
scan_full_domain_consistency are scan_orders and full_domain_orders with
one order.  A non-finite value raises ValueError naming the order, and
the grid point where there is one.  Computing the z terms raises
nothing: a non-finite z term is met in the first sum that adds it, at
the first grid point of its row that the order evaluates.  A scan
meets its values in two steps: the bound pass, then the grid run.  The
bound pass meets them order by order: its tile bounds, its boxes, then
its samples.  A non-finite tile bound or box names its tile by its first
and last grid points (in a batch of boxes the chord side before the
split side), and a non-finite sample its grid point (a decision takes
none).  An exact tile's grid sums are its LB, so a non-finite value there is met as
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
pass.  Grids, samples, tile boxes and certification share one pair formula
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
# whole grid rows (at least one) while it holds at most _CHUNK_POINTS /
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
# Python besides 12-30 ns a point.
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
# evaluates every grid point but those of the exact tiles outside its
# spans, and samples no tile.
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
    arrays for each of at most two workers, near 128 MB (a scan's tile
    bounds hold less); each order of a scan adds one
    n_tau-long vector, its z term per row.  A larger count raises
    ValueError.  The check functions' counts (certification's n_samples,
    the kernel and concavity checks' n_points) share the cap.

    The first scan of an instance builds its plan (_Plan: the axes, the
    stage and the tiles), and the instance keeps it until it is freed, for
    every later scan: about 3 (n_tau + n_phi) float64 values for the axes
    and stages, and 19 per tile, the tile pairs' 8 and the box geometry's
    11, on about sqrt(n_tau n_phi) tiles (2,070 on 2001^2, 0.3 MB); at
    MAX_POINTS per axis about 48 MB and 150 MB.  A scan's bound pass
    holds about 6 values per tile more while it runs (_kept_spans), about
    48 MB at MAX_POINTS per axis.  Its arrays are
    read-only.  Building takes no lock: first scans of two instances in
    two threads build at once, and two threads that first scan one
    instance together may each build a plan, both then scanning with the
    one stored first.  Two equal
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
    tiles it keeps (the tiles it samples among them), fewer than n_tau n_phi
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
    """Rows and columns of a tile about square in angle, with about sqrt(n_tau n_phi) points and at least one of each.

    A side of (n_tau n_phi)^(1/4) grid points makes the bound pass, whose
    cost grows with the number of tiles, and the kept tiles' points, which
    grow with a tile's area, both grow as the square root of the grid's
    points: 6 x 6 on 41^2, 16 x 16 on 251^2 (the full-domain check's D
    block), 45 x 45 on 2001^2, 32 x 32 on the 501 x 2001 unfolding and
    2 x 897 on 101 x 40001.  With 16 x 16 tiles on every grid, the bound
    pass took most of a scan at every order but 2 and 3: scan_orders([0.5])
    on a reused 8001^2 grid took 36.5 ms, 34.2 of them the bound pass,
    against 3.0 ms (1.1) at this side, and on 16001^2 293 ms (284) against
    5.6 ms (1.5) (best of 5, 2-core Xeon, numpy 2.4.6).
    """
    d_tau, d_phi = ((float(axis[-1]) - float(axis[0])) / (len(axis) - 1) for axis in (tau_grid, phi_grid))
    side = max((len(tau_grid) * len(phi_grid)) ** 0.25 * math.sqrt(d_tau * d_phi), d_tau, d_phi)
    return max(1, round(side / d_tau)), max(1, round(side / d_phi))


def _tile_edges(tau_grid: np.ndarray, phi_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A scan's tile boundaries: grid indices from 0 to n_tau, and from 0 to n_phi.

    Tiles take _tile_steps; the last tile along an axis may be shorter.  A
    row of tiles may hold any number of points: a block cuts it by grid
    rows (_blocks).  Grid row 0 is a row of tiles of its own: tau = 0 is
    the z eigenstate at every phi, so each of its points ties the minimum,
    and its tiles are exact (_exact_tiles), resolved from their bounds.  No
    edge repeats: np.maximum.reduceat takes the element at a repeated
    start, not an empty reduction, so a repeated edge would give an unsound
    tile bound.
    """
    n_tau, n_phi = len(tau_grid), len(phi_grid)
    rows, cols = _tile_steps(tau_grid, phi_grid)
    row_edges = np.append(np.arange(0, n_tau, rows), n_tau)
    if rows > 1:  # row 0's own row of tiles
        row_edges = np.insert(row_edges, 1, 1)
    return row_edges, np.append(np.arange(0, n_phi, cols), n_phi)


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


def _tile_pairs(tile_stage: _Stage) -> np.ndarray:
    """The tile bounds' x and y outcome pairs, _grid_pairs on the tile stage: shape (2, 2, 2, rows, columns of tiles).

    p over m, each the x axis over the y, each LB's pairs (the greatest
    |h|) over UB's (the least).
    """
    pairs = np.empty((2, 2, 2, tile_stage[0].shape[-1], tile_stage[2].shape[-1]))
    _grid_pairs(tile_stage, slice(None), slice(None), pairs)
    return pairs


def _exact_tiles(tile_stage: _Stage, tile_pairs: np.ndarray) -> np.ndarray:
    """The exact tiles' flat indices in the grid of tiles, ascending (module docstring).

    A tile is exact when its greatest and least |h| give bitwise the same
    outcome pairs on all three axes: on x and y its tile pairs
    (_tile_pairs) for LB and UB, on z _half_pair of its rows' greatest and
    least |(cos 2 tau)/2|.
    """
    z = _half_pair(tile_stage[1])
    same = (tile_pairs[:, :, 0] == tile_pairs[:, :, 1]).all(axis=(0, 1))
    same &= (z[:, 0] == z[:, 1]).all(axis=0)[:, None]
    return np.flatnonzero(same)


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


def _box_geometry(h: np.ndarray, eta: float) -> np.ndarray:
    """What _box_bound takes of n boxes at any order, shape (11, n): the chord widths, and per regime the room and split.

    h, of shape (2, 3, n), holds each box's greatest |h| per axis (x, y,
    z) stacked on its least: with w = h^2 a box is w_k in [L_k, U_k]
    within the slab |sum_k w_k - 1/4| <= eta.  Rows 0-2 are the widths
    U_k - L_k.  Rows 3-6 serve G concave: the room S - sum_k L_k at S =
    1/4 + eta, then each axis's |h| at the clipped equal split of 1/4 -
    eta, sqrt(t) rounded down and clipped to the box's |h| range.  Rows
    7-10 serve G convex: S = 1/4 - eta, the split of 1/4 + eta, sqrt(t)
    rounded up (module docstring).
    """
    hi, lo = h
    least = lo * lo
    least = least[0] + least[1] + least[2]
    squares = (h * h).reshape(6, -1)  # U_k in rows 0-2, L_k in rows 3-5
    # the level sum_k clip(b, L_k, U_k) filled at each breakpoint b
    clips = [np.minimum(np.maximum(squares, squares[3 + k]), squares[k]) for k in range(3)]
    level_at = clips[0] + clips[1] + clips[2]
    geometry = [(hi - lo) * (hi + lo)]
    for room, total, toward in ((0.25 + eta, 0.25 - eta, 0.0), (0.25 - eta, 0.25 + eta, 1.0)):
        # at the split an axis is full (U_k) where U_k fills at most the
        # total, empty (L_k) where L_k fills more, and free otherwise: 1 in
        # rows 0-2 where full, in rows 3-5 where empty
        states = (level_at > total).astype(float)
        states[:3] = 1.0 - states[:3]
        fixed = squares * states
        free = 3.0 - np.add.reduce(states, axis=0)
        left = total - fixed[0] - fixed[1] - fixed[2] - fixed[3] - fixed[4] - fixed[5]
        # the free axes share what the fixed ones leave; with none free, every
        # level from the greatest full U_k to the least empty L_k gives the split
        level = np.maximum(np.maximum(fixed[0], fixed[1]), fixed[2])
        np.divide(left, free, out=level, where=free > 0.0)
        level = np.nextafter(np.sqrt(np.maximum(level, 0.0)), toward)
        geometry += [[room - least], np.minimum(np.maximum(level, lo), hi)]
    return np.concatenate(geometry)


def _tile_geometry(tile_stage: _Stage, eta: float) -> np.ndarray:
    """_box_geometry of every tile, shape (11, tiles) by flat index in the grid of tiles, _WORKER_POINTS / 4 at a time.

    A tile's greatest and least |h| are the tile stage's products, those
    of its LB and UB (_grid_pairs).
    """
    half_s2t, half_c2t, (cos_phi, sin_phi) = tile_stage
    step = max(1, _WORKER_POINTS // 4 // cos_phi.shape[-1])
    parts = []
    for t0 in range(0, half_s2t.shape[-1], step):
        s2t, c2t = half_s2t[:, t0 : t0 + step, None], half_c2t[:, t0 : t0 + step, None]
        h = np.stack(np.broadcast_arrays(s2t * cos_phi[:, None], s2t * sin_phi[:, None], c2t), axis=1)
        parts.append(_box_geometry(h.reshape(2, 3, -1), eta))
    return np.concatenate(parts, axis=1)


class _Plan:
    """What every scan of one grid shares, whatever its orders: the axes, the stage and the tiles.

    A GridSpec keeps its plan on D; full_domain_orders builds one per call,
    and refined_maximum's window none (it evaluates the window whole).
    Besides the axes and the stage (_stage, or the one given:
    full_domain_orders builds D's plan from views of the unfolding's, so
    D's grid values are the unfolding's bit for bit), a
    plan holds the tile edges (_tile_edges), the tile stage (_tile_stage)
    and its pairs (_tile_pairs, eight values a tile), the exact tiles' flat
    indices (_exact_tiles), the slab's eta (_slab) and each tile's box
    geometry (_tile_geometry, eleven values a tile).
    Each stage is three arrays, its one trig array holding cos phi and
    sin phi together, so a plan keeps one copy of each.
    Everything that depends on the orders, on _CHUNK_POINTS or on the CPU
    count (the z terms, the blocks, the workers, the workspaces) stays per
    scan.  Every array is a read-only view, so scans in any thread share it.
    """

    def __init__(self, tau_grid: np.ndarray, phi_grid: np.ndarray, stage: Optional[_Stage] = None) -> None:
        self.tau_grid, self.phi_grid = _read_only(tau_grid, phi_grid)
        self.stage: _Stage = _read_only(*(_stage(tau_grid, phi_grid) if stage is None else stage))
        self.row_edges, self.col_edges = _read_only(*_tile_edges(tau_grid, phi_grid))
        self.tile_stage: _Stage = _read_only(*_tile_stage(self.stage, self.row_edges, self.col_edges))
        (self.tile_pairs,) = _read_only(_tile_pairs(self.tile_stage))
        (self.exact,) = _read_only(_exact_tiles(self.tile_stage, self.tile_pairs))
        self.eta = _slab(self.stage)
        (self.geometry,) = _read_only(_tile_geometry(self.tile_stage, self.eta))


def _tile_boxes(
    geometry: np.ndarray, terms: np.ndarray, z_term: np.ndarray, kept: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kept tiles' boxes as _box_bound takes them, gathered into work[:17]: F at their |h| ends, then their geometry.

    terms holds the x and y terms, of shape (2, 2, rows, columns of
    tiles), each axis's F at its tiles' greatest |h| (LB's) over F at
    their least (UB's); z_term the order's, of shape (2, rows of tiles);
    kept the n kept tiles' flat indices in the grid of tiles; geometry the
    plan's.  Returns g, of shape (2, 3, n), and the tiles' geometry, (11,
    n), views of work.
    """
    n, n_cols = kept.size, terms.shape[-1]
    g = work[:6, :n].reshape(3, 2, n)  # per axis, F at the greatest |h| over F at the least
    np.take(terms.reshape(2, 2, -1), kept, axis=2, out=g[:2], mode="clip")
    np.take(z_term, kept // n_cols, axis=1, out=g[2], mode="clip")
    boxes = np.take(geometry, kept, axis=1, out=work[6:17, :n], mode="clip")
    return g.swapaxes(0, 1), boxes


def _check_bounds(values: np.ndarray, alpha: TsallisParam, where: Callable[[int], str]) -> None:
    """Raise ValueError at the first non-finite value of a 1-D array of bounds, naming its box through where."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"entropic sum bound is {float(values[k])!r} at alpha={alpha.alpha!r}, {where(k)}")


def _box_bound(
    alpha: TsallisParam, concave: bool, geometry: np.ndarray, g: np.ndarray, bounds: np.ndarray,
    work: np.ndarray, where: Callable[[int], str],
) -> None:
    """Tighten n boxes' (LB, UB) in place on the sphere: the chord side, then the split side (module docstring).

    A box is w_k = h_k^2 in [L_k, U_k] per axis k (x, y, z) within the slab
    |sum_k w_k - 1/4| <= eta.  geometry, of shape (11, n), is the boxes'
    _box_geometry, g, of shape (2, 3, n), the pair entropies F at each
    box's greatest |h| per axis stacked on F at its least, bounds, of shape
    (2, n), the boxes' LB and UB, and concave is _sphere_regime(alpha),
    True or False.  work, of shape (18, n) or wider, is scratch.  Each side
    keeps the tighter of its old and new bounds.  Raises ValueError naming
    box k through where(k) at a non-finite chord side, then at a
    non-finite split value.
    """
    n = g.shape[-1]
    g_hi, g_lo = g
    row = 3 if concave else 7
    width, room, root = geometry[:3], geometry[row], geometry[row + 1 : row + 4]
    # the chord side, LB where G is concave and UB where convex: the best
    # dual value over lam = each chord's fall, with S = 1/4 +- eta
    # each lam's values at once: tmp per lam and axis, value and shift per lam
    slopes, tmp = work[0:3, :n], work[3:12, :n].reshape(3, 3, n)
    value, shift = work[12:15, :n], work[15:18, :n]
    # each chord's fall, a lam >= 0; the floor on the width keeps lam (U - L) and lam (S - sum L) finite
    np.subtract(g_lo, g_hi, out=slopes)
    np.maximum(slopes, 0.0, out=slopes)
    slopes /= np.maximum(width, 2.0**-1000, out=tmp[0])
    pick, best = (np.minimum, np.maximum) if concave else (np.maximum, np.minimum)
    chord, split_side = bounds if concave else bounds[::-1]
    np.multiply(slopes[:, None], width, out=tmp)
    tmp += g_hi
    pick(tmp, g_lo, out=tmp)
    np.add(tmp[:, 0], tmp[:, 1], out=value)
    value += tmp[:, 2]
    value -= np.multiply(slopes, room, out=shift)
    for lam_value in value:
        best(chord, lam_value, out=chord)
    _check_bounds(chord, alpha, where)
    # the split side, UB where G is concave and LB where convex: F at the
    # clipped equal split of the total, whose |h| the geometry holds
    pair = _half_pair(root, work[0:6, :n].reshape(2, 3, n))
    terms = _pair_entropy_into(pair, alpha, work[6:12, :n].reshape(2, 3, n))
    split = np.add(terms[0], terms[1], out=work[0, :n])
    split += terms[2]
    _check_bounds(split, alpha, where)
    (np.minimum if concave else np.maximum)(split_side, split, out=split_side)


def _sampled(
    alpha: TsallisParam, plan: _Plan, z_term: np.ndarray, tiles: list[int], where: Callable
) -> tuple[float, float]:
    """The least and greatest grid sums at nine points of each given tile: its first, middle and last rows by columns.

    tiles holds flat indices in the plan's grid of tiles, and z_term the
    order's z term per grid row, shape (n_tau, 1).  One kernel call takes
    both axes' pairs, and each sum is the x term plus the y term, plus the
    z term, so the sums are grid sums bit for bit (_pair_sums).  Raises
    ValueError at the first non-finite sum, tile by tile, in grid order
    within a tile, naming its grid point.
    """
    n_cols = len(plan.col_edges) - 1
    pairs = np.empty((2, 2, len(tiles), 3, 3))
    points = []  # per tile, its rows and columns
    for k, (t, u) in enumerate(divmod(tile, n_cols) for tile in tiles):
        rows, cols = ([int(e[s]), (int(e[s]) + int(e[s + 1]) - 1) // 2, int(e[s + 1]) - 1]
                      for e, s in ((plan.row_edges, t), (plan.col_edges, u)))
        _grid_pairs(plan.stage, rows, cols, pairs[:, :, k])
        points.append((rows, cols))
    terms = _pair_entropy_into(pairs, alpha, np.empty(pairs.shape))
    sums = np.add(terms[0], terms[1], out=terms[0])
    sums += z_term[[rows for rows, _ in points]]

    def at(k: int) -> str:
        rows, cols = points[k // 9]
        return where(rows[k % 9 // 3], cols[k % 3])

    _, least, _, greatest = _extrema(sums, alpha, at)
    return least, greatest


def _kept_spans(
    alphas: Sequence[TsallisParam], plan: _Plan, z_terms: np.ndarray, cuts: Optional[list[tuple[float, float]]],
    where: Callable, margin: float,
) -> tuple[np.ndarray, list[list]]:
    """The bound pass: each order's span in each row of tiles, from the plan's tile pairs and box geometry.

    Returns spans, of shape (orders, rows of tiles, 2): the first grid
    column of the order's first kept tile in the row and the end column
    of its last, (0, 0) where it keeps none; the order evaluates every
    tile between them.  An order keeps a tile unless LB > least + margin
    and UB < greatest - margin, and never keeps an exact tile
    (plan.exact), whose grid sums are its LB.  (least, greatest) are the
    order's cuts, given (a decision's) or, where cuts is None, its
    incumbents: the least UB and the greatest LB over its tiles, exact
    tiles (LB = UB) and boxes included, then, at a finite margin, the
    least and greatest sums of _sampled on the tile that gives each where
    no exact tile's LB does (z_terms holds each order's z term per grid
    row); a sampled tile is kept.  Returns too, per order, the exact
    tiles' extrema, [] or [((min, (i, j)), (max, (i, j)))] as _run's:
    the least and greatest LB and the first grid point of the first exact
    tile that holds each.  The pass takes the orders one by one, each in
    four steps.  Tile bounds: LB and UB, the sums on _tile_stage, on every
    tile at once, into one scratch of six values a tile that every order
    reuses.  Cuts: the tiles cut at the order's cuts, and the exact tiles
    resolved straight from plan.exact.  Boxes: at every order but 2 and
    3, and at those too where the margin is negative, the tiles left
    bounded as boxes on the sphere, a batch of _WORKER_POINTS / 16 at a
    time (_tile_boxes, _box_bound), their bounds taken into the
    incumbents.  Samples and spans: the samples, then the spans of the
    tiles left that the final cuts keep.  A box's bounds lie within its
    monotone ones and incumbents only tighten, so the tiles kept, and
    sampled, do not depend on the batches.  Raises ValueError order by
    order: at a non-finite tile bound, naming the tile (its sums, then its
    boxes), then at a non-finite sample, naming its grid point.  The pass
    runs in the calling thread, under a ufunc buffer of a row of tiles
    (_row_buffer; with the monotone bounds alone, on two workers each
    allocating its own arrays, it took 1.8 ms on 2001^2 at alpha = 2.5
    against 1.4 ms on one).
    """
    row_edges, col_edges, exact = plan.row_edges, plan.col_edges, plan.exact
    tile_z = _z_terms(alphas, plan.tile_stage)[..., 0]
    n_rows, n_cols = len(row_edges) - 1, len(col_edges) - 1
    # every tile's sums: three arrays, each of LB then UB
    w = np.empty((3, 2, n_rows, n_cols))
    # a batch of kept tiles' boxes (_tile_boxes, work[:17]), then _box_bound's
    # scratch (work[17:]).  work grows to the most kept tiles a batch has
    # held: a full batch's 1.2 MB, allocated and freed by every scan, made the
    # allocator return and fault in that memory again (about 300 minor faults
    # a scan on 101 x 40001)
    batch = _WORKER_POINTS // 16
    work = np.empty((35, 0))
    spans = np.empty((len(alphas), n_rows, 2), dtype=int)
    resolved: list[list] = []

    def tile(k: int) -> str:
        """The tile of flat index k in the grid of tiles, by its first and last grid points."""
        t, u = divmod(int(k), n_cols)
        start, end = where(row_edges[t], col_edges[u]), where(row_edges[t + 1] - 1, col_edges[u + 1] - 1)
        return f"on the tile from {start} to {end}"

    # the broadcasts have rows of n_cols tiles
    with _row_buffer(n_cols):
        for o, alpha in enumerate(alphas):
            # one axis at a time, so the sums need no fourth array
            fx = _pair_entropy_into(plan.tile_pairs[:, 0], alpha, w[0:2])
            _pair_entropy_into(plan.tile_pairs[:, 1], alpha, w[1:3])
            bounds = np.add(fx, w[1], out=w[2])
            bounds += tile_z[o, ..., None]
            lb, ub = bounds
            if not np.isfinite(bounds).all():
                _check_bounds(np.where(np.isfinite(lb), ub, lb).ravel(), alpha, tile)
            cut = [float(ub.min()), float(lb.max())] if cuts is None else list(cuts[o])
            keep = (lb <= cut[0] + margin) | (ub >= cut[1] - margin)
            keep.flat[exact] = False  # every grid sum of an exact tile is its LB
            found = []  # the least and greatest, each at the first grid point of its first exact tile
            if exact.size:
                picks = exact[[np.argmin(lb.flat[exact]), np.argmax(lb.flat[exact])]]
                found = [tuple((float(lb.flat[k]), (int(row_edges[k // n_cols]), int(col_edges[k % n_cols]))) for k in picks)]
            resolved.append(found)
            kept_tiles = np.flatnonzero(keep)
            kept_bounds = np.take(bounds.reshape(2, -1), kept_tiles, axis=1)
            concave = _sphere_regime(alpha)
            if concave is None and margin < 0.0:  # affine G is concave too
                concave = True
            for k0 in range(0, len(kept_tiles) if concave is not None else 0, batch):
                kept, box_bounds = kept_tiles[k0 : k0 + batch], kept_bounds[:, k0 : k0 + batch]
                if work.shape[1] < kept.size:
                    work = np.empty((35, kept.size))
                g, geometry = _tile_boxes(plan.geometry, w[0:2], tile_z[o], kept, work)
                _box_bound(alpha, concave, geometry, g, box_bounds, work[17:], lambda k: tile(kept[k]))
                if cuts is None:
                    cut = [min(cut[0], float(box_bounds[1].min())), max(cut[1], float(box_bounds[0].max()))]
            lb, ub = kept_bounds
            sampled = []
            if cuts is None and margin < math.inf and kept_tiles.size:
                # a side whose incumbent is no exact tile's grid sum samples its tile
                least, greatest = (found[0][0][0], found[0][1][0]) if found else (math.inf, -math.inf)
                sampled = [int(kept_tiles[np.argmin(ub)])] if cut[0] < least else []
                sampled += [int(kept_tiles[np.argmax(lb)])] if cut[1] > greatest else []
                if sampled:
                    least, greatest = _sampled(alpha, plan, z_terms[o], sampled, where)
                    cut = [min(cut[0], least), max(cut[1], greatest)]
            keep.fill(False)
            keep.flat[kept_tiles[(lb <= cut[0] + margin) | (ub >= cut[1] - margin)]] = True
            keep.flat[sampled] = True  # so every point of a sample is in a kept tile
            ends = np.stack([np.argmax(keep, axis=1), n_cols - np.argmax(keep[:, ::-1], axis=1)], axis=1)
            spans[o] = np.where(keep.any(axis=1)[:, None], col_edges[ends], 0)
    return spans, resolved


def _blocks(spans: np.ndarray, row_edges: np.ndarray) -> tuple[list[list], list[int], int, list[int]]:
    """A run's blocks in grid order, each a rectangle in which each order's points are one too, and their split.

    spans, of shape (orders, rows of tiles, 2), holds each order's span in
    each row of tiles (as _kept_spans).  The stage's span in a row of
    tiles runs from the first column any order keeps to the last; a row
    of tiles where no order keeps any belongs to no block.  Consecutive
    rows of tiles whose spans, the stage's and every order's, are all the
    same join into one run of grid rows, and each run is cut into blocks
    of max(1, _CHUNK_POINTS / _MAX_WORKERS / the stage's width) grid rows,
    the last one shorter: a block [row, end row, spans], spans the
    stage's then each order's, holds at most _CHUNK_POINTS / _MAX_WORKERS
    points, or one grid row.  So each order's points in a
    block are the block's rows times its span.  The run takes one worker
    per _WORKER_POINTS points its stage evaluates (_workers), at most one
    per block, and its blocks are split into contiguous runs of about
    equal kept work, the stage counted as one order's kernel: run k starts
    at the first block whose midpoint in the cumulative work reaches k /
    workers of it.  Returns the blocks, the runs' bounds (run k takes
    blocks[bounds[k] : bounds[k + 1]], one run per worker), the largest
    block's stage points and each order's points.  One pass over the
    lists of the rows of tiles where some order keeps a tile lays it all
    out: every scan runs its grid through here.
    """
    edges = row_edges.tolist()
    runs: list[list] = []
    rows = np.flatnonzero((spans[..., 0] < spans[..., 1]).any(axis=0))
    for t, own in zip(rows.tolist(), spans[:, rows].transpose(1, 0, 2).tolist()):
        kept = [span for span in own if span[0] < span[1]]
        r0, r1 = edges[t], edges[t + 1]
        row = [[min(c0 for c0, _ in kept), max(c1 for _, c1 in kept)], *own]
        if runs and runs[-1][1:] == [r0, row]:
            runs[-1][1] = r1
        else:
            runs.append([r0, r1, row])
    blocks = []
    for r0, r1, row in runs:
        step = max(1, _CHUNK_POINTS // _MAX_WORKERS // (row[0][1] - row[0][0]))
        blocks += ([r, min(r + step, r1), row] for r in range(r0, r1, step))
    areas = [[(r1 - r0) * (c1 - c0) for c0, c1 in row] for r0, r1, row in blocks]
    workers = min(_workers(sum(area[0] for area in areas)), len(blocks))
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
    against the extrema are exact: the scan runs the bound pass
    (_kept_spans) at _PRUNE_MARGIN, each order cut at its tile bounds' own
    extrema and its samples, and _run on each order's spans, and merges
    the exact tiles' extrema into the blocks' (_merged).  A tile's sums lie
    within the bound error, under 1e-13, of its LB and UB, so the least UB
    is at least the grid minimum less that error, the greatest LB at most
    the grid maximum plus it, and a sample lies between the two: a skipped
    tile's sums lie more than 1e-12 - 2e-13 above the minimum and below
    the maximum.

    against = (known, tol) asks for a one-sided decision instead: known
    holds per order a scan result whose extrema are grid values of this
    plan at their (i, j) (full_domain_orders: D's), and tol >= 0.  The scan
    cuts at known's extrema at the margin _PRUNE_MARGIN - tol and merges
    them into its result, so its min is at most known's and its max at
    least known's.  A skipped tile's sums lie within the bound error, under
    1e-13, of its LB and UB, so above known min - tol + 9e-13 and below
    known max + tol - 9e-13.  Where the exact min lies more than tol below
    known's (the gap's rounding is far under 9e-13), no skipped tile holds
    it or a tie with it, and the result's min and witness are the exact
    ones, bit for bit; elsewhere the result's min lies between the exact
    min and known's.  The max likewise.  So max(known min - min, max -
    known max) <= tol on the result is the exhaustive scan's bool.  Raises
    ValueError at the first non-finite value met: the tile bounds', then
    the grid run's (see _run).
    """
    tau_grid, phi_grid = plan.tau_grid, plan.phi_grid

    def where(i: int, j: int) -> str:
        return f"(tau, phi) = ({float(tau_grid[i])!r}, {float(phi_grid[j])!r})"

    z_terms = _z_terms(alphas, plan.stage)
    if against is None:
        known, cuts, margin = [[]] * len(alphas), None, _PRUNE_MARGIN
    else:
        given, tol = against
        known = [[((low, at_low), (high, at_high))] for low, at_low, high, at_high, *_ in given]
        cuts, margin = [(found[0], found[2]) for found in given], _PRUNE_MARGIN - tol
    spans, resolved = _kept_spans(alphas, plan, z_terms, cuts, where, margin)
    results = _run(alphas, plan.stage, z_terms, plan.row_edges, spans, where)
    return [
        (*_merged([*found, *exact, *extrema]), points)
        for (found, points), exact, extrema in zip(results, resolved, known)
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


def _run(
    alphas: Sequence[TsallisParam],
    stage: _Stage,
    z_terms: np.ndarray,
    row_edges: np.ndarray,
    spans: np.ndarray,
    where: Callable[[int, int], str],
) -> list[tuple[float, tuple[int, int], float, tuple[int, int], int]]:
    """Each order's grid extrema over its spans, with the points its kernel ran on.

    stage is a scan's stage, z_terms each order's z
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
    (a scan meets its bound pass's values first, order by order: its
    tile bounds, its boxes, then its samples; module docstring).  The
    grid's plan (GridSpec) is built on its first scan and reused by every
    later one; no order, no plan.
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
    The box is evaluated whole, every point in one batch (_entropic_sums),
    and raises ValueError at its first non-finite sum, naming its point.
    Deterministic: refined candidates replace the coarse one only when
    strictly larger, and ties within the box keep its lowest (tau, phi).
    """
    a = as_param(alpha)
    grid = grid if grid is not None else DEFAULT_GRID
    report = scan_extrema(a, grid)
    axes = _refine_axis(report.argmax.tau, grid.n_tau), _refine_axis(report.argmax.phi, grid.n_phi)
    tau, phi = np.meshgrid(*axes, indexing="ij")
    # halving is exact, so these are the box's grid values bit for bit: the
    # stage's fl((sin 2 tau / 2) cos phi) is fl(sin 2 tau cos phi) / 2
    s2t = np.sin(2.0 * tau)
    values = _entropic_sums(s2t * np.cos(phi), s2t * np.sin(phi), np.cos(2.0 * tau), a)
    _, _, k, mx = _extrema(values, a, lambda k: f"(tau, phi) = ({float(tau.flat[k])!r}, {float(phi.flat[k])!r})")
    if mx > report.max_value:
        return mx, PureStateAngles(float(tau.flat[k]), float(phi.flat[k]))
    return report.max_value, report.argmax
