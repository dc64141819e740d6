"""Brute-force oracle: scans, certification, property checks."""

import copy
import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauli_tsallis.entropy as entropy
import pauli_tsallis.verify as verify
from pauli_tsallis.cli import main
from pauli_tsallis import (
    BlochVector,
    GridSpec,
    PureStateAngles,
    bound_set,
    certify_equality_conditions,
    check_alpha_concavity,
    check_kernel_monotonicity,
    entropic_sum,
    g_sum,
    h_tilde,
    probs_from_bloch,
    refined_maximum,
    sample_mixed_states,
    sample_pure_states,
    full_domain_orders,
    scan_extrema,
    scan_full_domain_consistency,
    scan_orders,
)

QUARTER_PI = math.pi / 4.0
TAU_STAR = math.atan(math.sqrt(2.0)) / 2.0
# every kernel branch: pow below and above 1, either side of the expm1 window,
# Shannon, integer and non-integer pow
TEN_ORDERS = (0.25, 0.5, 0.999, 1.0, 1.005, 2.0, 2.5, 4.0, 7.3, 10.0)


def clipped_half(s):
    """The reference pair formula: clip((1 +- s)/2, 0, 1)."""
    return np.clip((1.0 + s) / 2.0, 0.0, 1.0), np.clip((1.0 - s) / 2.0, 0.0, 1.0)


def clipped_half_stage(tau, cos_phi, sin_phi):
    """The reference stage: clipped_half of each Bloch component on the grid tau x phi."""
    s2t = np.sin(2.0 * tau)[:, None]
    return [clipped_half(s) for s in (s2t * cos_phi, s2t * sin_phi, np.cos(2.0 * tau)[:, None])]


def stage_pairs(stage):
    """The x, y and z outcome pairs on a whole stage's grid (or stacked stages') as a scan forms them, in new arrays."""
    out = np.empty((2, 2, *stage[0].shape, stage[2].shape[-1]))
    verify._grid_pairs(stage, slice(None), slice(None), out)
    return [(out[0, 0], out[1, 0]), (out[0, 1], out[1, 1]), verify._half_pair(stage[1][..., None])]


def grid_pairs(tau, cos_phi, sin_phi):
    """The x, y and z outcome pairs on the grid tau x phi as a scan forms them, in new arrays."""
    half_s2t, half_c2t, _ = verify._stage(tau, np.zeros(1))
    return stage_pairs((half_s2t, half_c2t, np.stack([cos_phi, sin_phi])))


def pair_sums(pairs, alpha):
    """Entropic sums at the (x, y, z) outcome pairs as a scan sums them: the z term added to the x and y terms.

    The x and y pairs, (p, m) each, are stacked as a scan block holds them: p over m, each x over y.
    """
    x, y, z = pairs
    xy = np.stack([x, y], axis=1)
    scale = entropy._exact_scale(alpha)
    return verify._pair_sums(xy, entropy.pair_entropy(*z, alpha), alpha, scale, np.empty(xy.shape))


def constant_stage(tau_grid, phi_grid):
    """A stand-in for verify._stage whose Bloch halves are all 0: every pair is (1/2, 1/2), every grid point ties."""
    return np.zeros(len(tau_grid)), np.zeros(len(tau_grid)), np.ones((2, len(phi_grid)))


def grid_run(stage, n_tau):
    """Whether a _grid_pairs call on stage is a scan's run on its grid of n_tau rows.

    A scan also calls _grid_pairs in its tile bounds, on stages of fewer
    rows.
    """
    return stage[0].shape == (n_tau,)


def grid_run_rows(monkeypatch, n_tau):
    """Spy on _grid_pairs; returns rows(), in the calling thread the grid rows of the block its scan is on.

    rows() is None in the tile bounds (grid_run).  Each scan takes its z
    terms, one value per row, before them, while rows() still holds the
    last block of the thread's previous scan.
    """
    real, block = verify._grid_pairs, threading.local()

    def pairs(stage, rows, cols, out):
        block.rows = np.arange(n_tau)[rows] if grid_run(stage, n_tau) else None
        return real(stage, rows, cols, out)

    monkeypatch.setattr(verify, "_grid_pairs", pairs)
    return lambda: getattr(block, "rows", None)


def assert_same_bits(pairs, expected):
    """Pairs equal bit for bit (signed zeros and NaN payloads included)."""
    assert len(pairs) == len(expected)
    for got, want in zip(pairs, expected):
        for a, b in zip(got, want):
            a, b = np.broadcast_arrays(a, b)
            assert np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


class TestEntropicSum:
    def test_eigenstate_shannon(self):
        assert entropic_sum(BlochVector(0.0, 0.0, 1.0), 1.0) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-15
        )

    def test_constant_on_pure_states_order_two(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert entropic_sum(state, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_completely_mixed_order_three(self):
        value = entropic_sum(BlochVector(0.0, 0.0, 0.0), 3.0)
        assert value == pytest.approx(9.0 / 8.0, abs=1e-15)
        assert value == pytest.approx(bound_set(3.0).upper_mixed, abs=1e-15)

    def test_accepts_triple_directly(self):
        triple = probs_from_bloch(BlochVector(0.0, 0.0, 1.0))
        assert entropic_sum(triple, 1.0) == entropic_sum(BlochVector(0.0, 0.0, 1.0), 1.0)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            entropic_sum((0.0, 0.0, 1.0), 1.0)


class TestGSum:
    def test_identities_at_small_integer_orders(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert g_sum(state, 1.0) == pytest.approx(0.0, abs=1e-12)
            assert g_sum(state, 2.0) == pytest.approx(1.0, abs=1e-12)
            assert g_sum(state, 3.0) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.7, 5.0])
    def test_matches_rescaled_entropic_sum(self, alpha):
        rng = np.random.default_rng(8)
        for _ in range(100):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert g_sum(state, alpha) == pytest.approx(
                (alpha - 1.0) * entropic_sum(state, alpha), abs=1e-12
            )


class TestScanExtrema:
    def test_shannon_grid_minimum_at_corner(self):
        report = scan_extrema(1.0, GridSpec(201, 201))
        assert report.min_value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
        assert report.min_value - bound_set(1.0).lower == pytest.approx(0.0, abs=1e-12)

    def test_order_half_attains_bound_exactly_on_grid(self):
        report = scan_extrema(0.5, GridSpec(101, 101))
        assert abs(report.min_value - bound_set(0.5).lower) <= 1e-12

    def test_max_approaches_pure_upper(self):
        report = scan_extrema(1.0, GridSpec(501, 501))
        h = QUARTER_PI / 500
        assert -1e-12 <= bound_set(1.0).upper_pure - report.max_value <= 10.0 * h * h

    def test_vectorized_grid_agrees_with_scalar_sum(self):
        rng = np.random.default_rng(17)
        taus = rng.uniform(0.0, QUARTER_PI, 5)
        phis = rng.uniform(0.0, QUARTER_PI, 5)
        # the order-independent stage once, shared by every order below
        pairs = grid_pairs(taus, np.cos(phis), np.sin(phis))
        # pow, Shannon, expm1 and integer-pow kernel branches, z-term per row included
        for alpha in (0.5, 1.0, 1.005, 3.3, 4.0):
            a = verify.as_param(alpha)
            block = pair_sums(pairs, a)
            for i, tau in enumerate(taus):
                for j, phi_v in enumerate(phis):
                    scalar = entropic_sum(PureStateAngles(float(tau), float(phi_v)), alpha)
                    # exact: one kernel, and numpy's float64 sin/cos match math's
                    assert block[i, j] == scalar

    def test_stage_is_bitwise_clipped_half(self):
        # 1/2 +- h without a 2-D clip is clip((1 +- s)/2, 0, 1) bit for bit on
        # D, the full domain (negative cos and sin, -0.0 products) and a wide grid
        grids = [
            (QUARTER_PI, 2001, QUARTER_PI, 2001),
            (math.pi / 2.0, 501, 2.0 * math.pi, 2001),
            (QUARTER_PI, 11, QUARTER_PI, 40001),
        ]
        for tau_end, n_tau, phi_end, n_phi in grids:
            tau, phis = np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi)
            cos_phi, sin_phi = np.cos(phis), np.sin(phis)
            rows = max(1, verify._CHUNK_POINTS // n_phi)
            for i0 in range(0, n_tau, rows):
                t = tau[i0 : i0 + rows]
                assert_same_bits(grid_pairs(t, cos_phi, sin_phi), clipped_half_stage(t, cos_phi, sin_phi))

    def test_chunking_does_not_change_result(self, monkeypatch):
        grid = GridSpec(157, 83)
        baseline = scan_extrema(0.7, grid)
        n = grid.n_phi
        # under one row, one row minus a point, exactly one row, several rows plus a tail
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            assert scan_extrema(0.7, grid) == baseline, budget

    @pytest.mark.parametrize("budget", [1, 7 * 83 + 3, verify._CHUNK_POINTS])
    def test_ties_keep_lowest_grid_point(self, monkeypatch, budget):
        # every grid point ties, so both extrema must stay at (0, 0) across
        # chunks, for one order alone and for each order of a shared pass
        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        monkeypatch.setattr(verify, "_stage", constant_stage)
        grid = GridSpec(157, 83)
        for report in [scan_extrema(0.7, grid), *scan_orders([0.7, 1.0, 3.0], grid)]:
            assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
            assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)

    def test_chunks_stay_within_point_budget(self, monkeypatch):
        # every row of the grid's run evaluated once: an infinite margin keeps
        # every tile but the exact ones, grid row 0's among them
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        grid = GridSpec(101, 40001)
        real = verify._grid_pairs
        rows = []
        axis = np.linspace(0.0, QUARTER_PI, grid.n_tau)

        def spy(stage, r, c, out):
            if grid_run(stage, grid.n_tau):
                tau = axis[r]
                assert tau.size * out.shape[2] <= max(grid.n_phi, verify._CHUNK_POINTS)
                rows.append((threading.current_thread(), tau))
            return real(stage, r, c, out)

        def assert_each_row_once():
            # per worker, the rows in the order they came; sorted by their first
            # row and joined, they are the axis after row 0: each worker's rows
            # are whole, contiguous and in grid order, and every row comes
            # exactly once
            per_worker = {}
            for thread, tau in rows:
                per_worker.setdefault(thread, []).append(tau)
            runs = sorted((np.concatenate(taus) for taus in per_worker.values()), key=lambda run: run[0])
            assert len(runs) == verify._workers(grid.n_tau * grid.n_phi)
            assert np.array_equal(np.concatenate(runs), axis[1:])
            rows.clear()

        monkeypatch.setattr(verify, "_grid_pairs", spy)
        scan_extrema(0.5, grid)
        assert_each_row_once()
        # a multi-order pass runs the stage once per chunk, not once per order
        scan_orders([0.5, 1.0, 4.0], grid)
        assert_each_row_once()

    # Each order's z term, one value per row, comes first, one kernel call per
    # scan; then, after the tile bounds, the grid's run takes the
    # order-independent stage once per block, and the pair numerator once
    # per block and order, both axes in one call, the grid run's calls
    # counted here.  With every tile kept but grid row 0's, which
    # are exact, a 41x41 grid is one block by default, rows 1-40, whose
    # numerators are the grid run's call 0 in a one-order scan; a 33-point
    # budget makes a block of each grid row, 1 to 40, and call 19 is grid
    # row 20's.  The x term takes the value.  A NaN is caught by both argmin
    # and argmax, -inf by argmin and +inf by argmax: at 0.5 the numerators'
    # sum is scaled by 1 / (1 - 0.5) = 2, which keeps each sign.
    @pytest.mark.parametrize(
        "budget,call,row,bad",
        [
            (verify._CHUNK_POINTS, 0, 7, math.nan),
            (33, 19, 20, math.nan),
            (verify._CHUNK_POINTS, 0, 7, -math.inf),
            (verify._CHUNK_POINTS, 0, 7, math.inf),
        ],
    )
    def test_nonfinite_value_raises(self, monkeypatch, capsys, budget, call, row, bad):
        real = verify._pair_numerator_into
        calls, injected = [], []

        def inject(pairs, alpha, out):
            out = real(pairs, alpha, out)
            rows = block_rows()
            if rows is not None:  # a block's x and y numerators
                if len(calls) == call:
                    out[0, row - rows[0], 5] = bad
                    injected.append(alpha.alpha)
                calls.append(None)
            return out

        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)  # every grid point in the grid's run but row 0's
        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        block_rows = grid_run_rows(monkeypatch, 41)
        monkeypatch.setattr(verify, "_pair_numerator_into", inject)
        axis = np.linspace(0.0, QUARTER_PI, 41)
        point = f"(tau, phi) = ({float(axis[row])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=0.5") as info:
            scan_extrema(0.5, GridSpec(41, 41))
        assert point in str(info.value)
        assert injected == [0.5]

        calls.clear()
        assert main(["verify", "0.5", "--grid", "41"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert point in err
        assert injected == [0.5, 0.5]

    def test_nonfinite_value_in_second_order_raises(self, monkeypatch, capsys):
        # in a pass over orders (0.5, 2.0) calls 0 and 1 are the z terms
        # (pair kernel) and, counting the grid run's numerators alone, call 3
        # is the second order's x and y numerators in its one block; the
        # first order's values stay finite
        real_kernel, real_numerator = verify._pair_entropy_into, verify._pair_numerator_into
        calls, injected = [], []

        def kernel(pairs, alpha, out):
            out = real_kernel(pairs, alpha, out)
            if out.ndim == 1:  # an order's z term per row
                calls.append(alpha.alpha)
            return out

        def numerator(pairs, alpha, out):
            out = real_numerator(pairs, alpha, out)
            if block_rows() is not None:  # the grid run's
                if len(calls) == 3:
                    out[0, 7 - block_rows()[0], 5] = math.nan
                    injected.append(alpha.alpha)
                calls.append(alpha.alpha)
            return out

        # one block, rows 1-10, every order on every point but grid row 0's, whose tile is exact
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        block_rows = grid_run_rows(monkeypatch, 11)
        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        monkeypatch.setattr(verify, "_pair_numerator_into", numerator)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        point = f"(tau, phi) = ({float(axis[7])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=2.0") as info:
            scan_orders([0.5, 2.0], GridSpec(11, 11))
        assert point in str(info.value)
        assert calls == [0.5, 2.0, 0.5, 2.0]
        assert injected == [2.0]

        calls.clear()
        assert main(["verify", "0.5,2", "--grid", "11"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha=2.0" in err and point in err
        assert injected == [2.0, 2.0]

    @pytest.mark.parametrize(
        "n,row,prune",
        [(11, 7, False), (801, "tile", True), (801, "between", True)],
    )
    def test_nonfinite_z_term_reports_its_rows_first_point(self, monkeypatch, capsys, n, row, prune):
        # computing a z term raises nothing: a NaN in one is reported where the
        # scan first sums it, at the first grid point of its row that the order
        # evaluates.  Every tile of the constant order 2.0 is kept but the
        # exact ones (grid row 0's), so that is column 0, in the grid's run:
        # row 7 of 11x11, and on 801^2 a row of tiles' first grid row and one
        # between its first and last, with the margin or, without pruning, an
        # infinite one
        axis = np.linspace(0.0, QUARTER_PI, n)
        if prune:
            row_edges, _ = verify._tile_edges(axis, axis)
            row = int(row_edges[3]) + (row == "between")
        else:
            monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        real = verify._pair_entropy_into
        calls = []

        def inject(pairs, alpha, out):
            out = real(pairs, alpha, out)
            if len(calls) == 1:  # the z term of the second order
                out[row] = math.nan
            calls.append(out.shape)
            return out

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        point = f"(tau, phi) = ({float(axis[row])!r}, {float(axis[0])!r})"
        with pytest.raises(ValueError, match="alpha=2.0") as info:
            scan_orders([0.5, 2.0], GridSpec(n, n))
        assert "entropic sum is nan" in str(info.value) and point in str(info.value)
        assert calls[:2] == [(n,), (n,)]

        calls.clear()
        assert main(["verify", "0.5,2", "--grid", str(n)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha=2.0" in err and point in err

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 100)
        with pytest.raises(TypeError, match="n_tau"):
            GridSpec(2.5, 3)
        with pytest.raises(TypeError, match="n_phi"):
            GridSpec(3, 3.0)
        with pytest.raises(TypeError, match="n_phi"):
            GridSpec(3, "3")
        grid = GridSpec(np.int64(5), np.int32(7))
        assert (grid.n_tau, grid.n_phi) == (5, 7)
        assert type(grid.n_tau) is int and type(grid.n_phi) is int

    def test_grid_size_cap(self):
        # construction allocates nothing, so the cap is checked at its edge
        assert GridSpec.MAX_POINTS == 1_000_001
        GridSpec(GridSpec.MAX_POINTS, GridSpec.MAX_POINTS)
        with pytest.raises(ValueError, match="at most 1000001"):
            GridSpec(2, GridSpec.MAX_POINTS + 1)
        with pytest.raises(ValueError, match="at most 1000001"):
            GridSpec(10**12, 2)


unit = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=unit)
def test_half_form_is_bitwise_clipped_half(s):
    assert_same_bits([verify._clipped_pairs(np.array([s]))[:, 0]], [clipped_half(np.array([s]))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tau=st.floats(min_value=0.0, max_value=math.pi / 2.0), c=unit, d=unit)
def test_stage_product_is_bitwise_clipped_half(tau, c, d):
    # any cos_phi, sin_phi values in [-1, 1], tiny and subnormal products included
    t, cos_phi, sin_phi = np.array([tau]), np.array([c]), np.array([d])
    assert_same_bits(grid_pairs(t, cos_phi, sin_phi), clipped_half_stage(t, cos_phi, sin_phi))


def test_grid_pairs_are_bitwise_clipped_half():
    # the one product and its two in-place passes give clip((1 +- s)/2, 0, 1)
    # bit for bit on a grid stage, and on the stacked tile stage, each bound's
    # pairs those of the grid rows holding its (sin 2 tau)/2; a NaN in one trig
    # entry reaches both p and m of its axis, and nothing else
    tau, phi = np.linspace(0.0, QUARTER_PI, 201), np.linspace(0.0, QUARTER_PI, 201)
    half_s2t, half_c2t, trig = verify._stage(tau, phi)
    trig = trig.copy()
    trig[1, 37] = math.nan
    stage = (half_s2t, half_c2t, trig)
    x, y, _ = stage_pairs(stage)
    assert_same_bits([x, y], clipped_half_stage(tau, *trig)[:2])
    assert np.isnan(y[0][:, 37]).all() and np.isnan(y[1][:, 37]).all()
    assert np.count_nonzero(np.isnan([*x, *y])) == 2 * tau.size
    row_edges, col_edges = verify._tile_edges(tau, phi)
    tile_stage = verify._tile_stage(stage, row_edges, col_edges)
    tile_x, tile_y, _ = stage_pairs(tile_stage)
    segments = [half_s2t[r0:r1] for r0, r1 in zip(row_edges[:-1], row_edges[1:])]
    tile = np.searchsorted(col_edges, 37, side="right") - 1  # the NaN's column of tiles
    for b, pick in enumerate((np.argmax, np.argmin)):
        rows = row_edges[:-1] + np.array([pick(v) for v in segments])
        assert np.array_equal(half_s2t[rows], tile_stage[0][b])
        expected = clipped_half_stage(tau[rows], *tile_stage[2][:, b])[:2]
        assert_same_bits([(p[b], m[b]) for p, m in (tile_x, tile_y)], expected)
        assert np.isnan(tile_y[0][b, :, tile]).all() and np.isnan(tile_y[1][b, :, tile]).all()


def test_half_form_edge_values():
    # beyond +-1 the clip of the components gives the deterministic pair, as
    # clipping the probabilities did; NaN stays NaN with the same bits
    edges = np.array([0.0, -0.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 1.5, -1.5, 5e-324, math.nan])
    assert_same_bits([verify._clipped_pairs(edges)[:, 0]], [clipped_half(edges)])


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
def test_scan_minimum_never_undercuts_lower_bound(alpha):
    report = scan_extrema(alpha, GridSpec(501, 501))
    bounds = bound_set(alpha)
    low = bounds.lower
    assert report.min_value >= low - 1e-12
    if bounds.lower_is_tight:
        assert abs(report.min_value - low) <= 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0])
def test_scan_maximum_tracks_pure_upper_bound(alpha):
    report = scan_extrema(alpha, GridSpec(501, 501))
    h = QUARTER_PI / 500
    gap = 3.0 * h_tilde(alpha) - report.max_value
    assert -1e-12 <= gap <= 10.0 * h * h


def unfolded_plans(n_tau, n_phi, stage=None):
    """The plan of the full-domain grid of n_tau x n_phi points, on stage if given, and its D block's, on views of its stage."""
    full = verify._Plan(np.linspace(0.0, math.pi / 2.0, n_tau), np.linspace(0.0, 2.0 * math.pi, n_phi), stage)
    n = (n_tau + 1) // 2  # the grid on D that unfolds to this one
    return verify._Plan(full.tau_grid[:n], full.phi_grid[:n], tuple(v[..., :n] for v in full.stage)), full


class TestFullDomainConsistency:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_reduction_is_faithful(self, alpha):
        # unfolds to 501 x 1001 points over the full domain
        assert scan_full_domain_consistency(alpha, GridSpec(251, 126))

    def test_D_is_the_full_grids_leading_block(self, monkeypatch):
        # verify's full-domain shape: the 251x251 grid on D unfolds to 501x2001
        # points; one exact scan of its leading 251x251 block, whose stage is a
        # view of the unfolding's, then one scan of the unfolding deciding
        # against D's extrema at the check's tolerance, and no other scan; the
        # symmetry maps send every full-grid point onto a block point, so the
        # exact extrema agree to rounding, far inside (2h)^2
        calls = []

        def spy(alphas, plan, against=None):
            found = scan(alphas, plan, against)
            calls.append((plan, against, found))
            return found

        scan = verify._scan_rectangle
        monkeypatch.setattr(verify, "_scan_rectangle", spy)
        assert full_domain_orders(TEN_ORDERS, GridSpec(251, 251)) == [True] * len(TEN_ORDERS)
        tol = (2.0 * QUARTER_PI / 250) ** 2
        (reduced, none, found), (full, against, _) = calls
        # D's exact extrema, with their grid points, are what the unfolding decides against
        assert none is None and against == (found, tol)
        assert (len(full.tau_grid), len(full.phi_grid)) == (501, 2001)
        assert full.tau_grid[-1] == pytest.approx(math.pi / 2, abs=1e-15)
        assert full.phi_grid[-1] == pytest.approx(2 * math.pi, abs=1e-15)
        for block, axis in ((reduced.tau_grid, full.tau_grid), (reduced.phi_grid, full.phi_grid)):
            assert np.shares_memory(block, axis) and np.array_equal(block, axis[:251])
            assert block[-1] == pytest.approx(QUARTER_PI, abs=1e-15)
        for block, stage in zip(reduced.stage, full.stage):
            assert np.shares_memory(block, stage) and np.array_equal(block, stage[..., :251])
        params = [verify.as_param(a) for a in TEN_ORDERS]
        for (mn_f, _, mx_f, _, _), (mn_d, _, mx_d, _, _) in zip(scan(params, full), found):
            assert abs(mn_f - mn_d) <= 1e-12 and abs(mx_f - mx_d) <= 1e-12

    @pytest.mark.parametrize("grid", ["201x801 unfolded", "501x2001 unfolded"])
    def test_decision_extrema_are_exact_past_tol(self, grid):
        # the unfolding's scan against its D block's exact extrema at tol:
        # its min is at most D's and its max at least D's; where the exact
        # gap on a side exceeds tol, that extremum and its witness are the
        # exact ones, bit for bit, and otherwise the extremum lies between the
        # exact one and D's, so within tol of D's.  Each witness holds its
        # value.  The exact scans are the exhaustive ones (TestPruning); tol
        # runs from 0 through the exact gaps, of a few ulps, to the check's own
        _, n_tau, _, n_phi = PARITY_GRIDS[grid]
        block, full = unfolded_plans(n_tau, n_phi)
        params = [verify.as_param(a) for a in PARITY_ORDERS]
        on_block, exact = verify._scan_rectangle(params, block), verify._scan_rectangle(params, full)
        gaps = sorted({g for d, f in zip(on_block, exact) for g in (d[0] - f[0], f[2] - d[2])} - {0.0})
        half_s2t, half_c2t, trig = full.stage
        for tol in (0.0, gaps[len(gaps) // 2], (2.0 * QUARTER_PI / (len(block.tau_grid) - 1)) ** 2):
            decided = verify._scan_rectangle(params, full, (on_block, tol))
            for a, d, f, found in zip(params, on_block, exact, decided):
                for side, sign in ((0, 1.0), (2, -1.0)):  # min, then max
                    known, value, witness = d[side], found[side], found[side + 1]
                    assert sign * (known - f[side]) >= 0.0, a.alpha
                    if sign * (known - f[side]) > tol:
                        assert (value, witness) == f[side : side + 2], (a.alpha, tol)
                    else:
                        assert sign * f[side] <= sign * value <= sign * known, (a.alpha, tol)
                    i, j = witness
                    pairs = [verify._half_pair(half_s2t[[i]] * t[[j]]) for t in trig]
                    assert pair_sums([*pairs, verify._half_pair(half_c2t[[i]])], a)[0] == value, a.alpha

    @pytest.mark.parametrize(
        "grid", [pytest.param((201, 801), id="201x801 unfolded"), pytest.param((81, 321), id="81x321 unfolded")]
    )
    def test_a_smaller_tolerance_gives_the_exact_decisions(self, monkeypatch, grid):
        # the decision at every tolerance set among the exact gaps of the
        # unfolding and its D block (a few ulps, one-sided) and between them:
        # the bools are those of exhaustive scans, with gaps on both sides of
        # most of those tolerances, from one exact scan of D and one scan of
        # the unfolding against D's extrema, never a second
        block, full = unfolded_plans(*grid)
        params = [verify.as_param(a) for a in PARITY_ORDERS + LARGE_ORDERS]
        scan = verify._scan_rectangle
        exact = [(d[0] - f[0], f[2] - d[2]) for d, f in zip(*(whole_grid(params, plan) for plan in (block, full)))]
        assert min(min(gap) for gap in exact) >= 0.0  # one-sided: D's grid is the unfolding's leading block
        gaps = sorted({max(gap) for gap in exact})
        tolerances = [*gaps, *((a + b) / 2.0 for a, b in zip(gaps, gaps[1:]))]
        calls = []

        def spy(alphas, plan, against=None):
            calls.append((plan, against is None or against[1]))
            return scan(alphas, plan, against)

        monkeypatch.setattr(verify, "_scan_rectangle", spy)
        mixed = 0
        for tol in tolerances:
            calls.clear()
            expected = [max(gap) <= tol for gap in exact]
            assert verify._agree(params, block, full, tol) == expected, tol
            assert calls == [(block, True), (full, tol)], tol
            mixed += len(set(expected)) == 2
        assert mixed >= len(gaps) - 1 >= 2

    # points_evaluated on the unfolding of 251^2 and its D block at orders
    # 0.5, 1, 2, 2.5, 3, 4 and 7.3 (numpy 2.4.6), at the check's tolerance:
    # D's exact scan evaluates the tiles around its extrema, and every tile
    # but the exact ones at 2 and 3, whose sum is constant; the unfolding's
    # decision against D's extrema, at these orders, keeps no tile
    def test_tolerance_pass_points_are_pinned(self):
        block, full = unfolded_plans(501, 2001)
        params = [verify.as_param(a) for a in (0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 7.3)]
        found = verify._scan_rectangle(params, block)
        assert [f[4] for f in found] == [608, 608, 62750, 608, 62750, 608, 608]
        decided = verify._scan_rectangle(params, full, (found, (2.0 * QUARTER_PI / 250) ** 2))
        assert [f[4] for f in decided] == [0] * 7

    # A planted violation: the 201 x 801 unfolding's stage with grid row 150,
    # outside D's 101-row block, in the row of tiles 140-159, moved off the
    # sphere (its halves halved), so its sums are those of mixed states, far
    # above D's maximum
    PLANTED_ROW = 150

    def planted(self, value):
        """The 201 x 801 unfolding's plan and its D block's, the unfolding's row PLANTED_ROW set by value(half_s2t, half_c2t)."""
        half_s2t, half_c2t, trig = (v.copy() for v in unfolded_plans(201, 801)[1].stage)
        row = self.PLANTED_ROW
        half_s2t[row], half_c2t[row] = value(half_s2t[row], half_c2t[row])
        return unfolded_plans(201, 801, (half_s2t, half_c2t, trig))

    def test_planted_violation_is_found(self, monkeypatch):
        # the decisions are those of the exhaustive scans (an infinite margin
        # skips no tile), with the exhaustive extrema and witnesses where they
        # are False.  At the check's tolerance, at any chunk budget and worker
        # count: False at the parity orders, the maxima on the planted row,
        # and True at the large orders, whose sums all lie within
        # 1 / (alpha - 1) of 0, so that the planted row's stay within tol of
        # D's maximum.  Then at tolerances set among the planted gaps, where
        # a skipped tile's sums may lie just under tol past D's extrema, each
        # with decisions both ways
        block, full = self.planted(lambda a, b: (a / 2.0, b / 2.0))
        params = [verify.as_param(a) for a in PARITY_ORDERS + LARGE_ORDERS]
        with monkeypatch.context() as m:
            m.setattr(verify, "_PRUNE_MARGIN", math.inf)
            found = verify._scan_rectangle(params, block)
            exhaustive = verify._scan_rectangle(params, full, (found, 0.0))
        # per order, the gaps below D's minimum and above its maximum
        sides = [(d[0] - f[0], f[2] - d[2]) for d, f in zip(found, exhaustive)]
        gaps = [max(pair) for pair in sides]
        assert {witness[0] for _, _, _, witness, _ in exhaustive[: len(PARITY_ORDERS)]} == {self.PLANTED_ROW}

        def assert_exact_decisions(tol):
            decisions = [gap <= tol for gap in gaps]
            assert verify._agree(params, block, full, tol) == decisions, tol
            decided = verify._scan_rectangle(params, full, (found, tol))
            # an extremum past tol is exact (test_decision_extrema_are_exact_past_tol)
            for pair, got, want in zip(sides, decided, exhaustive):
                for gap, k in zip(pair, (0, 2)):
                    if gap > tol:
                        assert got[k : k + 2] == want[k : k + 2], tol
            return decisions

        tol = (2.0 * QUARTER_PI / 100) ** 2
        for budget in (1, 801, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            for workers in (1, 2):
                monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
                expected = [False] * len(PARITY_ORDERS) + [True] * len(LARGE_ORDERS)
                assert assert_exact_decisions(tol) == expected, (budget, workers)
        distinct = sorted(set(gaps))
        for k in (len(distinct) // 4, len(distinct) // 2, 3 * len(distinct) // 4):  # at and between gaps
            for tol in (distinct[k], (distinct[k] + distinct[k + 1]) / 2.0):
                assert len(set(assert_exact_decisions(tol))) == 2, tol

    def test_planted_nan_names_its_tile(self, monkeypatch):
        # a NaN in the planted row: D's scan never meets it, and the
        # unfolding's decision meets it first in the bound pass, as the tile
        # bound of the row's first tile, at any chunk budget
        block, full = self.planted(lambda a, b: (math.nan, b))
        params = [verify.as_param(a) for a in (0.5, 2.0, 4.0)]
        tau, phi = full.tau_grid, full.phi_grid
        first = f"(tau, phi) = ({float(tau[140])!r}, {float(phi[0])!r})"
        last = f"(tau, phi) = ({float(tau[159])!r}, {float(phi[full.col_edges[1] - 1])!r})"
        for budget in (1, 801, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            with pytest.raises(ValueError, match="entropic sum bound is nan at alpha=0.5") as info:
                verify._agree(params, block, full, (2.0 * QUARTER_PI / 100) ** 2)
            assert f"on the tile from {first} to {last}" in str(info.value), budget

    def test_oversized_unfolding_raises(self, monkeypatch):
        # 125,002 phi points on D unfold to 1,000,009 > MAX_POINTS: rejected before any scan
        monkeypatch.setattr(verify, "_grid_pairs", None)
        grid = GridSpec(2, 125_002)
        with pytest.raises(ValueError, match="at most 1000001 points, got 3x1000009"):
            full_domain_orders([0.5, 2.0], grid)
        with pytest.raises(ValueError, match="at most 1000001 points, got 3x1000009"):
            scan_full_domain_consistency(0.5, grid)


class TestScanOrders:
    def test_reports_match_single_order_scans(self, monkeypatch):
        grid, small = GridSpec(157, 83), GridSpec(21, 21)  # small unfolds to 41 x 161
        reports = [scan_extrema(a, grid) for a in TEN_ORDERS]
        consistent = [scan_full_domain_consistency(a, small) for a in TEN_ORDERS]
        assert all(consistent)
        # chunk budgets as in test_chunking_does_not_change_result
        n = grid.n_phi
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            assert scan_orders(TEN_ORDERS, grid) == reports, budget
            assert full_domain_orders(TEN_ORDERS, small) == consistent, budget

    def test_reports_follow_the_given_order(self, monkeypatch):
        grid = GridSpec(41, 41)
        orders = [4.0, 0.5, 4.0, 1.0]
        reports = scan_orders(orders, grid)
        assert [r.alpha.alpha for r in reports] == orders
        assert reports[0] == reports[2] == scan_extrema(4.0, grid)
        # no order, no grid work and no plan, not even on a grid never scanned
        monkeypatch.setattr(verify, "_Plan", None)
        monkeypatch.setattr(verify, "_grid_pairs", None)
        fresh = GridSpec(41, 41)
        assert scan_orders([], grid) == [] and full_domain_orders([], grid) == []
        assert scan_orders([], fresh) == [] and full_domain_orders([], fresh) == []
        assert "_plan" not in vars(fresh)

    def test_scans_never_read_the_bounds(self, monkeypatch):
        grid, small = GridSpec(41, 23), GridSpec(11, 11)
        orders = (0.5, 1.0, 2.5, 4.0)

        def results():
            return (
                scan_orders(orders, grid),
                [scan_extrema(a, grid) for a in orders],
                full_domain_orders(orders, small),
                [refined_maximum(a, grid) for a in orders],
            )

        expected = results()

        def forbidden(alpha):
            raise AssertionError(f"a scan read bound_set({alpha!r})")

        monkeypatch.setattr(verify, "bound_set", forbidden)
        assert results() == expected

    def test_report_holds_only_measurements(self):
        names = [field.name for field in dataclasses.fields(verify.ScanReport)]
        assert names == ["alpha", "min_value", "max_value", "argmin", "argmax", "grid", "points_evaluated"]


# A 401x401 grid engages a helper thread wherever two CPUs are usable, in a
# scan with an order that keeps every tile but the exact ones (2, whose
# pure-state sum is constant, or any order at an infinite margin): grid row
# 0 and the 1 x 1 tile at (400, 400) are exact, so its 6 blocks, rows 1-79,
# four of 80 rows and row 400 without its last column, split into runs of 3
# blocks (rows 1-239, the caller's) and 3 blocks (rows 240-400, the
# helper's).  The other orders keep a few tiles each.
WORKER_GRID = GridSpec(401, 401)
WORKER_ORDERS = (0.5, 1.0, 1.005, 2.0, 2.5, 4.0)
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def one_worker(monkeypatch):
    monkeypatch.setattr(verify, "_workers", lambda points: 1)


class TestWorkers:
    """Scans split their blocks among threads and give the bytes of one worker."""

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        for points in (0, 9, 2**16 - 1, 2**16, 2**17, 2001 * 2001):
            assert verify._workers(points) == max(1, min(cpus, 2, points // 2**16)), points

    def test_many_cpus_keep_the_workspace_bounded(self, monkeypatch):
        # 64 usable CPUs still give two workers, and on rows wider than a
        # worker's share of the budget the workspace holds one row per worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # every grid point in the grid's run but the exact tiles': grid row 0
        # and the 1 x 1 tiles of the last column
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        assert verify._MAX_WORKERS == 2
        for points in (2**17, 2001 * 2001, GridSpec.MAX_POINTS**2):
            assert verify._workers(points) == 2, points
        grid, workspaces, threads = GridSpec(6, 200_001), set(), set()
        real = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            if grid_run(stage, grid.n_tau):
                base = out
                while base.base is not None:
                    base = base.base
                workspaces.add((id(base), base.shape))
                threads.add(threading.current_thread())
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        scan_extrema(0.5, grid)
        assert {shape for _, shape in workspaces} == {(2, 8, grid.n_phi - 1)}
        assert len(workspaces) == 1 and len(threads) == 2

    @pytest.mark.parametrize("grid", [WORKER_GRID, GridSpec(11, 40001)], ids=str)
    def test_reports_match_one_worker(self, monkeypatch, grid):
        n = grid.n_phi
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            reports = scan_orders(WORKER_ORDERS, grid)
            with monkeypatch.context() as m:
                one_worker(m)
                assert scan_orders(WORKER_ORDERS, grid) == reports, budget

    def test_full_domain_matches_one_worker(self, monkeypatch):
        # GridSpec(101, 101) unfolds to 201 x 801 points, past two workers' minimum
        grid = GridSpec(101, 101)
        params = [verify.as_param(a) for a in WORKER_ORDERS]
        plan = verify._Plan(np.linspace(0.0, math.pi / 2.0, 201), np.linspace(0.0, 2.0 * math.pi, 801))
        n = len(plan.phi_grid)
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            extrema, consistent = verify._scan_rectangle(params, plan), full_domain_orders(WORKER_ORDERS, grid)
            with monkeypatch.context() as m:
                one_worker(m)
                assert verify._scan_rectangle(params, plan) == extrema, budget
                assert full_domain_orders(WORKER_ORDERS, grid) == consistent == [True] * len(params), budget

    def test_ties_keep_lowest_grid_point(self, monkeypatch):
        # a fresh grid: the shared WORKER_GRID keeps the plan, and so the stage, of its first scan
        monkeypatch.setattr(verify, "_stage", constant_stage)
        for report in scan_orders([0.7, 1.0, 3.0], GridSpec(401, 401)):
            assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
            assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "orders,bad_rows",
        [
            ((0.5,), {None: [300]}),  # the helper's run alone
            ((0.5,), {None: [100, 300]}),  # both runs: the caller's row wins
            ((0.5,), {None: [350, 250]}),  # two of the helper's blocks: the earlier wins
            ((0.5, 2.0), {2.0: [300]}),  # the second order, in the helper's run
            ((0.5, 2.0), {2.0: [100], 0.5: [300]}),  # the second order's earlier block wins
            ((0.5, 2.0), {2.0: [100], 0.5: [100]}),  # one point: the first order wins
        ],
    )
    def test_nonfinite_value_reports_the_first_in_grid_order(self, monkeypatch, orders, bad_rows):
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)  # column 5 of every row evaluated
        axis = np.linspace(0.0, QUARTER_PI, WORKER_GRID.n_tau)
        real_numerator = verify._pair_numerator_into
        block_rows = grid_run_rows(monkeypatch, WORKER_GRID.n_tau)
        injected = set()

        def numerator(pairs, alpha, out):
            values = real_numerator(pairs, alpha, out)
            rows = bad_rows.get(None, []) + bad_rows.get(alpha.alpha, [])
            if block_rows() is not None:  # the grid run's x and y numerators
                bad = np.isin(block_rows(), rows)
                values[:, bad, 5] = math.nan
                injected.update((alpha.alpha, int(row)) for row in block_rows()[bad])
            return values

        monkeypatch.setattr(verify, "_pair_numerator_into", numerator)
        with pytest.raises(ValueError) as threaded:
            scan_orders(orders, WORKER_GRID)
        with monkeypatch.context() as m:
            one_worker(m)
            with pytest.raises(ValueError) as alone:
                scan_orders(orders, WORKER_GRID)
        assert str(threaded.value) == str(alone.value)
        # the first bad value in grid order: the lowest row, then the order given first
        row, k = min((row, 0 if a is None else orders.index(a)) for a, rows in bad_rows.items() for row in rows)
        assert (orders[k], row) in injected  # reached the grid run's numerators
        assert f"alpha={orders[k]!r}" in str(alone.value)
        assert f"(tau, phi) = ({float(axis[row])!r}, {float(axis[5])!r})" in str(alone.value)

    def test_more_workers_than_cores(self, monkeypatch):
        # eight runs on at most a few cores, threads switching as often as the
        # interpreter allows: every block's extrema still reach the merge.  A
        # block holds at most a quarter of the default budget's share, 4,096
        # points, so the grid's run has more blocks than runs
        with monkeypatch.context() as m:
            one_worker(m)
            reports = scan_orders(WORKER_ORDERS, WORKER_GRID)
        real, threads = verify._grid_pairs, set()

        def pairs(stage, rows, cols, out):
            threads.add(threading.current_thread())
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        monkeypatch.setattr(verify, "_workers", lambda points: 8)
        monkeypatch.setattr(verify, "_CHUNK_POINTS", verify._CHUNK_POINTS // 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threads.clear()
                assert scan_orders(WORKER_ORDERS, WORKER_GRID) == reports
                assert len(threads) == 8
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_caller_error_stops_the_helper(self, monkeypatch, error):
        caller, failed, helper_blocks = threading.get_ident(), threading.Event(), []
        threads = threading.active_count()
        real = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            if grid_run(stage, WORKER_GRID.n_tau):
                if threading.get_ident() == caller:
                    failed.set()
                    raise error("stop")
                helper_blocks.append(rows.start)
                assert failed.wait(timeout=30)
                time.sleep(0.1)  # the caller records its error meanwhile
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        with pytest.raises(error, match="stop"):
            scan_extrema(2.0, WORKER_GRID)
        # the helper ended before the error left the scan, at most one of its three blocks done
        assert threading.active_count() == threads
        assert len(helper_blocks) <= 1

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        caller, threads = threading.get_ident(), threading.active_count()
        real = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            if threading.get_ident() != caller:
                raise MemoryError("helper")
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        monkeypatch.setattr(verify, "_workers", lambda points: 2)  # a helper whatever the CPU count
        with pytest.raises(MemoryError, match="helper"):
            scan_extrema(2.0, WORKER_GRID)
        assert threading.active_count() == threads

    def test_helpers_run_under_the_callers_error_state(self, monkeypatch):
        # the grid run's numerators, in the caller's thread and the helpers'
        real = verify._pair_numerator_into
        threads = set()

        def noisy(pairs, alpha, out):
            threads.add(threading.current_thread())
            np.log(np.zeros(1))  # a divide warning, an error under this suite's filters
            return real(pairs, alpha, out)

        expected = scan_extrema(2.0, WORKER_GRID)
        monkeypatch.setattr(verify, "_pair_numerator_into", noisy)
        with np.errstate(divide="ignore"):
            assert scan_extrema(2.0, WORKER_GRID) == expected
        assert len(threads) == verify._workers(401 * 401)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            scan_extrema(2.0, WORKER_GRID)

    @pytest.mark.parametrize("grid", [GridSpec(3, 3), GridSpec(11, 11), GridSpec(255, 257)], ids=str)
    def test_small_scans_stay_in_the_caller(self, monkeypatch, grid):
        # below 2**16 points: no helper thread (refinement's 41 x 41 window
        # takes no grid run at all)
        caller, seen = threading.get_ident(), set()
        real = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            seen.add(threading.get_ident())
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        scan_orders([0.5, 2.0], grid)
        refined_maximum(0.5, grid)
        assert seen == {caller}

    def test_scan_reuses_its_workspace(self):
        # a fresh process, so the allocator starts cold: one 2001^2 scan takes
        # ~930 minor page faults with a reused workspace, ~16,000 with new
        # block temporaries that the allocator maps and unmaps
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from pauli_tsallis import GridSpec, scan_extrema\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "scan_extrema(0.5, GridSpec(2001, 2001))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert int(result.stdout) < 5000

    def test_scan_keeps_the_callers_ufunc_buffer(self, monkeypatch):
        # each worker's run sets numpy's ufunc buffer to the stage's row length,
        # and the bound pass to the row of tiles' (26 columns of tiles: 16), and
        # both restore the caller's, on one worker and on two, after a scan
        # that raises at a NaN z term (row 70, in the grid's run) and after
        # one that raises at a NaN tile bound inside the pass; the reports do
        # not depend on the caller's buffer, below the row's length or above
        # numpy's default
        expected = scan_orders(WORKER_ORDERS, WORKER_GRID)
        real = verify._pair_entropy_into
        in_pass = []  # the buffer at each tile bound's kernel call
        z_terms = []  # the orders whose z term took the NaN

        def kernel(pairs, alpha, out):
            values = real(pairs, alpha, out)
            if values.ndim == 1:  # an order's z term per row, which the grid run adds
                values[70] = math.nan
                z_terms.append(alpha.alpha)
            return values

        def tile_bound(pairs, alpha, out):
            values = real(pairs, alpha, out)
            if out.ndim == 4:  # the tile bounds' x or y terms
                in_pass.append(np.getbufsize())
                values[0, 2, 3] = math.nan
            return values

        for workers in (1, 2):
            monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
            for size in (16, 8192, 65536):
                old = np.setbufsize(size)
                try:
                    assert scan_orders(WORKER_ORDERS, WORKER_GRID) == expected
                    assert np.getbufsize() == size
                    with monkeypatch.context() as m:
                        m.setattr(verify, "_PRUNE_MARGIN", math.inf)
                        m.setattr(verify, "_pair_entropy_into", kernel)
                        with pytest.raises(ValueError, match="entropic sum is nan"):
                            scan_orders(WORKER_ORDERS, WORKER_GRID)
                    assert np.getbufsize() == size
                    assert z_terms == list(WORKER_ORDERS)
                    z_terms.clear()
                    with monkeypatch.context() as m:
                        m.setattr(verify, "_pair_entropy_into", tile_bound)
                        with pytest.raises(ValueError, match="entropic sum bound is nan"):
                            scan_orders(WORKER_ORDERS, WORKER_GRID)
                    assert np.getbufsize() == size and set(in_pass) == {16}
                    in_pass.clear()
                finally:
                    np.setbufsize(old)

    def test_nonfinite_value_is_the_same_on_any_number_of_workers(self, monkeypatch):
        # NaN z terms at row 70 for alpha = 2 and at row 100 for 0.5: with
        # every tile kept the grid's run meets both, in blocks of 80 rows, one
        # worker running every block and two splitting them, and both name the
        # least grid point, alpha = 2's at row 70, column 0
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        real = verify._pair_entropy_into
        bad_rows = {2.0: 70, 0.5: 100}
        injected = []

        def kernel(pairs, alpha, out):
            values = real(pairs, alpha, out)
            if values.ndim == 1:  # an order's z term per row, which the grid run adds
                values[bad_rows[alpha.alpha]] = math.nan
                injected.append(alpha.alpha)
            return values

        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
            with pytest.raises(ValueError) as info:
                scan_orders([0.5, 2.0], GridSpec(401, 401))
            messages.append(str(info.value))
        assert injected == [0.5, 2.0] * 2
        axis = np.linspace(0.0, QUARTER_PI, 401)
        assert messages[0] == messages[1]
        assert "entropic sum is nan at alpha=2.0," in messages[0]
        assert f"(tau, phi) = ({float(axis[70])!r}, 0.0)" in messages[0]

    @pytest.mark.parametrize("first,second", [(math.inf, math.nan), (math.inf, -math.inf), (math.nan, math.inf)])
    def test_first_nonfinite_value_of_a_rectangle_is_named(self, monkeypatch, first, second):
        # two non-finite values in one row of one rectangle: argmin and argmax
        # may pick either, and the value named is the first in grid order;
        # with every tile kept but grid row 0's, which is exact, the grid's run
        # is one 10 x 11 rectangle, rows 1-10
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        real = verify._pair_numerator_into
        block_rows = grid_run_rows(monkeypatch, 11)
        injected = []

        def numerator(pairs, alpha, out):
            values = real(pairs, alpha, out)
            if block_rows() is not None:  # the grid run's x and y numerators, in one call
                values[:, 4 - block_rows()[0], 3], values[:, 4 - block_rows()[0], 7] = first, second
                injected.append(values.shape)
            return values

        monkeypatch.setattr(verify, "_pair_numerator_into", numerator)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        with pytest.raises(ValueError) as info:
            scan_extrema(0.5, GridSpec(11, 11))
        # at 0.5 the numerators' sum is scaled by 2: each value keeps its sign
        assert str(info.value).startswith(f"entropic sum is {first!r} at alpha=0.5,")
        assert injected == [(2, 10, 11)]
        assert f"(tau, phi) = ({float(axis[4])!r}, {float(axis[3])!r})" in str(info.value)


def plan_arrays(plan):
    """Every array a plan holds: the axes, the stage and the tiles'."""
    return [
        plan.tau_grid, plan.phi_grid, *plan.stage, plan.row_edges, plan.col_edges, *plan.tile_stage, plan.tile_pairs,
        plan.exact, plan.geometry,
    ]


class TestPlan:
    """A GridSpec keeps the order-independent inputs of its scans, built on its first scan."""

    @pytest.mark.parametrize("n,exhaustive", [(41, True), (801, False)], ids=["41x41 exhaustive", "801x801 pruned"])
    def test_repeated_scans_equal_a_fresh_grid(self, monkeypatch, n, exhaustive):
        # the second scan of one instance, with other orders, builds nothing
        # and reports what a scan of a fresh equal grid does, whether the
        # scans keep every tile (an infinite margin) or skip some
        if exhaustive:
            monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        built = []
        builders = ("_stage", "_tile_edges", "_tile_stage", "_tile_pairs", "_exact_tiles", "_slab", "_tile_geometry")
        for name in builders:
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, name=name, real=real: built.append(name) or real(*args))
        grid, first_orders, orders = GridSpec(n, n), (0.5, 2.0, 4.0), (1.0, 2.5, 7.3, 0.5)
        first = scan_orders(first_orders, grid)
        plan = grid._plan
        again = scan_orders(orders, grid)
        assert grid._plan is plan
        assert built == list(builders)
        assert (min(r.points_evaluated for r in again) == n * n - resolved_points(plan)) == exhaustive
        assert again == scan_orders(orders, GridSpec(n, n))
        assert first == scan_orders(first_orders, GridSpec(n, n))
        assert GridSpec(n, n)._plan is not plan  # equal instances do not share a plan

    def test_first_scan_imports_no_module(self):
        # a fresh process, whose first scans build their plans: a CLI call on
        # a small grid pays for no import beyond the package's (np.unique, for
        # one, imports numpy.ma on first use)
        code = (
            "import sys\n"
            "from pauli_tsallis import GridSpec, full_domain_orders, refined_maximum, scan_orders\n"
            "before = set(sys.modules)\n"
            "scan_orders([0.5, 2.0], GridSpec(3, 3))\n"
            "full_domain_orders([0.5], GridSpec(2, 2))\n"
            "refined_maximum(0.5, GridSpec(41, 41))\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert result.stdout == "[]\n"

    def test_plan_arrays_are_read_only(self):
        grid = GridSpec(801, 801)
        scan_extrema(0.5, grid)
        arrays = plan_arrays(grid._plan)
        # the axes, two stages of three arrays, the tile edges, the tile pairs, the exact tiles and their geometry
        assert len(arrays) == 13
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_scanned_grid_is_unchanged(self):
        grid = GridSpec(801, 801)
        before = (repr(grid), hash(grid), dataclasses.astuple(grid))
        scan_orders([0.5, 4.0], grid)
        assert "_plan" in vars(grid)
        assert (repr(grid), hash(grid), dataclasses.astuple(grid)) == before
        assert grid == GridSpec(801, 801) and len({grid, GridSpec(801, 801)}) == 1
        assert [f.name for f in dataclasses.fields(grid)] == ["n_tau", "n_phi"]
        assert "_plan" not in vars(dataclasses.replace(grid))
        # copies and pickles carry the counts alone (a pickle with the plan took 974 KB on 101 x 40001)
        for copied in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
            assert copied == grid and "_plan" not in vars(copied)
        assert len(pickle.dumps(grid)) == len(pickle.dumps(GridSpec(801, 801))) < 200

    def test_threads_share_one_plan(self):
        # four threads scan one fresh grid at once, so two may build its plan
        # together, with threads switching as often as the interpreter allows
        orders = (0.5, 1.0, 2.5, 4.0)
        expected = scan_orders(orders, GridSpec(801, 801))
        grid, reports, errors = GridSpec(801, 801), [None] * 4, []

        def scan(k):
            try:
                reports[k] = scan_orders(orders, grid)
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=scan, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reports == [expected] * 4
        assert all(not a.flags.writeable for a in plan_arrays(grid._plan))

    def test_plan_builds_of_two_grids_overlap(self, monkeypatch):
        # one instance's plan build, held until released, does not hold up the
        # first scan of another instance in another thread
        real, held, release = verify._Plan, threading.Event(), threading.Event()
        reports, errors = {}, []

        def plan(tau_grid, phi_grid):
            if len(tau_grid) == 41:
                held.set()
                assert release.wait(timeout=30)
            return real(tau_grid, phi_grid)

        def scan(n):
            try:
                reports[n] = scan_orders([0.5], GridSpec(n, n))
            except BaseException as exc:  # reported below
                errors.append(exc)

        monkeypatch.setattr(verify, "_Plan", plan)
        first, second = (threading.Thread(target=scan, args=(n,)) for n in (41, 43))
        first.start()
        try:
            assert held.wait(timeout=30)
            second.start()
            second.join(timeout=10)
            assert not second.is_alive() and 43 in reports
        finally:
            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert errors == []
        assert reports == {n: scan_orders([0.5], GridSpec(n, n)) for n in (41, 43)}


# Every order of the CI pins of `pauli-tsallis verify`.
PINNED_ORDERS = (
    0.25, 0.5, 0.991, 0.9999999, 1.0, 1.0000001, 1.005, 1.009, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 10.0
)
# The pinned orders and orders either side of the sphere bound's regime
# changes at 2 and 3 (module docstring of verify), where G(w) = F(sqrt w)
# turns from concave to convex and back
PARITY_ORDERS = PINNED_ORDERS + (1.86, 2.98, 3.2, 3.9, 2.0 - 1e-9, 2.0 + 1e-9, 3.0 - 1e-9, 3.0 + 1e-9)
# Large orders: above about 100 most tiles tie the maximum within the pruning
# margin, and many of the kernel's powers fall below the least normal double
LARGE_ORDERS = (30.0, 100.0, 300.0, 300.5, 1000.0)
# The error budget of the tile bounds (verify's module docstring): how far a
# grid sum may lie past its tile's LB or UB, all rounding included
BOUND_BUDGET = 1e-13
# (tau end, n_tau, phi end, n_phi): grids on D, the smallest two and the
# 41^2 of a refinement window among them, and the full-domain unfoldings of
# the 101^2 and 251^2 grids on D
PARITY_GRIDS = {
    "2x2": (QUARTER_PI, 2, QUARTER_PI, 2),
    "3x3": (QUARTER_PI, 3, QUARTER_PI, 3),
    "11x11": (QUARTER_PI, 11, QUARTER_PI, 11),
    "41x41": (QUARTER_PI, 41, QUARTER_PI, 41),
    "401x401": (QUARTER_PI, 401, QUARTER_PI, 401),
    "2001x2001": (QUARTER_PI, 2001, QUARTER_PI, 2001),
    "101x40001": (QUARTER_PI, 101, QUARTER_PI, 40001),
    "201x801 unfolded": (math.pi / 2.0, 201, 2.0 * math.pi, 801),
    "501x2001 unfolded": (math.pi / 2.0, 501, 2.0 * math.pi, 2001),
}


# The 30 orders of the monotonicity and kernel-error measurements, from 0.01
# to 1000: both edges of the expm1 window and the orders next to Shannon
KERNEL_ERROR_ORDERS = (
    0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98999, 0.99, 0.991, 0.999, 0.9999999, 1.0, 1.0000001, 1.001, 1.009,
    1.01, 1.01001, 1.05, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 7.3, 10.0, 30.0, 100.0, 1000.0,
)


def exact_pair_entropy(h, alpha):
    """The pair entropy of (1/2 + h, 1/2 - h) in mpmath at the working precision, h an mpf in [0, 1/2]."""
    p, m = mp.mpf(1) / 2 + h, mp.mpf(1) / 2 - h
    if alpha == 1.0:
        return -sum(x * mp.log(x) for x in (p, m) if x > 0)
    a = mp.mpf(alpha)
    return (p**a + m**a - 1) / (1 - a)


# Orders either side of each regime change of G at 2 and 3, and well inside each regime
BOX_ORDERS = (
    0.25, 0.5, 1.0, 1.5, 1.86, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 2.5, 2.98, 3.0 - 1e-9, 3.0, 3.0 + 1e-9, 3.2, 4.0, 7.3
)


def angle_boxes():
    """Boxes [tau0, tau1] x [phi0, phi1] in D that are not tiles: each one's 41 x 41 grid stage, and the |h| ranges.

    D itself, then for each side (small, 1e-4; a 16 x 16 tile of 2001^2,
    pi/500; a 16 x 16 block of such tiles, pi/32; and a 2001^2 tile of
    today, 45 x 45, 9 pi/1600) the boxes at the corners (0, 0),
    (pi/4, 0) and (pi/4, pi/4), and 12 random ones.  On D, (sin 2 tau)/2
    and sin phi rise and (cos 2 tau)/2 and cos phi fall, so each axis's
    greatest and least |h| are products at the box's ends, taken from its
    grid's own stage.  Returns the stages and h, of shape (2, 3, boxes):
    the greatest |h| per axis (x, y, z) stacked on the least.
    """
    rng = np.random.default_rng(21)
    boxes = [(0.0, QUARTER_PI, 0.0, QUARTER_PI)]
    for side in (1e-4, math.pi / 500, math.pi / 32, 9 * math.pi / 1600):
        far = QUARTER_PI - side
        boxes += [(0.0, side, 0.0, side), (far, QUARTER_PI, 0.0, side), (far, QUARTER_PI, far, QUARTER_PI)]
        for _ in range(12):
            tau0, phi0 = rng.uniform(0.0, far, 2)
            d_tau, d_phi = side * rng.uniform(0.5, 1.0, 2)
            boxes.append((tau0, tau0 + d_tau, phi0, phi0 + d_phi))
    stages = [verify._stage(np.linspace(t0, t1, 41), np.linspace(p0, p1, 41)) for t0, t1, p0, p1 in boxes]
    h = [
        [[s2t[-1] * cos[0], s2t[-1] * sin[-1], c2t[0]], [s2t[0] * cos[-1], s2t[0] * sin[0], c2t[-1]]]
        for s2t, c2t, (cos, sin) in stages
    ]
    return stages, np.moveaxis(np.array(h), 0, -1)


def whole_grid(params, plan):
    """The exhaustive reference: every grid point in blocks of whole grid rows, without the bound pass.

    One row of tiles, every column kept, which _blocks cuts.
    """
    stage = plan.stage
    edges, spans = np.array([0, len(plan.tau_grid)]), np.tile([0, len(plan.phi_grid)], (len(params), 1, 1))
    runs = verify._run(params, stage, verify._z_terms(params, stage), edges, spans, lambda i, j: f"({i}, {j})")
    return [(*verify._merged(found), points) for found, points in runs]


def exact_tiles(plan):
    """The plan's exact tiles as arrays of their first and end rows and columns."""
    t, u = np.divmod(plan.exact, len(plan.col_edges) - 1)
    return plan.row_edges[t], plan.row_edges[t + 1], plan.col_edges[u], plan.col_edges[u + 1]


def resolved_points(plan):
    """The points of the plan's exact tiles outside their row's span.

    A scan that keeps every other tile evaluates every grid point but
    these: its span in a row of tiles runs from the first tile that is not
    exact to the last, so the exact tiles between them are evaluated, and
    the exact tiles outside it are resolved from their bounds.
    """
    n_cols = len(plan.col_edges) - 1
    kept = np.ones((len(plan.row_edges) - 1, n_cols), dtype=bool)
    kept.flat[plan.exact] = False
    first = np.where(kept.any(axis=1), np.argmax(kept, axis=1), n_cols)
    last = n_cols - 1 - np.argmax(kept[:, ::-1], axis=1)
    t, u = np.divmod(plan.exact, n_cols)
    outside = (u < first[t]) | (u > last[t])
    r0, r1, c0, c1 = (edges[outside] for edges in exact_tiles(plan))
    return int(((r1 - r0) * (c1 - c0)).sum())


def exact_tile_sums(plan, alpha):
    """Every grid sum of the plan's exact tiles, as the scan forms them, and each one's tile LB, flat, in tile order."""
    r0, r1, c0, c1 = exact_tiles(plan)
    rows, cols = zip(*(np.mgrid[a:b, c:d].reshape(2, -1) for a, b, c, d in zip(r0, r1, c0, c1)))
    counts = [len(r) for r in rows]
    i, j = np.concatenate(rows), np.concatenate(cols)
    half_s2t, half_c2t, trig = plan.stage
    pairs = [verify._half_pair(half_s2t[i] * t[j]) for t in trig] + [verify._half_pair(half_c2t[i])]
    lb = pair_sums(stage_pairs(plan.tile_stage), alpha)[0]
    return pair_sums(pairs, alpha), np.repeat(lb.ravel()[plan.exact], counts)


def assert_parity(monkeypatch, grid, orders):
    """Pruned scans of grid, (tau end, n_tau, phi end, n_phi), report whole_grid's extrema and witnesses at orders."""
    tau_end, n_tau, phi_end, n_phi = grid
    # one plan for every scan below
    plan = verify._Plan(np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi))
    params = [verify.as_param(a) for a in orders]
    expected = whole_grid(params, plan)
    assert [points for *_, points in expected] == [n_tau * n_phi] * len(params)
    counts = set()
    # chunk budgets as in test_chunking_does_not_change_result, and one of 13
    # grid rows to a full-width block, a prime, so that blocks end inside rows
    # of tiles; one and two workers
    for budget in (1, n_phi - 1, n_phi, 7 * n_phi + 3, 26 * n_phi + 1):
        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        for workers in (1, 2):
            monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
            pruned = verify._scan_rectangle(params, plan)
            assert [r[:4] for r in pruned] == [r[:4] for r in expected], (budget, workers)
            counts.add(tuple(points for *_, points in pruned))
    # the points evaluated depend on the grid and the orders alone; where
    # every tile is exact (2x2, whose tiles are 1 x 1) the scan evaluates none
    (points,) = counts
    all_exact = plan.exact.size == (len(plan.row_edges) - 1) * (len(plan.col_edges) - 1)
    assert all(p == 0 if all_exact else 0 < p <= n_tau * n_phi for p in points)
    # an infinite margin keeps every tile but the exact ones: the
    # exhaustive scan's extrema and witnesses, and every point but the
    # exact tiles' outside the spans
    monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
    unpruned = [(*found[:4], n_tau * n_phi - resolved_points(plan)) for found in expected]
    for workers in (1, 2):
        monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
        assert verify._scan_rectangle(params, plan) == unpruned, workers


class TestPruning:
    """Scans skip tiles and report the exhaustive scan's extrema and witnesses."""

    @pytest.mark.parametrize("grid", PARITY_GRIDS)
    def test_pruned_scans_equal_the_exhaustive_scan(self, monkeypatch, grid):
        assert_parity(monkeypatch, PARITY_GRIDS[grid], PARITY_ORDERS)

    @pytest.mark.parametrize("grid", ["41x41", "401x401", "201x801 unfolded"])
    def test_large_orders_equal_the_exhaustive_scan(self, monkeypatch, grid):
        # at 1000 a scan of 2001^2 or 101 x 40001 evaluates about 3M points,
        # so these orders stay on the smaller grids
        assert_parity(monkeypatch, PARITY_GRIDS[grid], LARGE_ORDERS)

    # Orders log-uniform over [1e-3, 3e3], past PARITY_ORDERS' 10, and
    # within 1e-6 of 1, 2 and 3, where the kernel's branch and G's regime
    # change
    PROPERTY_ORDERS = st.one_of(
        st.floats(min_value=math.log(1e-3), max_value=math.log(3e3)).map(math.exp),
        st.sampled_from((1.0, 2.0, 3.0)).flatmap(lambda c: st.floats(min_value=c - 1e-6, max_value=c + 1e-6)),
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alphas=st.lists(PROPERTY_ORDERS, min_size=1, max_size=3),
        n_tau=st.integers(min_value=2, max_value=61),
        n_phi=st.integers(min_value=2, max_value=61),
        unfolded=st.booleans(),
    )
    def test_derived_cuts_keep_the_exhaustive_extrema(self, alphas, n_tau, n_phi, unfolded):
        # each order cuts at its own tile bounds' extrema and samples: the
        # extrema and witnesses of the same scan at an infinite margin, which
        # skips no tile, on grids on D of 2 to 61 points per axis and on
        # their full-domain unfoldings
        if unfolded:
            plan = unfolded_plans(2 * n_tau - 1, 8 * n_phi - 7)[1]
        else:
            plan = verify._Plan(np.linspace(0.0, QUARTER_PI, n_tau), np.linspace(0.0, QUARTER_PI, n_phi))
        params = [verify.as_param(a) for a in alphas]
        pruned = verify._scan_rectangle(params, plan)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verify, "_PRUNE_MARGIN", math.inf)
            exhaustive = verify._scan_rectangle(params, plan)
        assert [r[:4] for r in pruned] == [r[:4] for r in exhaustive]

    @pytest.mark.parametrize("grid", PARITY_GRIDS)
    def test_tile_bounds_hold_every_grid_sum(self, grid):
        # each tile's LB and UB, the monotone bounds combined with the sphere
        # bounds (taken here on every tile, the split side included; at 2 and
        # 3, where G is affine, in both regimes), bound its grid sums within
        # the error budget, under the pruning margin
        tau_end, n_tau, phi_end, n_phi = PARITY_GRIDS[grid]
        tau, phi = np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi)
        stage = verify._stage(tau, phi)
        row_edges, col_edges = verify._tile_edges(tau, phi)
        assert row_edges[0] == col_edges[0] == 0 and (row_edges[-1], col_edges[-1]) == (n_tau, n_phi)
        tile_stage = verify._tile_stage(stage, row_edges, col_edges)
        assert [v.shape for v in tile_stage] == [(2, len(row_edges) - 1)] * 2 + [(2, 2, len(col_edges) - 1)]
        (x, y, z), eta = stage_pairs(tile_stage), verify._slab(stage)
        geometry = verify._tile_geometry(tile_stage, eta)
        tiles = np.arange((len(row_edges) - 1) * (len(col_edges) - 1))
        work = np.empty((35, tiles.size))
        # grid sums a few rows of tiles at a time, every order on one pair stage
        rows_per_part = max(1, 2**18 // n_phi // (row_edges[1] - row_edges[0]))
        parts = [(t, min(t + rows_per_part, len(row_edges) - 1)) for t in range(0, len(row_edges) - 1, rows_per_part)]
        cos_phi, sin_phi = stage[2]
        for alpha in PARITY_ORDERS:
            a = verify.as_param(alpha)
            fx, fy, fz = (entropy.pair_entropy(*pair, a) for pair in (x, y, z))
            box = (fx + fy + fz).reshape(2, -1)
            g, boxes = verify._tile_boxes(geometry, np.stack([fx, fy]), fz[..., 0], tiles, work)
            regime = verify._sphere_regime(a)
            for concave in (True, False) if regime is None else (regime,):  # raises at a non-finite bound
                verify._box_bound(a, concave, boxes, g, box, work[17:], lambda k: f"on tile {k}")
            lb, ub = box
            for t0, t1 in parts:
                rows = slice(row_edges[t0], row_edges[t1])
                values = pair_sums(grid_pairs(tau[rows], cos_phi, sin_phi), a)
                starts = row_edges[t0:t1] - row_edges[t0]
                per_tile = [
                    reduce.reduceat(reduce.reduceat(values, starts, axis=0), col_edges[:-1], axis=1)
                    for reduce in (np.minimum, np.maximum)
                ]
                own = slice(t0 * (len(col_edges) - 1), t1 * (len(col_edges) - 1))
                shape = per_tile[0].shape
                assert np.all(per_tile[0] >= lb[own].reshape(shape) - BOUND_BUDGET), alpha
                assert np.all(per_tile[1] <= ub[own].reshape(shape) + BOUND_BUDGET), alpha
        assert 10 * BOUND_BUDGET <= verify._PRUNE_MARGIN

    @pytest.mark.parametrize("grid", PARITY_GRIDS)
    def test_exact_tiles_equal_their_bounds(self, grid):
        # every grid sum of a tile the scan resolves from its bounds equals the
        # tile's LB bit for bit, at every order; grid row 0's tiles are exact
        # on every grid, and on the grids on D only they and 1 x 1 tiles are
        tau_end, n_tau, phi_end, n_phi = PARITY_GRIDS[grid]
        plan = verify._Plan(np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi))
        r0, r1, c0, c1 = exact_tiles(plan)
        assert np.count_nonzero(r0 == 0) == len(plan.col_edges) - 1
        if tau_end == phi_end == QUARTER_PI:
            assert np.all((r1 == 1) | ((r1 - r0 == 1) & (c1 - c0 == 1)))
        for alpha in PARITY_ORDERS:
            values, lb = exact_tile_sums(plan, verify.as_param(alpha))
            assert np.array_equal(values.view(np.int64), lb.view(np.int64)), alpha

    def test_exact_tiles_need_the_z_pairs(self, monkeypatch):
        # a stage whose second row of tiles has (sin 2 tau)/2 = 0 while its
        # (cos 2 tau)/2 varies: its x and y pairs agree at both ends, its z
        # pairs do not, so none of its tiles is exact, and the scan still
        # reports the exhaustive extrema and witnesses
        real = verify._stage
        axis = np.linspace(0.0, QUARTER_PI, 401)
        row_edges, _ = verify._tile_edges(axis, axis)

        def stage(tau_grid, phi_grid):
            half_s2t, *rest = real(tau_grid, phi_grid)
            half_s2t = half_s2t.copy()
            half_s2t[row_edges[1] : row_edges[2]] = 0.0
            return half_s2t, *rest

        monkeypatch.setattr(verify, "_stage", stage)
        plan = verify._Plan(axis, axis)
        r0, _, _, _ = exact_tiles(plan)
        assert np.all(r0 != row_edges[1])
        params = [verify.as_param(a) for a in PARITY_ORDERS]
        for alpha in params:
            values, lb = exact_tile_sums(plan, alpha)
            assert np.array_equal(values.view(np.int64), lb.view(np.int64)), alpha
        assert [r[:4] for r in verify._scan_rectangle(params, plan)] == [r[:4] for r in whole_grid(params, plan)]

    @pytest.mark.parametrize("alpha", BOX_ORDERS)
    def test_box_bound_holds_on_angle_boxes(self, alpha):
        # _box_bound on boxes that are not tiles, with eta over their grids:
        # every sum on each box's grid lies within the budget of its LB and UB,
        # the chord side is tight on D, and the bound with the regime flipped
        # breaks on some box; at 2 and 3 G is affine, so concave and convex,
        # and both regimes hold
        stages, h = angle_boxes()
        eta = verify._slab(tuple(np.concatenate(v, axis=-1) for v in zip(*stages)))
        geometry = verify._box_geometry(h, eta)
        a = verify.as_param(alpha)
        sums = [pair_sums(stage_pairs(stage), a) for stage in stages]
        least, greatest = np.array([v.min() for v in sums]), np.array([v.max() for v in sums])

        def box_bounds(concave):
            g = entropy.pair_entropy(0.5 + h, 0.5 - h, a)
            bounds = g[:, 0] + g[:, 1] + g[:, 2]  # the monotone LB and UB
            verify._box_bound(a, concave, geometry, g, bounds, np.empty((18, h.shape[-1])), lambda k: f"on box {k}")
            return bounds

        regime = verify._sphere_regime(a)
        for concave in (True, False) if regime is None else (regime,):
            lb, ub = box_bounds(concave)
            assert np.all(least >= lb - BOUND_BUDGET) and np.all(greatest <= ub + BOUND_BUDGET)
            # on D the chord side meets the eigenstates' sum, which its grid holds
            assert abs((lb - least if concave else ub - greatest)[0]) <= BOUND_BUDGET
        if regime is not None:
            lb, ub = box_bounds(not regime)
            assert np.any(least < lb - BOUND_BUDGET) or np.any(greatest > ub + BOUND_BUDGET)

    def test_affine_bound_holds_the_exact_sums(self):
        # at 2 and 3 G(w) is 1/2 - 2 w and 3/8 - 3 w / 2, so a point's exact sum
        # is constant - slope r, r = h_x^2 + h_y^2 + h_z^2 in rational
        # arithmetic on its halves as the grid forms them; in both regimes each
        # angle box's LB and UB bound its exact sums with no budget.  The
        # slab's eta is what they rest on: with eta = 0 the bounds miss sums
        # by a few ulps, inside BOUND_BUDGET, and fail here
        stages, h = angle_boxes()
        eta = verify._slab(tuple(np.concatenate(v, axis=-1) for v in zip(*stages)))
        geometry = verify._box_geometry(h, eta)
        least, greatest = [], []  # each box's exact least and greatest r
        for half_s2t, half_c2t, (cos_phi, sin_phi) in stages:
            halves = [half_s2t[:, None] * cos_phi, half_s2t[:, None] * sin_phi, half_c2t[:, None] + 0.0 * cos_phi]
            radius = sum(v * v for v in halves)  # r to rounding; the exact r near its ends below
            ends = np.flatnonzero((radius <= radius.min() + 1e-15) | (radius >= radius.max() - 1e-15))
            exact = [sum(Fraction(float(v.flat[k])) ** 2 for v in halves) for k in ends]
            least.append(min(exact))
            greatest.append(max(exact))
        for alpha, constant, slope in ((2.0, Fraction(3, 2), 2), (3.0, Fraction(9, 8), Fraction(3, 2))):
            a = verify.as_param(alpha)
            for concave in (True, False):
                g = entropy.pair_entropy(0.5 + h, 0.5 - h, a)
                bounds = g[:, 0] + g[:, 1] + g[:, 2]
                verify._box_bound(a, concave, geometry, g, bounds, np.empty((18, h.shape[-1])), lambda k: f"on box {k}")
                lb, ub = bounds
                assert all(Fraction(float(low)) <= constant - slope * r for low, r in zip(lb, greatest)), alpha
                assert all(Fraction(float(high)) >= constant - slope * r for high, r in zip(ub, least)), alpha

    @pytest.mark.parametrize("grid", ["401x401", "201x801 unfolded"])
    def test_slab_holds_the_grid_points(self, grid):
        # the squared halves of grid points, as the scan forms them, sum to
        # within eta of 1/4 in exact rational arithmetic (the grid's edges and
        # 40 random rows and columns); eta is a few ulps
        tau_end, n_tau, phi_end, n_phi = PARITY_GRIDS[grid]
        stage = verify._stage(np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi))
        eta = verify._slab(stage)
        assert 0.0 < eta < 2e-14
        half_s2t, half_c2t, (cos_phi, sin_phi) = stage
        rng = np.random.default_rng(3)
        rows = np.concatenate([[0, n_tau - 1], rng.integers(0, n_tau, 40)])
        cols = np.concatenate([[0, n_phi - 1], rng.integers(0, n_phi, 40)])
        for i in rows:
            hx, hy = half_s2t[i] * cos_phi[cols], half_s2t[i] * sin_phi[cols]
            for x, y in zip(hx.tolist(), hy.tolist()):
                total = Fraction(x) ** 2 + Fraction(y) ** 2 + Fraction(float(half_c2t[i])) ** 2
                assert abs(total - Fraction(1, 4)) <= eta

    def test_large_scans_prune(self):
        # every scan prunes, a refinement window's 41^2 and 401^2 too; on
        # 2001^2 the sum is constant at 2 and 3 (every tile kept but the
        # exact ones) and every other order keeps under 2% of the grid
        for n in (41, 401):
            grid = GridSpec(n, n)
            low, constant = (r.points_evaluated for r in scan_orders([0.5, 2.0], grid))
            assert low < constant == n * n - resolved_points(grid._plan), n
        grid = GridSpec(2001, 2001)
        orders = (0.25, 0.5, 1.0, 1.7, 1.86, 2.0, 2.5, 2.98, 3.0, 3.2, 3.9, 4.0, 10.0)
        for alpha, report in zip(orders, scan_orders(orders, grid)):
            if alpha in (2.0, 3.0):
                assert report.points_evaluated == grid.n_tau * grid.n_phi - resolved_points(grid._plan)
            else:
                assert report.points_evaluated < 0.02 * grid.n_tau * grid.n_phi, alpha

    # points_evaluated at orders 0.5, 1, 2, 2.5, 4 and 7.3 (numpy 2.4.6), on
    # grids on D and the full-domain unfolding of 251^2: the skip decisions
    # themselves, so a change that keeps more tiles, or fewer, shows here
    # though the extrema stay the same.  Every order but 2 keeps the same
    # tiles, the few around each order's extrema; grid row
    # tau = 0, a row of tiles of its own whose every point ties the
    # eigenstate minimum, is exact and resolved from its bounds, so none of
    # its points is evaluated.  The counts were re-pinned when each order
    # came to cut at its own tile bounds' extrema and samples: the extrema
    # and witnesses stayed the same
    @pytest.mark.parametrize(
        "grid,points",
        [
            (PARITY_GRIDS["2001x2001"], [1890, 1890, 4002000, 1890, 1890, 1890]),
            (PARITY_GRIDS["101x40001"], [1963, 1963, 4000100, 1963, 1963, 1963]),
            ((QUARTER_PI, 801, QUARTER_PI, 801), [1736, 1736, 640800, 1736, 1736, 1736]),
            (PARITY_GRIDS["501x2001 unfolded"], [257605, 257605, 1000500, 257605, 257605, 257605]),
        ],
        ids=["2001x2001", "101x40001", "801x801", "501x2001 unfolded"],
    )
    def test_points_evaluated_are_pinned(self, grid, points):
        tau_end, n_tau, phi_end, n_phi = grid
        plan = verify._Plan(np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi))
        params = [verify.as_param(a) for a in (0.5, 1.0, 2.0, 2.5, 4.0, 7.3)]
        assert [found[4] for found in verify._scan_rectangle(params, plan)] == points

    # a tile's side is (n_tau n_phi)^(1/4) grid points, square in angle: the
    # full-domain check's 251^2 D block keeps 16 x 16 tiles, and its
    # unfolding, whose steps are the same in tau and phi, gets square ones
    @pytest.mark.parametrize(
        "grid,steps",
        [
            (PARITY_GRIDS["41x41"], (6, 6)),
            ((QUARTER_PI, 251, QUARTER_PI, 251), (16, 16)),
            (PARITY_GRIDS["2001x2001"], (45, 45)),
            (PARITY_GRIDS["101x40001"], (2, 897)),
            (PARITY_GRIDS["501x2001 unfolded"], (32, 32)),
        ],
        ids=["41x41", "251x251", "2001x2001", "101x40001", "501x2001 unfolded"],
    )
    def test_tile_steps_are_pinned(self, grid, steps):
        tau_end, n_tau, phi_end, n_phi = grid
        assert verify._tile_steps(np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi)) == steps

    @pytest.mark.parametrize("n_tau,n_phi", [(2001, 2001), (101, 40001), (2, 801)], ids=str)
    def test_tile_edges_never_repeat(self, n_tau, n_phi):
        # grid row 0 is a row of tiles of its own, also where the row step is
        # already 1 (101 x 40001) or the grid has two rows: a repeated edge
        # would make np.maximum.reduceat take one element for an empty tile
        tau, phi = np.linspace(0.0, QUARTER_PI, n_tau), np.linspace(0.0, QUARTER_PI, n_phi)
        row_edges, col_edges = verify._tile_edges(tau, phi)
        assert row_edges[:2].tolist() == [0, 1] and row_edges[-1] == n_tau and col_edges[[0, -1]].tolist() == [0, n_phi]
        assert np.all(np.diff(row_edges) > 0) and np.all(np.diff(col_edges) > 0)

    def test_ties_keep_lowest_grid_point(self, monkeypatch):
        # every grid point ties, so no tile is skipped and both extrema stay at
        # (0, 0); every tile is exact, so the grid's run has no block and the
        # scan evaluates no point.  A fresh grid, as in TestWorkers:
        # its plan takes the patched stage
        monkeypatch.setattr(verify, "_stage", constant_stage)
        grid = GridSpec(401, 401)
        for budget in (1, 7 * 401 + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            for report in scan_orders([0.7, 1.0, 3.0], grid):
                assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
                assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)
                plan = grid._plan
                assert plan.exact.size == (len(plan.row_edges) - 1) * (len(plan.col_edges) - 1)
                assert report.points_evaluated == 0

    def test_run_without_blocks(self, monkeypatch):
        # spans that keep nothing: each order has no extrema and no point, and
        # the run forms no pair and starts no helper thread
        plan = GridSpec(401, 401)._plan
        params = [verify.as_param(a) for a in (0.5, 2.0)]
        spans = np.zeros((len(params), len(plan.row_edges) - 1, 2), dtype=int)
        monkeypatch.setattr(verify, "_grid_pairs", None)
        monkeypatch.setattr(verify, "threading", None)
        z_terms = verify._z_terms(params, plan.stage)
        assert verify._run(params, plan.stage, z_terms, plan.row_edges, spans, None) == [([], 0), ([], 0)]

    @pytest.mark.parametrize("grid", [GridSpec(2001, 2001), GridSpec(101, 40001), GridSpec(3001, 3001)], ids=str)
    def test_workspace_stays_bounded(self, monkeypatch, grid):
        # a block holds at most 2**15 points, or one grid row of at most n_phi,
        # so the workspace keeps the exhaustive bound; a scan makes one run,
        # the grid's
        real, workspaces = verify._grid_pairs, {}

        def pairs(stage, rows, cols, out):
            base = out
            while base.base is not None:
                base = base.base
            if base.ndim == 3 and base.shape[1] == 8:  # a run's workspace; test_scan_memory_stays_bounded takes the rest
                workspaces[id(base)] = (base, stage[0].size)
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        scan_extrema(0.5, grid)
        assert [n_rows for _, n_rows in workspaces.values()] == [grid.n_tau]
        for base, _ in workspaces.values():
            workers, planes, size = base.shape
            assert workers * size <= max(verify._CHUNK_POINTS, verify._MAX_WORKERS * grid.n_phi)

    @pytest.mark.parametrize("grid", [GridSpec(4001, 4001), GridSpec(1001, 40001)], ids=str)
    def test_scan_memory_stays_bounded(self, monkeypatch, grid):
        # the bound pass holds a few values per tile, about sqrt(n_tau n_phi)
        # tiles, so a whole scan allocates at most the workspace bound of the
        # module docstring and a few vectors along the axes
        scan_extrema(0.5, GridSpec(41, 41))  # a scan's first-use imports
        tracemalloc.start()
        try:
            assert scan_extrema(0.5, grid).points_evaluated < grid.n_tau * grid.n_phi / 10
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workspace = 7 * max(verify._CHUNK_POINTS, verify._MAX_WORKERS * grid.n_phi)
        assert peak <= 8 * (workspace + 32 * (grid.n_tau + grid.n_phi))

    def test_workers_follow_the_kept_points(self, monkeypatch):
        # a pruned scan takes one worker per _WORKER_POINTS points its stage
        # evaluates: every point where every tile is kept (alpha = 2), a few
        # percent at 0.5, and under 2**17 on 801^2 at 0.5, which stays in the
        # caller.  Each scan asks once, for its one run, the grid's (a block's
        # points do not depend on the workers, so no run asks for its blocks'
        # size)
        real, asked, threads = verify._workers, [], set()
        real_pairs = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            threads.add(threading.get_ident())
            return real_pairs(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_workers", lambda points: asked.append(points) or real(points))
        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        grid = GridSpec(2001, 2001)
        constant, low = (scan_extrema(a, grid).points_evaluated for a in (2.0, 0.5))
        assert len(asked) == 2
        # at 2 the grid's run takes every point outside the exact tiles
        r0, r1, c0, c1 = exact_tiles(grid._plan)
        assert asked[0] == grid.n_tau * grid.n_phi - ((r1 - r0) * (c1 - c0)).sum()
        assert constant == grid.n_tau * grid.n_phi - resolved_points(grid._plan)
        assert asked[1] == low < constant / 10
        asked.clear()
        threads.clear()
        scan_extrema(0.5, GridSpec(801, 801))
        assert len(asked) == 1
        assert asked[0] < 2 * verify._WORKER_POINTS and threads == {threading.get_ident()}

    @pytest.mark.parametrize("alpha", PINNED_ORDERS)
    def test_pair_entropy_falls_as_h_grows(self, alpha):
        # the tile bounds take F(h), the pair entropy of (1/2 + h, 1/2 - h), as
        # even in h and falling in |h|; rounding lifts it 100x under the margin
        h = np.linspace(0.0, 0.5, 1_000_001)
        a = entropy.TsallisParam(alpha)
        values = entropy.pair_entropy(0.5 + h, 0.5 - h, a)
        assert np.array_equal(entropy.pair_entropy(0.5 - h, 0.5 + h, a), values)
        assert np.max(values[1:] - np.minimum.accumulate(values)[:-1]) <= 1e-14
        assert 1e-14 * 100 <= verify._PRUNE_MARGIN

    # The sphere bounds rest on two more facts (verify's module docstring).
    # First, the regime of G(w) = F(sqrt w) on w in [0, 1/4]: concave off
    # [2, 3], convex inside, affine at 2 and 3, by 50-digit second differences
    # of the exact pair entropy, with no float kernel involved
    @pytest.mark.parametrize(
        "alpha,sign",
        [(a, -1) for a in (0.01, 0.5, 1.0, 1.5, 1.999999, 3.000001, 4.0, 7.5, 100.0)]
        + [(a, 1) for a in (2.000001, 2.5, 2.999999)]
        + [(2.0, 0), (3.0, 0)],
    )
    def test_sphere_regime(self, alpha, sign):
        with mp.workdps(50):
            n = 200
            g = [exact_pair_entropy(mp.sqrt(mp.mpf(i) / (4 * n)), alpha) for i in range(n + 1)]
            second = [g[i - 1] - 2 * g[i] + g[i + 1] for i in range(1, n)]
            if sign:
                assert all(sign * d > 0 for d in second), alpha
            else:
                assert max(abs(d) for d in second) < mp.mpf(10) ** -45
        assert verify._sphere_regime(verify.as_param(alpha)) == {-1: True, 1: False, 0: None}[sign]

    # Second, eps_F, the grid kernel's absolute error against the exact pair
    # entropy at (1/2 + h, 1/2 - h), h a float in [0, 1/2]: at the 30 orders
    # of the monotonicity measurement (_PRUNE_MARGIN's comment), the worst at
    # the edges of the expm1 window, where the pow form's cancellation peaks
    # (1.1e-14 at 0.98999 and 0.99); the docstring's budget takes 1.5e-14
    def test_kernel_error_against_exact_pair_entropy(self):
        rng = np.random.default_rng(20)
        h = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, 0.5, 101),
                    rng.uniform(0.0, 0.5, 150),
                    0.5 - np.geomspace(1e-16, 1e-2, 40),  # near the eigenstates
                    np.geomspace(1e-300, 1e-2, 20),
                ]
            )
        )
        worst = {}
        with mp.workdps(50):
            exact_h = [mp.mpf(float(x)) for x in h]
            for alpha in KERNEL_ERROR_ORDERS:
                got = entropy.pair_entropy(0.5 + h, 0.5 - h, entropy.TsallisParam(alpha))
                worst[alpha] = max(abs(float(v - exact_pair_entropy(x, alpha))) for v, x in zip(got, exact_h))
        assert max(worst.values()) <= 1.5e-14, worst
        assert max(worst, key=worst.get) in (0.98999, 0.99, 1.01, 1.01001)
        assert 6 * 1.5e-14 + 4e-15 <= BOUND_BUDGET

    # The incumbents are each order's tile bounds' own extrema, the least UB
    # and the greatest LB, so a non-finite value that would enter one is a
    # tile bound, met in the bound pass before the grid's run starts.  A
    # pruned scan's first pair-kernel calls are its z terms, one per order,
    # then the bound pass's: the tile stage's z terms, one kernel call per
    # order, and on 801^2 the tile bounds on every tile at once, two kernel
    # calls per order (x, y), of shape (2, 2, tile rows, tile columns), the
    # lower bounds first, each order's followed, outside 2 and 3, by its
    # boxes' split side's call on the tiles it keeps.  Order k's x term takes a NaN
    # in the LB of the tile whose LB is the order's greatest.
    @pytest.mark.parametrize("k,orders", [(0, (0.5, 2.0)), (1, (0.5, 2.0)), (0, (4.0,))])
    def test_nonfinite_incumbent_raises(self, monkeypatch, capsys, k, orders):
        axis = np.linspace(0.0, QUARTER_PI, 801)
        plan = verify._Plan(axis, axis)
        lb = pair_sums(stage_pairs(plan.tile_stage), verify.as_param(orders[k]))[0]
        t, u = np.unravel_index(int(np.argmax(lb)), lb.shape)
        real, real_numerator = verify._pair_entropy_into, verify._pair_numerator_into
        tile_calls, grid_calls, injected = [], [], []

        def inject(pairs, alpha, out):
            tile_bound = out.ndim == 4
            out = real(pairs, alpha, out)
            if tile_bound:
                if len(tile_calls) == 2 * k:  # order k's x term
                    out[0, t, u] = math.nan
                    injected.append(alpha.alpha)
                tile_calls.append(None)
            return out

        def numerator(pairs, alpha, out):  # a block's, in the grid's run
            grid_calls.append(alpha.alpha)
            return real_numerator(pairs, alpha, out)

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        monkeypatch.setattr(verify, "_pair_numerator_into", numerator)
        row_edges, col_edges = plan.row_edges, plan.col_edges
        first = f"(tau, phi) = ({float(axis[row_edges[t]])!r}, {float(axis[col_edges[u]])!r})"
        last = f"(tau, phi) = ({float(axis[row_edges[t + 1] - 1])!r}, {float(axis[col_edges[u + 1] - 1])!r})"
        tile = f"on the tile from {first} to {last}"
        with pytest.raises(ValueError, match=f"alpha={orders[k]!r}") as info:
            scan_orders(orders, GridSpec(801, 801))
        assert "entropic sum bound is nan" in str(info.value) and tile in str(info.value)
        assert injected == [orders[k]] and grid_calls == []

        tile_calls.clear()
        assert main(["verify", ",".join(map(repr, orders)), "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha={orders[k]!r}" in err and tile in err
        assert injected == [orders[k]] * 2

    def test_an_orders_samples_come_before_the_next_orders_bounds(self, monkeypatch, capsys):
        # the bound pass takes the orders one by one, each through its tile
        # bounds, its boxes and its samples: a NaN sample of order 0 (its
        # sampled tile's first grid point) is met before a NaN tile bound of
        # order 1, and the grid's run never starts
        axis = np.linspace(0.0, QUARTER_PI, 801)
        real, real_sampled = verify._pair_entropy_into, verify._sampled
        orders, tile_calls, samples, samples_at = (0.5, 2.0), [], [], []

        def inject(pairs, alpha, out):
            ndim = out.ndim
            out = real(pairs, alpha, out)
            if ndim == 4:  # a tile bound's call, two per order
                if len(tile_calls) == 2:  # order 1's x term
                    out[0, 4, 6] = math.nan
                tile_calls.append(alpha.alpha)
            elif ndim == 5 and not samples:  # order 0's samples, (2, 2, tiles, 3, 3)
                out[:, 0] = math.nan  # both axes' terms at the first sampled tile
                samples.append(alpha.alpha)
            return out

        def sampled(alpha, plan, z_term, tiles, where):
            samples_at.append(tiles[0])
            return real_sampled(alpha, plan, z_term, tiles, where)

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        monkeypatch.setattr(verify, "_sampled", sampled)
        monkeypatch.setattr(verify, "_pair_numerator_into", None)  # no grid run
        with pytest.raises(ValueError, match="entropic sum is nan at alpha=0.5") as info:
            scan_orders(orders, GridSpec(801, 801))
        row_edges, col_edges = verify._tile_edges(axis, axis)
        t, u = divmod(samples_at[0], len(col_edges) - 1)
        point = f"(tau, phi) = ({float(axis[row_edges[t]])!r}, {float(axis[col_edges[u]])!r})"
        assert str(info.value).endswith(point)
        assert tile_calls == [0.5, 0.5] and samples == [0.5]

        tile_calls.clear()
        samples.clear()
        assert main(["verify", ",".join(map(repr, orders)), "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "entropic sum is nan at alpha=0.5" in err and point in err

    @pytest.mark.parametrize(
        "k,orders,side,bad,split",
        [
            pytest.param(0, (0.5, 2.0), 0, math.nan, False, id="0-orders0-0-nan"),
            pytest.param(1, (0.5, 2.0), 1, math.inf, False, id="1-orders1-1-inf"),
            # the split side's kernel: an upper bound at 0.5 (concave), a lower one at 2.5 (convex)
            pytest.param(0, (0.5, 2.0), 2, math.nan, True, id="split-0-orders0-2-nan"),
            pytest.param(0, (2.5,), 1, math.nan, True, id="split-0-orders1-1-nan"),
        ],
    )
    def test_nonfinite_tile_bound_raises(self, monkeypatch, capsys, k, orders, side, bad, split):
        axis = np.linspace(0.0, QUARTER_PI, 801)
        row_edges, col_edges = verify._tile_edges(axis, axis)
        real, real_boxes, real_box_bound = verify._pair_entropy_into, verify._tile_boxes, verify._box_bound
        tile_calls, boxes, splits = [], [], []

        def inject(pairs, alpha, out):
            tile_bound = out.ndim == 4
            out = real(pairs, alpha, out)
            if tile_bound:
                if not split and len(tile_calls) == 2 * k:  # the x term of order k's tile bounds
                    out[side, 4, 6] = bad
                tile_calls.append(None)
            elif split and len(splits) == 1 and splits[0][1] is None:  # the first split side's kernel call
                out[side, 0] = bad  # axis side of the first tile it bounds
                splits[0][1] = out.shape
            return out

        def tile_boxes(geometry, terms, z_term, kept, work):
            boxes.append(kept)  # the kept tiles' flat indices in the tile grid
            return real_boxes(geometry, terms, z_term, kept, work)

        def box_bound(alpha, *rest):
            # the split side bounds every box, so its first tile is the batch's first
            splits.append([(alpha.alpha, int(boxes[-1][0])), None])
            return real_box_bound(alpha, *rest)

        def point(i, j):
            return f"(tau, phi) = ({float(axis[i])!r}, {float(axis[j])!r})"

        def tile():
            t, u = divmod(splits[0][0][1], len(col_edges) - 1) if split else (4, 6)
            first, last = point(row_edges[t], col_edges[u]), point(row_edges[t + 1] - 1, col_edges[u + 1] - 1)
            return f"on the tile from {first} to {last}"

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        monkeypatch.setattr(verify, "_tile_boxes", tile_boxes)
        monkeypatch.setattr(verify, "_box_bound", box_bound)
        with pytest.raises(ValueError, match=f"alpha={orders[k]!r}") as info:
            scan_orders(orders, GridSpec(801, 801))
        assert f"entropic sum bound is {bad!r}" in str(info.value) and tile() in str(info.value)
        if split:  # order k's split side met the value, at three axes' kernel values per tile
            assert len(splits) == 1 and splits[0][0][0] == orders[k] and splits[0][1][0] == 3
        expected = tile()

        tile_calls.clear()
        boxes.clear()
        splits.clear()
        assert main(["verify", ",".join(map(repr, orders)), "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha={orders[k]!r}" in err and expected in err and tile() == expected

    def test_chord_side_is_met_before_the_split_side(self, monkeypatch, capsys):
        # a NaN in F at the second kept tile's box (its monotone bounds
        # finite) reaches that tile's chord side; a NaN from the split side's
        # kernel at every tile comes later, so the second tile is named
        axis = np.linspace(0.0, QUARTER_PI, 801)
        row_edges, col_edges = verify._tile_edges(axis, axis)
        real_boxes, real = verify._tile_boxes, verify._pair_entropy_into
        tiles = []

        def tile_boxes(geometry, terms, z_term, kept, work):
            g, boxes = real_boxes(geometry, terms, z_term, kept, work)
            if not tiles:
                g[1, 0, 1] = math.nan  # F at the second box's least |h_x|
                tiles.append(int(kept[1]))
            return g, boxes

        def inject(pairs, alpha, out):
            split = bool(tiles) and out.shape[:2] == (2, 3)  # the split side's call, three axes per tile
            out = real(pairs, alpha, out)
            if split:
                out[...] = math.nan
            return out

        monkeypatch.setattr(verify, "_tile_boxes", tile_boxes)
        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        with pytest.raises(ValueError, match="entropic sum bound is nan at alpha=0.5") as info:
            scan_orders([0.5], GridSpec(801, 801))
        t, u = divmod(tiles[0], len(col_edges) - 1)
        first = f"(tau, phi) = ({float(axis[row_edges[t]])!r}, {float(axis[col_edges[u]])!r})"
        assert f"on the tile from {first} to" in str(info.value)
        tiles.clear()
        assert main(["verify", "0.5", "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"on the tile from {first} to" in err


class TestBlocks:
    """_blocks cuts the stage into rectangles, one per block, in which each order's points are one rectangle too."""

    # rows of tiles (grid rows 0-1, 1-5, ...; the first one row, as in a
    # pruned scan, the last one row too), 40 columns; the stage's span, the
    # union of the orders', changes between the rows of tiles 1 and 2 and at
    # the empty row of tiles 4; order 1's span changes inside the stage's,
    # order 2's changes where the stage's does not (rows of tiles 0 and 1)
    # and ends before the last row of tiles, and order 3 keeps nothing
    ROW_EDGES = np.array([0, 1, 5, 9, 13, 17, 21, 22])
    ORDER_SPANS = [
        [(0, 40), (0, 40), (8, 16), (8, 16), (0, 0), (8, 24), (8, 24)],
        [(0, 40), (0, 8), (4, 16), (4, 16), (0, 0), (16, 24), (0, 0)],
        [(0, 0)] * 7,
    ]
    STAGE_SPAN = [(0, 40), (0, 40), (4, 16), (4, 16), (0, 0), (8, 24), (8, 24)]

    def check_blocks(self, monkeypatch, stage_span, order_spans, budget, workers=1):
        """The blocks of these spans, checked: grid order, the budget, one span per order, every point once.

        stage_span is the stage's expected span in each row of tiles, the
        union of the orders'.  The run asks _workers once, for the stage's
        points, and takes workers; a block holds at most budget points,
        _CHUNK_POINTS / _MAX_WORKERS, whatever the worker count.
        """
        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget * verify._MAX_WORKERS)
        asked = []
        monkeypatch.setattr(verify, "_workers", lambda points: asked.append(points) or workers)
        blocks, bounds, largest, points = verify._blocks(np.array(order_spans), self.ROW_EDGES)
        edges = self.ROW_EDGES.tolist()
        assert asked == [sum((edges[t + 1] - edges[t]) * (c1 - c0) for t, (c0, c1) in enumerate(stage_span))]
        spans = np.array([stage_span, *order_spans])
        covered = np.zeros((len(spans), edges[-1], 40), dtype=int)
        last, areas = [0, 0, None], []
        for k, (i0, i1, row) in enumerate(blocks):
            # one rectangle of the stage, in grid order: the rows of tiles it
            # cuts all have its spans.  A block starts a run of rows of tiles
            # with one set of spans, or goes on with the previous block's run,
            # and holds max(1, budget // width) grid rows, its run's last fewer
            assert last[1] <= i0 < i1
            tiles = range(np.searchsorted(edges, i0, side="right") - 1, np.searchsorted(edges, i1))
            assert all(spans[:, t].tolist() == row for t in tiles)
            assert i0 in edges or last[1:] == [i0, row]
            (j0, j1), *own = row
            step = max(1, budget // (j1 - j0))
            goes_on = k + 1 < len(blocks) and blocks[k + 1][0::2] == [i1, row]
            assert i1 - i0 == step if goes_on else i1 - i0 <= step and i1 in edges
            assert (i1 - i0) * (j1 - j0) <= budget or i1 - i0 == 1
            last = [i0, i1, row]
            areas.append([(i1 - i0) * (c1 - c0) for c0, c1 in row])
            for o, (c0, c1) in enumerate(row):
                # each order's points in the block: its rows times the order's span, inside the stage's
                assert j0 <= c0 <= c1 <= j1 or c0 == c1
                covered[o, i0:i1, c0:c1] += 1
        # every span point exactly once, the stage's and each order's
        for o, span in enumerate(spans.tolist()):
            cells = np.zeros((edges[-1], 40), dtype=int)
            for t, (c0, c1) in enumerate(span):
                cells[edges[t] : edges[t + 1], c0:c1] = 1
            assert np.array_equal(covered[o], cells), o
        if not blocks:
            assert (largest, points) == (0, [0] * len(order_spans))
            return blocks, bounds
        areas = np.array(areas).T
        assert largest == areas[0].max() and points == areas[1:].sum(axis=1).tolist()
        # the runs: contiguous, one per worker up to one per block, each
        # starting at the first block whose midpoint in the cumulative work
        # reaches its share
        work = areas.sum(axis=0)
        middle = np.cumsum(work) - work / 2.0
        runs = min(workers, len(blocks))
        split = np.searchsorted(middle, work.sum() * np.arange(1, runs) / runs).tolist()
        assert bounds == [0, *split, len(blocks)]
        return blocks, bounds

    # the runs of rows of tiles with one set of spans are grid rows 0-1, 1-5,
    # 5-13, 17-21 and 21-22, of widths 40, 40, 12, 16 and 16; a budget of one
    # point cuts every grid row apart
    @pytest.mark.parametrize("budget,n_blocks", [(1, 18), (4 * 40, 5), (verify._CHUNK_POINTS, 5)])
    def test_blocks_are_stage_rectangles(self, monkeypatch, budget, n_blocks):
        blocks, bounds = self.check_blocks(monkeypatch, self.STAGE_SPAN, self.ORDER_SPANS, budget)
        assert len(blocks) == n_blocks and bounds == [0, n_blocks]

    def test_blocks_cut_rows_of_tiles(self, monkeypatch):
        # 36 points a block: grid rows 1-5, 40 wide, one row a block; 5-13,
        # 12 wide, three rows a block, so a block ends at grid row 8, inside
        # the row of tiles 5-9; 17-21, 16 wide, two rows a block, ending at 19
        blocks, _ = self.check_blocks(monkeypatch, self.STAGE_SPAN, self.ORDER_SPANS, 36)
        assert [(i0, i1) for i0, i1, _ in blocks] == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 8), (8, 11), (11, 13), (17, 19), (19, 21), (21, 22)
        ]

    @pytest.mark.parametrize("budget,workers", [(1, 2), (4 * 40, 2), (1, 3), (1, 8), (verify._CHUNK_POINTS, 2)])
    def test_runs_split_the_work(self, monkeypatch, budget, workers):
        # at most one run per block; the split is np.searchsorted's on the
        # blocks' cumulative midpoints, computed here with numpy
        blocks, bounds = self.check_blocks(monkeypatch, self.STAGE_SPAN, self.ORDER_SPANS, budget, workers)
        assert len(bounds) - 1 == min(workers, len(blocks))

    def test_an_order_span_change_starts_a_block(self, monkeypatch):
        # rows of tiles 2 and 3 share the stage's span (4, 16): they join while
        # each order's span stays the same, and part where order 2's changes
        # inside the stage's
        kept = [(0, 40), (0, 40), (4, 16), (4, 16), (0, 0), (8, 24), (8, 24)]
        blocks, _ = self.check_blocks(monkeypatch, self.STAGE_SPAN, [kept, kept], verify._CHUNK_POINTS)
        assert [(i0, i1) for i0, i1, _ in blocks] == [(0, 5), (5, 13), (17, 22)]
        moved = [(0, 40), (0, 40), (4, 8), (8, 16), (0, 0), (8, 24), (8, 24)]
        blocks, _ = self.check_blocks(monkeypatch, self.STAGE_SPAN, [kept, moved], verify._CHUNK_POINTS)
        assert [(i0, i1) for i0, i1, _ in blocks] == [(0, 5), (5, 9), (9, 13), (17, 22)]

    def test_no_span_no_block(self, monkeypatch):
        empty = [(0, 0)] * 7
        assert self.check_blocks(monkeypatch, empty, [empty, empty], verify._CHUNK_POINTS, 2) == ([], [0])


class TestKernelCalls:
    """Each order's z term is taken once per scan, and in a block each order makes one extrema and one numerator call."""

    @pytest.mark.parametrize("grid", [GridSpec(401, 401), GridSpec(2001, 2001)], ids=str)
    def test_z_term_once_per_scan_and_one_numerator_call_per_block(self, monkeypatch, grid):
        # numerator calls and extrema on a run's workspace planes are the
        # blocks', at most one extrema per order and block, each
        # block starting at its stage's pairs; every pair-kernel call is off
        # the workspace, and the tile stage's z terms are one value per row
        # of tiles
        orders = (0.5, 2.0, 4.0)
        real_kernel, real_extrema, real_pairs = verify._pair_entropy_into, verify._extrema, verify._grid_pairs
        real_numerator = verify._pair_numerator_into
        kernel_calls, numerator_calls, extrema_calls = [], [], []
        # per thread, the orders of its extrema calls, each block's in a list of its own
        block_orders = {}

        def in_workspace(a):
            while a.base is not None:
                a = a.base
            return a.ndim == 3 and a.shape[1] == 8

        def kernel(pairs, alpha, out):
            kernel_calls.append((alpha.alpha, out.shape, in_workspace(out)))
            return real_kernel(pairs, alpha, out)

        def numerator(pairs, alpha, out):
            # both axes' pairs of the block in one call, p over m, each x over y
            numerator_calls.append(in_workspace(out) and in_workspace(pairs) and out.shape[:2] == (2, 2))
            return real_numerator(pairs, alpha, out)

        def extrema(values, alpha, where):
            extrema_calls.append(in_workspace(values))
            if in_workspace(values):  # a block's; an order's samples take theirs off the workspace
                block_orders[threading.get_ident()][-1].append(alpha.alpha)
            return real_extrema(values, alpha, where)

        def grid_pairs(stage, rows, cols, out):
            if in_workspace(out):
                block_orders.setdefault(threading.get_ident(), []).append([])
            return real_pairs(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        monkeypatch.setattr(verify, "_pair_numerator_into", numerator)
        monkeypatch.setattr(verify, "_extrema", extrema)
        monkeypatch.setattr(verify, "_grid_pairs", grid_pairs)
        scan_orders(orders, grid)
        z_terms = [(a, (2, grid.n_tau), False) for a in orders]
        assert kernel_calls[: len(orders)] == z_terms
        # the only other z terms are the tile stage's, its lower bounds stacked
        # on its upper bounds
        axis = np.linspace(0.0, QUARTER_PI, grid.n_tau)
        tile_rows = len(verify._tile_edges(axis, axis)[0]) - 1
        tile_z_terms = [(a, (2, 2, tile_rows)) for a in orders]
        # (outside the workspace, the tile bounds' calls are the 4-D ones and
        # the split side's bound three axes at once, shape (2, 3, tiles))
        z_calls = [(a, shape) for a, shape, block in kernel_calls if not block and len(shape) < 4 and shape[1] != 3]
        assert z_calls == [z[:2] for z in z_terms] + tile_z_terms
        assert not any(block for *_, block in kernel_calls)
        assert all(numerator_calls) and len(numerator_calls) == sum(extrema_calls) > 0
        per_block = [calls for runs in block_orders.values() for calls in runs]
        assert sum(map(len, per_block)) == sum(extrema_calls)
        assert all(len(set(calls)) == len(calls) for calls in per_block)

    @pytest.mark.parametrize("budget", [1, verify._CHUNK_POINTS])
    def test_bound_pass_takes_every_tile_at_once(self, monkeypatch, budget):
        # the tile bounds' kernel calls are the 4-D ones: two per order (x, y),
        # each on every tile of the plan, orders in the given order, whatever
        # the chunk budget, which shapes the blocks alone
        orders = (0.5, 2.0, 4.0)
        grid = GridSpec(801, 801)
        plan = grid._plan
        shape = (2, 2, len(plan.row_edges) - 1, len(plan.col_edges) - 1)
        real, calls = verify._pair_entropy_into, []

        def kernel(pairs, alpha, out):
            if out.ndim == 4:
                calls.append((alpha.alpha, out.shape))
            return real(pairs, alpha, out)

        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        scan_orders(orders, grid)
        assert calls == [(a, shape) for a in orders for _ in range(2)]


# Orders whose kernel scale c is a signed power of two, so _pair_sums adds the
# x and y numerators first and scales their sum once: on the pow branch
# alpha = 1 -+ 2^k, on the log branches (c = -1) Shannon and the expm1 window;
# and pow orders that keep one division per axis
ONE_SCALE_ORDERS = (0.5, 0.75, 0.875, 0.984375, 1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 33.0, 1025.0)
LOG_BRANCH_ORDERS = (0.995, 1.0, 1.0 - 1e-6, 1.0 + 1e-6, 1.005)
DIVIDED_ORDERS = (0.25, 2.5, 4.0)
# Every kernel branch and scale: the parity orders, the one-scale and
# log-branch orders and the squaring chains
STACKED_ORDERS = tuple(sorted(set(PARITY_ORDERS + ONE_SCALE_ORDERS + LOG_BRANCH_ORDERS + (4.0, 5.0, 7.0, 10.0, 64.0))))
EDGE_HALVES = (0.0, 0.25, -0.25, 0.5, -0.5, 2.0**-54, -(2.0**-54), 2.0**-60, -(2.0**-60), math.nan)


def per_axis_sums(x, y, z_term, alpha):
    """The reference: pair_entropy of the x and y pairs, then the z term, as fl(fl(F_x + F_y) + Z)."""
    return entropy.pair_entropy(*x, alpha) + entropy.pair_entropy(*y, alpha) + z_term


class TestSummedFirst:
    """_pair_sums scales the numerators' sum once where c is a power of two, bit for bit the per-axis sums."""

    @staticmethod
    def assert_same_sums(got, reference):
        # bitwise through int64 views, signed zeros included; a NaN is a NaN
        # (its sign aside, as the kernel's docstring has it)
        nan = np.isnan(reference)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), reference[~nan].view(np.int64))

    @pytest.mark.parametrize("alpha", ONE_SCALE_ORDERS + LOG_BRANCH_ORDERS + DIVIDED_ORDERS)
    def test_summed_first_is_the_per_axis_sum_bitwise(self, alpha):
        a = entropy.TsallisParam(alpha)
        scale = entropy._exact_scale(a)
        assert (scale is None) == (alpha in DIVIDED_ORDERS)
        assert (scale == -1.0) == (alpha in LOG_BRANCH_ORDERS + (2.0,))
        # random halves on three axes, then every combination of the edge halves
        edges = np.array(list(itertools.product(EDGE_HALVES, repeat=3))).T
        h = np.concatenate([np.random.default_rng(29).uniform(-0.5, 0.5, (3, 30_000)), edges], axis=1)
        pairs = verify._half_pair(h)  # p over m, each x, y, z
        xy, x, y, z = pairs[:, :2], pairs[:, 0], pairs[:, 1], pairs[:, 2]
        z_term = entropy.pair_entropy(*z, a)
        got = verify._pair_sums(xy, z_term, a, scale, np.empty(xy.shape))
        reference = per_axis_sums(x, y, z_term, a)
        assert np.isnan(reference).any() and (reference == 0.0).any()
        self.assert_same_sums(got, reference)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.005, 2.0, 3.0, 4.0))
    def test_a_row_broadcast_z_term_gives_the_same_bits(self, alpha):
        # a grid block's z term is one value per row, broadcast along it
        a = entropy.TsallisParam(alpha)
        rng = np.random.default_rng(30)
        xy = verify._half_pair(rng.uniform(-0.5, 0.5, (2, 64, 301)))
        z_term = entropy.pair_entropy(*verify._half_pair(rng.uniform(-0.5, 0.5, 64)), a)[:, None]
        got = verify._pair_sums(xy, z_term, a, entropy._exact_scale(a), np.empty(xy.shape))
        self.assert_same_sums(got, per_axis_sums(xy[:, 0], xy[:, 1], z_term, a))

    @pytest.mark.parametrize("alpha", STACKED_ORDERS)
    def test_stacked_pairs_give_the_per_axis_sums_bitwise(self, alpha):
        # one numerator call over both axes' stacked pairs, as a scan block
        # makes it, against each axis's pair_entropy: on a contiguous block
        # with a z term per row, on a span narrower than the block (strided
        # rows, as an order's span in a block) and on every combination of the
        # edge halves
        a = entropy.TsallisParam(alpha)
        rng = np.random.default_rng(31)
        block = verify._half_pair(rng.uniform(-0.5, 0.5, (2, 48, 301)))  # p over m, each x over y
        z_rows = entropy.pair_entropy(*verify._half_pair(rng.uniform(-0.5, 0.5, 48)), a)[:, None]
        edges = verify._half_pair(np.array(list(itertools.product(EDGE_HALVES, repeat=3))).T)
        cases = [(block, z_rows), (block[..., 37:250], z_rows), (edges[:, :2], entropy.pair_entropy(*edges[:, 2], a))]
        for pairs, z_term in cases:
            got = verify._pair_sums(pairs, z_term, a, entropy._exact_scale(a), np.empty(pairs.shape))
            self.assert_same_sums(got, per_axis_sums(pairs[:, 0], pairs[:, 1], z_term, a))


def test_rounding_picks_the_constant_orders_witnesses():
    # at 2 and 3 the pure-state sum is constant, so rounding alone picks the
    # grid extrema and witnesses: a one-ulp change in the pow branch or in the
    # order of the sum's additions moves them (bench/references.json holds the same)
    axis = np.linspace(0.0, QUARTER_PI, 2001)
    expected = {
        2.0: (0.9999999999999996, (1323, 1734), 1.0000000000000004, (732, 74)),
        3.0: (0.7499999999999998, (3, 10), 0.7500000000000002, (5, 3)),
    }
    for report in scan_orders([2.0, 3.0], GridSpec(2001, 2001)):
        low, (i, j), high, (k, l) = expected[report.alpha.alpha]
        assert (report.min_value, report.max_value) == (low, high)
        assert report.argmin == PureStateAngles(float(axis[i]), float(axis[j]))
        assert report.argmax == PureStateAngles(float(axis[k]), float(axis[l]))
        # every point but grid row 0's: that row's tiles are exact
        assert report.points_evaluated == 2001 * 2001 - 2001


class TestSquaredIntegerOrders:
    """Scans at integer orders whose p^n comes from repeated squaring."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12, 16])
    def test_witnesses_match_pow_reference(self, monkeypatch, n):
        grid = GridSpec(401, 401)
        report = scan_extrema(n, grid)
        monkeypatch.setattr(entropy, "_power", lambda x, a, out: np.power(x, a, out=out))
        reference = scan_extrema(n, grid)
        assert (report.argmin, report.argmax) == (reference.argmin, reference.argmax)
        assert report.min_value == reference.min_value  # the eigenstate corners are exact
        assert abs(report.max_value - reference.max_value) <= 4 * math.ulp(reference.max_value)

    def test_grid_values_within_a_few_ulps_of_pow(self, monkeypatch):
        tau = np.linspace(0.0, QUARTER_PI, 401)
        pairs = grid_pairs(tau, np.cos(tau), np.sin(tau))
        orders = [n for n in range(4, 65) if entropy._squaring_bits(float(n)) is not None]
        chained = [pair_sums(pairs, entropy.TsallisParam(n)) for n in orders]
        monkeypatch.setattr(entropy, "_power", lambda x, a, out: np.power(x, a, out=out))
        for n, values in zip(orders, chained):
            reference = pair_sums(pairs, entropy.TsallisParam(n))
            ulps = np.abs(values - reference) / np.spacing(np.maximum(values, reference))
            assert ulps.max() <= 7, n


class TestCertifyEqualityConditions:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0, 6.0])
    def test_tight_orders_certify(self, alpha):
        assert certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_constant_orders_certify(self, alpha):
        assert certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_too_few_samples_raises(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            certify_equality_conditions(0.5, tolerance=1e-12, n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [GridSpec.MAX_POINTS + 1, 10**9])
    def test_too_many_samples_raises(self, monkeypatch, n_samples):
        # a memory-sized request fails before any state is drawn
        def no_states(*args, **kwargs):
            raise AssertionError("states drawn")

        with monkeypatch.context() as m:
            m.setattr(verify, "sample_pure_states", no_states)
            with pytest.raises(ValueError, match=f"n_samples must be at most 1000001, got {n_samples}"):
                certify_equality_conditions(0.5, tolerance=1e-12, n_samples=n_samples)
        # the cap is GridSpec.MAX_POINTS, inclusive
        monkeypatch.setattr(GridSpec, "MAX_POINTS", 100)
        assert certify_equality_conditions(0.5, tolerance=1e-12, n_samples=100)
        with pytest.raises(ValueError, match="n_samples must be at most 100, got 101"):
            certify_equality_conditions(0.5, tolerance=1e-12, n_samples=101)

    @pytest.mark.parametrize("n_samples", [10.5, 100.0, "100"])
    def test_non_integer_samples_raise_type_error(self, n_samples):
        with pytest.raises(TypeError, match="n_samples"):
            certify_equality_conditions(0.5, tolerance=1e-12, n_samples=n_samples)
        assert certify_equality_conditions(0.5, tolerance=1e-12, n_samples=np.int64(100))

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-12, math.inf, -math.inf])
    def test_bad_tolerance_raises(self, tolerance):
        # inf used to pass clauses (a) and (c) unchecked; NaN or a negative
        # value returned a quiet False
        with pytest.raises(ValueError, match="tolerance"):
            certify_equality_conditions(0.5, tolerance=tolerance, n_samples=100)
        # zero is a valid tolerance: the eigenstate sums and the maximizer are exact at 0.5
        assert certify_equality_conditions(0.5, tolerance=0.0, n_samples=100)

    def test_unsupported_order_raises(self):
        with pytest.raises(ValueError):
            certify_equality_conditions(2.5, tolerance=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_nonfinite_sample_raises(self, monkeypatch, capsys, alpha):
        # one NaN state among the samples: the strict (0.5) and the constant (2) branch
        real = verify.sample_pure_states

        def with_nan(n, seed=verify.DEFAULT_SEED):
            b = real(n, seed=seed)
            b[3] = math.nan
            return b

        monkeypatch.setattr(verify, "sample_pure_states", with_nan)
        with pytest.raises(ValueError, match=f"alpha={alpha!r}") as info:
            certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)
        assert "Bloch vector (nan, nan, nan)" in str(info.value)

        assert main(["verify", repr(alpha), "--grid", "11"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha={alpha!r}" in err

    def test_overshooting_component_gives_deterministic_pair(self):
        # a Bloch component one ulp beyond 1 still measures (1, 0) exactly
        p, m = verify._clipped_pairs(np.array([1.0 + 2.0**-52]))[:, 0]
        assert (p[0], m[0]) == (1.0, 0.0)
        assert math.copysign(1.0, m[0]) == 1.0
        a = verify.as_param(0.5)
        over = verify._entropic_sums(np.array([1.0 + 2.0**-52]), np.zeros(1), np.zeros(1), a)
        assert over[0] == verify._entropic_sums(np.ones(1), np.zeros(1), np.zeros(1), a)[0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 0.995])
    def test_nan_component_raises(self, monkeypatch, alpha):
        # one NaN component of one sample, on the pow, Shannon and expm1 branches
        real = verify.sample_pure_states

        def with_nan(n, seed=verify.DEFAULT_SEED):
            b = real(n, seed=seed)
            b[5] = (math.nan, 0.0, 1.0)
            return b

        monkeypatch.setattr(verify, "sample_pure_states", with_nan)
        with pytest.raises(ValueError, match=f"alpha={alpha!r}") as info:
            certify_equality_conditions(alpha, tolerance=1e-12, n_samples=100)
        assert "Bloch vector (nan, 0.0, 1.0)" in str(info.value)


# the proven orders of the CLI's pinned verify runs
CERTIFIED_ORDERS = (0.25, 0.5, 0.991, 0.9999999, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0)


class TestCertifyOrders:
    """certify_orders draws one batch for every order; each bool is certify_equality_conditions's."""

    @staticmethod
    def no_states(monkeypatch):
        def no_states(*args, **kwargs):
            raise AssertionError("states drawn")

        monkeypatch.setattr(verify, "sample_pure_states", no_states)

    def test_bools_are_the_per_order_calls(self):
        bools = verify.certify_orders(CERTIFIED_ORDERS, 1e-12, n_samples=2000, seed=7)
        assert bools == [certify_equality_conditions(a, 1e-12, n_samples=2000, seed=7) for a in CERTIFIED_ORDERS]
        assert all(bools)

    def test_failing_orders_are_the_per_order_calls(self, monkeypatch):
        # upper_pure moved: the maximizer check (c) fails where it runs, off 2 and 3
        TestCertificationCanFail.shift(monkeypatch, "upper_pure", 1e-9)
        bools = verify.certify_orders(CERTIFIED_ORDERS, 1e-12, n_samples=500)
        assert bools == [certify_equality_conditions(a, 1e-12, n_samples=500) for a in CERTIFIED_ORDERS]
        assert bools == [a in (2.0, 3.0) for a in CERTIFIED_ORDERS]

    def test_one_batch_for_every_order(self, monkeypatch):
        real, draws = verify.sample_pure_states, []

        def counted(n, seed=verify.DEFAULT_SEED):
            draws.append(n)
            return real(n, seed=seed)

        monkeypatch.setattr(verify, "sample_pure_states", counted)
        assert verify.certify_orders([0.5, 1.0, 2.0, 4.0], 1e-12, n_samples=300) == [True] * 4
        assert draws == [300]
        assert verify.certify_orders([], 1e-12, n_samples=300) == []
        assert draws == [300]

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [2.5, 1.7, 0.0, -1.0])
    def test_bad_order_anywhere_raises_before_drawing(self, monkeypatch, position, bad):
        self.no_states(monkeypatch)
        orders = [0.5, 2.0, 4.0]
        orders.insert(position, bad)
        with pytest.raises(ValueError):
            verify.certify_orders(orders, 1e-12, n_samples=100)

    def test_bad_samples_and_tolerance_raise_before_drawing(self, monkeypatch):
        self.no_states(monkeypatch)
        for n_samples in (0, GridSpec.MAX_POINTS + 1):
            with pytest.raises(ValueError, match="n_samples"):
                verify.certify_orders([0.5, 2.0], 1e-12, n_samples=n_samples)
        with pytest.raises(TypeError, match="n_samples"):
            verify.certify_orders([0.5, 2.0], 1e-12, n_samples=10.5)
        for tolerance in (math.nan, -1e-12, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                verify.certify_orders([0.5, 2.0], tolerance, n_samples=100)
            with pytest.raises(ValueError, match="tolerance"):
                verify.certify_orders([], tolerance, n_samples=100)

    @pytest.mark.parametrize("orders", [(0.5, 2.0), (2.0, 0.5), (1.0, 4.0, 0.5)])
    def test_first_order_with_a_nonfinite_sum_is_named(self, monkeypatch, orders):
        real = verify.sample_pure_states

        def with_nan(n, seed=verify.DEFAULT_SEED):
            b = real(n, seed=seed)
            b[3] = math.nan
            return b

        monkeypatch.setattr(verify, "sample_pure_states", with_nan)
        with pytest.raises(ValueError, match=f"at alpha={orders[0]!r}, Bloch vector \\(nan, nan, nan\\)"):
            verify.certify_orders(orders, 1e-12, n_samples=100)


class TestCertificationCanFail:
    """Each case breaks one clause of the certificate while the others still hold."""

    @staticmethod
    def shift(monkeypatch, field, delta):
        # the certificate reads its bounds from one bound_set; move one field of it
        real = verify.bound_set

        def shifted(a):
            bounds = real(a)
            return dataclasses.replace(bounds, **{field: getattr(bounds, field) + delta})

        monkeypatch.setattr(verify, "bound_set", shifted)

    @staticmethod
    def replace_first_sample(monkeypatch, row):
        real = verify.sample_pure_states

        def patched(n, seed=verify.DEFAULT_SEED):
            b = real(n, seed=seed)
            b[0] = row
            return b

        monkeypatch.setattr(verify, "sample_pure_states", patched)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_holds_unshifted(self, alpha):
        assert certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)

    @pytest.mark.parametrize("delta", [1e-9, -1e-9])
    def test_eigenstates_off_the_bound(self, monkeypatch, delta):
        # (a): the samples exceed the bound by > 5e-3 at alpha = 0.5, so only the eigenstates fail
        self.shift(monkeypatch, "lower", delta)
        assert not certify_equality_conditions(0.5, tolerance=1e-12, n_samples=2000)

    def test_sample_not_strictly_above(self, monkeypatch):
        # (b), strict branch: with the bound 1e-9 high and a 1e-8 tolerance the
        # eigenstates still certify; a sampled eigenstate then sits below the bound
        self.shift(monkeypatch, "lower", 1e-9)
        assert certify_equality_conditions(0.5, tolerance=1e-8, n_samples=2000)
        self.replace_first_sample(monkeypatch, (0.0, 0.0, 1.0))
        assert not certify_equality_conditions(0.5, tolerance=1e-8, n_samples=2000)

    def test_sample_off_the_constant(self, monkeypatch):
        # (b), constant branch: one slightly impure sample misses the constant 1 at alpha = 2
        self.replace_first_sample(monkeypatch, verify.sample_pure_states(1, seed=3)[0] * (1.0 - 1e-6))
        assert not certify_equality_conditions(2.0, tolerance=1e-12, n_samples=2000)

    @pytest.mark.parametrize("alpha", [0.5, 4.0])
    @pytest.mark.parametrize("delta", [1e-9, -1e-9])
    def test_maximizer_off_the_maximum(self, monkeypatch, alpha, delta):
        # (c): only the maximizer check reads upper_pure
        self.shift(monkeypatch, "upper_pure", delta)
        assert not certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)


class TestKernelMonotonicityCheck:
    def test_f_half(self):
        assert check_kernel_monotonicity("f", 0.5, 10_000)

    def test_f_shannon(self):
        assert check_kernel_monotonicity("f", 1.0, 2_000)

    @pytest.mark.parametrize("alpha,step", [(1.0, 0.0), (0.5, -1e-6)])
    def test_f_flat_or_decreasing_step_fails(self, monkeypatch, alpha, step):
        # f must strictly increase at every alpha in (0, 1], alpha = 1 included;
        # kernel_f evaluates the whole grid
        real = verify.kernel_f

        def kinked(u, a):
            values = real(u, a).copy()
            values[5000] = values[4999] + step
            return values

        monkeypatch.setattr(verify, "kernel_f", kinked)
        assert not check_kernel_monotonicity("f", alpha, 10_000)

    @pytest.mark.parametrize("alpha,step", [(4, 0.0), (7, -1e-9)])
    def test_g_flat_or_decreasing_step_fails(self, monkeypatch, alpha, step):
        # g must strictly increase for alpha >= 4; kernel_g evaluates the whole grid
        real = verify.kernel_g

        def kinked(u, a):
            values = real(u, a).copy()
            values[5000] = values[4999] + step
            return values

        monkeypatch.setattr(verify, "kernel_g", kinked)
        assert not check_kernel_monotonicity("g", alpha, 10_000)

    def test_g_constant_order(self):
        assert check_kernel_monotonicity("g", 3, 500)

    def test_g_order_seven_strict(self):
        assert check_kernel_monotonicity("g", 7, 10_000)

    @pytest.mark.parametrize("kernel,alpha", [("g", 1.0000000000001), ("g", 2.5), ("f", 1.5)])
    def test_order_outside_proven_range_raises(self, kernel, alpha):
        # 1.0000000000001 rounds to 1 within INTEGER_TOL: g_1 = 0 used to pass quietly
        with pytest.raises(ValueError, match=f"needs alpha in .* got {alpha!r}"):
            check_kernel_monotonicity(kernel, alpha, 10)
        assert check_kernel_monotonicity("g", 1, 10)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            check_kernel_monotonicity("h", 0.5, 100)

    @pytest.mark.parametrize("kernel,alpha", [("f", 0.5), ("g", 4)])
    @pytest.mark.parametrize("n_points", [0, 1])
    def test_too_few_points_raises(self, kernel, alpha, n_points):
        # one point has no neighbour to compare with; it used to pass vacuously
        with pytest.raises(ValueError, match="n_points"):
            check_kernel_monotonicity(kernel, alpha, n_points)
        assert check_kernel_monotonicity(kernel, alpha, 2)

    @pytest.mark.parametrize("kernel,alpha", [("f", 0.5), ("g", 4)])
    def test_too_many_points_raises(self, monkeypatch, kernel, alpha):
        # a memory-sized request fails before anything is allocated
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(verify.np, "arange", no_grid)
        with pytest.raises(ValueError, match="n_points"):
            check_kernel_monotonicity(kernel, alpha, GridSpec.MAX_POINTS + 1)

    @pytest.mark.parametrize("kernel,alpha", [("f", 0.5), ("g", 4)])
    @pytest.mark.parametrize("n_points", [10.5, 11.0, "11"])
    def test_non_integer_points_raise_type_error(self, kernel, alpha, n_points):
        # 10.5 used to check an 11-point grid spaced 1/11.5 and pass
        with pytest.raises(TypeError, match="n_points"):
            check_kernel_monotonicity(kernel, alpha, n_points)
        assert check_kernel_monotonicity(kernel, alpha, np.int64(11))


class TestAlphaConcavityCheck:
    def test_generic_state(self):
        state = PureStateAngles(0.3, 0.4)
        assert check_alpha_concavity(state, 1.0, 6.0, 101)

    def test_eigenstate_degenerate_case(self):
        assert check_alpha_concavity(BlochVector(0.0, 0.0, 1.0), 1.0, 6.0, 101)

    def test_narrow_window(self):
        state = PureStateAngles(0.61, 0.23)
        assert check_alpha_concavity(state, 2.0, 3.0, 101)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            check_alpha_concavity(PureStateAngles(0.3, 0.4), 0.5, 2.0, 11)

    @pytest.mark.parametrize("alpha_hi", [math.inf, math.nan])
    def test_non_finite_upper_order_raises(self, alpha_hi):
        # rejected by the range check, before numpy warns on a linspace to inf
        with pytest.raises(ValueError, match="alpha_hi"):
            check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, alpha_hi, 5)

    @pytest.mark.parametrize("n_points", [0, 1, 2])
    def test_too_few_points_raises(self, n_points):
        # fewer than 3 points leave no interior point; it used to pass vacuously
        with pytest.raises(ValueError, match="n_points"):
            check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, n_points)
        assert check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, 3)

    @pytest.mark.parametrize("n_points", [GridSpec.MAX_POINTS + 1, 10**9])
    def test_too_many_points_raises(self, monkeypatch, n_points):
        # a memory-sized request fails before the order grid is allocated or any g_sum runs
        def forbidden(*args, **kwargs):
            raise AssertionError("order grid allocated")

        state = PureStateAngles(0.3, 0.4)
        with monkeypatch.context() as m:
            m.setattr(verify.np, "linspace", forbidden)
            m.setattr(verify, "g_sum", forbidden)
            with pytest.raises(ValueError, match=f"n_points must be at most 1000001, got {n_points}"):
                check_alpha_concavity(state, 1.0, 3.0, n_points)
        # the cap is GridSpec.MAX_POINTS, inclusive
        monkeypatch.setattr(GridSpec, "MAX_POINTS", 11)
        assert check_alpha_concavity(state, 1.0, 3.0, 11)
        with pytest.raises(ValueError, match="n_points must be at most 11, got 12"):
            check_alpha_concavity(state, 1.0, 3.0, 12)

    @pytest.mark.parametrize("n_points", [10.5, 11.0, "11"])
    def test_non_integer_points_raise_type_error(self, n_points):
        with pytest.raises(TypeError, match="n_points"):
            check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, n_points)
        assert check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, np.int64(11))


class TestEmpiricalUpperPure:
    """The grid maximum, the only pure-state upper information at non-integer alpha > 1."""

    def test_constant_order(self):
        assert scan_extrema(2.0, GridSpec(101, 101)).max_value == pytest.approx(1.0, abs=1e-12)

    def test_noninteger_order_stays_between_bounds(self):
        value = scan_extrema(2.5, GridSpec(301, 301)).max_value
        bounds = bound_set(2.5)
        assert bounds.lower < value < bounds.upper_mixed


class TestRefinedMaximum:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_reaches_pure_upper_bound(self, alpha):
        value, argmax = refined_maximum(alpha, GridSpec(1001, 1001))
        assert abs(value - 3.0 * h_tilde(alpha)) <= 1e-8
        assert abs(argmax.tau - TAU_STAR) <= 1e-4
        assert abs(argmax.phi - QUARTER_PI) <= 1e-4

    @pytest.mark.parametrize("n_tau,n_phi", [(2001, 2001), (101, 401), (41, 41), (3, 3)], ids=str)
    def test_window_is_the_grid_scan_of_the_box(self, n_tau, n_phi):
        # the window evaluated whole gives, bit for bit, what a grid scan of
        # the box on its own plan gives, ties included (2 and 3: rounding
        # picks the witness)
        grid = GridSpec(n_tau, n_phi)
        for alpha in (0.25, 0.5, 1.0, 1.005, 2.0, 2.5, 3.0, 4.0, 7.3, 30.0):
            a = verify.as_param(alpha)
            report = scan_extrema(a, grid)
            axes = (verify._refine_axis(report.argmax.tau, n_tau), verify._refine_axis(report.argmax.phi, n_phi))
            ((_, _, mx, (i, j), _),) = verify._scan_rectangle([a], verify._Plan(*axes))
            expected = (mx, PureStateAngles(float(axes[0][i]), float(axes[1][j])))
            if not mx > report.max_value:
                expected = (report.max_value, report.argmax)
            value, argmax = refined_maximum(a, grid)
            assert (value.hex(), argmax) == (expected[0].hex(), expected[1]), alpha

    def test_nonfinite_window_sum_names_its_point(self, monkeypatch):
        grid = GridSpec(41, 41)
        report = scan_extrema(0.5, grid)
        tau = verify._refine_axis(report.argmax.tau, grid.n_tau)
        phi = verify._refine_axis(report.argmax.phi, grid.n_phi)
        real = verify._entropic_sums

        def sums(bx, by, bz, alpha):
            values = real(bx, by, bz, alpha)
            values[1, 4] = math.nan
            return values

        monkeypatch.setattr(verify, "_entropic_sums", sums)
        with pytest.raises(ValueError, match="entropic sum is nan at alpha=0.5") as info:
            refined_maximum(0.5, grid)
        assert str(info.value).endswith(f"(tau, phi) = ({float(tau[1])!r}, {float(phi[4])!r})")


class TestSampling:
    def test_pure_states_on_sphere(self):
        b = sample_pure_states(1000, seed=1)
        assert b.shape == (1000, 3)
        norms = np.linalg.norm(b, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_mixed_states_in_ball(self):
        b = sample_mixed_states(1000, seed=1)
        norms = np.linalg.norm(b, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.min(norms) < 0.5  # actually fills the ball

    def test_seeded_reproducibility(self):
        assert np.array_equal(sample_pure_states(50, seed=9), sample_pure_states(50, seed=9))
        assert not np.array_equal(sample_pure_states(50, seed=9), sample_pure_states(50, seed=10))

    @pytest.mark.parametrize("sample", [sample_pure_states, sample_mixed_states])
    def test_count_is_checked(self, monkeypatch, sample):
        # numpy's own errors here named no argument
        with pytest.raises(TypeError, match="n must be an integer"):
            sample(2.5)
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            sample(-1)
        assert sample(0).shape == (0, 3)
        assert sample(np.int64(4)).shape == (4, 3)
        # a memory-sized count fails before any array is drawn; the cap is
        # GridSpec.MAX_POINTS, inclusive, lowered here so nothing large is allocated
        monkeypatch.setattr(GridSpec, "MAX_POINTS", 100)
        assert sample(100).shape == (100, 3)
        for n in (101, 1000):
            with pytest.raises(ValueError, match=f"n must be at most 100, got {n}"):
                sample(n)

    @pytest.mark.parametrize("sample", [sample_pure_states, sample_mixed_states])
    def test_seed_is_checked(self, sample):
        # numpy's own error here ("expected non-negative integer") named no argument
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            sample(3, seed=-1)
        for seed in (None, 2.5, "7"):
            with pytest.raises(TypeError, match="seed must be an integer"):
                sample(3, seed=seed)
        assert np.array_equal(sample(3, seed=np.int64(5)), sample(3, seed=5))

    def test_certification_seed_is_checked(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            certify_equality_conditions(0.5, 1e-12, seed=-1)


class TestMixedStateProperties:
    def test_sum_concave_under_state_mixing(self):
        rng = np.random.default_rng(21)
        b1 = sample_mixed_states(300, seed=31)
        b2 = sample_mixed_states(300, seed=32)
        lam = rng.uniform(0.0, 1.0, 300)
        for alpha in (0.5, 1.0, 3.0):
            for i in range(300):
                mixed = BlochVector(*(lam[i] * b1[i] + (1 - lam[i]) * b2[i]))
                s1 = entropic_sum(BlochVector(*b1[i]), alpha)
                s2 = entropic_sum(BlochVector(*b2[i]), alpha)
                combined = lam[i] * s1 + (1 - lam[i]) * s2
                assert entropic_sum(mixed, alpha) >= combined - 1e-12

    def test_impure_axis_states_strictly_above_bound(self):
        low = bound_set(1.0).lower
        for t in np.linspace(0.011, 0.989, 50):
            assert entropic_sum(BlochVector(float(t), 0.0, 0.0), 1.0) > low + 1e-6

    def test_constancy_spread_orders_two_three(self):
        b = sample_pure_states(2000, seed=44)
        for alpha, value in ((2.0, 1.0), (3.0, 0.75)):
            sums = verify._entropic_sums(b[:, 0], b[:, 1], b[:, 2], verify.as_param(alpha))
            assert np.max(sums) - np.min(sums) <= 1e-12
            assert np.max(np.abs(sums - value)) <= 1e-12
