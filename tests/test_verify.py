"""Brute-force oracle: scans, certification, property checks."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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


def grid_pairs(tau, cos_phi, sin_phi):
    """The x, y and z outcome pairs on the grid tau x phi as a scan forms them, in new arrays."""
    half_s2t, half_c2t, _, _ = verify._stage(tau, np.zeros(1))
    out = np.empty((5, tau.size, cos_phi.size))
    verify._grid_pairs((half_s2t, half_c2t, cos_phi, sin_phi), slice(None), slice(None), out)
    return [(out[0], out[1]), (out[2], out[3]), *verify._half_pairs(half_c2t[:, None])]


def pair_sums(pairs, alpha):
    """Entropic sums at the (x, y, z) outcome pairs as a scan sums them: the z term added to the x and y terms."""
    *xy, z = pairs
    return verify._pair_sums(xy, entropy.pair_entropy(*z, alpha), alpha)


def constant_stage(tau_grid, phi_grid):
    """A stand-in for verify._stage whose Bloch halves are all 0: every pair is (1/2, 1/2), every grid point ties."""
    return np.zeros(len(tau_grid)), np.zeros(len(tau_grid)), np.ones(len(phi_grid)), np.ones(len(phi_grid))


def exhaustive(monkeypatch):
    """Scans of any size are exhaustive: every grid point in blocks of whole grid rows, no bound pass."""
    monkeypatch.setattr(verify, "_PRUNE_POINTS", math.inf)


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
        # every row evaluated once: the exhaustive scan
        exhaustive(monkeypatch)
        grid = GridSpec(101, 40001)
        real = verify._grid_pairs
        rows = []
        axis = np.linspace(0.0, QUARTER_PI, grid.n_tau)

        def spy(stage, r, c, out):
            tau = axis[r]
            assert tau.size * out.shape[2] <= max(grid.n_phi, verify._CHUNK_POINTS)
            rows.append((threading.current_thread(), tau))
            return real(stage, r, c, out)

        def assert_each_row_once():
            # per worker, the rows in the order they came; sorted by their first
            # row and joined, they are the axis: each worker's rows are whole,
            # contiguous and in grid order, and every row comes exactly once
            per_worker = {}
            for thread, tau in rows:
                per_worker.setdefault(thread, []).append(tau)
            runs = sorted((np.concatenate(taus) for taus in per_worker.values()), key=lambda run: run[0])
            assert len(runs) == verify._workers(grid.n_tau * grid.n_phi)
            assert np.array_equal(np.concatenate(runs), axis)
            rows.clear()

        monkeypatch.setattr(verify, "_grid_pairs", spy)
        scan_extrema(0.5, grid)
        assert_each_row_once()
        # a multi-order pass runs the stage once per chunk, not once per order
        scan_orders([0.5, 1.0, 4.0], grid)
        assert_each_row_once()

    # Each order's z term, one value per row, comes first, one kernel call per
    # scan; then the order-independent stage runs once per chunk, and the pair
    # kernel twice per chunk and order (x-, y-term), the blocks' calls counted
    # here.  An 11x11 grid is one chunk by default, whose x-term is the
    # blocks' call 0 in a one-order scan; a 33-point budget makes 3-row
    # chunks, and call 6 is the x-term of the fourth, rows 9 and 10.  A NaN
    # is caught by both argmin and argmax, -inf by argmin and +inf by argmax.
    @pytest.mark.parametrize(
        "budget,call,row,bad",
        [
            (verify._CHUNK_POINTS, 0, 7, math.nan),
            (33, 6, 1, math.nan),
            (verify._CHUNK_POINTS, 0, 7, -math.inf),
            (verify._CHUNK_POINTS, 0, 7, math.inf),
        ],
    )
    def test_nonfinite_value_raises(self, monkeypatch, capsys, budget, call, row, bad):
        real = verify._pair_entropy_into
        calls = []

        def inject(p, m, alpha, out):
            out = real(p, m, alpha, out)
            if out.ndim == 2:  # a block's x- or y-term, not the per-row z term
                if len(calls) == call:
                    out[row, 5] = bad
                calls.append(None)
            return out

        exhaustive(monkeypatch)  # the calls counted are the blocks'
        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        # the chunk's first row, then the row within it
        grid_row = min(budget // 11, 11) * (call // 2) + row
        point = f"(tau, phi) = ({float(axis[grid_row])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=0.5") as info:
            scan_extrema(0.5, GridSpec(11, 11))
        assert point in str(info.value)

        calls.clear()
        assert main(["verify", "0.5", "--grid", "11"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert point in err

    def test_nonfinite_value_in_second_order_raises(self, monkeypatch, capsys):
        # in a pass over orders (0.5, 2.0) calls 0 and 1 are the z terms and
        # call 4 is the x-term of the second order in the first chunk; the
        # first order's values stay finite
        real = verify._pair_entropy_into
        calls = []

        def inject(p, m, alpha, out):
            out = real(p, m, alpha, out)
            if len(calls) == 4:
                out[7, 5] = math.nan
            calls.append(alpha.alpha)
            return out

        exhaustive(monkeypatch)  # the calls counted are the blocks'
        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        point = f"(tau, phi) = ({float(axis[7])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=2.0") as info:
            scan_orders([0.5, 2.0], GridSpec(11, 11))
        assert point in str(info.value)
        assert calls == [0.5, 2.0] + [0.5] * 2 + [2.0] * 2

        calls.clear()
        assert main(["verify", "0.5,2", "--grid", "11"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha=2.0" in err and point in err

    @pytest.mark.parametrize(
        "n,row,prune",
        [(11, 7, False), (801, "subgrid", True), (801, "between", True)],
    )
    def test_nonfinite_z_term_reports_its_rows_first_point(self, monkeypatch, capsys, n, row, prune):
        # computing a z term raises nothing: a NaN in one is reported where the
        # scan first sums it, at the first grid point of its row that the order
        # evaluates.  Every tile of the constant order 2.0 is kept, so that is
        # column 0, in the incumbent subgrid for a subgrid row and in a block
        # for a row between two subgrid rows
        axis = np.linspace(0.0, QUARTER_PI, n)
        if prune:
            rows, _ = verify._subgrid(axis, axis)
            row = int(rows[3]) + (row == "between")
        else:
            exhaustive(monkeypatch)
        real = verify._pair_entropy_into
        calls = []

        def inject(p, m, alpha, out):
            out = real(p, m, alpha, out)
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
    assert_same_bits(verify._clipped_pairs(np.array([s])), [clipped_half(np.array([s]))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tau=st.floats(min_value=0.0, max_value=math.pi / 2.0), c=unit, d=unit)
def test_stage_product_is_bitwise_clipped_half(tau, c, d):
    # any cos_phi, sin_phi values in [-1, 1], tiny and subnormal products included
    t, cos_phi, sin_phi = np.array([tau]), np.array([c]), np.array([d])
    assert_same_bits(grid_pairs(t, cos_phi, sin_phi), clipped_half_stage(t, cos_phi, sin_phi))


def test_half_form_edge_values():
    # beyond +-1 the clip of the components gives the deterministic pair, as
    # clipping the probabilities did; NaN stays NaN with the same bits
    edges = np.array([0.0, -0.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 1.5, -1.5, 5e-324, math.nan])
    assert_same_bits(verify._clipped_pairs(edges), [clipped_half(edges)])


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


class TestFullDomainConsistency:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_reduction_is_faithful(self, alpha):
        # unfolds to 501 x 1001 points over the full domain
        assert scan_full_domain_consistency(alpha, GridSpec(251, 126))

    def test_D_is_the_full_grids_leading_block(self, monkeypatch):
        # verify's full-domain shape: the 251x251 grid on D unfolds to 501x2001
        # points; one full scan, then one scan of its leading 251x251 block; the
        # symmetry maps send every full-grid point onto a block point, so the
        # extrema agree to rounding, far inside (2h)^2
        calls = []

        def spy(alphas, tau_grid, phi_grid):
            out = scan(alphas, tau_grid, phi_grid)
            calls.append((tau_grid, phi_grid, out))
            return out

        scan = verify._scan_rectangle
        monkeypatch.setattr(verify, "_scan_rectangle", spy)
        assert full_domain_orders(TEN_ORDERS, GridSpec(251, 251)) == [True] * len(TEN_ORDERS)
        assert len(calls) == 2
        (tau_full, phi_full, full), (tau_d, phi_d, reduced) = calls
        assert (len(tau_full), len(phi_full)) == (501, 2001)
        assert tau_full[-1] == pytest.approx(math.pi / 2, abs=1e-15)
        assert phi_full[-1] == pytest.approx(2 * math.pi, abs=1e-15)
        for block, axis in ((tau_d, tau_full), (phi_d, phi_full)):
            assert np.shares_memory(block, axis) and np.array_equal(block, axis[:251])
            assert block[-1] == pytest.approx(QUARTER_PI, abs=1e-15)
        for (mn_f, _, mx_f, _, _), (mn_d, _, mx_d, _, _) in zip(full, reduced):
            assert abs(mn_f - mn_d) <= 1e-12 and abs(mx_f - mx_d) <= 1e-12

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
        # no order, no grid work
        monkeypatch.setattr(verify, "_grid_pairs", None)
        assert scan_orders([], grid) == [] and full_domain_orders([], grid) == []

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


# A 401x401 grid engages a helper thread wherever two CPUs are usable: its
# 5 blocks of 81 rows split into runs of 2 blocks (rows 0-161, the caller's)
# and 3 blocks (rows 162-400, the helper's).
WORKER_GRID = GridSpec(401, 401)
WORKER_ORDERS = (0.5, 1.0, 1.005, 2.5, 4.0)
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
        exhaustive(monkeypatch)  # the stage's arrays are the blocks' alone
        assert verify._MAX_WORKERS == 2
        for points in (2**17, 2001 * 2001, GridSpec.MAX_POINTS**2):
            assert verify._workers(points) == 2, points
        grid, workspaces, threads = GridSpec(6, 200_001), set(), set()
        real = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            base = out
            while base.base is not None:
                base = base.base
            workspaces.add((id(base), base.shape))
            threads.add(threading.current_thread())
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        scan_extrema(0.5, grid)
        assert {shape for _, shape in workspaces} == {(2, 7, grid.n_phi)}
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
        tau, phi = np.linspace(0.0, math.pi / 2.0, 201), np.linspace(0.0, 2.0 * math.pi, 801)
        n = len(phi)
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            extrema, consistent = verify._scan_rectangle(params, tau, phi), full_domain_orders(WORKER_ORDERS, grid)
            with monkeypatch.context() as m:
                one_worker(m)
                assert verify._scan_rectangle(params, tau, phi) == extrema, budget
                assert full_domain_orders(WORKER_ORDERS, grid) == consistent == [True] * len(params), budget

    def test_ties_keep_lowest_grid_point(self, monkeypatch):
        monkeypatch.setattr(verify, "_stage", constant_stage)
        for report in scan_orders([0.7, 1.0, 3.0], WORKER_GRID):
            assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
            assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "orders,bad_rows",
        [
            ((0.5,), {None: [300]}),  # the helper's run alone
            ((0.5,), {None: [100, 300]}),  # both runs: the caller's row wins
            ((0.5,), {None: [300, 170]}),  # two of the helper's blocks: the earlier wins
            ((0.5, 2.0), {2.0: [300]}),  # the second order, in the helper's run
            ((0.5, 2.0), {2.0: [100], 0.5: [300]}),  # the second order's earlier block wins
            ((0.5, 2.0), {2.0: [100], 0.5: [100]}),  # one point: the first order wins
        ],
    )
    def test_nonfinite_value_reports_the_first_in_grid_order(self, monkeypatch, orders, bad_rows):
        exhaustive(monkeypatch)  # column 5 of every row evaluated
        axis = np.linspace(0.0, QUARTER_PI, WORKER_GRID.n_tau)
        real_pairs, real_kernel = verify._grid_pairs, verify._pair_entropy_into
        block = threading.local()  # the rows of the block each thread is on

        def pairs(stage, r, c, out):
            block.rows = np.arange(WORKER_GRID.n_tau)[r]
            return real_pairs(stage, r, c, out)

        def kernel(p, m, alpha, out):
            values = real_kernel(p, m, alpha, out)
            rows = bad_rows.get(None, []) + bad_rows.get(alpha.alpha, [])
            if values.ndim > 1:  # the x and y terms, not the per-row z term
                values[np.isin(block.rows, rows), 5] = math.nan
            return values

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        with pytest.raises(ValueError) as threaded:
            scan_orders(orders, WORKER_GRID)
        with monkeypatch.context() as m:
            one_worker(m)
            with pytest.raises(ValueError) as alone:
                scan_orders(orders, WORKER_GRID)
        assert str(threaded.value) == str(alone.value)
        # the first bad value in grid order: the lowest row, then the order given first
        row, k = min((row, 0 if a is None else orders.index(a)) for a, rows in bad_rows.items() for row in rows)
        assert f"alpha={orders[k]!r}" in str(alone.value)
        assert f"(tau, phi) = ({float(axis[row])!r}, {float(axis[5])!r})" in str(alone.value)

    def test_more_workers_than_cores(self, monkeypatch):
        # eight runs on at most a few cores, threads switching as often as the
        # interpreter allows: every block's extrema still reach the merge
        with monkeypatch.context() as m:
            one_worker(m)
            reports = scan_orders(WORKER_ORDERS, WORKER_GRID)
        real, threads = verify._grid_pairs, set()

        def pairs(stage, rows, cols, out):
            threads.add(threading.current_thread())
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        monkeypatch.setattr(verify, "_workers", lambda points: 8)
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
            if threading.get_ident() == caller:
                failed.set()
                raise error("stop")
            helper_blocks.append(rows.start)
            assert failed.wait(timeout=30)
            time.sleep(0.1)  # the caller records its error meanwhile
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        with pytest.raises(error, match="stop"):
            scan_extrema(0.5, WORKER_GRID)
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
        if verify._workers(401 * 401) > 1:
            with pytest.raises(MemoryError, match="helper"):
                scan_extrema(0.5, WORKER_GRID)
        assert threading.active_count() == threads

    def test_helpers_run_under_the_callers_error_state(self, monkeypatch):
        real = verify._pair_entropy_into
        threads = set()

        def noisy(p, m, alpha, out):
            threads.add(threading.current_thread())
            np.log(np.zeros(1))  # a divide warning, an error under this suite's filters
            return real(p, m, alpha, out)

        expected = scan_extrema(0.5, WORKER_GRID)
        monkeypatch.setattr(verify, "_pair_entropy_into", noisy)
        with np.errstate(divide="ignore"):
            assert scan_extrema(0.5, WORKER_GRID) == expected
        assert len(threads) == verify._workers(401 * 401)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            scan_extrema(0.5, WORKER_GRID)

    @pytest.mark.parametrize("grid", [GridSpec(3, 3), GridSpec(11, 11), GridSpec(255, 257)], ids=str)
    def test_small_scans_stay_in_the_caller(self, monkeypatch, grid):
        # below 2**16 points, and refinement's 41 x 41 windows: no helper thread
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


# Every order of the CI pins of `pauli-tsallis verify`.
PINNED_ORDERS = (
    0.25, 0.5, 0.991, 0.9999999, 1.0, 1.0000001, 1.005, 1.009, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 10.0
)
# (tau end, n_tau, phi end, n_phi): grids on D, and the full-domain
# unfoldings of the 101^2 and 251^2 grids on D
PARITY_GRIDS = {
    "11x11": (QUARTER_PI, 11, QUARTER_PI, 11),
    "401x401": (QUARTER_PI, 401, QUARTER_PI, 401),
    "2001x2001": (QUARTER_PI, 2001, QUARTER_PI, 2001),
    "101x40001": (QUARTER_PI, 101, QUARTER_PI, 40001),
    "201x801 unfolded": (math.pi / 2.0, 201, 2.0 * math.pi, 801),
    "501x2001 unfolded": (math.pi / 2.0, 501, 2.0 * math.pi, 2001),
}


def pruning_everywhere(monkeypatch):
    """Scans of any size prune."""
    monkeypatch.setattr(verify, "_PRUNE_POINTS", 0)


class TestPruning:
    """Pruned scans skip tiles and report the exhaustive scan's extrema and witnesses."""

    @pytest.mark.parametrize("grid", PARITY_GRIDS)
    def test_pruned_scans_equal_the_exhaustive_scan(self, monkeypatch, grid):
        tau_end, n_tau, phi_end, n_phi = PARITY_GRIDS[grid]
        tau, phi = np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi)
        params = [verify.as_param(a) for a in PINNED_ORDERS]
        with monkeypatch.context() as m:
            exhaustive(m)
            expected = verify._scan_rectangle(params, tau, phi)
        assert [points for *_, points in expected] == [n_tau * n_phi] * len(params)
        pruning_everywhere(monkeypatch)
        counts = set()
        # chunk budgets as in test_chunking_does_not_change_result, one and two workers
        for budget in (1, n_phi - 1, n_phi, 7 * n_phi + 3):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            for workers in (1, 2):
                monkeypatch.setattr(verify, "_workers", lambda points, w=workers: w)
                pruned = verify._scan_rectangle(params, tau, phi)
                assert [r[:4] for r in pruned] == [r[:4] for r in expected], (budget, workers)
                counts.add(tuple(points for *_, points in pruned))
        # the points evaluated depend on the grid and the orders alone
        (points,) = counts
        assert all(0 < p <= n_tau * n_phi for p in points)
        # an infinite margin keeps every tile: the exhaustive scan's reports, points included
        monkeypatch.setattr(verify, "_PRUNE_MARGIN", math.inf)
        assert verify._scan_rectangle(params, tau, phi) == expected

    @pytest.mark.parametrize("grid", ["401x401", "201x801 unfolded"])
    def test_tile_bounds_hold_every_grid_sum(self, grid):
        # LB and UB bound each tile's grid sums within the rounding the margin covers
        tau_end, n_tau, phi_end, n_phi = PARITY_GRIDS[grid]
        tau, phi = np.linspace(0.0, tau_end, n_tau), np.linspace(0.0, phi_end, n_phi)
        stage = verify._stage(tau, phi)
        row_edges, col_edges = verify._tile_edges(tau, phi)
        assert row_edges[0] == col_edges[0] == 0 and (row_edges[-1], col_edges[-1]) == (n_tau, n_phi)
        ranges, tiles = verify._tile_ranges(stage, row_edges, col_edges), (len(row_edges) - 1, len(col_edges) - 1)
        pairs, bounds = grid_pairs(tau, stage[2], stage[3]), verify._bound_pairs(ranges, slice(None), np.empty((12, *tiles)))
        for alpha in PINNED_ORDERS:
            a = verify.as_param(alpha)
            values = pair_sums(pairs, a)
            lb, ub = pair_sums(bounds, a)
            per_tile = [
                reduce.reduceat(reduce.reduceat(values, row_edges[:-1], axis=0), col_edges[:-1], axis=1)
                for reduce in (np.minimum, np.maximum)
            ]
            assert np.all(per_tile[0] >= lb - 6e-14) and np.all(per_tile[1] <= ub + 6e-14), alpha

    def test_large_scans_prune(self):
        # below _PRUNE_POINTS a scan is exhaustive; on 2001^2 the sum is constant
        # at 2 (every tile kept) and each other order skips most of the grid
        assert [r.points_evaluated for r in scan_orders([0.5, 2.0], GridSpec(401, 401))] == [401 * 401] * 2
        grid = GridSpec(2001, 2001)
        low, constant, high = (r.points_evaluated for r in scan_orders([0.5, 2.0, 4.0], grid))
        assert constant == grid.n_tau * grid.n_phi
        assert low < high < constant / 4

    def test_ties_keep_lowest_grid_point(self, monkeypatch):
        # every grid point ties, so no tile is skipped and both extrema stay at (0, 0)
        monkeypatch.setattr(verify, "_stage", constant_stage)
        pruning_everywhere(monkeypatch)
        for budget in (1, 7 * 401 + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            for report in scan_orders([0.7, 1.0, 3.0], WORKER_GRID):
                assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
                assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)
                assert report.points_evaluated == 401 * 401

    @pytest.mark.parametrize("grid", [GridSpec(2001, 2001), GridSpec(101, 40001), GridSpec(3001, 3001)], ids=str)
    def test_workspace_stays_bounded(self, monkeypatch, grid):
        # a block is at least one row of tiles; a row of tiles holds at most
        # max(2**15, n_phi) points, so the workspace keeps the exhaustive bound
        real, workspaces = verify._grid_pairs, set()

        def pairs(stage, rows, cols, out):
            base = out
            while base.base is not None:
                base = base.base
            if base.ndim == 3 and base.shape[1] == 7:  # the workspace; test_scan_memory_stays_bounded takes the rest
                workspaces.add(base.shape)
            return real(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        scan_extrema(0.5, grid)
        ((workers, planes, size),) = workspaces
        assert workers * size <= max(verify._CHUNK_POINTS, verify._MAX_WORKERS * grid.n_phi)

    @pytest.mark.parametrize("grid", [GridSpec(4001, 4001), GridSpec(1001, 40001)], ids=str)
    def test_scan_memory_stays_bounded(self, monkeypatch, grid):
        # the bound pass works a chunk of subgrid rows or of rows of tiles at a
        # time, so a whole scan allocates at most the workspace bound of the
        # module docstring and a few vectors along the axes (5.7 and 15 MB
        # here); the tile bounds taken all at once raise the peak to 16 and 47 MB
        with monkeypatch.context() as m:
            pruning_everywhere(m)
            scan_extrema(0.5, GridSpec(41, 41))  # the pruned scan's first-use imports
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
        # percent at 0.5, and under 2**17 on 801^2 at 0.5, which stays in the caller
        real, asked, threads = verify._workers, [], set()
        real_pairs = verify._grid_pairs

        def pairs(stage, rows, cols, out):
            threads.add(threading.get_ident())
            return real_pairs(stage, rows, cols, out)

        monkeypatch.setattr(verify, "_workers", lambda points: asked.append(points) or real(points))
        monkeypatch.setattr(verify, "_grid_pairs", pairs)
        grid = GridSpec(2001, 2001)
        constant, low = (scan_extrema(a, grid).points_evaluated for a in (2.0, 0.5))
        assert asked[0] == constant == grid.n_tau * grid.n_phi
        assert asked[1] < low < constant / 10
        asked.clear()
        threads.clear()
        scan_extrema(0.5, GridSpec(801, 801))
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

    # A pruned scan's first kernel calls are its z terms, one per order, then
    # the bound pass's.  On 801^2 the incumbent subgrid is one chunk and the
    # tile bounds another: two calls per order for the subgrid's sums (x, y),
    # then two per order for the tile bounds (x, y; their z terms come from
    # pair_entropy), of shape (2, tile rows, tile columns), the lower bounds
    # first.
    @pytest.mark.parametrize("k,orders", [(0, (0.5, 2.0)), (1, (0.5, 2.0)), (0, (4.0,))])
    def test_nonfinite_incumbent_raises(self, monkeypatch, capsys, k, orders):
        axis = np.linspace(0.0, QUARTER_PI, 801)
        rows, cols = verify._subgrid(axis, axis)
        real = verify._pair_entropy_into
        calls = []

        def inject(p, m, alpha, out):
            out = real(p, m, alpha, out)
            if len(calls) == len(orders) + 2 * k:  # the x term of order k's subgrid sums
                out[3, 2] = math.nan
            calls.append(None)
            return out

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        point = f"(tau, phi) = ({float(axis[rows[3]])!r}, {float(axis[cols[2]])!r})"
        with pytest.raises(ValueError, match=f"alpha={orders[k]!r}") as info:
            scan_orders(orders, GridSpec(801, 801))
        assert "entropic sum is nan" in str(info.value) and point in str(info.value)

        calls.clear()
        assert main(["verify", ",".join(map(repr, orders)), "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha={orders[k]!r}" in err and point in err

    @pytest.mark.parametrize("k,orders,side,bad", [(0, (0.5, 2.0), 0, math.nan), (1, (0.5, 2.0), 1, math.inf)])
    def test_nonfinite_tile_bound_raises(self, monkeypatch, capsys, k, orders, side, bad):
        axis = np.linspace(0.0, QUARTER_PI, 801)
        row_edges, col_edges = verify._tile_edges(axis, axis)
        real = verify._pair_entropy_into
        calls = []

        def inject(p, m, alpha, out):
            out = real(p, m, alpha, out)
            if len(calls) == 3 * len(orders) + 2 * k:  # the x term of order k's tile bounds
                out[side, 4, 6] = bad
            calls.append(None)
            return out

        def point(i, j):
            return f"(tau, phi) = ({float(axis[i])!r}, {float(axis[j])!r})"

        monkeypatch.setattr(verify, "_pair_entropy_into", inject)
        tile = f"on the tile from {point(row_edges[4], col_edges[6])} to {point(row_edges[5] - 1, col_edges[7] - 1)}"
        with pytest.raises(ValueError, match=f"alpha={orders[k]!r}") as info:
            scan_orders(orders, GridSpec(801, 801))
        assert f"entropic sum bound is {bad!r}" in str(info.value) and tile in str(info.value)

        calls.clear()
        assert main(["verify", ",".join(map(repr, orders)), "--grid", "801"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha={orders[k]!r}" in err and tile in err


class TestKernelCalls:
    """Each order's z term is taken once per scan, and a block rectangle makes two kernel calls."""

    @pytest.mark.parametrize("grid", [GridSpec(401, 401), GridSpec(2001, 2001)], ids=str)
    def test_z_term_once_per_scan_and_two_calls_per_rectangle(self, monkeypatch, grid):
        # 401^2 is exhaustive, 2001^2 pruned; kernel calls and extrema on the
        # workspace's planes are the blocks', one extrema per rectangle
        orders = (0.5, 2.0, 4.0)
        real_kernel, real_extrema = verify._pair_entropy_into, verify._extrema
        kernel_calls, rectangles = [], []

        def in_workspace(a):
            while a.base is not None:
                a = a.base
            return a.ndim == 3 and a.shape[1] == 7

        def kernel(p, m, alpha, out):
            kernel_calls.append((alpha.alpha, out.shape, in_workspace(out)))
            return real_kernel(p, m, alpha, out)

        def extrema(values, alpha, where):
            rectangles.append(in_workspace(values))
            return real_extrema(values, alpha, where)

        monkeypatch.setattr(verify, "_pair_entropy_into", kernel)
        monkeypatch.setattr(verify, "_extrema", extrema)
        scan_orders(orders, grid)
        z_terms = [(a, (2, grid.n_tau), False) for a in orders]
        assert kernel_calls[: len(orders)] == z_terms
        assert sum(shape == (2, grid.n_tau) for _, shape, _ in kernel_calls) == len(orders)
        blocks = sum(block for *_, block in kernel_calls)
        assert blocks == 2 * sum(rectangles) > 0


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
        assert report.points_evaluated == 2001 * 2001


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
        ((p, m),) = verify._clipped_pairs(np.array([1.0 + 2.0**-52]))
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
    def test_count_is_checked(self, sample):
        # numpy's own errors here named no argument
        with pytest.raises(TypeError, match="n must be an integer"):
            sample(2.5)
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            sample(-1)
        assert sample(0).shape == (0, 3)
        assert sample(np.int64(4)).shape == (4, 3)

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
