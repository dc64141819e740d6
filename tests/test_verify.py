"""Brute-force oracle: scans, certification, property checks."""

import math

import numpy as np
import pytest

import pauli_tsallis.verify as verify
from pauli_tsallis.cli import main
from pauli_tsallis import (
    BlochVector,
    GridSpec,
    PureStateAngles,
    certify_equality_conditions,
    check_alpha_concavity,
    check_kernel_monotonicity,
    entropic_sum,
    g_sum,
    h_tilde,
    lower_bound,
    probs_from_bloch,
    refined_maximum,
    sample_mixed_states,
    sample_pure_states,
    full_domain_orders,
    scan_extrema,
    scan_full_domain_consistency,
    scan_orders,
    upper_bound_mixed,
)

QUARTER_PI = math.pi / 4.0
TAU_STAR = math.atan(math.sqrt(2.0)) / 2.0
# every kernel branch: pow below and above 1, either side of the expm1 window,
# Shannon, integer and non-integer pow
TEN_ORDERS = (0.25, 0.5, 0.999, 1.0, 1.005, 2.0, 2.5, 4.0, 7.3, 10.0)


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
        assert value == pytest.approx(upper_bound_mixed(3.0), abs=1e-15)

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
        assert report.min_gap == pytest.approx(0.0, abs=1e-12)

    def test_order_half_attains_bound_exactly_on_grid(self):
        report = scan_extrema(0.5, GridSpec(101, 101))
        assert abs(report.min_value - report.analytic_lower) <= 1e-12

    def test_max_approaches_pure_upper(self):
        report = scan_extrema(1.0, GridSpec(501, 501))
        h = QUARTER_PI / 500
        assert -1e-12 <= report.max_gap <= 10.0 * h * h

    def test_vectorized_grid_agrees_with_scalar_sum(self):
        rng = np.random.default_rng(17)
        taus = rng.uniform(0.0, QUARTER_PI, 5)
        phis = rng.uniform(0.0, QUARTER_PI, 5)
        # the order-independent stage once, shared by every order below
        pairs = verify._grid_pairs(taus, np.cos(phis), np.sin(phis))
        # pow, Shannon, expm1 and integer-pow kernel branches, z-term per row included
        for alpha in (0.5, 1.0, 1.005, 3.3, 4.0):
            a = verify.as_param(alpha)
            block = verify._pair_sums(pairs, a)
            for i, tau in enumerate(taus):
                for j, phi_v in enumerate(phis):
                    scalar = entropic_sum(PureStateAngles(float(tau), float(phi_v)), alpha)
                    # exact: one kernel, and numpy's float64 sin/cos match math's
                    assert block[i, j] == scalar

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

        def constant(tau, cos_phi, sin_phi):
            half = np.full((tau.size, cos_phi.size), 0.5)
            return [(half, half), (half, half), (half[:, :1], half[:, :1])]

        monkeypatch.setattr(verify, "_grid_pairs", constant)
        grid = GridSpec(157, 83)
        for report in [scan_extrema(0.7, grid), *scan_orders([0.7, 1.0, 3.0], grid)]:
            assert (report.argmin.tau, report.argmin.phi) == (0.0, 0.0)
            assert (report.argmax.tau, report.argmax.phi) == (0.0, 0.0)

    def test_chunks_stay_within_point_budget(self, monkeypatch):
        grid = GridSpec(101, 40001)
        real = verify._grid_pairs
        rows = []

        def spy(tau, cos_phi, sin_phi):
            assert tau.size * cos_phi.size <= max(grid.n_phi, verify._CHUNK_POINTS)
            rows.append(tau)
            return real(tau, cos_phi, sin_phi)

        monkeypatch.setattr(verify, "_grid_pairs", spy)
        scan_extrema(0.5, grid)
        # whole rows in grid order, each row once
        assert np.array_equal(np.concatenate(rows), np.linspace(0.0, QUARTER_PI, grid.n_tau))
        # a multi-order pass runs the stage once per chunk, not once per order
        rows.clear()
        scan_orders([0.5, 1.0, 4.0], grid)
        assert np.array_equal(np.concatenate(rows), np.linspace(0.0, QUARTER_PI, grid.n_tau))

    # The order-independent stage runs once per chunk, then pair_entropy three
    # times per chunk and order (x-, y-, z-term).  An 11x11 grid is one chunk
    # by default; a 33-point budget makes 3-row chunks, so row 7 is row 1 of
    # the third chunk, whose x-term is call 6 of a one-order scan.  A NaN is
    # caught by both argmin and argmax, -inf by argmin and +inf by argmax.
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
        real = verify.pair_entropy
        calls = []

        def inject(p, m, alpha):
            out = real(p, m, alpha)
            if len(calls) == call:
                out[row, 5] = bad
            calls.append(None)
            return out

        monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
        monkeypatch.setattr(verify, "pair_entropy", inject)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        point = f"(tau, phi) = ({float(axis[7])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=0.5") as info:
            scan_extrema(0.5, GridSpec(11, 11))
        assert point in str(info.value)

        calls.clear()
        assert main(["verify", "0.5", "--grid", "11"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert point in err

    def test_nonfinite_value_in_second_order_raises(self, monkeypatch, capsys):
        # in a pass over orders (0.5, 2.0) call 3 is the x-term of the second
        # order in the first chunk; the first order's values stay finite
        real = verify.pair_entropy
        calls = []

        def inject(p, m, alpha):
            out = real(p, m, alpha)
            if len(calls) == 3:
                out[7, 5] = math.nan
            calls.append(alpha.alpha)
            return out

        monkeypatch.setattr(verify, "pair_entropy", inject)
        axis = np.linspace(0.0, QUARTER_PI, 11)
        point = f"(tau, phi) = ({float(axis[7])!r}, {float(axis[5])!r})"
        with pytest.raises(ValueError, match="alpha=2.0") as info:
            scan_orders([0.5, 2.0], GridSpec(11, 11))
        assert point in str(info.value)
        assert calls == [0.5] * 3 + [2.0] * 3

        calls.clear()
        assert main(["verify", "0.5,2", "--grid", "11"]) == 3
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


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
def test_scan_minimum_never_undercuts_lower_bound(alpha):
    report = scan_extrema(alpha, GridSpec(501, 501))
    low, tight = lower_bound(alpha)
    assert report.min_value >= low - 1e-12
    if tight:
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
        assert scan_full_domain_consistency(alpha, GridSpec(501, 1001))


class TestScanOrders:
    def test_reports_match_single_order_scans(self, monkeypatch):
        grid, full = GridSpec(157, 83), GridSpec(41, 161)
        reports = [scan_extrema(a, grid) for a in TEN_ORDERS]
        consistent = [scan_full_domain_consistency(a, full) for a in TEN_ORDERS]
        assert all(consistent)
        # chunk budgets as in test_chunking_does_not_change_result
        n = grid.n_phi
        for budget in (1, n - 1, n, 7 * n + 3, verify._CHUNK_POINTS):
            monkeypatch.setattr(verify, "_CHUNK_POINTS", budget)
            assert scan_orders(TEN_ORDERS, grid) == reports, budget
            assert full_domain_orders(TEN_ORDERS, full) == consistent, budget

    def test_reports_follow_the_given_order(self, monkeypatch):
        grid = GridSpec(41, 41)
        orders = [4.0, 0.5, 4.0, 1.0]
        reports = scan_orders(orders, grid)
        assert [r.alpha.alpha for r in reports] == orders
        assert reports[0] == reports[2] == scan_extrema(4.0, grid)
        # no order, no grid work
        monkeypatch.setattr(verify, "_grid_pairs", None)
        assert scan_orders([], grid) == [] and full_domain_orders([], grid) == []


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


class TestCertificationCanFail:
    """Each case breaks one clause of the certificate while the others still hold."""

    @staticmethod
    def shift(monkeypatch, name, delta):
        real = getattr(verify, name)
        if name == "lower_bound":
            monkeypatch.setattr(verify, name, lambda a: (real(a)[0] + delta, real(a)[1]))
        else:
            monkeypatch.setattr(verify, name, lambda a: real(a) + delta)

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
        self.shift(monkeypatch, "lower_bound", delta)
        assert not certify_equality_conditions(0.5, tolerance=1e-12, n_samples=2000)

    def test_sample_not_strictly_above(self, monkeypatch):
        # (b), strict branch: with the bound 1e-9 high and a 1e-8 tolerance the
        # eigenstates still certify; a sampled eigenstate then sits below the bound
        self.shift(monkeypatch, "lower_bound", 1e-9)
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
        # (c): only the maximizer check reads h_tilde
        self.shift(monkeypatch, "h_tilde", delta)
        assert not certify_equality_conditions(alpha, tolerance=1e-12, n_samples=2000)


class TestKernelMonotonicityCheck:
    def test_f_half(self):
        assert check_kernel_monotonicity("f", 0.5, 10_000)

    def test_f_shannon(self):
        assert check_kernel_monotonicity("f", 1.0, 2_000)

    def test_g_constant_order(self):
        assert check_kernel_monotonicity("g", 3, 500)

    def test_g_order_seven_strict(self):
        assert check_kernel_monotonicity("g", 7, 10_000)

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

    @pytest.mark.parametrize("n_points", [0, 1, 2])
    def test_too_few_points_raises(self, n_points):
        # fewer than 3 points leave no interior point; it used to pass vacuously
        with pytest.raises(ValueError, match="n_points"):
            check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, n_points)
        assert check_alpha_concavity(PureStateAngles(0.3, 0.4), 1.0, 3.0, 3)


class TestEmpiricalUpperPure:
    """The grid maximum, the only pure-state upper information at non-integer alpha > 1."""

    def test_constant_order(self):
        assert scan_extrema(2.0, GridSpec(101, 101)).max_value == pytest.approx(1.0, abs=1e-12)

    def test_noninteger_order_stays_between_bounds(self):
        value = scan_extrema(2.5, GridSpec(301, 301)).max_value
        low, _ = lower_bound(2.5)
        assert low < value < upper_bound_mixed(2.5)


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
        low, _ = lower_bound(1.0)
        for t in np.linspace(0.011, 0.989, 50):
            assert entropic_sum(BlochVector(float(t), 0.0, 0.0), 1.0) > low + 1e-6

    def test_constancy_spread_orders_two_three(self):
        b = sample_pure_states(2000, seed=44)
        for alpha, value in ((2.0, 1.0), (3.0, 0.75)):
            sums = verify._entropic_sums(b[:, 0], b[:, 1], b[:, 2], verify.as_param(alpha))
            assert np.max(sums) - np.min(sums) <= 1e-12
            assert np.max(np.abs(sums - value)) <= 1e-12
