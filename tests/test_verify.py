"""Brute-force oracle: scans, certification, property checks."""

import dataclasses
import math

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
                assert_same_bits(verify._grid_pairs(t, cos_phi, sin_phi), clipped_half_stage(t, cos_phi, sin_phi))

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
    assert_same_bits(verify._grid_pairs(t, cos_phi, sin_phi), clipped_half_stage(t, cos_phi, sin_phi))


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
        for (mn_f, _, mx_f, _), (mn_d, _, mx_d, _) in zip(full, reduced):
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


class TestSquaredIntegerOrders:
    """Scans at integer orders whose p^n comes from repeated squaring."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12, 16])
    def test_witnesses_match_pow_reference(self, monkeypatch, n):
        grid = GridSpec(401, 401)
        report = scan_extrema(n, grid)
        monkeypatch.setattr(entropy, "_power", lambda x, a: x ** a)
        reference = scan_extrema(n, grid)
        assert (report.argmin, report.argmax) == (reference.argmin, reference.argmax)
        assert report.min_value == reference.min_value  # the eigenstate corners are exact
        assert abs(report.max_value - reference.max_value) <= 4 * math.ulp(reference.max_value)

    def test_grid_values_within_a_few_ulps_of_pow(self, monkeypatch):
        tau = np.linspace(0.0, QUARTER_PI, 401)
        pairs = verify._grid_pairs(tau, np.cos(tau), np.sin(tau))
        orders = [n for n in range(4, 65) if entropy._squaring_bits(float(n)) is not None]
        chained = [verify._pair_sums(pairs, entropy.TsallisParam(n)) for n in orders]
        monkeypatch.setattr(entropy, "_power", lambda x, a: x ** a)
        for n, values in zip(orders, chained):
            reference = verify._pair_sums(pairs, entropy.TsallisParam(n))
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
