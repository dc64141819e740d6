"""State model: probability formulas, symmetry folding, witnesses."""

import math

import numpy as np
import pytest

from pauli_tsallis import (
    BlochVector,
    MeasurementTriple,
    PureStateAngles,
    bloch_from_angles,
    canonicalize_to_D,
    eigenstate_witnesses,
    entropic_sum,
    measurement_triple,
    probs_from_bloch,
    tsallis_entropy,
)

QUARTER_PI = math.pi / 4.0
TAU_STAR = math.atan(math.sqrt(2.0)) / 2.0


def pairs_of(triple: MeasurementTriple):
    return [(pair.p_plus, pair.p_minus) for pair in triple.pairs()]


class TestPureStateAngles:
    def test_phi_wraps_modulo_two_pi(self):
        assert PureStateAngles(0.1, 2.0 * math.pi + 0.3).phi == pytest.approx(0.3, abs=1e-12)
        assert PureStateAngles(0.1, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5, abs=1e-12)
        assert 0.0 <= PureStateAngles(0.1, -1e-18).phi < 2.0 * math.pi

    def test_tau_clamped_within_tolerance(self):
        assert PureStateAngles(-1e-13, 0.0).tau == 0.0
        assert PureStateAngles(math.pi / 2 + 1e-13, 0.0).tau == math.pi / 2

    @pytest.mark.parametrize("tau", [-0.1, math.pi / 2 + 0.1, math.nan])
    def test_tau_out_of_range_rejected(self, tau):
        with pytest.raises(ValueError):
            PureStateAngles(tau, 0.0)


class TestBlochVector:
    def test_norm_accessors(self):
        b = BlochVector(0.6, 0.0, 0.8)
        assert b.norm_sq == pytest.approx(1.0, abs=1e-15)
        assert b.is_pure()
        assert not BlochVector(0.3, 0.0, 0.0).is_pure()

    def test_mixed_allowed_pure_excess_rejected(self):
        BlochVector(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BlochVector(math.inf, 0.0, 0.0)


class TestProbsFromAngles:
    def test_sigma_z_eigenstate(self):
        triple = measurement_triple(PureStateAngles(0.0, 0.0))
        assert pairs_of(triple) == [(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)]

    def test_phi_zero_line(self):
        triple = measurement_triple(PureStateAngles(math.pi / 4, 0.0))
        px, qy, rz = pairs_of(triple)
        assert px == (1.0, 0.0)
        assert qy == (0.5, 0.5)
        assert rz[0] == pytest.approx(0.5, abs=1e-15)
        assert rz[1] == pytest.approx(0.5, abs=1e-15)

    def test_maximizer_state_yields_identical_pairs(self):
        triple = measurement_triple(PureStateAngles(TAU_STAR, QUARTER_PI))
        expected_plus = (1.0 + 1.0 / math.sqrt(3.0)) / 2.0
        for plus, minus in pairs_of(triple):
            assert plus == pytest.approx(expected_plus, abs=1e-15)
            assert minus == pytest.approx(1.0 - expected_plus, abs=1e-15)


class TestProbsFromBloch:
    def test_completely_mixed(self):
        triple = probs_from_bloch(BlochVector(0.0, 0.0, 0.0))
        assert pairs_of(triple) == [(0.5, 0.5)] * 3

    def test_sigma_x_eigenstate(self):
        triple = probs_from_bloch(BlochVector(1.0, 0.0, 0.0))
        assert pairs_of(triple) == [(1.0, 0.0), (0.5, 0.5), (0.5, 0.5)]

    def test_born_rule_components(self):
        triple = probs_from_bloch(BlochVector(0.6, 0.0, 0.8))
        px, qy, rz = pairs_of(triple)
        assert px == pytest.approx((0.8, 0.2), abs=1e-15)
        assert qy == (0.5, 0.5)
        assert rz == pytest.approx((0.9, 0.1), abs=1e-15)

    def test_agrees_with_angle_route(self):
        # same state: tau = arccos(0.8)/2 on the phi = 0 meridian
        state = PureStateAngles(math.acos(0.8) / 2.0, 0.0)
        via_angles = pairs_of(measurement_triple(state))
        via_bloch = pairs_of(probs_from_bloch(BlochVector(0.6, 0.0, 0.8)))
        for a, b in zip(via_angles, via_bloch):
            assert a == pytest.approx(b, abs=1e-14)


def test_bloch_and_angle_routes_agree_on_random_states():
    rng = np.random.default_rng(2024)
    taus = rng.uniform(0.0, math.pi / 2.0, size=10_000)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    for tau, phi in zip(taus, phis):
        state = PureStateAngles(tau, phi)
        direct = measurement_triple(state)
        via_bloch = probs_from_bloch(bloch_from_angles(state))
        for a, b in zip(direct.pairs(), via_bloch.pairs()):
            assert abs(a.p_plus - b.p_plus) <= 1e-14
            assert abs(a.p_minus - b.p_minus) <= 1e-14
            assert abs(a.p_plus + a.p_minus - 1.0) <= 1e-14


def test_closed_forms_match_explicit_eigenvector_overlaps():
    # Independent route: build |psi> and the eigenvectors of the three
    # observables explicitly and compute |<eigvec|psi>|^2 directly.
    x_plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    x_minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    y_plus = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    y_minus = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    z_plus = np.array([1.0, 0.0])
    z_minus = np.array([0.0, 1.0])
    rng = np.random.default_rng(13)
    for _ in range(300):
        tau = rng.uniform(0.0, math.pi / 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        psi = np.array([math.cos(tau), np.exp(1.0j * phi) * math.sin(tau)])
        triple = measurement_triple(PureStateAngles(tau, phi))
        for pair, (plus, minus) in zip(
            triple.pairs(), ((x_plus, x_minus), (y_plus, y_minus), (z_plus, z_minus))
        ):
            assert pair.p_plus == pytest.approx(abs(np.vdot(plus, psi)) ** 2, abs=1e-14)
            assert pair.p_minus == pytest.approx(abs(np.vdot(minus, psi)) ** 2, abs=1e-14)


def test_pure_source_direction_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
        assert bloch_from_angles(state).norm_sq == pytest.approx(1.0, abs=1e-10)
        # the outcome asymmetries p_plus - p_minus are the Bloch components
        asymmetries = [pair.p_plus - pair.p_minus for pair in measurement_triple(state).pairs()]
        assert sum(d * d for d in asymmetries) == pytest.approx(1.0, abs=1e-10)


class TestCanonicalize:
    def test_tau_fold(self):
        out = canonicalize_to_D(PureStateAngles(math.pi / 3, 0.0))
        assert out.tau == pytest.approx(math.pi / 6, abs=1e-15)
        assert out.phi == 0.0

    def test_phi_fold(self):
        out = canonicalize_to_D(PureStateAngles(math.pi / 8, 3 * math.pi / 8))
        assert out.tau == math.pi / 8
        assert out.phi == pytest.approx(math.pi / 8, abs=1e-15)

    def test_boundary_fixed(self):
        state = PureStateAngles(QUARTER_PI, QUARTER_PI)
        out = canonicalize_to_D(state)
        assert (out.tau, out.phi) == (state.tau, state.phi)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            once = canonicalize_to_D(state)
            twice = canonicalize_to_D(once)
            assert (twice.tau, twice.phi) == (once.tau, once.phi)

    def test_lands_in_D(self):
        rng = np.random.default_rng(100)
        for _ in range(500):
            out = canonicalize_to_D(
                PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            )
            assert 0.0 <= out.tau <= QUARTER_PI
            assert 0.0 <= out.phi <= QUARTER_PI

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.7, 5.0])
    def test_entropy_multiset_invariant(self, alpha):
        rng = np.random.default_rng(42)
        for _ in range(300):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            folded = canonicalize_to_D(state)
            original = sorted(
                tsallis_entropy(p, alpha) for p in measurement_triple(state).pairs()
            )
            canonical = sorted(
                tsallis_entropy(p, alpha) for p in measurement_triple(folded).pairs()
            )
            for a, b in zip(original, canonical):
                assert abs(a - b) <= 1e-12
            assert abs(entropic_sum(folded, alpha) - entropic_sum(state, alpha)) <= 1e-12


class TestEigenstateWitnesses:
    def test_six_axis_states(self):
        witnesses = eigenstate_witnesses()
        assert len(witnesses) == 6
        vectors = {(w.b_x, w.b_y, w.b_z) for w in witnesses}
        assert vectors == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }

    def test_one_deterministic_two_equiprobable(self):
        for witness in eigenstate_witnesses():
            pairs = pairs_of(probs_from_bloch(witness))
            deterministic = [p for p in pairs if p in ((1.0, 0.0), (0.0, 1.0))]
            equiprobable = [p for p in pairs if p == (0.5, 0.5)]
            assert len(deterministic) == 1
            assert len(equiprobable) == 2

    def test_entropic_sum_is_two_ln_two(self):
        for witness in eigenstate_witnesses():
            assert entropic_sum(witness, 1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)


def test_bloch_from_angles_ordering_in_D():
    rng = np.random.default_rng(11)
    for _ in range(500):
        state = PureStateAngles(rng.uniform(0, QUARTER_PI), rng.uniform(0, QUARTER_PI))
        b = bloch_from_angles(state)
        assert 0.0 <= b.b_y <= b.b_x + 1e-15
        assert b.b_x <= 1.0
