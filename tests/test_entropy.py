"""Scalar entropy machinery: frozen oracle values and invariants.

Expected values for derived cases were computed with an independent
extended-precision oracle (mpmath at 50 digits, evaluating the defining
formulas directly); the oracle is kept in this file and re-checked, so a
transcription error in either the library or the frozen constants would
surface.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_tsallis import (
    ProbPair,
    TsallisParam,
    alpha_log,
    as_param,
    h_alpha,
    pair_entropy,
    phi,
    tsallis_entropy,
)
from pauli_tsallis import entropy
from pauli_tsallis.entropy import EXPM1_WINDOW

mp.mp.dps = 50


def oracle_alpha_log(u, a):
    u, a = mp.mpf(u), mp.mpf(a)
    if a == 1:
        return mp.log(u)
    return (u ** (1 - a) - 1) / (1 - a)


def oracle_h(u, a):
    u, a = mp.mpf(u), mp.mpf(a)
    if u == 0 or u == 1:
        return mp.mpf(0)
    if a == 1:
        return -u * mp.log(u)
    return (u ** a - u) / (1 - a)


ALPHAS = [0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0]


class TestTsallisParam:
    def test_shannon_flag_tracks_alpha(self):
        assert TsallisParam(1.0).is_shannon
        assert TsallisParam(1).is_shannon
        assert not TsallisParam(1.0 + 1e-15).is_shannon
        assert not TsallisParam(0.5).is_shannon

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300, math.nan, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            TsallisParam(bad)

    def test_int_beyond_float_range_is_value_error(self):
        # float(10**400) raises OverflowError; the order is still just not a positive real
        with pytest.raises(ValueError, match="entropic order must be a positive real"):
            TsallisParam(10**400)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TsallisParam(2.0).alpha = 3.0

    def test_as_param_passthrough(self):
        p = TsallisParam(2.0)
        assert as_param(p) is p
        assert as_param(2.0) == p


class TestProbPair:
    def test_clamps_rounding_excursions(self):
        pair = ProbPair(1.0 + 5e-13, -5e-13)
        assert pair.p_plus == 1.0
        assert pair.p_minus == 0.0

    def test_rejects_large_excursions(self):
        with pytest.raises(ValueError):
            ProbPair(1.1, -0.1)
        with pytest.raises(ValueError):
            ProbPair(-0.01, 1.01)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbPair(0.6, 0.5)

    def test_complement_pair(self):
        pair = ProbPair(0.3, 1.0 - 0.3)
        assert (pair.p_plus, pair.p_minus) == (0.3, 0.7)


class TestAlphaLog:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_log_of_one_is_zero(self, alpha):
        assert alpha_log(1.0, alpha) == 0.0

    def test_shannon_branch(self):
        assert alpha_log(2.0, 1.0) == math.log(2.0)

    def test_value_at_two_order_two(self):
        # (2^-1 - 1)/(-1) = 1/2
        assert alpha_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert alpha_log(2.0, 2.0) == pytest.approx(float(oracle_alpha_log(2, 2)), abs=1e-16)

    @pytest.mark.parametrize("u", [1e-9, 0.1, 0.5, 2.0, 7.3])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_oracle(self, u, alpha):
        expected = float(oracle_alpha_log(u, alpha))
        assert alpha_log(u, alpha) == pytest.approx(expected, rel=5e-15, abs=5e-15)

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_domain_error(self, u):
        with pytest.raises(ValueError):
            alpha_log(u, 2.0)


class TestHAlpha:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exact_zeros_at_endpoints(self, alpha):
        assert h_alpha(0.0, alpha) == 0.0
        assert h_alpha(1.0, alpha) == 0.0

    def test_half_shannon(self):
        assert h_alpha(0.5, 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-16)

    def test_half_order_two(self):
        # ((1/4) - (1/2))/(-1) = 1/4
        assert h_alpha(0.5, 2.0) == pytest.approx(0.25, abs=1e-15)
        assert h_alpha(0.5, 2.0) == pytest.approx(float(oracle_h(0.5, 2)), abs=1e-16)

    @pytest.mark.parametrize("u", [1e-12, 1e-3, 0.1, 0.25, 0.5, 0.9, 1.0 - 1e-9])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_oracle(self, u, alpha):
        expected = float(oracle_h(u, alpha))
        assert h_alpha(u, alpha) == pytest.approx(expected, rel=5e-15, abs=5e-15)

    @pytest.mark.parametrize("u", [-0.1, 1.1, math.nan])  # NaN fails every comparison
    def test_domain_error(self, u):
        with pytest.raises(ValueError, match=r"u in \[0, 1\]"):
            h_alpha(u, 0.5)


class TestTsallisEntropy:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_deterministic_is_zero(self, alpha):
        assert tsallis_entropy(ProbPair(1.0, 0.0), alpha) == 0.0
        assert tsallis_entropy((0.0, 1.0), alpha) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equiprobable_attains_alpha_log2(self, alpha):
        value = tsallis_entropy((0.5, 0.5), alpha)
        assert value == pytest.approx(alpha_log(2.0, alpha), abs=1e-15)

    def test_maximizer_pair_order_two(self):
        s = 1.0 / math.sqrt(3.0)
        value = tsallis_entropy(((1.0 + s) / 2.0, (1.0 - s) / 2.0), 2.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-15)


class TestScalarMatchesKernel:
    """The scalar API is pair_entropy itself, so it equals grid values exactly.

    Equality is float equality: the scalar functions return 0.0 where the
    kernel gives -0.0 (a deterministic pair), which compares equal.
    """

    @pytest.mark.parametrize("alpha", [1e-6, 0.3, 0.99, 1.0, 1.005, 1.0100001, 2.5, 4.0])
    def test_tsallis_entropy_equals_kernel(self, alpha):
        s = np.random.default_rng(29).uniform(-1.0, 1.0, 2000)
        s[:3] = (-1.0, 0.0, 1.0)
        p = np.clip((1.0 + s) / 2.0, 0.0, 1.0)
        m = np.clip((1.0 - s) / 2.0, 0.0, 1.0)
        grid = pair_entropy(p, m, TsallisParam(alpha))
        scalar = [tsallis_entropy((float(x), float(y)), alpha) for x, y in zip(p, m)]
        assert np.array_equal(np.array(scalar), grid)

    @pytest.mark.parametrize("alpha", [1e-6, 0.5, 1.0, 1.005, 3.7])
    def test_h_alpha_is_kernel_with_zero_partner(self, alpha):
        u = np.linspace(0.0, 1.0, 257)
        grid = pair_entropy(u, np.zeros_like(u), TsallisParam(alpha))
        assert np.array_equal(np.array([h_alpha(float(x), alpha) for x in u]), grid)

    @pytest.mark.parametrize("alpha", [1.0, 1.005])
    def test_log_branches_at_zero_and_nan(self, alpha):
        # 0.0 and -0.0 contribute nothing, and a NaN probability gives NaN
        p = np.array([0.0, -0.0, 1.0, math.nan])
        values = pair_entropy(p, np.array([1.0, 1.0, -0.0, 0.5]), TsallisParam(alpha))
        assert values[:3].tolist() == [0.0, 0.0, 0.0]
        assert math.isnan(values[3])

    def test_deterministic_pair_is_positive_zero(self):
        for alpha in (0.5, 1.0, 1.005, 2.0):
            assert math.copysign(1.0, tsallis_entropy((1.0, 0.0), alpha)) == 1.0
            assert math.copysign(1.0, h_alpha(1.0, alpha)) == 1.0


edge_orders = st.one_of(
    st.sampled_from([1e-6, 1.0 - EXPM1_WINDOW, 1.0, 1.0 + EXPM1_WINDOW]),
    st.floats(min_value=1.0 - 1.5 * EXPM1_WINDOW, max_value=1.0 + 1.5 * EXPM1_WINDOW),
    st.floats(min_value=1e-9, max_value=1e-3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40), alpha=edge_orders)
def test_scalar_and_array_kernels_agree_exactly(ps, alpha):
    """Across the expm1 window edges and at tiny orders, wherever the pair sits in an array."""
    p = np.array(ps)
    m = 1.0 - p
    grid = pair_entropy(p, m, TsallisParam(alpha))
    alone = pair_entropy(p, np.zeros_like(p), TsallisParam(alpha))
    for i, (x, y) in enumerate(zip(ps, m)):
        assert tsallis_entropy((x, float(y)), alpha) == grid[i]
        assert h_alpha(x, alpha) == alone[i]


# Integer orders whose binary power takes at most _MAX_SQUARING_MULTIPLIES
# multiplications, counted here apart from the kernel: one squaring per bit
# after the leading one, one multiplication per further set bit.
SQUARING_K = entropy._MAX_SQUARING_MULTIPLIES
SQUARED_ORDERS = [
    n for n in range(4, 2**SQUARING_K + 1) if (n.bit_length() - 1) + (bin(n).count("1") - 1) <= SQUARING_K
]


def pow_form(p, m, a):
    """The pow branch of pair_entropy with numpy's pow for every order."""
    return ((p ** a - p) + (m ** a - m)) / (1.0 - a)


class TestIntegerPowers:
    """Integer orders n >= 4 with a short binary power take p^n by repeated squaring."""

    def test_covered_orders(self):
        # the R_4..R_10 table, 12 and 16 among them; never 2 or 3
        assert {4, 5, 6, 7, 8, 9, 10, 12, 16} <= set(SQUARED_ORDERS)
        for n in range(1, 2 ** (SQUARING_K + 1)):
            assert (entropy._squaring_bits(float(n)) is not None) == (n in SQUARED_ORDERS), n
        assert entropy._squaring_bits(4.5) is None

    @pytest.mark.parametrize("n", SQUARED_ORDERS)
    def test_matches_extended_precision(self, n):
        rng = np.random.default_rng(n)
        p = np.concatenate([rng.uniform(0.0, 1.0, 60), np.geomspace(1e-300, 1.0, 30), 1.0 - np.geomspace(1e-16, 0.5, 20)])
        m = 1.0 - p
        values = pair_entropy(p, m, TsallisParam(n))
        errors = [abs(mp.mpf(v) - oracle_h(x, n) - oracle_h(y, n)) for v, x, y in zip(values, p, m)]
        # numpy's pow reaches 5.6e-17 on these pairs, and so does the chain
        assert max(errors) <= 1e-16

    @pytest.mark.parametrize("n", SQUARED_ORDERS)
    def test_exact_at_equiprobable_and_deterministic_pairs(self, n):
        # powers of 1/2, 1 and 0 are exact, so the ties at the minimum corners stay exact
        p, m = np.array([0.5, 1.0, 0.0]), np.array([0.5, 0.0, 1.0])
        values = pair_entropy(p, m, TsallisParam(n))
        assert values.tolist() == [(2.0 ** (1 - n) - 1.0) / (1 - n), 0.0, 0.0]
        assert values.tolist() == pow_form(p, m, float(n)).tolist()

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 2.5, 4.5, 7.3, 2.0 ** (SQUARING_K + 1) - 1])
    def test_other_orders_keep_pow_bits(self, alpha):
        p = np.random.default_rng(3).uniform(0.0, 1.0, 5000)
        m = 1.0 - p
        assert pair_entropy(p, m, TsallisParam(alpha)).tobytes() == pow_form(p, m, alpha).tobytes()


def log_form(p, m, a):
    """The Shannon and expm1 branches of pair_entropy before the in-place form.

    A bool-add zero guard and one new array per pass; kept as the bitwise
    reference for the log branches, as pow_form is for the pow branch.
    """
    p_safe, m_safe = p + (p == 0.0), m + (m == 0.0)
    if a == 1.0:
        return -p * np.log(p_safe) - m * np.log(m_safe)
    hp = -p * np.expm1((a - 1.0) * np.log(p_safe)) / (a - 1.0)
    hm = -m * np.expm1((a - 1.0) * np.log(m_safe)) / (a - 1.0)
    return hp + hm


KERNEL_EDGE_PS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0, math.nan]


class TestInPlaceKernel:
    """The in-place pair_entropy gives the frozen forms' values without touching its inputs."""

    @pytest.mark.parametrize("alpha", [1e-9, 0.991, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.005, 1.0099999])
    def test_matches_frozen_forms(self, alpha):
        p = np.concatenate([KERNEL_EDGE_PS, np.random.default_rng(12).uniform(0.0, 1.0, 5000)])
        reference_form = log_form if abs(alpha - 1.0) < EXPM1_WINDOW else pow_form
        for m in (1.0 - p, np.zeros_like(p), p[::-1].copy()):
            values = pair_entropy(p, m, TsallisParam(alpha))
            reference = reference_form(p, m, alpha)
            # equal as floats everywhere (NaN where the reference is NaN) ...
            assert np.array_equal(values, reference, equal_nan=True)
            # ... and bit for bit except for the sign of a zero or a NaN
            exact = (reference != 0.0) & ~np.isnan(reference)
            assert exact.sum() > 5000 - len(KERNEL_EDGE_PS)
            assert values[exact].tobytes() == reference[exact].tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 1.005, 0.5, 2.0, 7.0])
    def test_inputs_are_never_written(self, alpha):
        # Shannon, expm1, pow, numpy's squaring and the squaring chain
        p = np.concatenate([KERNEL_EDGE_PS, np.random.default_rng(13).uniform(0.0, 1.0, 200)])
        m = 1.0 - p
        before = p.tobytes(), m.tobytes()
        values = pair_entropy(p, m, TsallisParam(alpha))
        assert (p.tobytes(), m.tobytes()) == before
        assert not np.shares_memory(values, p) and not np.shares_memory(values, m)

    @pytest.mark.parametrize("alpha", [1.0, 1.005, 0.5, 2.0, 2.5, 7.0])
    def test_kernel_into_workspace_gives_the_same_bytes(self, alpha):
        # the scans' entry: p stacked over m, a workspace slice in, the result
        # in out[0], inputs untouched
        p = np.concatenate([KERNEL_EDGE_PS, np.random.default_rng(14).uniform(0.0, 1.0, 200)])
        pm = np.stack([p, 1.0 - p])
        before = pm.tobytes()
        workspace = np.full((3, 2, p.size), 7.0)
        values = entropy._pair_entropy_into(pm, TsallisParam(alpha), workspace[1])
        assert values is workspace[1, 0] or np.shares_memory(values, workspace[1, 0])
        assert values.tobytes() == workspace[1, 0].tobytes() == pair_entropy(*pm, TsallisParam(alpha)).tobytes()
        assert pm.tobytes() == before
        assert np.all(workspace[0] == 7.0) and np.all(workspace[2] == 7.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.005, 0.5, 2.0, 2.5, 3.0, 4.0, 7.3])
    def test_stacked_axes_give_each_axis_bits(self, alpha):
        # a scan block's call: both axes' pairs at once, (p, m) x (x, y) x
        # rows x columns, contiguous and as a span's strided view; each
        # axis's numerator is that of its pair alone, bit for bit
        a = TsallisParam(alpha)
        h = np.random.default_rng(17).uniform(-0.5, 0.5, (2, 16, 40))
        h[:, :, :3] = [0.0, 0.5, -0.5]
        block = np.stack([0.5 + h, 0.5 - h])
        for pairs in (block, block[..., 5:31]):
            out = np.full(pairs.shape, 7.0)
            both = entropy._pair_numerator_into(pairs, a, out)
            assert both is out[0] or np.shares_memory(both, out[0])
            for axis in (0, 1):
                alone = entropy._pair_numerator_into(pairs[:, axis], a, np.empty(pairs[:, axis].shape))
                assert both[axis].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.999, 1.5, 2.0, 2.5, 3.0, 7.3, 100.0])
    def test_power_is_the_in_place_power_bitwise(self, alpha):
        # x ** a written straight into out equals a copy of x raised in place,
        # on contiguous rows and on a scan block's strided span views
        x = np.random.default_rng(16).uniform(0.0, 1.0, (4, 64, 37))
        x[:, :, :5] = [0.0, 5e-324, 1e-310, 0.5, 1.0]
        for view in (x[0], x[1, 3:40, 2:31], x[2, ::3, ::2]):
            reference = np.empty(view.shape)
            np.copyto(reference, view)
            reference **= alpha
            out = np.full(view.shape, 7.0)
            assert entropy._power(view, alpha, out) is out
            assert out.tobytes() == reference.tobytes()

    # every order of the CI pins of `pauli-tsallis verify` (test_verify's
    # PINNED_ORDERS), then large ones, where powers below the threshold are skipped
    @pytest.mark.parametrize(
        "alpha",
        [0.25, 0.5, 0.991, 0.9999999, 1.0, 1.0000001, 1.005, 1.009, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0,
         7.5, 10.0, 30.0, 46.0, 48.0, 100.0, 300.0, 300.5, 1000.0],
    )
    def test_skipped_powers_are_the_pow_path_bitwise(self, alpha):
        # where x < 2^(-56/(a - 1)) the term x^a - x rounds to 0.0 - x: the
        # numerator equals the plain path's, _power then x subtracted, bit for
        # bit, on random pairs, on the threshold's neighbours among the
        # doubles and among the scans' pairs (multiples of 2^-54), at 0,
        # subnormals and 1; a NaN stays NaN
        a = TsallisParam(alpha)
        threshold = 2.0 ** (-56.0 / (alpha - 1.0)) if alpha > 1.0 else 0.5
        near = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)]
        on_grid = math.floor(threshold * 2.0**54) * 2.0**-54
        near += [on_grid - 2.0**-54, on_grid, on_grid + 2.0**-54]
        near += [threshold * (1.0 - 2.0**-40), threshold * (1.0 + 2.0**-40)]
        special = [0.0, 5e-324, 1e-310, 2.0**-54, 0.5, 1.0, *(v for v in near if 0.0 <= v <= 1.0)]
        x = np.random.default_rng(18).uniform(0.0, 1.0, (2, 16, 64))
        x[:, 0, : len(special)] = special
        x[:, 1, : len(special)] = np.subtract(1.0, special)
        x[0, 2, 0] = math.nan
        for pm in (x, x[::-1]):  # each side's term alone in out[1], then the sum in out[0]
            out = np.full(pm.shape, 7.0)
            entropy._pair_numerator_into(pm, a, out)
            reference = np.empty(pm.shape)
            if abs(alpha - 1.0) < EXPM1_WINDOW:
                entropy._log_term(pm, alpha - 1.0, reference)
            else:
                entropy._power(pm, alpha, reference)
                reference -= pm
            reference[0] += reference[1]
            nan = np.isnan(out)
            assert nan[0, 2, 0] and nan.tolist() == np.isnan(reference).tolist()
            assert out[~nan].tobytes() == reference[~nan].tobytes()
        if alpha > 45.0:  # both sides of the threshold are exercised
            assert (x < threshold).any() and (x >= threshold).any()

    @pytest.mark.parametrize("side", [0, 1])
    def test_kernel_rejects_out_overlapping_its_inputs(self, side):
        # p or m in out would be overwritten before it is read: zeros on the pow branch
        o = np.random.default_rng(15).uniform(0.0, 1.0, (3, 8))
        before = o.copy()
        # out is the stacked pair itself, or holds its p (side 0) or its m (side 1)
        for pm, out in ((o[:2], o[:2]), (o[1:], o[:2]) if side == 0 else (o[:2], o[1:])):
            with pytest.raises(ValueError, match="share memory"):
                entropy._pair_entropy_into(pm, TsallisParam(0.5), out)
        assert np.array_equal(o, before)


class TestPhi:
    def test_order_one_is_one(self):
        assert phi((0.3, 0.7), 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (5e-324, 1.0), (1e-310, 1.0), (0.3, 0.7),
                                      (0.1, 0.9), (0.5, 0.5), (1.0 - 2.0**-53, 2.0**-53)])
    def test_order_one_is_the_plain_sum(self, pair):
        # no Shannon branch: x ** 1.0 is x bit for bit, subnormals included
        d = ProbPair(*pair)
        assert phi(d, 1.0).hex() == (d.p_plus + d.p_minus).hex()

    def test_equiprobable_order_two(self):
        # 2 * (1/4) = 1/2
        assert phi((0.5, 0.5), 2.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_deterministic_is_one(self, alpha):
        assert phi((1.0, 0.0), alpha) == 1.0


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
inner_probabilities = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)
orders = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=probabilities, alpha=orders)
def test_entropy_within_bounds(p, alpha):
    value = tsallis_entropy(ProbPair(p, 1.0 - p), alpha)
    assert -1e-15 <= value <= alpha_log(2.0, alpha) + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=probabilities, q=probabilities, lam=st.floats(min_value=0.0, max_value=1.0), alpha=orders)
def test_entropy_concave_in_distribution(p, q, lam, alpha):
    mixed = ProbPair(lam * p + (1 - lam) * q, lam * (1 - p) + (1 - lam) * (1 - q))
    hp = tsallis_entropy(ProbPair(p, 1.0 - p), alpha)
    hq = tsallis_entropy(ProbPair(q, 1.0 - q), alpha)
    assert tsallis_entropy(mixed, alpha) >= lam * hp + (1 - lam) * hq - 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=inner_probabilities, eps=st.floats(min_value=-1e-8, max_value=1e-8))
def test_shannon_continuity_near_order_one(p, eps):
    alpha = 1.0 + eps
    if alpha == 1.0:
        return
    dist = ProbPair(p, 1.0 - p)
    assert abs(tsallis_entropy(dist, alpha) - tsallis_entropy(dist, 1.0)) <= 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=inner_probabilities, a1=orders, a2=orders)
def test_phi_convex_in_order(p, a1, a2):
    lo, hi = sorted((a1, a2))
    dist = ProbPair(p, 1.0 - p)
    mid = phi(dist, (lo + hi) / 2.0)
    assert mid <= (phi(dist, lo) + phi(dist, hi)) / 2.0 + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=probabilities, a1=orders, a2=orders)
def test_phi_nonincreasing_in_order(p, a1, a2):
    lo, hi = sorted((a1, a2))
    dist = ProbPair(p, 1.0 - p)
    assert phi(dist, lo) >= phi(dist, hi) - 1e-15
