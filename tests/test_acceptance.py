"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one pass line (visible with ``pytest -s``); a failure
reads as the criterion number plus the violated assertion.  Criteria that
scan many orders on one grid scan them in one scan_orders pass.
"""

import math
import time

import numpy as np
import pytest

import pauli_tsallis.verify as verify
from pauli_tsallis import (
    GridSpec,
    ProbPair,
    PureStateAngles,
    alpha_log,
    bound_set,
    canonicalize_to_D,
    certify_equality_conditions,
    check_kernel_monotonicity,
    entropic_sum,
    g_sum,
    h_tilde,
    interpolated_lower_bound,
    phi,
    refined_maximum,
    rescaled_band,
    sample_pure_states,
    scan_orders,
    tsallis_entropy,
)
from pauli_tsallis.cli import main

TAU_STAR = math.atan(math.sqrt(2.0)) / 2.0
QUARTER_PI = math.pi / 4.0

def test_c1_r_table_reproduction():
    reference = {4: 0.698, 5: 0.741, 6: 0.784, 7: 0.823, 8: 0.857, 9: 0.885, 10: 0.909}
    start = time.perf_counter()
    computed = {n: rescaled_band(float(n))[1] for n in reference}
    elapsed = time.perf_counter() - start
    for n, expected in reference.items():
        assert computed[n] == pytest.approx(expected, abs=5e-4), f"R_{n}"
    assert elapsed < 1.0
    print(f"criterion 1 PASS: R_4..R_10 match the three-decimal references within 5e-4 "
          f"({elapsed * 1e3:.1f} ms)")


def test_c2_shannon_endpoints():
    bounds = bound_set(1.0)
    assert bounds.lower_is_tight
    assert abs(bounds.lower - 2.0 * math.log(2.0)) <= 1e-12
    assert h_tilde(1.0) / math.log(2.0) == pytest.approx(0.744, abs=5e-4)
    print("criterion 2 PASS: lower bound 2 ln 2 exact at alpha=1; h_tilde(1)/ln 2 = 0.744")


def test_c3_tight_lower_bound_attainment():
    alphas = [0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0]
    corners = [PureStateAngles(0.0, 0.0), PureStateAngles(QUARTER_PI, 0.0)]
    start = time.perf_counter()
    reports = dict(zip(alphas, scan_orders(alphas, GridSpec(2001, 2001))))
    elapsed = time.perf_counter() - start
    for alpha, report in reports.items():
        bound = 2.0 * alpha_log(2.0, alpha)
        assert abs(report.min_value - bound) <= 1e-12, f"alpha={alpha}"
        # the minimum is witnessed at a corner of D (exactly for the
        # strictly tight orders; within tolerance where the sum is constant)
        corner_values = [entropic_sum(c, alpha) for c in corners]
        assert min(abs(v - report.min_value) for v in corner_values) <= 1e-12
        if alpha not in (2.0, 3.0):
            assert (report.argmin.tau, report.argmin.phi) in {(0.0, 0.0), (QUARTER_PI, 0.0)}
    assert elapsed < 60.0
    print(f"criterion 3 PASS: 2001^2 grid minima equal 2 ln_a(2) within 1e-12 at corner "
          f"witnesses for 10 orders ({elapsed:.2f} s)")


def test_c4_equality_condition_certification():
    for alpha in (0.5, 1.0, 4.0, 6.0):
        assert certify_equality_conditions(alpha, tolerance=1e-12, n_samples=10_000), f"alpha={alpha}"
    print("criterion 4 PASS: equality conditions certified at 1e-12 for alpha in {0.5, 1, 4, 6}")


def test_c5_constancy_at_orders_two_three():
    b = sample_pure_states(10_000, seed=verify.DEFAULT_SEED)
    for alpha, value in ((2.0, 1.0), (3.0, 0.75)):
        sums = verify._entropic_sums(b[:, 0], b[:, 1], b[:, 2], verify.as_param(alpha))
        assert float(np.max(sums) - np.min(sums)) <= 1e-12
        assert float(np.max(np.abs(sums - value))) <= 1e-12
    print("criterion 5 PASS: entropic sum constant (1 and 3/4) over 10^4 pure states")


def test_c6_pure_state_maximum():
    for alpha in (0.5, 1.0, 4.0, 6.0):
        value, argmax = refined_maximum(alpha, GridSpec(2001, 2001))
        assert abs(value - 3.0 * h_tilde(alpha)) <= 1e-8, f"alpha={alpha}"
        folded = canonicalize_to_D(argmax)
        assert abs(folded.tau - TAU_STAR) <= 1e-4
        assert abs(folded.phi - QUARTER_PI) <= 1e-4
    print("criterion 6 PASS: refined maxima within 1e-8 of 3 h_tilde, argmax at "
          "(arctan(sqrt 2)/2, pi/4) within 1e-4")


def test_c7_interpolated_bound_sanity():
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    alphas = []
    while len(alphas) < 50:
        alpha = float(rng.uniform(1.0, 10.0))
        if abs(alpha - round(alpha)) >= 1e-9:
            alphas.append(alpha)
    near_one = 1.0 + 1e-6
    *reports, near_one_report = scan_orders(alphas + [near_one], GridSpec(801, 801))
    for alpha, report in zip(alphas, reports):
        assert interpolated_lower_bound(alpha) <= report.min_value + 1e-9, f"alpha={alpha}"
    bounds = bound_set(near_one)
    assert not bounds.lower_is_tight
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    grid_min = near_one_report.min_value
    assert grid_min == pytest.approx(2.0 * math.log(2.0), abs=1e-4)
    assert grid_min - bounds.lower > 0.38
    print("criterion 7 PASS: interpolated bound below grid minimum for 50 random "
          "non-integer orders; gap to 2 ln 2 reproduced at alpha = 1 + 1e-6")


def test_c8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(verify.DEFAULT_SEED)

    # kernel monotonicity
    for alpha in [round(0.1 * k, 1) for k in range(1, 11)]:
        assert check_kernel_monotonicity("f", alpha, 1000)
    for n in range(1, 13):
        assert check_kernel_monotonicity("g", n, 1000)

    # power-sum convexity in the order
    for _ in range(200):
        p = float(rng.uniform(1e-3, 1.0 - 1e-3))
        lo, hi = sorted(rng.uniform(0.05, 8.0, size=2))
        dist = ProbPair(p, 1.0 - p)
        assert phi(dist, (lo + hi) / 2.0) <= (phi(dist, lo) + phi(dist, hi)) / 2.0 + 1e-12

    # entropy concavity in the distribution
    for _ in range(200):
        p, q, lam = rng.uniform(0.0, 1.0, size=3)
        alpha = float(rng.uniform(0.05, 8.0))
        mixed = ProbPair(lam * p + (1 - lam) * q, lam * (1 - p) + (1 - lam) * (1 - q))
        blend = lam * tsallis_entropy(ProbPair(p, 1 - p), alpha) + (1 - lam) * tsallis_entropy(
            ProbPair(q, 1 - q), alpha
        )
        assert tsallis_entropy(mixed, alpha) >= blend - 1e-12

    # symmetry-map invariance of the entropic sum, 10^4 states
    taus = rng.uniform(0.0, math.pi / 2.0, size=10_000)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    folded = [canonicalize_to_D(PureStateAngles(t, p)) for t, p in zip(taus, phis)]
    f_taus = np.array([s.tau for s in folded])
    f_phis = np.array([s.phi for s in folded])
    for alpha in (0.5, 1.0, 2.0, 2.7, 5.0):
        a = verify.as_param(alpha)
        original = _sums_from_angles(taus, phis, a)
        canonical = _sums_from_angles(f_taus, f_phis, a)
        assert float(np.max(np.abs(original - canonical))) <= 1e-12

    # power-sum form vs entropic sum
    for alpha in (0.5, 2.7, 5.0):
        for _ in range(200):
            state = PureStateAngles(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert abs(g_sum(state, alpha) - (alpha - 1.0) * entropic_sum(state, alpha)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 8 PASS: kernel, convexity, concavity, symmetry and consistency "
          f"suites green ({elapsed:.2f} s)")


def _sums_from_angles(taus, phis, a):
    sx = np.sin(2.0 * taus) * np.cos(phis)
    sy = np.sin(2.0 * taus) * np.sin(phis)
    sz = np.cos(2.0 * taus)
    return verify._entropic_sums(sx, sy, sz, a)


def test_c9_band_data(tmp_path, capsys):
    out_path = tmp_path / "band.csv"
    code = main(["band", "--alpha-min", "0.01", "--alpha-max", "1.0", "--steps", "100",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    highs = [float(row[2]) for row in rows]
    assert all(row[1] == "0.666666666667" for row in rows)
    assert all(b < a for a, b in zip(highs, highs[1:]))
    assert abs(highs[0] - 1.0) <= 0.01
    print("criterion 9 PASS: band_high decreases monotonically to 0.744, tends to 1 "
          "as alpha -> 0+, band_low constant 2/3")
