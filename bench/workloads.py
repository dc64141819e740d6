"""Benchmark workloads: inputs made from the seed, the public calls of one
pass, the amount of work each pass asks for, and the output checks.

Every call goes through a public name of ``pauli_tsallis`` (looked up when
the call runs, so the tracer's rebinding applies).  The package receives
only the generated orders, grids and states, never the benchmark seed.

The checks recompute the expected values with their own formulas (``math``
only), so a check never calls the code under test and never adds a span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import pauli_tsallis as pt
from pauli_tsallis import cli

# The package's own default seed: with it, verify_cli runs exactly
# `pauli-tsallis verify 0.5,1,2,4 --grid 2001`.
DEFAULT_SEED = 12345

QUARTER_PI = math.pi / 4.0
TAU_STAR = math.atan(math.sqrt(2.0)) / 2.0
TIGHT_TOL = 1e-12  # the package's contract tolerance for attained bounds
REFINED_TOL = 1e-8  # refined pure-state maximum (acceptance criterion 6)
INTERP_SLACK = 1e-9  # interpolated bound vs grid minimum (acceptance criterion 7)
REF_TOL = 1e-12  # frozen reference values; indices and digests must match exactly

# Orders of acceptance criteria 3 (tight minima) and 6 (refined maxima).
TIGHT_ORDERS = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0)
REFINED_ORDERS = (0.5, 1.0, 4.0, 6.0)
NEAR_ONE = 1.0 + 1e-6  # inside EXPM1_WINDOW: the expm1 branch
WIDE_ORDERS = (0.5, 1.0, 1.005, 4.0)  # pow, Shannon, expm1, pow
CERTIFY_ORDERS = (0.5, 1.0, 2.0, 4.0)
VERIFY_ORDERS = "0.5,1,2,4"
R_TABLE = {4: 0.698, 5: 0.741, 6: 0.784, 7: 0.823, 8: 0.857, 9: 0.885, 10: 0.909}

# Sizes of one pass.  The smoke sizes keep every call and code path but
# finish in well under a second; they also serve as the warm-up pass.
FULL = dict(
    grid=2001, random_grid=801, n_random=20, wide=(101, 40001), band_steps=2000,
    n_bounds=200, n_states=400, n_samples=10_000, kernel_points=5000, concavity_points=101,
)
SMOKE = dict(
    grid=41, random_grid=21, n_random=5, wide=(11, 401), band_steps=50,
    n_bounds=12, n_states=10, n_samples=100, kernel_points=50, concavity_points=11,
)
# refined_maximum's defaults: a +-2-step window, 10 times finer, so 41 points per axis.
REFINE_FACTOR = 10
REFINE_POINTS = 2 * 2 * REFINE_FACTOR + 1


# ---------------------------------------------------------------------------
# Expected values, computed independently of the package
# ---------------------------------------------------------------------------


def ln_alpha_2(a: float) -> float:
    if a == 1.0:
        return math.log(2.0)
    return math.expm1((1.0 - a) * math.log(2.0)) / (1.0 - a)


def h_tilde(a: float) -> float:
    p = (1.0 + 1.0 / math.sqrt(3.0)) / 2.0
    if a == 1.0:
        return -sum(u * math.log(u) for u in (p, 1.0 - p))
    return -sum(u * math.expm1((a - 1.0) * math.log(u)) for u in (p, 1.0 - p)) / (a - 1.0)


def interpolated_lower(a: float) -> float:
    n = math.floor(a)
    w = 2.0 ** (1 - n)
    return (2.0 * (1.0 - w) + w * (a - n)) / (a - 1.0)


def is_tight(a: float) -> bool:
    return a <= 1.0 or (abs(a - round(a)) < 1e-12 and round(a) >= 2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Calls, passes and checks
# ---------------------------------------------------------------------------


class Checks:
    """Counts output checks; each failed one is kept with its description."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def same(expected: Any, observed: Any) -> bool:
    """Frozen-reference comparison: floats within REF_TOL, the rest exactly."""
    if isinstance(expected, float):
        return abs(expected - observed) <= REF_TOL
    if isinstance(expected, dict):
        return expected.keys() == observed.keys() and all(same(expected[k], observed[k]) for k in expected)
    return expected == observed


def _no_refs(out: Any) -> dict:
    return {}


@dataclass
class Call:
    """One public call of a pass.

    ``scans`` lists the rectangles (domain, alpha, n_tau, n_phi) the call
    evaluates, derived from its arguments; ``sample_points`` counts the
    sampled states and 1-D grid points of the scalar checks.
    """

    label: str
    invoke: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    refs: Callable[[Any], dict] = _no_refs
    scans: tuple = ()
    sample_points: int = 0


@dataclass
class Workload:
    name: str
    calls: list[Call]

    def run_pass(self) -> list[Any]:
        """Run every call once, in order; a call that raises yields its exception."""
        outputs = []
        for call in self.calls:
            try:
                outputs.append(call.invoke())
            except Exception as exc:  # counted as a failed check by check()
                outputs.append(exc)
        return outputs

    def check(self, outputs: list[Any], refs: dict, checks: Checks) -> None:
        for call, out in zip(self.calls, outputs):
            if isinstance(out, Exception):
                checks.expect(False, f"{call.label} raised {out!r}")
                continue
            call.check(out, checks)
            for key, observed in call.refs(out).items():
                if key in refs:
                    checks.expect(same(refs[key], observed), f"{call.label}: {key} differs from its frozen reference")

    def references(self, outputs: list[Any]) -> dict:
        merged = {}
        for call, out in zip(self.calls, outputs):
            merged.update(call.refs(out))
        return merged

    @property
    def scan_points(self) -> int:
        return sum(n_tau * n_phi for call in self.calls for _, _, n_tau, n_phi in call.scans)

    @property
    def points(self) -> int:
        return self.scan_points + sum(call.sample_points for call in self.calls)

    @property
    def repeat_points(self) -> int:
        """Points of scans whose (domain, alpha, grid) already ran earlier in the pass."""
        seen, repeated = set(), 0
        for call in self.calls:
            for scan in call.scans:
                if scan in seen:
                    repeated += scan[2] * scan[3]
                seen.add(scan)
        return repeated


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _index(value: float, n: int) -> int:
    return round(value / (QUARTER_PI / (n - 1)))


def scan_call(alpha: float, grid, near_one: bool = False) -> Call:
    label = f"scan_extrema({alpha!r}, {grid.n_tau}x{grid.n_phi})"

    def check(report, checks: Checks) -> None:
        checks.expect(report.min_value <= report.max_value, f"{label}: min > max")
        if is_tight(alpha):
            low = 2.0 * ln_alpha_2(alpha)
            checks.expect(abs(report.min_value - low) <= TIGHT_TOL, f"{label}: minimum {report.min_value!r} != 2 ln_a(2) = {low!r}")
            checks.expect(report.max_value <= 3.0 * h_tilde(alpha) + TIGHT_TOL, f"{label}: maximum above 3 h~(a)")
            if alpha not in (2.0, 3.0):  # the sum is constant on pure states at 2 and 3
                corner = (report.argmin.tau, report.argmin.phi) in {(0.0, 0.0), (QUARTER_PI, 0.0)}
                checks.expect(corner, f"{label}: argmin not at a corner of D")
        else:
            bound = interpolated_lower(alpha)
            checks.expect(bound <= report.min_value + INTERP_SLACK, f"{label}: interpolated bound {bound!r} above grid minimum")
            if near_one:
                checks.expect(abs(report.min_value - 2.0 * math.log(2.0)) <= 1e-4, f"{label}: minimum far from 2 ln 2")
                checks.expect(report.min_value - bound > 0.38, f"{label}: gap to the interpolated bound not reproduced")

    def refs(report) -> dict:
        return {
            f"scan {alpha!r} {grid.n_tau}x{grid.n_phi}": {
                "argmin": [_index(report.argmin.tau, grid.n_tau), _index(report.argmin.phi, grid.n_phi)],
                "min": report.min_value,
                "argmax": [_index(report.argmax.tau, grid.n_tau), _index(report.argmax.phi, grid.n_phi)],
                "max": report.max_value,
            }
        }

    return Call(label, lambda: pt.scan_extrema(alpha, grid), check, refs, scans=(("D", alpha, grid.n_tau, grid.n_phi),))


def refined_call(alpha: float, grid) -> Call:
    label = f"refined_maximum({alpha!r}, {grid.n_tau}x{grid.n_phi})"
    # At the acceptance grid these are criterion 6's 1e-8 and 1e-4; on the
    # smoke grid the refined step's quadratic (value) and linear (argmax)
    # grid errors are larger.
    step = QUARTER_PI / (max(grid.n_tau, grid.n_phi) - 1) / REFINE_FACTOR
    value_tol, angle_tol = max(REFINED_TOL, (2.0 * step) ** 2), max(1e-4, step)

    def check(out, checks: Checks) -> None:
        value, state = out
        checks.expect(abs(value - 3.0 * h_tilde(alpha)) <= value_tol, f"{label}: {value!r} not within {value_tol:.3g} of 3 h~(a)")
        near = abs(state.tau - TAU_STAR) <= angle_tol and abs(state.phi - QUARTER_PI) <= angle_tol
        checks.expect(near, f"{label}: argmax not within {angle_tol:.3g} of (arctan(sqrt 2)/2, pi/4)")

    def refs(out) -> dict:
        value, state = out
        return {f"refined {alpha!r} {grid.n_tau}x{grid.n_phi}": {"max": value, "tau": state.tau, "phi": state.phi}}

    scans = (("D", alpha, grid.n_tau, grid.n_phi), ("window", alpha, REFINE_POINTS, REFINE_POINTS))
    return Call(label, lambda: pt.refined_maximum(alpha, grid), check, refs, scans=scans)


def cli_call(argv: list[str], check_text: Callable[[list[str], Checks], None], scans: tuple = ()) -> Call:
    label = "cli " + " ".join(argv)

    def check(out, checks: Checks) -> None:
        code, text = out
        checks.expect(code == 0, f"{label}: exit code {code}")
        check_text(text.splitlines(), checks)

    return Call(label, lambda: run_cli(argv), check, lambda out: {f"csv {' '.join(argv)}": sha256(out[1])}, scans=scans)


def true_call(label: str, invoke: Callable[[], Any], sample_points: int = 0) -> Call:
    """A property check of the package that must return True."""

    def check(out, checks: Checks) -> None:
        checks.expect(out is True, f"{label} returned {out!r}")

    return Call(label, invoke, check, sample_points=sample_points)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_cli(rng: np.random.Generator, seed: int, size: dict) -> list[Call]:
    n = size["grid"]
    argv = ["verify", VERIFY_ORDERS, "--grid", str(n)]
    if seed != DEFAULT_SEED:
        argv += ["--seed", str(int(rng.integers(2**31)))]
    alphas = [float(a) for a in VERIFY_ORDERS.split(",")]
    n_full = min(n, 501)  # the CLI's full-domain grid: n_full x 4 (n_full - 1) + 1
    scans = []
    for a in alphas:
        scans += [("D", a, n, n), ("full", a, n_full, 4 * (n_full - 1) + 1), ("D", a, n_full, 4 * (n_full - 1) + 1)]

    def check_text(lines: list[str], checks: Checks) -> None:
        checks.expect(lines[:1] == ["check,alpha,status,observed,expected,tolerance"], "verify: CSV header")
        rows = [line.split(",") for line in lines[1:]]
        checks.expect(len(rows) == 7 * len(alphas), f"verify: {len(rows)} rows")
        checks.expect(all(len(r) == 6 and r[2] in ("pass", "skip") for r in rows), "verify: a row is neither pass nor skip")

    return [cli_call(argv, check_text, tuple(scans))]


def acceptance_scans(rng: np.random.Generator, seed: int, size: dict) -> list[Call]:
    grid = pt.GridSpec(size["grid"], size["grid"])
    small = pt.GridSpec(size["random_grid"], size["random_grid"])
    calls = [scan_call(a, grid) for a in TIGHT_ORDERS]
    calls += [refined_call(a, grid) for a in REFINED_ORDERS]
    calls += [scan_call(_non_integer_order(rng), small) for _ in range(size["n_random"])]
    calls.append(scan_call(NEAR_ONE, small, near_one=True))
    return calls


def wide_grid(rng: np.random.Generator, seed: int, size: dict) -> list[Call]:
    grid = pt.GridSpec(*size["wide"])
    return [scan_call(float(a), grid) for a in rng.permutation(WIDE_ORDERS)]


def _non_integer_order(rng: np.random.Generator) -> float:
    """An order in (1, 10) at least 1e-9 from every integer (acceptance criterion 7)."""
    while True:
        a = float(rng.uniform(1.0, 10.0))
        if abs(a - round(a)) >= 1e-9:
            return a


def _mixed_state(rng: np.random.Generator):
    v = rng.normal(size=3)
    v *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
    return pt.BlochVector(float(v[0]), float(v[1]), float(v[2]))


def _tight_order(rng: np.random.Generator) -> float:
    if rng.uniform() < 0.5:
        return float(rng.uniform(0.05, 1.0))
    return float(rng.integers(2, 11))


def scalar_api(rng: np.random.Generator, seed: int, size: dict) -> list[Call]:
    band_argv = ["band", "--alpha-min", "0.01", "--alpha-max", "1", "--steps", str(size["band_steps"])]

    def check_band(lines: list[str], checks: Checks) -> None:
        checks.expect(lines[:1] == ["alpha,band_low,band_high"], "band: CSV header")
        rows = [line.split(",") for line in lines[1:]]
        checks.expect(len(rows) == size["band_steps"], f"band: {len(rows)} rows")
        checks.expect(all(r[1] == "0.666666666667" for r in rows), "band: band_low is not 2/3")
        highs = [float(r[2]) for r in rows]
        checks.expect(all(b < a for a, b in zip(highs, highs[1:])), "band: band_high not decreasing")

    def check_rtable(lines: list[str], checks: Checks) -> None:
        checks.expect(lines[:1] == ["alpha,r_alpha"], "rtable: CSV header")
        table = {float(a): float(r) for a, r in (line.split(",") for line in lines[1:])}
        checks.expect(sorted(table) == [1.0] + [float(n) for n in range(2, 11)], "rtable: orders")
        checks.expect(abs(table.get(1.0, 0.0) - 0.744) <= 5e-4, "rtable: R_1 != 0.744")
        checks.expect(all(abs(table.get(float(n), 0.0) - r) <= 5e-4 for n, r in R_TABLE.items()), "rtable: R_4..R_10")

    calls = [cli_call(band_argv, check_band), cli_call(["rtable"], check_rtable)]

    for k in range(size["n_bounds"]):
        # every third order is a non-integer above 1, where only the interpolated bound exists
        calls.append(bound_set_call(_non_integer_order(rng) if k % 3 == 2 else _tight_order(rng)))

    for _ in range(size["n_states"]):
        calls.append(entropic_sum_call(_mixed_state(rng), _tight_order(rng)))

    n_samples = size["n_samples"]
    for a in CERTIFY_ORDERS:
        s = int(rng.integers(2**31))
        calls.append(true_call(
            f"certify_equality_conditions({a!r})",
            lambda a=a, s=s: pt.certify_equality_conditions(a, tolerance=TIGHT_TOL, n_samples=n_samples, seed=s),
            n_samples,
        ))

    n_kernel = size["kernel_points"]
    a_f = float(rng.uniform(0.1, 1.0))
    a_g = float(rng.integers(4, 11))
    calls.append(true_call(f"check_kernel_monotonicity('f', {a_f!r})", lambda: pt.check_kernel_monotonicity("f", a_f, n_kernel), n_kernel))
    calls.append(true_call(f"check_kernel_monotonicity('g', {a_g!r})", lambda: pt.check_kernel_monotonicity("g", a_g, n_kernel), n_kernel))

    n_conc = size["concavity_points"]
    for _ in range(4):
        state, hi = _mixed_state(rng), float(rng.uniform(2.0, 10.0))
        calls.append(true_call(
            f"check_alpha_concavity({state}, 1, {hi!r})",
            lambda state=state, hi=hi: pt.check_alpha_concavity(state, 1.0, hi, n_conc),
            n_conc,
        ))
    return calls


def bound_set_call(alpha: float) -> Call:
    label = f"bound_set({alpha!r})"

    def check(b, checks: Checks) -> None:
        checks.expect(abs(b.upper_mixed - 3.0 * ln_alpha_2(alpha)) <= TIGHT_TOL, f"{label}: upper_mixed != 3 ln_a(2)")
        if is_tight(alpha):
            ok = (
                b.lower_is_tight
                and abs(b.lower - 2.0 * ln_alpha_2(alpha)) <= TIGHT_TOL
                and b.upper_pure is not None
                and abs(b.upper_pure - 3.0 * h_tilde(alpha)) <= TIGHT_TOL
            )
            checks.expect(ok, f"{label}: tight bounds wrong")
        else:
            ok = not b.lower_is_tight and b.upper_pure is None and abs(b.lower - interpolated_lower(alpha)) <= TIGHT_TOL
            checks.expect(ok, f"{label}: non-integer order above 1 reported wrongly")

    return Call(label, lambda: pt.bound_set(alpha), check)


def entropic_sum_call(state, alpha: float) -> Call:
    label = f"entropic_sum({state}, {alpha!r})"

    def check(total, checks: Checks) -> None:
        low, high = 2.0 * ln_alpha_2(alpha), 3.0 * ln_alpha_2(alpha)
        checks.expect(low - TIGHT_TOL <= total <= high + TIGHT_TOL, f"{label} = {total!r} outside [2 ln_a 2, 3 ln_a 2]")

    return Call(label, lambda: pt.entropic_sum(state, alpha), check)


# BENCHMARK.json gates the first three.  scalar_api stays runnable by hand:
# its passes are pure-Python scalar calls, and on a shared 2-core host their
# per-run median ranged from 0.032 s to 0.060 s across 25-second runs
# (IQR/median up to 0.45 over five seeds), wider than the largest bound the
# gate allows.
BUILDERS = {
    "verify_cli": verify_cli,
    "acceptance_scans": acceptance_scans,
    "wide_grid": wide_grid,
    "scalar_api": scalar_api,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    return Workload(name, BUILDERS[name](rng, seed, SMOKE if smoke else FULL))
