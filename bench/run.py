"""Benchmark of pauli-tsallis, run from the root of a checkout.

    python3 bench/run.py --workload verify_cli --seed 12345 --seconds 20 --trace 0

One process, one thread, closed loop: the workload's calls run back to back
and the next pass starts only when the previous one has returned.  Passes
repeat until ``--seconds`` would be exceeded (at least one pass).  Every
output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is non-zero when any check failed.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes.  A fixed numpy kernel that never calls the package, the
probe, is timed before and after every pass and, on an alarm, every
``PROBE_EVERY`` seconds inside it.  Each pass's wall time is scaled by
``PROBE_REF_S`` over the mean probe time around it: the ``norm_*``
metrics are times and rates at the host speed at which the probe takes
``PROBE_REF_S``.  Probe time is not counted in any pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the public functions wrapped in spans
(see tracing.py), reports the per-layer metrics and writes the spans to
``.bench_out/``.  ``--smoke`` runs every call at tiny sizes.

Workloads, metrics and bounds are listed in BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A fresh process imports the package and its CLI and finishes one tiny call.
SETUP_CODE = (
    "import pauli_tsallis, pauli_tsallis.cli; "
    "pauli_tsallis.scan_extrema(0.5, pauli_tsallis.GridSpec(3, 3))"
)
SETUP_LAUNCHES = 11
# The host-speed probe (see Probe) on the package's chunk shape.  One round
# takes about 10 ms on a 2-core Xeon (Sapphire Rapids, KVM): PROBE_REF_S.
PROBE_SHAPE = (256, 2001)
PROBE_REPS = 1
PROBE_REF_S = 0.010
PROBE_EVERY = 0.25
# Spans are kept in memory; verify_cli records ~41k spans per pass, so the
# traced half stops after this many passes.
TRACED_PASSES = 10

# Reported as seconds per pass, children included.
WHOLE_CALL = [
    "verify.scan_full_domain_consistency",
    "verify.certify_equality_conditions",
    "verify.check_kernel_monotonicity",
    "verify.check_alpha_concavity",
]
# Reported as microseconds per call and calls per pass.
PER_CALL = [
    "verify.entropic_sum",
    "bounds.kernel_f",
    "bounds.kernel_g",
    "bounds.bound_set",
    "bounds.rescaled_band",
    "entropy.tsallis_entropy",
    "states.probs_from_bloch",
]
TRACED = ["cli.main", "verify.scan_extrema", "verify.refined_maximum", *WHOLE_CALL, *PER_CALL]
COMPUTED = {"verify.scan.grid_points", "verify.scan.repeat_points"}


def bootstrap() -> None:
    """Put the checkout's src/ first on sys.path; exit non-zero without it."""
    package = SRC / "pauli_tsallis" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pauli_tsallis

    if Path(pauli_tsallis.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported pauli_tsallis from {pauli_tsallis.__file__}, not from {SRC}")


def provenance(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "pauli_tsallis").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Probe:
    """A fixed numpy kernel shaped like one chunk of the package's scan, timed
    to track host speed.

    It never calls the package.  It builds a 256 x 2001 outer product and
    sums powers of fresh temporaries, so contention on the host that slows
    the package's scan slows the probe alike.
    """

    def __init__(self) -> None:
        import numpy as np

        self.rows = np.sin(np.linspace(0.0, np.pi / 2, PROBE_SHAPE[0]))[:, None]
        self.cols = np.cos(np.linspace(0.0, np.pi / 4, PROBE_SHAPE[1]))[None, :]
        self.samples: list[float] = []
        self.wall = 0.0  # seconds spent in probes, wall and CPU
        self.cpu = 0.0
        self.busy = False

    def run(self, *signal_args) -> None:
        if self.busy:  # an alarm during a probe
            return
        self.busy = True
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for _ in range(PROBE_REPS):
            p = 0.5 + 0.5 * (self.rows * self.cols)
            y = p**0.7 + (1.0 - p) ** 0.7
            y.min()
            y.max()
        elapsed = time.perf_counter() - wall0
        self.samples.append(elapsed)
        self.wall += elapsed
        self.cpu += time.process_time() - cpu0
        self.busy = False

    @contextlib.contextmanager
    def every(self, seconds: float):
        """Also run on a wall-clock alarm every ``seconds``, inside calls too.

        Python runs the handler in the main thread between bytecodes, so a
        probe never interrupts a numpy operation of the package.
        """
        previous = signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def setup_times(launches: int) -> list[float]:
    """Wall time of fresh processes that import the package and make one tiny call.

    The wait blocks without a timeout: a timed wait polls with sleeps of up
    to 50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Passes:
    """Wall and CPU seconds, mean probe seconds and output digest of each pass."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.probes: list[float] = []
        self.digests: list[str] = []
        self.peak_rss_mb = 0.0

    @property
    def wall(self) -> float:
        return statistics.median(self.walls)

    @property
    def norm_wall(self) -> float:
        return statistics.median(w * PROBE_REF_S / p for w, p in zip(self.walls, self.probes))


def measure(workload, refs: dict, seconds: float, checks, tracer=None, max_passes: int | None = None) -> Passes:
    """Run passes for ``seconds``, the probe before and after each.

    Untraced, the probe also runs on an alarm inside every pass after the
    first; traced, it does not, so that no span holds a probe.  Peak RSS is
    read after the first pass: a probe's temporaries on top of the
    workload's would raise it.
    """
    passes, probe = Passes(), Probe()
    probe.run()
    start = time.perf_counter()
    with contextlib.ExitStack() as alarm:
        while not passes.walls or (
            time.perf_counter() - start + passes.wall <= seconds and len(passes.walls) != max_passes
        ):
            if tracer is not None:
                tracer.pass_id = len(passes.walls)
            first, probe_wall, probe_cpu = len(probe.samples) - 1, probe.wall, probe.cpu
            cpu0, wall0 = time.process_time(), time.perf_counter()
            outputs = workload.run_pass()
            passes.walls.append(time.perf_counter() - wall0 - (probe.wall - probe_wall))
            passes.cpus.append(time.process_time() - cpu0 - (probe.cpu - probe_cpu))
            probe.run()  # closes this pass and opens the next
            passes.probes.append(statistics.mean(probe.samples[first:]))
            if len(passes.walls) == 1:
                passes.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer is None:
                    alarm.enter_context(probe.every(PROBE_EVERY))
            workload.check(outputs, refs, checks)
            passes.digests.append(hashlib.sha256(repr(outputs).encode()).hexdigest())
    checks.expect(len(set(passes.digests)) == 1, "outputs differ between passes")
    return passes


def end_to_end(workload, passes: Passes, setup: list[float], checks) -> dict:
    wall = passes.norm_wall
    return {
        "norm_wall_s": (wall, "s"),
        "norm_grid_points_per_s": (workload.points / wall, "1/s"),
        "norm_calls_per_s": (len(workload.calls) / wall, "1/s"),
        "peak_rss_mb": (passes.peak_rss_mb, "MB"),
        "pass_rate": (1.0 - len(checks.failures) / checks.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(workload, tracer, untraced: Passes, traced: Passes) -> dict:
    from tracing import ARGS, END, NAME, PARENT, PASS, START

    n = len(traced.walls)
    total = defaultdict(lambda: [0.0] * n)  # name -> seconds per pass, children included
    own = defaultdict(lambda: [0.0] * n)  # name -> self seconds per pass
    calls = defaultdict(lambda: [0] * n)
    rescan = [0.0] * n
    branch_s, branch_points = defaultdict(float), defaultdict(int)
    spans = tracer.spans
    for span, self_s in zip(spans, tracer.self_times()):
        name, p, duration = span[NAME], span[PASS], span[END] - span[START]
        total[name][p] += duration
        own[name][p] += self_s
        calls[name][p] += 1
        if name == "verify.scan_extrema":
            alpha, grid = scan_arguments(span[ARGS])
            kind = branch(alpha)
            branch_s[kind] += self_s
            branch_points[kind] += grid.n_tau * grid.n_phi
            if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "verify.refined_maximum":
                rescan[p] += duration

    med = statistics.median
    metrics = {}
    for kind in ("pow", "shannon", "expm1"):
        ns = branch_s[kind] / branch_points[kind] * 1e9 if branch_points[kind] else 0.0
        metrics[f"verify.scan_extrema.ns_per_point.{kind}"] = (ns, "ns")
    metrics["verify.scan_extrema.self_s"] = (med(own["verify.scan_extrema"]), "s")
    metrics["verify.refined_maximum.self_s"] = (med(own["verify.refined_maximum"]), "s")
    metrics["verify.refined_maximum.rescan_s"] = (med(rescan), "s")
    metrics["verify.scan.grid_points"] = (workload.scan_points, "count")
    metrics["verify.scan.repeat_points"] = (workload.repeat_points, "count")
    for name in WHOLE_CALL:
        metrics[f"{name}.s"] = (med(total[name]), "s")
    for name in PER_CALL:
        count = sum(calls[name])
        metrics[f"{name}.us_per_call"] = (sum(total[name]) / count * 1e6 if count else 0.0, "us")
        metrics[f"{name}.calls"] = (calls[name][0], "count")
    metrics["cli.self_s"] = (med(own["cli.main"]), "s")
    metrics["process.cpu_s"] = (med(untraced.cpus), "s")
    metrics["process.cpu_util"] = (med(c / w for c, w in zip(untraced.cpus, untraced.walls)), "ratio")
    metrics["process.wall_s"] = (untraced.wall, "s")
    metrics["process.probe_s"] = (statistics.median(untraced.probes), "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["trace.spans_per_pass"] = (len(spans) / n, "count")
    return metrics


def branch(alpha: float) -> str:
    """The pair-entropy kernel branch the package picks for alpha."""
    from pauli_tsallis.entropy import EXPM1_WINDOW

    if alpha == 1.0:
        return "shannon"
    return "expm1" if abs(alpha - 1.0) < EXPM1_WINDOW else "pow"


def scan_arguments(call_args) -> tuple:
    """(alpha, GridSpec) of a recorded scan_extrema(alpha, grid=None) call."""
    import pauli_tsallis as pt

    args, kwargs = call_args
    alpha = args[0] if args else kwargs["alpha"]
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    alpha = alpha.alpha if isinstance(alpha, pt.TsallisParam) else float(alpha)
    return alpha, grid if grid is not None else pt.verify.DEFAULT_GRID


def report(metrics: dict, checks, passes: Passes, label: str) -> None:
    print(f"{label}: {len(passes.walls)} passes, median {passes.wall:.4f} s, "
          f"min {min(passes.walls):.4f} s, max {max(passes.walls):.4f} s; "
          f"probe median {statistics.median(passes.probes) * 1e3:.3f} ms, "
          f"normalised median {passes.norm_wall:.4f} s")
    for name, (value, unit) in metrics.items():
        note = "  (computed from call arguments)" if name in COMPUTED else ""
        print(f"  {name:<48} {value:>16.6g} {unit}{note}")
    rate = len(checks.failures) / checks.attempted
    print(f"  {'error_rate':<48} {rate:>16.6g} ratio  ({len(checks.failures)} of {checks.attempted} checks failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, help="input seed (default: the package's own default seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)

    bootstrap()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.BUILDERS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    refs = json.loads((BENCH / "references.json").read_text())
    workload = workloads.build(args.workload, seed, smoke=args.smoke)
    checks = workloads.Checks()
    about = provenance(seed)
    print("provenance: " + json.dumps(about))
    print(f"workload: {args.workload} ({len(workload.calls)} calls per pass, seed {seed})")

    setup = [] if args.trace else setup_times(1 if args.smoke else SETUP_LAUNCHES)
    workloads.build(args.workload, seed, smoke=True).run_pass()  # warm-up, untimed

    if args.trace == 0:
        passes = measure(workload, refs, args.seconds, checks)
        metrics = end_to_end(workload, passes, setup, checks)
    else:
        untraced = measure(workload, refs, args.seconds / 2, checks)
        tracer = Tracer(TRACED, keep_args=frozenset({"verify.scan_extrema"}))
        tracer.install()
        try:
            passes = measure(workload, refs, args.seconds / 2, checks, tracer, TRACED_PASSES)
        finally:
            tracer.uninstall()
        checks.expect(passes.digests[0] == untraced.digests[0], "traced outputs differ from untraced outputs")
        metrics = per_layer(workload, tracer, untraced, passes)
        tracer.dump(OUT / f"spans-{args.workload}-{seed}.csv")

    report(metrics, checks, passes, "traced" if args.trace else "untraced")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "provenance": about, "pass_walls_s": passes.walls,
              "pass_probes_s": passes.probes, **result}
    (OUT / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
