"""Tests of the benchmark itself, at smoke sizes.

    python -m pytest bench/test_bench.py

They check that every workload prints exactly the metrics BENCHMARK.json
declares, that passes are scaled by the host-speed probe and its alarm is
stopped afterwards, that the output checker counts a perturbed reference
as a failure, that a failing check makes the command exit non-zero, and
that the command refuses to run without the package sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.BUILDERS)


def run_bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout, capture_output=True, text=True, timeout=300
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_names_only_benchmark_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace, kind):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_measure_scales_by_the_probe_and_stops_its_alarm():
    built = workloads.build("acceptance_scans", 7, smoke=True)
    handler = signal.getsignal(signal.SIGALRM)
    passes = run.measure(built, {}, 0.6, workloads.Checks())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(passes.probes) == len(passes.walls) and min(passes.probes) > 0
    scaled = [w * run.PROBE_REF_S / p for w, p in zip(passes.walls, passes.probes)]
    assert passes.norm_wall == statistics.median(scaled)
    assert passes.peak_rss_mb > 0


def _perturbed(value):
    """Every single-field change of a frozen reference entry."""
    if isinstance(value, str):  # a sha256 digest
        yield value[:-1] + ("0" if value[-1] != "0" else "1")
    else:
        for field, v in value.items():
            if isinstance(v, float):
                yield {**value, field: v + 10 * workloads.REF_TOL}
            else:  # a grid index pair
                yield {**value, field: [v[0] + 1, v[1]]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_counts_each_perturbed_reference(workload):
    built = workloads.build(workload, workloads.DEFAULT_SEED, smoke=True)
    outputs = built.run_pass()
    refs = built.references(outputs)
    checks = workloads.Checks()
    built.check(outputs, refs, checks)
    assert refs and checks.failures == []
    for key, value in refs.items():
        for perturbed in _perturbed(value):
            checks = workloads.Checks()
            built.check(outputs, {**refs, key: perturbed}, checks)
            assert len(checks.failures) == 1, (key, perturbed)


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_failed_check_exits_non_zero(tmp_path):
    checkout = _copy_checkout(tmp_path, with_src=True)
    built = workloads.build("wide_grid", workloads.DEFAULT_SEED, smoke=True)
    refs = built.references(built.run_pass())
    key = sorted(refs)[0]
    refs[key] = {**refs[key], "min": refs[key]["min"] + 1e-6}
    (checkout / "bench" / "references.json").write_text(json.dumps(refs))
    proc = run_bench(checkout, "--workload", "wide_grid", "--seconds", "0.3", "--smoke")
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    checkout = _copy_checkout(tmp_path, with_src=False)
    proc = run_bench(checkout, "--workload", "verify_cli", "--seconds", "0.3")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_frozen_verify_digest_is_the_headline_command_output():
    proc = subprocess.run(
        [sys.executable, "-m", "pauli_tsallis", "verify", "0.5,1,2,4", "--grid", "2001"],
        cwd=ROOT, capture_output=True, timeout=300, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0
    refs = json.loads((BENCH / "references.json").read_text())
    assert refs["csv verify 0.5,1,2,4 --grid 2001"] == hashlib.sha256(proc.stdout).hexdigest()
