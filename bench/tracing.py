"""In-memory span tracer that wraps public functions of ``pauli_tsallis``.

A traced function is rebound, under the same name, in every
``pauli_tsallis`` module that holds it.  A call made through any module's
global name therefore enters the wrapper, so cross-module calls nest:
``refined_maximum`` calling ``scan_extrema`` records the scan as a child
span of the refinement.  Nothing in ``src/`` changes; ``uninstall`` puts
the original functions back.

Spans stay in memory while the workload runs and are written out once,
after measurement, by ``dump``.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from pathlib import Path

PACKAGE = "pauli_tsallis"

# Span fields, by index: name, parent span index (-1 at top level), pass
# index, start and end in perf_counter seconds, and the call's
# (args, kwargs) for the names listed in ``keep_args`` (else None).
NAME, PARENT, PASS, START, END, ARGS = range(6)


class Tracer:
    def __init__(self, targets: list[str], keep_args: frozenset[str] = frozenset()) -> None:
        """targets are "module.function" names relative to the package."""
        self.targets = targets
        self.keep_args = keep_args
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            traced = self._wrap(target, original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, traced)
                    self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in self.keep_args

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.pass_id, 0.0, 0.0, (args, kwargs) if keep else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        The benchmark calls the package from one thread, so the children of
        a span run one after another inside it and the time they cover is
        the sum of their durations.
        """
        result = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                result[span[PARENT]] -= span[END] - span[START]
        return result

    def dump(self, path: Path) -> None:
        """Write every span as one CSV row, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "parent", "pass", "name", "start_s", "end_s", "self_s"])
            for k, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                writer.writerow(
                    [k, span[PARENT], span[PASS], span[NAME], span[START] - t0, span[END] - t0, self_s]
                )
