"""Regenerate bench/references.json from the code in this checkout.

    python3 bench/freeze.py

Runs one full-size pass of every workload with the default seed and writes
the output digests and scan extrema that run.py compares against.  Run it
only at a commit whose outputs are meant to become the reference; it
refuses to freeze outputs that fail their invariant checks.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, bootstrap


def main() -> int:
    bootstrap()
    import workloads

    refs: dict = {}
    for name in workloads.BUILDERS:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        outputs = workload.run_pass()
        checks = workloads.Checks()
        workload.check(outputs, {}, checks)
        if checks.failures:
            sys.exit(f"error: {name} fails its checks, not freezing: {checks.failures[:5]}")
        refs.update(workload.references(outputs))
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {BENCH / 'references.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
