"""Exhaustive grid scans certifying the bounds without trusting them.

The scan evaluates the three-entropy sum on a dense grid over the reduced
rectangle and simply records extrema; its report holds no bound.  The
analytic formulas only enter afterwards, read from bound_set, as
predictions to compare against.

Run:  python demos/brute_force_certification.py
"""

import math

from pauli_tsallis import (
    GridSpec,
    bound_set,
    certify_equality_conditions,
    h_tilde,
    refined_maximum,
    scan_extrema,
)

GRID = GridSpec(801, 801)

print("grid extrema vs analytic bounds (801 x 801)")
print(f"{'alpha':>6} {'grid min':>12} {'lower bound':>12} {'slack':>10} "
      f"{'grid max':>12} {'3 h_tilde':>12}")
for alpha in (0.5, 1.0, 2.0, 2.5, 4.0, 7.0):
    report, bounds = scan_extrema(alpha, GRID), bound_set(alpha)
    upper = f"{bounds.upper_pure:.8f}" if bounds.upper_pure is not None else "   (none)"
    print(f"{alpha:>6} {report.min_value:>12.8f} {bounds.lower:>12.8f} "
          f"{report.min_value - bounds.lower:>10.2e} {report.max_value:>12.8f} {upper:>12}")

# For the tight orders the slack is zero to machine precision: the grid
# contains the corners of the rectangle, which are exactly the minimizing
# eigenstates.  At alpha = 2.5 the slack is genuinely positive, the
# interpolated bound is not attained.

# The pure-state maximum sits at an interior point, so one level of local
# grid refinement is used to pin it down to ~1e-9.
print("\nrefined pure-state maxima")
tau_star = math.atan(math.sqrt(2.0)) / 2.0
for alpha in (0.5, 1.0, 4.0):
    value, argmax = refined_maximum(alpha, GRID)
    print(f"  alpha={alpha:<4} max={value:.10f}  3 h_tilde={3 * h_tilde(alpha):.10f}  "
          f"argmax tau err={abs(argmax.tau - tau_star):.2e}")

# Equality-condition certification bundles: eigenstates attain the lower
# bound, random pure states strictly exceed it (or attain it at the
# constant orders 2 and 3), the balanced state attains the upper bound,
# and impure axis states always sit strictly above.
print("\nequality certification at tolerance 1e-12")
for alpha in (0.5, 1.0, 2.0, 4.0, 6.0):
    ok = certify_equality_conditions(alpha, tolerance=1e-12, n_samples=5000)
    print(f"  alpha={alpha:<4} certified={ok}")
