"""From a qubit state to the three Pauli outcome distributions.

Run:  python demos/measurement_probabilities.py
"""

import math

from pauli_tsallis import (
    BlochVector,
    PureStateAngles,
    bloch_from_angles,
    canonicalize_to_D,
    entropic_sum,
    measurement_triple,
    probs_from_bloch,
)


def show(label, triple):
    print(f"{label}")
    for name, pair in zip(("sigma_x", "sigma_y", "sigma_z"), triple.pairs()):
        print(f"  {name}: ({pair.p_plus:.6f}, {pair.p_minus:.6f})")


# A pure state is cos(tau)|0> + e^(i phi) sin(tau)|1>.  The |0> state is a
# sigma_z eigenstate: its z-measurement is certain, x and y are fair coins.
show("state |0>  (tau=0, phi=0)", measurement_triple(PureStateAngles(0.0, 0.0)))

# Mixed states enter through the Bloch vector; outcome probabilities are
# (1 +- b_nu)/2 componentwise.
show("\nBloch (0.6, 0, 0.8)", probs_from_bloch(BlochVector(0.6, 0.0, 0.8)))
show("\ncompletely mixed state", probs_from_bloch(BlochVector(0.0, 0.0, 0.0)))

# The state with 2 tau = arctan(sqrt 2), phi = pi/4 treats all three
# observables identically: every measurement gives ((1 +- 1/sqrt3)/2).
# This is the state that maximizes the entropic sum among pure states.
tau_star = math.atan(math.sqrt(2.0)) / 2.0
show(f"\nbalanced state (tau={tau_star:.6f}, phi=pi/4)",
     measurement_triple(PureStateAngles(tau_star, math.pi / 4)))

# Angle and Bloch routes describe the same physics.
state = PureStateAngles(0.9, 5.1)
b = bloch_from_angles(state)
print("\nangle route == Bloch route:",
      measurement_triple(state).pairs() == probs_from_bloch(b).pairs())

# Symmetry folding: any state maps into the rectangle
# tau, phi in [0, pi/4] without changing the multiset of distributions,
# hence without changing the entropic sum.
folded = canonicalize_to_D(state)
print(f"folded ({state.tau:.4f}, {state.phi:.4f}) -> ({folded.tau:.4f}, {folded.phi:.4f})")
for alpha in (0.5, 1.0, 3.0):
    before = entropic_sum(state, alpha)
    after = entropic_sum(folded, alpha)
    print(f"  alpha={alpha}: sum before={before:.12f} after={after:.12f}")
