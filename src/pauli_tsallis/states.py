"""Qubit states and the outcome distributions of the three Pauli measurements.

A pure state is parameterized by two angles,

    |psi> = cos(tau) |0> + e^(i phi) sin(tau) |1>,

with tau in [0, pi/2] and phi in [0, 2 pi).  Mixed states are carried by
their Bloch vector b with |b| <= 1 (|b| = 1 for pure states).  Measuring
sigma_x, sigma_y, sigma_z in a state with Bloch vector b yields the binary
distributions ((1 + b_nu)/2, (1 - b_nu)/2); for a pure state in angle form
b = (sin 2tau cos phi, sin 2tau sin phi, cos 2tau).

Four symmetry maps (phi -> phi - pi, phi -> pi - phi, phi -> pi/2 - phi,
tau -> pi/2 - tau) either swap outcomes within a pair or exchange the x
and y pairs, so every pure state is equivalent, as far as the multiset of
the three outcome distributions goes, to a state in the rectangle

    D = { (tau, phi) : tau in [0, pi/4], phi in [0, pi/4] },

which is the domain all brute-force optimization reduces to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .entropy import ProbPair

__all__ = [
    "TWO_PI",
    "QUARTER_PI",
    "NORM_TOL",
    "PureStateAngles",
    "BlochVector",
    "MeasurementTriple",
    "StateLike",
    "probs_from_bloch",
    "measurement_triple",
    "bloch_from_angles",
    "canonicalize_to_D",
    "eigenstate_witnesses",
]

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# |b|^2 may exceed 1 by at most this much (rounding); pure means
# | |b| - 1 | <= NORM_TOL.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureStateAngles:
    """Pure-state angles (tau, phi), normalized on construction.

    phi is reduced modulo 2 pi into [0, 2 pi); tau must lie in [0, pi/2]
    (excursions within 1e-12 are clamped, anything larger raises).
    """

    tau: float
    phi: float

    def __post_init__(self) -> None:
        tau = float(self.tau)
        phi = float(self.phi)
        if not (math.isfinite(tau) and math.isfinite(phi)):
            raise ValueError(f"angles must be finite, got tau={self.tau!r}, phi={self.phi!r}")
        if not -1e-12 <= tau <= HALF_PI + 1e-12:
            raise ValueError(f"tau must lie in [0, pi/2], got {self.tau!r}")
        tau = min(max(tau, 0.0), HALF_PI)
        phi = math.fmod(phi, TWO_PI)
        if phi < 0.0:
            phi += TWO_PI
        if phi >= TWO_PI:  # fmod/rounding can land exactly on 2 pi
            phi = 0.0
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class BlochVector:
    """Bloch vector (b_x, b_y, b_z); mixed states allowed, |b|^2 <= 1."""

    b_x: float
    b_y: float
    b_z: float

    def __post_init__(self) -> None:
        for name in ("b_x", "b_y", "b_z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.norm_sq > 1.0 + NORM_TOL:
            raise ValueError(
                f"Bloch vector norm^2 = {self.norm_sq!r} exceeds 1 beyond tolerance {NORM_TOL}"
            )

    @property
    def norm_sq(self) -> float:
        return self.b_x * self.b_x + self.b_y * self.b_y + self.b_z * self.b_z

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def is_pure(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm - 1.0) <= tol


@dataclass(frozen=True)
class MeasurementTriple:
    """The three binary outcome distributions of sigma_x, sigma_y, sigma_z."""

    px: ProbPair
    qy: ProbPair
    rz: ProbPair

    def pairs(self) -> tuple[ProbPair, ProbPair, ProbPair]:
        return (self.px, self.qy, self.rz)


StateLike = Union[PureStateAngles, BlochVector, MeasurementTriple]


def probs_from_bloch(b: BlochVector) -> MeasurementTriple:
    """Outcome distributions ((1 +- b_nu)/2) for nu = x, y, z."""
    return MeasurementTriple(
        px=ProbPair((1.0 + b.b_x) / 2.0, (1.0 - b.b_x) / 2.0),
        qy=ProbPair((1.0 + b.b_y) / 2.0, (1.0 - b.b_y) / 2.0),
        rz=ProbPair((1.0 + b.b_z) / 2.0, (1.0 - b.b_z) / 2.0),
    )


def measurement_triple(state: StateLike) -> MeasurementTriple:
    """Outcome distributions of a state given in any of the three forms.

    A Bloch vector b gives ((1 +- b_nu)/2) for nu = x, y, z, and |psi(tau, phi)>
    those of its Bloch vector: px = (1 +- sin 2tau cos phi)/2,
    qy = (1 +- sin 2tau sin phi)/2, rz = (1 +- cos 2tau)/2.
    """
    if isinstance(state, MeasurementTriple):
        return state
    if isinstance(state, PureStateAngles):
        return probs_from_bloch(bloch_from_angles(state))
    if isinstance(state, BlochVector):
        return probs_from_bloch(state)
    raise TypeError(f"expected PureStateAngles, BlochVector or MeasurementTriple, got {type(state)!r}")


def bloch_from_angles(state: PureStateAngles) -> BlochVector:
    """Bloch vector of the pure state with angles (tau, phi).

    On D its components satisfy 0 <= b_y <= b_x <= 1: b_x and b_y are the
    natural arguments of the monotone kernels that drive the optimization.
    """
    s2t = math.sin(2.0 * state.tau)
    return BlochVector(
        s2t * math.cos(state.phi),
        s2t * math.sin(state.phi),
        math.cos(2.0 * state.tau),
    )


def canonicalize_to_D(state: PureStateAngles) -> PureStateAngles:
    """Fold a state into the rectangle D = [0, pi/4] x [0, pi/4].

    Applies, in this fixed order,
      1. phi >= pi    -> phi - pi        (swaps outcomes within px and qy),
      2. phi >  pi/2  -> pi - phi        (swaps p+ and p-),
      3. phi >  pi/4  -> pi/2 - phi      (exchanges the px and qy pairs),
      4. tau >  pi/4  -> pi/2 - tau      (swaps r+ and r-),
    so the returned point has the same multiset of outcome distributions
    up to swaps within pairs and the px/qy exchange.  Boundary values
    pi/4 map to themselves, and the map is exactly idempotent.
    """
    tau = state.tau
    phi = state.phi
    if phi >= math.pi:
        phi -= math.pi
    if phi > HALF_PI:
        phi = math.pi - phi
    if phi > QUARTER_PI:
        phi = HALF_PI - phi
    if tau > QUARTER_PI:
        tau = HALF_PI - tau
    return PureStateAngles(tau, phi)


def eigenstate_witnesses() -> list[BlochVector]:
    """The six Pauli eigenstates (+-1, 0, 0), (0, +-1, 0), (0, 0, +-1).

    At each of them one outcome distribution is deterministic and the
    other two are equiprobable; these are exactly the states attaining the
    lower bound on the entropic sum.
    """
    return [
        BlochVector(1.0, 0.0, 0.0),
        BlochVector(-1.0, 0.0, 0.0),
        BlochVector(0.0, 1.0, 0.0),
        BlochVector(0.0, -1.0, 0.0),
        BlochVector(0.0, 0.0, 1.0),
        BlochVector(0.0, 0.0, -1.0),
    ]
