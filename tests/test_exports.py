"""Public names: every exported name resolves, and each quantity has one name."""

import importlib
import pkgutil

import pytest

import pauli_tsallis
from pauli_tsallis import MeasurementTriple, ProbPair, bounds

MODULES = [pauli_tsallis] + [
    importlib.import_module(f"pauli_tsallis.{info.name}") for info in pkgutil.iter_modules(pauli_tsallis.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize(
    "owner,name",
    [
        # second names for BoundSet fields: read bound_set(alpha).lower,
        # .lower_is_tight, .upper_mixed and .upper_pure
        (pauli_tsallis, "lower_bound"),
        (pauli_tsallis, "upper_bound_mixed"),
        (pauli_tsallis, "upper_bound_pure"),
        (bounds, "lower_bound"),
        (bounds, "upper_bound_mixed"),
        (bounds, "upper_bound_pure"),
        # ProbPair(p, 1 - p), the pair's two fields, BlochVector.norm_sq
        (ProbPair, "from_plus"),
        (ProbPair, "as_tuple"),
        (MeasurementTriple, "direction_norm_sq"),
    ],
)
def test_redundant_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", [])
