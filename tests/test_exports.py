"""Public names: every exported name resolves, and each quantity has one name."""

import dataclasses
import importlib
import pkgutil
from collections import Counter

import pytest

import pauli_tsallis
from pauli_tsallis import BoundSet, MeasurementTriple, ProbPair, bounds, entropy, states, verify

MODULES = [pauli_tsallis] + [
    importlib.import_module(f"pauli_tsallis.{info.name}") for info in pkgutil.iter_modules(pauli_tsallis.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


def test_package_reexports_the_module_lists():
    # each public name is declared once, in its module's __all__
    modules = [entropy, states, bounds, verify]
    assert pauli_tsallis.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]


def test_no_name_in_two_module_lists():
    # the package star-imports the modules in turn: a later one would shadow an earlier one's name
    counts = Counter(name for m in (entropy, states, bounds, verify) for name in m.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_bound_set_fields():
    # upper_pure is not None is the proven-range test and upper_pure's tightness
    names = [field.name for field in dataclasses.fields(BoundSet)]
    assert "upper_pure_is_tight" not in names
    assert len(names) == 7


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
        # the proven range is decided by bound_set: upper_pure is None outside it
        (pauli_tsallis, "is_proven_order"),
        (bounds, "is_proven_order"),
        # ProbPair(p, 1 - p), the pair's two fields, BlochVector.norm_sq
        (ProbPair, "from_plus"),
        (ProbPair, "as_tuple"),
        (MeasurementTriple, "direction_norm_sq"),
        # measurement_triple(state) of a PureStateAngles
        (pauli_tsallis, "probs_from_angles"),
        (states, "probs_from_angles"),
    ],
)
def test_redundant_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", [])
