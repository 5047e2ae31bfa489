"""The one record convention, `core.Frozen`, and the one state type,
`core.StateVector`. Every record is built from its fields, positional or by
keyword, each once, and is read-only after that; a state compares, hashes,
pickles and copies by value; a basis is equal only to itself."""

import copy
import pickle

import numpy as np
import pytest

from entfluct import (CanonicalForm, FluctuationReport, ObservableBasis, SearchConfig, SearchResult, StateVector,
                      spin_generators)
from entfluct.presets import PRESETS, Preset

PSI = StateVector((0.6, 0.8j, 0), "spherical")
# each record class with one value per field, in `_FIELDS` order
RECORDS = [
    (StateVector, ((0.6 + 0j, 0.8j, 0j), "spherical")),
    (SearchConfig, (4, 100, 1e-10, 7, "minimize")),
    (Preset, ("an-id", "a description", PSI, 1.0, "a note")),
    (FluctuationReport, (np.zeros(3), 2.0, 0.0, 1.0)),
    (CanonicalForm, (0.5, 0.25, np.eye(3)[0], None)),
    (SearchResult, (PSI, 2.0, True, 3, 0, np.zeros(1), ("gradient",), np.zeros(1))),
    (ObservableBasis, (spin_generators(1).operators, "su2-spin-1")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
# the records built by the plain constructor of Frozen, with no field of a default value
PLAIN = [(cls, values) for cls, values in RECORDS if cls in (Preset, FluctuationReport, CanonicalForm, SearchResult)]


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestFrozen:
    @pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
    def test_built_positionally_and_by_keyword(self, cls, values):
        positional, keyword = cls(*values), cls(**dict(zip(cls._FIELDS, values)))
        for name, value in zip(cls._FIELDS, values):
            assert _same(getattr(positional, name), value) and _same(getattr(keyword, name), value)

    @pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
    def test_an_unknown_or_extra_field_is_a_type_error(self, cls, values):
        with pytest.raises(TypeError):
            cls(*values, unknown=1)
        with pytest.raises(TypeError):
            cls(*values, values[0])

    @pytest.mark.parametrize("cls", [cls for cls, _ in RECORDS if cls is not SearchConfig], ids=lambda c: c.__name__)
    def test_a_missing_field_is_a_type_error(self, cls):
        with pytest.raises(TypeError):
            cls()

    @pytest.mark.parametrize("cls,values", PLAIN, ids=[cls.__name__ for cls, _ in PLAIN])
    def test_the_plain_constructor_takes_each_field_once(self, cls, values):
        with pytest.raises(TypeError, match="each once"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match="each once"):
            cls(*values[:-1], **{cls._FIELDS[0]: values[0]})
        with pytest.raises(TypeError, match="each once"):
            cls(*values, **{cls._FIELDS[-1]: values[-1]})

    @pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
    def test_fields_are_read_only(self, cls, values):
        record = cls(*values)
        for name in cls._FIELDS:
            with pytest.raises(AttributeError, match=name):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(record, name)
            assert _same(getattr(record, name), values[cls._FIELDS.index(name)])

    def test_basis_equality_stays_identity(self):
        ops = spin_generators(1).operators
        basis, twin = ObservableBasis(ops, "su2-spin-1"), ObservableBasis(ops, "su2-spin-1")
        assert basis == basis and basis != twin and hash(basis) != hash(twin)
        assert len({basis, twin}) == 2


class TestStateValue:
    def test_equal_states_compare_and_hash_equal(self):
        a, b = StateVector([1, 0, 0], "spherical"), StateVector([1, 0, 0], "spherical")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # an array, nested lists and Python numbers give the same state
        for same in (StateVector(np.array([1.0, 0.0, 0.0]), "spherical"), StateVector([[1], [0], [0]], "spherical"),
                     StateVector((1 + 0j, 0j, 0j), "spherical")):
            assert same == a and hash(same) == hash(a)

    def test_a_different_label_or_amplitude_is_unequal(self):
        psi = StateVector([1, 0, 0], "spherical")
        assert psi != StateVector([1, 0, 0], "cartesian")
        assert psi != StateVector([0, 1, 0], "spherical")
        assert psi != StateVector([1j, 0, 0], "spherical")
        assert psi != StateVector([1, 0, 0, 0], "spherical")

    def test_python_numbers_and_arrays_give_the_same_components(self):
        values = [complex(-0.0, -0.0), 0.6, -0.8j]
        assert repr(StateVector(values, "spherical").components) == repr(
            StateVector(np.array(values), "spherical").components)

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_a_state_survives_a_round_trip(self, round_trip):
        psi = StateVector([0.6, 0.8j, 0], "spherical")
        assert not psi.amplitudes.flags.writeable  # a built array is not carried: the copy builds its own
        back = round_trip(psi)
        assert back == psi and hash(back) == hash(psi) and back.components == psi.components
        assert np.array_equal(back.amplitudes, psi.amplitudes)
        with pytest.raises(ValueError):
            back.amplitudes[0] = 0.0

    def test_a_preset_holding_a_state_hashes(self):
        p = PRESETS["pion-zero"]
        assert isinstance(p.state, StateVector) and hash(p) == hash(copy.deepcopy(p))
        assert len(set(PRESETS.values())) == len(PRESETS)
