"""The one record convention, `records.Frozen`, and the one state type,
`records.StateVector`. Every record is built from its fields, positional or by
keyword, each once, and is read-only after that; every record but the basis
holds Python values and compares, hashes, pickles and copies by value, the
package's outputs too; a basis is equal only to itself."""

import copy
import pickle

import numpy as np
import pytest

from entfluct import (CanonicalForm, FluctuationReport, ObservableBasis, SearchConfig, SearchResult, StateVector,
                      canonical_form, fluctuation_report, maximize_total_variance, spin_generators, to_cartesian)
from entfluct.presets import PRESETS, Preset

PSI = StateVector((0.6, 0.8j, 0), "spherical")
# each record class with one value per field, in `_FIELDS` order
RECORDS = [
    (StateVector, ((0.6 + 0j, 0.8j, 0j), "spherical")),
    (SearchConfig, (4, 100, 1e-10, 7, "minimize")),
    (Preset, ("an-id", "a description", PSI, 1.0, "a note")),
    (FluctuationReport, ((0.0, 0.0, 0.0), 2.0, 0.0, 1.0)),
    (CanonicalForm, (0.5, 0.25, (1.0, 0.0, 0.0), None)),
    (SearchResult, (PSI, 2.0, True, 3, 0, (2.0,), ("gradient",), (0.0,))),
    (ObservableBasis, (spin_generators(1).operators, "su2-spin-1")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
# the records built by the plain constructor of Frozen, with no field of a default value
PLAIN = [(cls, values) for cls, values in RECORDS if cls in (Preset, FluctuationReport, CanonicalForm, SearchResult)]
# the records with value semantics: all but the basis
VALUES = [(cls, values) for cls, values in RECORDS if cls is not ObservableBasis]
ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "deepcopy": copy.deepcopy, "copy": copy.copy}
# the package's records as it returns them, each with its fields that hold floats per element
OUTPUTS = {
    "fluctuation_report": (lambda: fluctuation_report(PSI, spin_generators(1)), ("expectations",)),
    "canonical_form": (lambda: canonical_form(to_cartesian(PSI)), ("mu", "nu")),
    "canonical_form-real": (lambda: canonical_form(StateVector((0, 0, 1), "cartesian")), ("mu",)),  # nu is None
    "maximize_total_variance": (lambda: maximize_total_variance(spin_generators(1), SearchConfig(restarts=3, seed=7)),
                                ("restart_values", "restart_gradients")),
}


class TestFrozen:
    @pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
    def test_built_positionally_and_by_keyword(self, cls, values):
        positional, keyword = cls(*values), cls(**dict(zip(cls._FIELDS, values)))
        for name, value in zip(cls._FIELDS, values):  # assert_equal: the basis holds its operators as an array
            np.testing.assert_equal(getattr(positional, name), value)
            np.testing.assert_equal(getattr(keyword, name), value)

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
            np.testing.assert_equal(getattr(record, name), values[cls._FIELDS.index(name)])

    def test_basis_equality_stays_identity(self):
        ops = spin_generators(1).operators
        basis, twin = ObservableBasis(ops, "su2-spin-1"), ObservableBasis(ops, "su2-spin-1")
        assert basis == basis and basis != twin and hash(basis) != hash(twin)
        assert len({basis, twin}) == 2


class TestValue:
    @pytest.mark.parametrize("cls,values", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
    def test_equal_records_compare_and_hash_equal(self, cls, values):
        a, b = cls(*values), cls(*values)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("cls,values", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
    def test_a_copy_compares_equal(self, cls, values, round_trip):
        record = cls(*values)
        back = round_trip(record)
        assert back == record and hash(back) == hash(record)

    @pytest.mark.parametrize("build,fields", OUTPUTS.values(), ids=OUTPUTS)
    def test_an_output_holds_tuples_of_floats(self, build, fields):
        record = build()
        for name in fields:
            value = getattr(record, name)
            assert type(value) is tuple and value and all(type(x) is float for x in value), name

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("build,fields", OUTPUTS.values(), ids=OUTPUTS)
    def test_an_output_compares_and_hashes_by_value(self, build, fields, round_trip):
        record, again = build(), build()
        assert record == again and hash(record) == hash(again)
        back = round_trip(record)
        assert back == record and hash(back) == hash(record)


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

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
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
