"""The preset catalog, pinned field by field: ids and order, descriptions,
systems, expected concurrences, source notes, and each state's basis label
and amplitudes. The expected concurrences are written here as literals, not
computed by the package."""

import numpy as np
import pytest

from entfluct.presets import PRESETS

R = 1 / np.sqrt(2.0)
M0 = ("spherical", [0.0, 1.0, 0.0])  # |m=0>, completely entangled
P1 = ("spherical", [1.0, 0.0, 0.0])  # |m=+1>, coherent
CE_NOTE = "member of the completely entangled spin-1 basis"
COHERENT_NOTE = "spin coherent state, minimal quantum fluctuations"
PION_NOTE = "charged pions are coherent states of the quark isodoublet"

CATALOG = [  # (id, description, system, state (label, amplitudes) or None, expected C, note)
    ("ce-psi0", "CE basis state |0>", "spin1", M0, 1.0, CE_NOTE),
    ("ce-psi-plus", "CE basis state (|+1> + |-1>)/sqrt(2)", "spin1", ("spherical", [R, 0.0, R]), 1.0, CE_NOTE),
    ("ce-psi-minus", "CE basis state (|+1> - |-1>)/sqrt(2)", "spin1", ("spherical", [R, 0.0, -R]), 1.0, CE_NOTE),
    ("coherent-plus1", "Coherent state |m=+1>", "spin1", P1, 0.0, COHERENT_NOTE),
    ("coherent-minus1", "Coherent state |m=-1>", "spin1", ("spherical", [0.0, 0.0, 1.0]), 0.0, COHERENT_NOTE),
    ("pion-plus", "pi+ = u dbar (flavor product state)", "two-qubit",
     ("qubit-pair", [0.0, 1.0, 0.0, 0.0]), 0.0, PION_NOTE),
    ("pion-minus", "pi- = ubar d (flavor product state)", "two-qubit",
     ("qubit-pair", [0.0, 0.0, 1.0, 0.0]), 0.0, PION_NOTE),
    ("pion-zero", "pi0 = (u ubar - d dbar)/sqrt(2)", "two-qubit", ("qubit-pair", [R, 0.0, 0.0, -R]), 1.0,
     "the neutral pion is a completely entangled flavor state"),
    ("he3-A-spin", "Superfluid He-3 A phase, spin part", "spin1", M0, 1.0,
     "spin part of the A-phase Cooper pair is completely entangled"),
    ("he3-A-orbital", "Superfluid He-3 A phase, orbital part", "spin1", P1, 0.0,
     "orbital part of the A-phase Cooper pair is coherent"),
    ("he3-beta-spin", "Superfluid He-3 beta phase, spin part", "spin1", P1, 0.0,
     "beta phase: spin part coherent"),
    ("he3-beta-orbital", "Superfluid He-3 beta phase, orbital part", "spin1", M0, 1.0,
     "beta phase: orbital part entangled"),
    ("he3-polar-spin", "Superfluid He-3 polar phase, spin part", "spin1", M0, 1.0,
     "polar phase: both parts are entangled spin-1 states"),
    ("he3-polar-orbital", "Superfluid He-3 polar phase, orbital part", "spin1", M0, 1.0,
     "polar phase: both parts are entangled spin-1 states"),
    ("he3-A1-spin", "Superfluid He-3 A1 phase, spin part", "spin1", P1, 0.0,
     "A1 phase: both components coherent"),
    ("he3-A1-orbital", "Superfluid He-3 A1 phase, orbital part", "spin1", P1, 0.0,
     "A1 phase: both components coherent"),
    ("he3-B", "Superfluid He-3 B phase (label only)", "spin1", None, None,
     "spin-orbit entangled pair -- out of scope"),
]


def test_catalog_ids_in_order():
    assert list(PRESETS) == [row[0] for row in CATALOG]


@pytest.mark.parametrize("pid,description,system,state,concurrence,note", CATALOG, ids=[r[0] for r in CATALOG])
def test_preset_fields(pid, description, system, state, concurrence, note):
    p = PRESETS[pid]
    assert (p.id, p.description, p.system, p.expected_concurrence, p.source_note) == (
        pid, description, system, concurrence, note,
    )
    if state is None:
        assert p.state is None
    else:
        label, amplitudes = state
        assert p.state.basis_label == label
        assert np.array_equal(p.state.amplitudes, np.array(amplitudes, dtype=complex))


def test_presets_are_immutable_and_build_their_state_once():
    p = PRESETS["pion-zero"]
    for name in ("id", "description", "system", "state", "expected_concurrence", "source_note"):
        with pytest.raises(AttributeError, match=name):
            setattr(p, name, None)
    assert p.system == "two-qubit" and p.state is p.state
    with pytest.raises(AttributeError):
        del p.id
    copy = type(p)(p.id, p.description, p.state, p.expected_concurrence, p.source_note)
    assert copy == p and hash(copy) == hash(p) and copy != PRESETS["pion-plus"]
