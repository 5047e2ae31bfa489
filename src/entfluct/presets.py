"""Catalog of physically motivated preset states.

Spin-1 presets use the spherical components (psi_+1, psi_0, psi_-1); qubit-pair
presets use the product basis order |uu>, |ud>, |du>, |dd>. The pion flavor
doublet is read as (u, d) (x) (u-bar, d-bar), so e.g. pi+ = |u d-bar> occupies
the second slot. The helium-3 entries encode which part of the Cooper pair
order parameter is completely entangled (phi = 0 representative) versus
coherent (phi = pi/4 representative); the B phase couples spin and orbit and
is listed as a label only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import _SQ2, StateVector
from .spin1 import ce_basis


@dataclass(frozen=True)
class Preset:
    """`system` follows from the state: "two-qubit" for a qubit-pair state,
    else (label-only entries too) "spin1"."""

    id: str
    description: str
    system: str = field(init=False)
    state: Optional[StateVector]  # None for label-only
    expected_concurrence: Optional[float]
    source_note: str

    def __post_init__(self):
        pair = self.state is not None and self.state.basis_label == "qubit-pair"
        object.__setattr__(self, "system", "two-qubit" if pair else "spin1")


# (representative state, its concurrence): the concurrences are literals, the
# physics the presets assert, not values computed here
_CE = (ce_basis()[0], 1.0)  # |m=0>, the canonical phi = 0 representative
_COHERENT = (StateVector([1.0, 0.0, 0.0], "spherical"), 0.0)  # |m=+1>, phi = pi/4

# id -> ket of each ce_basis() state, in its order
_CE_KETS = {"ce-psi0": "|0>", "ce-psi-plus": "(|+1> + |-1>)/sqrt(2)", "ce-psi-minus": "(|+1> - |-1>)/sqrt(2)"}

# phase -> (spin part, orbital part, source note on each)
_HE3_PHASES = {
    "A": (_CE, _COHERENT, "spin part of the A-phase Cooper pair is completely entangled",
          "orbital part of the A-phase Cooper pair is coherent"),
    "beta": (_COHERENT, _CE, "beta phase: spin part coherent", "beta phase: orbital part entangled"),
    "polar": (_CE, _CE, *("polar phase: both parts are entangled spin-1 states",) * 2),
    "A1": (_COHERENT, _COHERENT, *("A1 phase: both components coherent",) * 2),
}


def _he3_presets():
    for phase, (spin, orbital, spin_note, orbital_note) in _HE3_PHASES.items():
        for part, (state, concurrence), note in (("spin", spin, spin_note), ("orbital", orbital, orbital_note)):
            yield Preset(f"he3-{phase}-{part}", f"Superfluid He-3 {phase} phase, {part} part", state, concurrence, note)


def _catalog():
    presets = [
        *(Preset(pid, f"CE basis state {ket}", psi, 1.0, "member of the completely entangled spin-1 basis")
          for (pid, ket), psi in zip(_CE_KETS.items(), ce_basis())),
        Preset(
            "coherent-plus1",
            "Coherent state |m=+1>",
            StateVector([1.0, 0.0, 0.0], "spherical"),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "coherent-minus1",
            "Coherent state |m=-1>",
            StateVector([0.0, 0.0, 1.0], "spherical"),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "pion-plus",
            "pi+ = u dbar (flavor product state)",
            StateVector([0.0, 1.0, 0.0, 0.0], "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-minus",
            "pi- = ubar d (flavor product state)",
            StateVector([0.0, 0.0, 1.0, 0.0], "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-zero",
            "pi0 = (u ubar - d dbar)/sqrt(2)",
            StateVector([1 / _SQ2, 0.0, 0.0, -1 / _SQ2], "qubit-pair"),
            1.0,
            "the neutral pion is a completely entangled flavor state",
        ),
        *_he3_presets(),
        Preset(
            "he3-B",
            "Superfluid He-3 B phase (label only)",
            None,
            None,
            "spin-orbit entangled pair -- out of scope",
        ),
    ]
    return {p.id: p for p in presets}


PRESETS = _catalog()
