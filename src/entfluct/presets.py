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

from dataclasses import dataclass
from typing import Optional

from .algebra import _SQ2, StateVector


@dataclass(frozen=True)
class Preset:
    id: str
    description: str
    system: str  # "spin1" or "two-qubit"
    state: Optional[StateVector]  # None for label-only
    expected_concurrence: Optional[float]
    source_note: str


def _sph(components) -> StateVector:
    return StateVector.from_components(components, "spherical")


_CE = _sph([0.0, 1.0, 0.0])  # |m=0>, the canonical phi = 0 representative
_COHERENT = _sph([1.0, 0.0, 0.0])  # |m=+1>, phi = pi/4


def _catalog():
    presets = [
        Preset(
            "ce-psi0",
            "CE basis state |0>",
            "spin1",
            _sph([0.0, 1.0, 0.0]),
            1.0,
            "member of the completely entangled spin-1 basis",
        ),
        Preset(
            "ce-psi-plus",
            "CE basis state (|+1> + |-1>)/sqrt(2)",
            "spin1",
            _sph([1 / _SQ2, 0.0, 1 / _SQ2]),
            1.0,
            "member of the completely entangled spin-1 basis",
        ),
        Preset(
            "ce-psi-minus",
            "CE basis state (|+1> - |-1>)/sqrt(2)",
            "spin1",
            _sph([1 / _SQ2, 0.0, -1 / _SQ2]),
            1.0,
            "member of the completely entangled spin-1 basis",
        ),
        Preset(
            "coherent-plus1",
            "Coherent state |m=+1>",
            "spin1",
            _sph([1.0, 0.0, 0.0]),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "coherent-minus1",
            "Coherent state |m=-1>",
            "spin1",
            _sph([0.0, 0.0, 1.0]),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "pion-plus",
            "pi+ = u dbar (flavor product state)",
            "two-qubit",
            StateVector([0.0, 1.0, 0.0, 0.0], "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-minus",
            "pi- = ubar d (flavor product state)",
            "two-qubit",
            StateVector([0.0, 0.0, 1.0, 0.0], "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-zero",
            "pi0 = (u ubar - d dbar)/sqrt(2)",
            "two-qubit",
            StateVector([1 / _SQ2, 0.0, 0.0, -1 / _SQ2], "qubit-pair"),
            1.0,
            "the neutral pion is a completely entangled flavor state",
        ),
        Preset(
            "he3-A-spin",
            "Superfluid He-3 A phase, spin part",
            "spin1",
            _CE,
            1.0,
            "spin part of the A-phase Cooper pair is completely entangled",
        ),
        Preset(
            "he3-A-orbital",
            "Superfluid He-3 A phase, orbital part",
            "spin1",
            _COHERENT,
            0.0,
            "orbital part of the A-phase Cooper pair is coherent",
        ),
        Preset(
            "he3-beta-spin",
            "Superfluid He-3 beta phase, spin part",
            "spin1",
            _COHERENT,
            0.0,
            "beta phase: spin part coherent",
        ),
        Preset(
            "he3-beta-orbital",
            "Superfluid He-3 beta phase, orbital part",
            "spin1",
            _CE,
            1.0,
            "beta phase: orbital part entangled",
        ),
        Preset(
            "he3-polar-spin",
            "Superfluid He-3 polar phase, spin part",
            "spin1",
            _CE,
            1.0,
            "polar phase: both parts are entangled spin-1 states",
        ),
        Preset(
            "he3-polar-orbital",
            "Superfluid He-3 polar phase, orbital part",
            "spin1",
            _CE,
            1.0,
            "polar phase: both parts are entangled spin-1 states",
        ),
        Preset(
            "he3-A1-spin",
            "Superfluid He-3 A1 phase, spin part",
            "spin1",
            _COHERENT,
            0.0,
            "A1 phase: both components coherent",
        ),
        Preset(
            "he3-A1-orbital",
            "Superfluid He-3 A1 phase, orbital part",
            "spin1",
            _COHERENT,
            0.0,
            "A1 phase: both components coherent",
        ),
        Preset(
            "he3-B",
            "Superfluid He-3 B phase (label only)",
            "spin1",
            None,
            None,
            "spin-orbit entangled pair -- out of scope",
        ),
    ]
    return {p.id: p for p in presets}


PRESETS = _catalog()
