"""Catalog of physically motivated preset states.

Spin-1 presets use the spherical components (psi_+1, psi_0, psi_-1); qubit-pair
presets use the product basis order |uu>, |ud>, |du>, |dd>. The pion flavor
doublet is read as (u, d) (x) (u-bar, d-bar), so e.g. pi+ = |u d-bar> occupies
the second slot. The helium-3 entries encode which part of the Cooper pair
order parameter is completely entangled (phi = 0 representative) versus
coherent (phi = pi/4 representative); the B phase couples spin and orbit and
is listed as a label only.

The catalog holds each state as Python numbers, so `preset analyze` runs
without numpy; `Preset.state` is the StateVector, built when first read.
"""

from __future__ import annotations

import functools

from .core import CE_BASIS, SQRT2, Frozen


class Preset(Frozen):
    """`ket` is (basis label, amplitudes as Python complexes), None for a
    label-only entry. `system` follows from it: "two-qubit" for a qubit-pair
    state, else (label-only entries too) "spin1"."""

    _FIELDS = ("id", "description", "system", "ket", "expected_concurrence", "source_note")

    def __init__(self, id: str, description: str, ket: tuple | None, expected_concurrence: float | None,
                 source_note: str):
        system = "two-qubit" if ket is not None and ket[0] == "qubit-pair" else "spin1"
        vars(self).update(id=id, description=description, system=system, ket=ket,
                          expected_concurrence=expected_concurrence, source_note=source_note)

    @functools.cached_property
    def state(self):
        """The StateVector of the ket, or None for a label-only entry."""
        if self.ket is None:
            return None
        from .algebra import StateVector  # numpy, for the caller that asks for a StateVector

        label, amplitudes = self.ket
        return StateVector(amplitudes, label)


# (representative ket, its concurrence): the concurrences are literals, the
# physics the presets assert, not values computed here
_CE = (("spherical", CE_BASIS[0]), 1.0)  # |m=0>, the canonical phi = 0 representative
_COHERENT = (("spherical", (1 + 0j, 0j, 0j)), 0.0)  # |m=+1>, phi = pi/4

# id -> ket of each CE_BASIS state, in its order
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
        for part, (ket, concurrence), note in (("spin", spin, spin_note), ("orbital", orbital, orbital_note)):
            yield Preset(f"he3-{phase}-{part}", f"Superfluid He-3 {phase} phase, {part} part", ket, concurrence, note)


def _catalog():
    presets = [
        *(Preset(pid, f"CE basis state {ket}", ("spherical", amplitudes), 1.0,
                 "member of the completely entangled spin-1 basis")
          for (pid, ket), amplitudes in zip(_CE_KETS.items(), CE_BASIS)),
        Preset(
            "coherent-plus1",
            "Coherent state |m=+1>",
            ("spherical", (1 + 0j, 0j, 0j)),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "coherent-minus1",
            "Coherent state |m=-1>",
            ("spherical", (0j, 0j, 1 + 0j)),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "pion-plus",
            "pi+ = u dbar (flavor product state)",
            ("qubit-pair", (0j, 1 + 0j, 0j, 0j)),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-minus",
            "pi- = ubar d (flavor product state)",
            ("qubit-pair", (0j, 0j, 1 + 0j, 0j)),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-zero",
            "pi0 = (u ubar - d dbar)/sqrt(2)",
            ("qubit-pair", (1 / SQRT2 + 0j, 0j, 0j, -1 / SQRT2 + 0j)),
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
