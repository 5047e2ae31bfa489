"""Catalog of physically motivated preset states.

Spin-1 presets use the spherical components (psi_+1, psi_0, psi_-1); qubit-pair
presets use the product basis order |uu>, |ud>, |du>, |dd>. The pion flavor
doublet is read as (u, d) (x) (u-bar, d-bar), so e.g. pi+ = |u d-bar> occupies
the second slot. The helium-3 entries encode which part of the Cooper pair
order parameter is completely entangled (phi = 0 representative) versus
coherent (phi = pi/4 representative); the B phase couples spin and orbit and
is listed as a label only.

Each state is a numpy-free `records.StateVector`, so `preset analyze` runs
without numpy; `state.amplitudes` builds the array when first read.
"""

from .core import CE_BASIS, SQRT2, system_of
from .records import Frozen, StateVector


class Preset(Frozen):
    """`state` is a StateVector, None for a label-only entry. `system` is its
    label's, by `core.system_of` ("spin1" for a label-only entry)."""

    _FIELDS = ("id", "description", "state", "expected_concurrence", "source_note")

    @property
    def system(self) -> str:
        return system_of(None if self.state is None else self.state.basis_label)


# (representative state, its concurrence): the concurrences are literals, the
# physics the presets assert, not values computed here
_CE = (StateVector(CE_BASIS[0], "spherical"), 1.0)  # |m=0>, the canonical phi = 0 representative
_COHERENT = (StateVector((1 + 0j, 0j, 0j), "spherical"), 0.0)  # |m=+1>, phi = pi/4

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
        for part, (state, concurrence), note in (("spin", spin, spin_note), ("orbital", orbital, orbital_note)):
            yield Preset(f"he3-{phase}-{part}", f"Superfluid He-3 {phase} phase, {part} part", state, concurrence, note)


def _catalog():
    presets = [
        *(Preset(pid, f"CE basis state {ket}", StateVector(amplitudes, "spherical"), 1.0,
                 "member of the completely entangled spin-1 basis")
          for (pid, ket), amplitudes in zip(_CE_KETS.items(), CE_BASIS)),
        Preset(
            "coherent-plus1",
            "Coherent state |m=+1>",
            StateVector((1 + 0j, 0j, 0j), "spherical"),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "coherent-minus1",
            "Coherent state |m=-1>",
            StateVector((0j, 0j, 1 + 0j), "spherical"),
            0.0,
            "spin coherent state, minimal quantum fluctuations",
        ),
        Preset(
            "pion-plus",
            "pi+ = u dbar (flavor product state)",
            StateVector((0j, 1 + 0j, 0j, 0j), "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-minus",
            "pi- = ubar d (flavor product state)",
            StateVector((0j, 0j, 1 + 0j, 0j), "qubit-pair"),
            0.0,
            "charged pions are coherent states of the quark isodoublet",
        ),
        Preset(
            "pion-zero",
            "pi0 = (u ubar - d dbar)/sqrt(2)",
            StateVector((1 / SQRT2 + 0j, 0j, 0j, -1 / SQRT2 + 0j), "qubit-pair"),
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
