#!/usr/bin/env python3
"""Physical systems carrying single-particle spin-1 entanglement.

A spin-1 |m=0> state decays into two spin-1/2 particles in the EPR state:
the Clebsch-Gordan embedding makes this kinematics explicit. The same
machinery classifies pion flavor states and the phases of superfluid He-3.
"""

import numpy as np

from entfluct import (
    embed_symmetric,
    fluctuation_report,
    local_two_qubit_basis,
    pure_concurrence,
    sector_split,
    spin_generators,
)
from entfluct.presets import PRESETS

spin1 = spin_generators(1)
local = local_two_qubit_basis()

print("== |m=0> decay produces the EPR pair ==")
psi0 = PRESETS["ce-psi0"].state
chi = embed_symmetric(psi0)
print("two-qubit amplitudes:", np.round(chi.amplitudes.real, 6),
      " -> (|ud> + |du>)/sqrt(2)")
print("pair concurrence:", pure_concurrence(chi))

print()
print("== Pion flavor states ==")
for pid in ("pion-plus", "pion-minus", "pion-zero"):
    p = PRESETS[pid]
    flag = fluctuation_report(p.state, local).ce_residual <= 1e-9
    print(f"{pid:<12} C = {pure_concurrence(p.state):.3f}   CE: {flag}")
print("pi0 sits at maximal fluctuations, consistent with it being far less")
print("stable than the coherent charged pions.")

print()
print("== Superfluid He-3 phases (spin / orbital parts of the Cooper pair) ==")
for pid, p in PRESETS.items():
    if not pid.startswith("he3"):
        continue
    if p.state is None:
        print(f"{pid:<18} {p.source_note}")
        continue
    flag = fluctuation_report(p.state, spin1).ce_residual <= 1e-9
    kind = "completely entangled" if flag else "coherent"
    print(f"{pid:<18} {kind}")

print()
print("== Singlet sector ==")
from entfluct import singlet
sym, anti = sector_split(singlet())
print("singlet splits", np.sum(np.abs(sym) ** 2), "symmetric /",
      abs(anti) ** 2, "antisymmetric: it carries no spin-1 component at all.")
