#!/usr/bin/env python3
"""Walk through the spin-1 canonical form and the four concurrence routes.

Every spin-1 pure state, written in Cartesian components, is
e^{i theta} (cos phi |mu> + i sin phi |nu>) with mu, nu orthonormal real
vectors. The angle phi is the only rotation-invariant parameter, and four
independent computations of the concurrence all reduce to cos(2 phi):

  1. the spherical-component formula 2 |psi_+1 psi_-1 - psi_0^2 / 2|,
  2. cos(2 phi) from the extracted canonical form,
  3. the fluctuation ratio sqrt((V - V_min) / (V_max - V_min)),
  4. 2 |det| of the symmetric two-qubit embedding.
"""

import numpy as np

from entfluct import (
    StateVector,
    canonical_form,
    concurrence_from_phi,
    concurrence_spherical,
    embed_symmetric,
    fluctuation_report,
    pure_concurrence,
    spin_generators,
    to_cartesian,
)

rng = np.random.default_rng(2024)
basis = spin_generators(1)

print("state (spherical)                          C_sph   C_phi   C_var   C_det   phi")
print("-" * 95)

samples = [
    StateVector([0, 1, 0], "spherical"),                      # CE: |m=0>
    StateVector(np.array([1, 0, 1]) / np.sqrt(2), "spherical"),  # CE superposition
    StateVector([1, 0, 0], "spherical"),                      # coherent |m=+1>
]
for _ in range(5):
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    samples.append(StateVector(a / np.linalg.norm(a), "spherical"))

for psi in samples:
    form = canonical_form(to_cartesian(psi))
    values = (
        concurrence_spherical(psi),
        concurrence_from_phi(form.phi),
        fluctuation_report(psi, basis, (1.0, 2.0)).concurrence_variance,
        pure_concurrence(embed_symmetric(psi)),
    )
    comps = " ".join(f"{c.real:+.3f}{c.imag:+.3f}i" for c in psi.amplitudes)
    print(f"{comps}   " + "  ".join(f"{v:.4f}" for v in values) + f"  {form.phi:.4f}")

print()
print("The four columns agree to ~1e-9 on every state; phi = 0 rows are the")
print("completely entangled ones, phi = pi/4 =", f"{np.pi/4:.4f}", "the coherent ones.")
