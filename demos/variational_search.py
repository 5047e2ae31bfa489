#!/usr/bin/env python3
"""Find extremal-fluctuation states by an exact line search on great circles
of the state sphere: maximize steps along the Gauss-Newton direction of the
CE condition <O_i> = 0; minimize starts at a coherent state (along <S> for a
spin, a product for the qubit pair), where the gradient test stops it at once.

Maximizing the total variance over the unit sphere lands on completely
entangled states (all observable expectations vanish); minimizing lands on
coherent states. For an irreducible spin-j algebra the two extremes are
j(j+1) and j(j+1) - j^2, and for a spin-1/2 the landscape is completely flat.
"""

import numpy as np

from entfluct import (
    SearchConfig,
    canonical_form,
    fluctuation_report,
    local_two_qubit_basis,
    maximize_total_variance,
    minimize_total_variance,
    spin_generators,
    to_cartesian,
)

for j in (0.5, 1, 1.5):
    basis = spin_generators(j)
    up = maximize_total_variance(basis, SearchConfig(seed=0))
    down = minimize_total_variance(basis, SearchConfig(seed=0, mode="minimize"))
    print(f"spin-{j}: V ranges [{down.best_value:.10f}, {up.best_value:.10f}]"
          f"  (coherent floor j(j+1)-j^2 = {j*(j+1)-j*j})")
print("spin-1/2 is flat: every pure state has |<S>| = 1/2, so no state is")
print("more entangled than any other and the search converges immediately.")

print()
basis = spin_generators(1)
result = maximize_total_variance(basis, SearchConfig(seed=7))
exps = fluctuation_report(result.best_state, basis).expectations
print("spin-1 maximizer expectations:", np.round(exps, 12), " (all zero: CE)")

result = minimize_total_variance(basis, SearchConfig(seed=7, mode="minimize"))
phi = canonical_form(to_cartesian(result.best_state)).phi
print(f"spin-1 minimizer has canonical phi = {phi:.10f} (pi/4 = {np.pi/4:.10f})")

print()
local = local_two_qubit_basis()
up = maximize_total_variance(local)
down = minimize_total_variance(local)
print(f"two-qubit local algebra: V in [{down.best_value:.10f}, {up.best_value:.10f}]")
print("minimum 1 is reached at product states (each qubit contributes 1/2);")
print("maximum 3/2 at maximally entangled states with zero Bloch vectors.")
