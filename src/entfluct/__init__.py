"""Entanglement of pure states as extremal quantum fluctuations.

The total variance of an observable algebra measures how far a state sits
from classical reality; its maximizers are the completely entangled states
and its minimizers the coherent ones. The package provides the observable
algebras, the variance/CE machinery, a variational search on the state
sphere, the full spin-1 canonical theory with four cross-validating
concurrence formulas, and the Clebsch-Gordan bridge to a qubit pair. The
names imported below are the public API, one name per capability.
"""

from .algebra import (
    ObservableBasis,
    StateVector,
    local_two_qubit_basis,
    rotate_basis,
    spin_generators,
)
from .fluctuations import (
    FluctuationReport,
    expectation_vector,
    fluctuation_report,
    moments,
    total_variance,
)
from .spin1 import (
    CanonicalForm,
    canonical_form,
    ce_basis,
    concurrence_from_phi,
    concurrence_spherical,
    expectation_magnitude_canonical,
    spin_projection_operator,
    to_cartesian,
    to_spherical,
    zero_projection_axis,
)
from .twoqubit import (
    embed_symmetric,
    project_spin1,
    pure_concurrence,
    sector_split,
    singlet,
    swap_qubits,
)
from .variational import (
    SearchConfig,
    SearchResult,
    gradient_total_variance,
    maximize_total_variance,
    minimize_total_variance,
)

__version__ = "0.1.0"
