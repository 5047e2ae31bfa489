"""Entanglement of pure states as extremal quantum fluctuations.

The total variance of an observable algebra measures how far a state sits
from classical reality; its maximizers are the completely entangled states
and its minimizers the coherent ones. The package provides the observable
algebras, the variance/CE machinery, a variational search on the state
sphere, the full spin-1 canonical theory with four cross-validating
concurrence formulas, and the Clebsch-Gordan bridge to a qubit pair.
"""

from .algebra import (
    Observable,
    ObservableBasis,
    StateVector,
    casimir,
    local_two_qubit_basis,
    rotate_basis,
    spin_generators,
)
from .fluctuations import (
    FluctuationReport,
    expectation,
    expectation_vector,
    fluctuation_report,
    is_completely_entangled,
    moments,
    total_variance,
    variance_concurrence,
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

__all__ = [
    "Observable",
    "ObservableBasis",
    "StateVector",
    "spin_generators",
    "local_two_qubit_basis",
    "casimir",
    "rotate_basis",
    "FluctuationReport",
    "expectation",
    "expectation_vector",
    "moments",
    "total_variance",
    "is_completely_entangled",
    "variance_concurrence",
    "fluctuation_report",
    "CanonicalForm",
    "canonical_form",
    "to_cartesian",
    "to_spherical",
    "spin_projection_operator",
    "expectation_magnitude_canonical",
    "concurrence_spherical",
    "concurrence_from_phi",
    "zero_projection_axis",
    "ce_basis",
    "embed_symmetric",
    "project_spin1",
    "singlet",
    "swap_qubits",
    "pure_concurrence",
    "sector_split",
    "SearchConfig",
    "SearchResult",
    "gradient_total_variance",
    "maximize_total_variance",
    "minimize_total_variance",
]

__version__ = "0.1.0"
