"""Entanglement of pure states as extremal quantum fluctuations.

The total variance of an observable algebra measures how far a state sits
from classical reality; its maximizers are the completely entangled states
and its minimizers the coherent ones. The package provides the observable
algebras, the variance/CE machinery, a variational search on the state
sphere, the full spin-1 canonical theory with four cross-validating
concurrence formulas, and the Clebsch-Gordan bridge to a qubit pair. The
names in `__all__` are the public API, one name per capability.

Each public name is imported from its module when first read (PEP 562), and
then kept here as a plain attribute, so `import entfluct` loads no numpy: the
command line's `analyze` runs on `entfluct.core` alone.
"""

import importlib

# public name -> the module that defines it
_HOMES = {
    "ObservableBasis": "algebra",
    "local_two_qubit_basis": "algebra",
    "rotate_basis": "algebra",
    "spin_generators": "algebra",
    "concurrence_from_phi": "core",
    "FluctuationReport": "fluctuations",
    "fluctuation_report": "fluctuations",
    "moments": "fluctuations",
    "total_variance": "fluctuations",
    "SearchConfig": "records",
    "StateVector": "records",
    "CanonicalForm": "spin1",
    "canonical_form": "spin1",
    "ce_basis": "spin1",
    "concurrence_spherical": "spin1",
    "expectation_magnitude_canonical": "spin1",
    "spin_projection_operator": "spin1",
    "to_cartesian": "spin1",
    "to_spherical": "spin1",
    "zero_projection_axis": "spin1",
    "embed_symmetric": "twoqubit",
    "project_spin1": "twoqubit",
    "pure_concurrence": "twoqubit",
    "sector_split": "twoqubit",
    "singlet": "twoqubit",
    "SearchResult": "variational",
    "maximize_total_variance": "variational",
    "minimize_total_variance": "variational",
}
__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads are plain attribute reads
    return value


def __dir__():
    return sorted({*globals(), *__all__})
