"""The public API is the list of names in `entfluct.__all__`. It is
pinned here, so that a new public name needs a deliberate edit of this list:
a name stays only if the paper's physics or the command-line front end needs
it, not because a test calls it."""

import inspect
import types

import entfluct

PUBLIC_NAMES = [
    "CanonicalForm",
    "FluctuationReport",
    "ObservableBasis",
    "SearchConfig",
    "SearchResult",
    "StateVector",
    "canonical_form",
    "ce_basis",
    "concurrence_from_phi",
    "concurrence_spherical",
    "embed_symmetric",
    "expectation_magnitude_canonical",
    "fluctuation_report",
    "local_two_qubit_basis",
    "maximize_total_variance",
    "minimize_total_variance",
    "moments",
    "project_spin1",
    "pure_concurrence",
    "rotate_basis",
    "sector_split",
    "singlet",
    "spin_generators",
    "spin_projection_operator",
    "to_cartesian",
    "to_spherical",
    "total_variance",
    "zero_projection_axis",
]


def test_public_names_are_pinned():
    # the package imports each public name when it is first read: read them all first
    for name in entfluct.__all__:
        getattr(entfluct, name)
    # submodules become attributes of the package once imported, so they do not count
    public = sorted(
        name for name, value in vars(entfluct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
    listed = [name for name in dir(entfluct)
              if not name.startswith("_") and not isinstance(getattr(entfluct, name), types.ModuleType)]
    assert listed == PUBLIC_NAMES


def test_canonical_form_is_a_plain_report():
    # its fields and nothing else: a state is rebuilt as a StateVector, not by a method
    form = entfluct.CanonicalForm
    fields = list(form._FIELDS)
    assert fields == ["theta", "phi", "mu", "nu"]
    assert [name for name in dir(form) if not name.startswith("_") and name not in fields] == []


def test_no_public_function_takes_a_tolerance():
    # every threshold the library applies is read from core's tolerance block
    functions = [getattr(entfluct, name) for name in entfluct.__all__]
    functions = [f for f in functions if callable(f) and not inspect.isclass(f)]
    tuned = [(f.__name__, p) for f in functions for p in inspect.signature(f).parameters if "tol" in p]
    assert functions and tuned == []


def test_fluctuation_report_takes_the_bounds_as_one_pair():
    assert list(inspect.signature(entfluct.fluctuation_report).parameters) == ["psi", "basis", "bounds"]
