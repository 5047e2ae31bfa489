"""The records, numpy-free: the one record convention (`Frozen`), the one state
type (`StateVector`, checked by `core.check_state`) and the search settings
(`SearchConfig`). `analyze` builds none and does not import this module."""

import functools
import math

from .core import MODES, STEP_TOL_DEFAULT, check_state


class Frozen:
    """A record: its fields, named in order by `_FIELDS`, are set once by
    __init__ through vars(self), then read-only, and compared, hashed, shown and
    pickled by value (a copy is rebuilt by __init__). The plain constructor takes
    each field once, positional or by keyword; a record that checks its input
    has its own."""

    _FIELDS = ()

    def __init__(self, *args, **kwargs):
        values = {**dict(zip(self._FIELDS, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._FIELDS):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._FIELDS)}, each once")
        vars(self).update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._FIELDS))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class StateVector(Frozen):
    """A normalized pure state over a labeled basis: `components` are Python
    complexes, checked once by `check_state`; `cartesian` (spin 1) needs 3,
    `qubit-pair` (order uu, ud, du, dd) 4. Any array-like is flattened, through
    numpy unless it is a flat list or tuple of Python numbers."""

    _FIELDS = ("components", "basis_label")

    def __init__(self, components, basis_label: str):
        if type(components) in (list, tuple) and all(type(z) in (int, float, complex) for z in components):
            amps = tuple(map(complex, components))
        else:  # an array, nested lists, numpy scalars
            import numpy as np

            amps = tuple(np.array(components, dtype=complex).reshape(-1).tolist())
        check_state(amps, basis_label)
        vars(self).update(components=amps, basis_label=basis_label)

    @functools.cached_property
    def amplitudes(self):
        """The components as a read-only complex array, built (with numpy's import) when first read."""
        import numpy as np

        a = np.array(self.components, dtype=complex)
        a.setflags(write=False)
        return a

    @property
    def dim(self) -> int:
        return len(self.components)

    def require(self, label: str, dim: int | None = None) -> tuple:
        """The components, if the state carries this basis label (and, when
        given, this dimension); else ValueError."""
        if self.basis_label != label or dim not in (None, self.dim):
            want = label if dim is None else f"{dim}-component {label}"
            raise ValueError(f"expected a {want} state, got a {self.dim}-component {self.basis_label} state")
        return self.components


class SearchConfig(Frozen):
    """The search settings, each checked here, and the one home of their defaults: restarts 16, max_iterations
    2000, step_tolerance STEP_TOL_DEFAULT, seed 0 (64 unsigned bits) and mode "maximize" (or "minimize")."""

    _FIELDS = ("restarts", "max_iterations", "step_tolerance", "seed", "mode")

    def __init__(self, restarts: int = 16, max_iterations: int = 2000, step_tolerance: float = STEP_TOL_DEFAULT,
                 seed: int = 0, mode: str = "maximize"):
        import numbers  # here, not at the top: no command but search builds a config

        for name, value in (("restarts", restarts), ("max_iterations", max_iterations), ("seed", seed)):
            # an int or numpy integer, not a bool, float or string; a plain int skips the slower ABC check
            if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        restarts, max_iterations, seed = int(restarts), int(max_iterations), int(seed)
        if restarts < 1 or max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        tol = step_tolerance  # a real number, not a bool or string
        if (type(tol) is not float and (isinstance(tol, bool) or not isinstance(tol, numbers.Real))
                or not 0 < tol < math.inf):
            raise ValueError("step_tolerance must be positive and finite")
        if mode not in MODES:
            raise ValueError("mode must be 'maximize' or 'minimize'")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        vars(self).update(restarts=restarts, max_iterations=max_iterations, step_tolerance=float(tol), seed=seed,
                          mode=mode)
