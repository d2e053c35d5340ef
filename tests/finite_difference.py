"""Central-difference Jacobian: the reference the analytic filter
Jacobians are checked against."""

from typing import Callable

import numpy as np

from rtahs.estimators import FilterNumericalError


def numeric_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scale: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of a vector map, with per-component
    step ``scale * max(|x_i|, 1)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        h = scale * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = np.atleast_1d(np.asarray(f(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(xm), dtype=float))
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise FilterNumericalError(f"non-finite map sample near x[{i}]")
        J[:, i] = (fp - fm) / (2.0 * h)
    return J
