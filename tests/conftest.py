"""Shared helpers: the test suite keeps its own finite-difference oracle
(central differences, step 1e-6) independent of the package's analytic
Jacobians."""

import numpy as np
import pytest


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_grad_wrt_params(f, params, h=1e-5):
    """Central differences of a scalar function of a ParamVector."""
    g = np.zeros(params.size)
    for i in range(params.size):
        up = params.copy()
        up.values[i] += h
        dn = params.copy()
        dn.values[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def add_rows(grad, rows):
    """One input's weight rows ``(slice, R)`` added, in order, into
    ``grad``; returns it."""
    for where, R in rows:
        grad[where] += R
    return grad


def arrays(obj):
    """Every array in nested lists and tuples, in order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in arrays(item)]
    return []


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
