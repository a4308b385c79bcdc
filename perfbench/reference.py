"""A fixed reference kernel that measures how fast the machine is right now.

The machine the benchmark runs on may be shared: the same op then runs a
third slower or faster for minutes at a time while other work competes for
the cores and caches.  A run therefore also times this kernel between
its ops, and scales each op's time by ``NOMINAL_S`` over the kernel's time
around that op: the end-to-end times read as seconds on a machine where the
kernel takes ``NOMINAL_S``.  The kernel does the kinds of work the
workloads spend their time in, in about equal shares: dense linear algebra
(Hessian assembly and a Cholesky solve at the `kl_ineq` size), a Python
loop over small numpy vectors (the outer and Newton bookkeeping, the box
barrier) and scalar Python math (the dilogarithm behind the Spence
geometry of `cli_verify`).  It uses numpy and scipy only and never calls
the program, so no change to the program moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# About the kernel's time on the machine the first baseline was taken on.
# It is only a unit: any constant would do, as long as it never changes.
NOMINAL_S = 0.016

_rng = np.random.default_rng(20261017)
_N, _M = 300, 150
_G = _rng.normal(size=(_N, _N))
_W = _G.T @ _G / _N + np.eye(_N)
_A = _rng.normal(size=(_M, _N))
_D = _rng.uniform(0.5, 1.5, size=_M)
_V = _rng.normal(size=20)


def _dense() -> float:
    total = 0.0
    for scale in (1.0, 2.0, 4.0):
        H = _W + _A.T @ ((scale * _D)[:, None] * _A)
        total += float(cho_solve(cho_factor(H), _W[0])[0])
    return total


def _small() -> float:
    x = _V.copy()
    for _ in range(600):
        y = np.exp(np.clip(x, -5.0, 5.0))
        x = 0.5 * x + 0.1 * np.log1p(y) - 0.01 * float(x @ x)
    return float(x[0])


def _scalar() -> float:
    total = 0.0
    for k in range(1, 24000):
        t = 1.0 / (k + 1.5)
        total += math.log1p(t) * math.exp(-t) / (k * k)
    return total


def probe() -> float:
    """Seconds one call of the kernel takes now."""
    t0 = time.perf_counter()
    _dense()
    _small()
    _scalar()
    return time.perf_counter() - t0
