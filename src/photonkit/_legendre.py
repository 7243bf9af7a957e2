"""The Gauss-Legendre rule and the table of Legendre polynomials, with numpy
alone.

`leggauss` does what numpy's `leggauss` does, operation for operation, so its
nodes and weights are the same bits: the eigenvalues of the symmetric Jacobi
matrix (Golub & Welsch, Math. Comp. 23, 221, 1969), one Newton step with P_m
and P_m' from `legval`'s Clenshaw recurrence, and weights from P_{m-1} P_m',
symmetrised and scaled to sum 2. `legtable` is `legvander`'s forward
recurrence. numpy's polynomial package loads nine modules for these two
calls; this module needs numpy alone, and only the processes that build a rule
(`numerics.gauss_legendre`) or the crystal's Filon tables (`biphoton`)
import it."""

from __future__ import annotations

import numpy as np


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x), for len(c) >= 2, by legval's recurrence."""
    c0, c1 = c[-2], c[-1]
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Legendre nodes and weights on [-1, 1], m >= 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(m) + 1)
    jacobi = np.zeros((m, m))
    off = np.arange(1, m) * scl[:-1] * scl[1:]
    jacobi.flat[1::m + 1] = off     # above the diagonal
    jacobi.flat[m::m + 1] = off     # below it
    x = np.linalg.eigvalsh(jacobi)

    # P_m is the unit series; P_m' = sum (2k + 1) P_k over k = m-1, m-3, ...
    unit = np.zeros(m + 1)
    unit[m] = 1.0
    slope = np.zeros(m)
    slope[m - 1::-2] = 2.0 * np.arange(m - 1, -1, -2) + 1.0
    dy = _clenshaw(x, unit)
    df = _clenshaw(x, slope)
    x -= dy / df

    # scaled to the largest value, so the product cannot overflow
    fm = _clenshaw(x, unit[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def legtable(t: np.ndarray, m: int) -> np.ndarray:
    """P_0(t) ... P_{m-1}(t), one row per degree: shape (m, t.size), m >= 2."""
    v = np.empty((m, t.size))
    v[0] = 1.0
    v[1] = t
    for i in range(2, m):
        v[i] = (v[i - 1] * t * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v
