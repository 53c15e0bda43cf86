"""Dense linear algebra over a finite field.

Matrices are numpy integer arrays of canonical element indices.  All
routines are exact; sizes are desk scale so simple Gaussian elimination
is used throughout.
"""

from __future__ import annotations

import numpy as np

from .galois import FiniteField


def scale_row(field: FiniteField, row, c: int):
    return field.mul_table[row, c]


def addmul_row(field: FiniteField, dst, src, c: int):
    """dst + c * src, elementwise."""
    return field.add_table[dst, field.mul_table[src, c]]


def mat_mul(field: FiniteField, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int32)
    for k in range(a.shape[1]):
        out = field.add_table[out, field.mul_table[a[:, k][:, None], b[k, :][None, :]]]
    return out


def row_echelon(field: FiniteField, m):
    """Row echelon form (left-to-right pivots).

    Returns (echelon matrix, pivot column list).
    """
    m = np.array(m, dtype=np.int32, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = field.inv(int(m[r, c]))
        m[r] = scale_row(field, m[r], inv)
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = addmul_row(field, m[i], m[r], field.neg(int(m[i, c])))
        pivots.append(c)
        r += 1
    return m, pivots


def rank(field: FiniteField, m) -> int:
    m = np.asarray(m)
    if m.size == 0:
        return 0
    _, pivots = row_echelon(field, m)
    return len(pivots)


def nullspace(field: FiniteField, m):
    """Basis (as rows) of the right nullspace {x : m x^T = 0}."""
    m = np.asarray(m, dtype=np.int32)
    rows, cols = m.shape
    ech, pivots = row_echelon(field, m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        x = np.zeros(cols, dtype=np.int32)
        x[f] = 1
        for r, c in enumerate(pivots):
            # x[c] = -ech[r, f]
            x[c] = field.neg(int(ech[r, f]))
        basis.append(x)
    return np.array(basis, dtype=np.int32).reshape(len(basis), cols)


def is_nonsingular(field: FiniteField, m) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and rank(field, m) == m.shape[0]

