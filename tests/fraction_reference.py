"""Plain Fraction Gauss-Jordan elimination: the test reference of the
rational solver (``linalg.rref_q``, ``kernel_q`` and ``rank_q``), and
integer Bareiss elimination (:func:`det_bareiss`), the reference of
``linalg.det_fp``.

Rows are lists; a 1-D input is one row, as in the package.  Every entry is
converted with ``Fraction(x)``, so the reference accepts ints, numpy
integers and Fractions alike.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _rows(mat) -> tuple[list[list[Fraction]], int]:
    arr = np.asarray(mat, dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return [[x if isinstance(x, Fraction) else Fraction(int(x)) for x in row]
            for row in arr.tolist()], arr.shape[1]


def rref_reference(mat):
    """(RREF rows, one per input row with the zero rows last, rank,
    pivot columns), all entries Fractions."""
    rows, ncols = _rows(mat)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, r, pivots


def free_kernel_reference(mat) -> list[list[Fraction]]:
    """The right-kernel basis that is the identity on the free columns of
    the left-greedy pivots, one row per free column."""
    red, _, pivots = rref_reference(mat)
    ncols = _rows(mat)[1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        row = [Fraction(0)] * ncols
        row[f] = Fraction(1)
        for i, c in enumerate(pivots):
            row[c] = -red[i][f]
        basis.append(row)
    return basis


def kernel_reference(mat) -> list[list[Fraction]]:
    """RREF basis of the right kernel."""
    basis = free_kernel_reference(mat)
    return rref_reference(basis)[0] if basis else []


def det_bareiss(mat):
    """Determinant of an integer matrix by Bareiss elimination, exact in
    integers; the reference that ``linalg.det_fp`` is tested against."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    if not all(isinstance(x, int) for row in mat for x in row):
        raise ValueError("Bareiss determinant of a non-integer matrix")
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
