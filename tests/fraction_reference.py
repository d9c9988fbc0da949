"""Plain Fraction Gauss-Jordan elimination: the test reference of the
rational solver (``linalg.rref_q``, ``kernel_q`` and ``rank_q``);
integer Bareiss elimination (:func:`det_bareiss`), the reference of
``linalg.det_fp``; and the column-by-column modular Gauss-Jordan body
(:func:`rref_fp_reference`), the reference of ``linalg._rref``.

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
    """RREF basis of the right kernel, from one elimination of the
    column-reversed matrix: its free-column basis, with both axes reversed
    back, is the identity on the free columns of the right-greedy pivots
    and zero on the other free columns, so it is RREF as it comes."""
    rows, ncols = _rows(mat)
    flipped = np.array(rows, dtype=object).reshape(len(rows), ncols)[:, ::-1]
    return [row[::-1] for row in free_kernel_reference(flipped)[::-1]]


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


def rref_fp_reference(m: np.ndarray, p: int):
    """Gauss-Jordan elimination of an int64 array of residues mod p, in
    place, one column at a time: the body ``linalg._rref`` had before it
    jumped over empty columns and updated the gathered rows in place.

    Returns (reduced array, rank, pivot column list, pivot rows, d), the
    five values of ``linalg._rref``: the pivot rows are the input rows
    each pivot was taken from, in pivot order, and d = det M[:, pivots]
    when the rows of M are independent, 0 otherwise.
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    order = list(range(nrows))
    r, d = 0, 1
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[r], order[i] = order[i], order[r]
            d = -d
        pivot = int(m[r, c])
        d = d * pivot % p
        m[r, c:] = m[r, c:] * pow(pivot, p - 2, p) % p
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != r]
        if rows.size:
            m[rows, c:] = (m[rows, c:] - np.outer(m[rows, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, r, pivots, order[:r], d if r == nrows else 0
