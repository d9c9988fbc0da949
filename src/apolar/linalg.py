"""Dense exact linear algebra over the rationals and over prime fields.

Elimination runs mod p only, on 2-D int64 working arrays of residues
(:func:`field_array`).  With p < 2**26 every product fits comfortably in
int64 even after summing along the longest shared dimension used in this
package (792), so the modular code is exact in machine integers.  One
Gauss-Jordan body (:func:`_rref`) and one kernel construction
(:func:`pivot_kernel_fp`) serve every caller; ``rank`` and ``kernel``
are the field switch.  The ``_fp`` entry points return int64
arrays, the ``_q`` ones lists of Fraction rows.  Both fields take one
input contract: ints (Python or numpy) and Fractions, anything else is a
TypeError.

Over Q, :func:`rref_q`, :func:`kernel_q` and :func:`rank_q` are the three
entry points into one p-adic solver (Dixon 1982) with one pivot
orientation.  Each row is scaled to integers; the right-greedy pivot
columns and independent pivot rows come from one elimination of the
column-reversed matrix mod a prime, and X = M[R, P]^-1 M[R, F] is lifted
p-adically in 26-bit limbs, with vector rational reconstruction (Wang
1981, one common denominator) each time the number of p-adic digits
doubles.  A result leaves the solver only after an exact integer check
that M times the kernel basis it gives is zero, over all rows; with the
rank mod p as the lower bound that proves the rank, and an echelon-shape
check proves the pivots.  With no free column mod p nothing is lifted:
the rank is full.  ``kernel_q`` publishes the kernel, ``rank_q`` solves
the tall one of M and its transpose, and ``rref_q`` is the kernel of the
kernel.  An unlucky prime fails a check and the next one is taken.
Its primes come from the one fixed stream of primes below 2^26, largest
first (:func:`_solver_primes`), which also gives ``hilbert``'s
certificate primes; working primes are drawn at random
(:func:`random_prime`).

The Gauss-Jordan body delays reduction mod p (word-size prime fields,
Dumas-Giorgi-Pernet 2008): an update that reaches more than half the
rows runs on the whole array and is left unreduced, up to ``_DELAY`` of
them, while fewer rows are gathered, updated and reduced at once.  It
jumps over runs of columns that are empty below the current row with one
scan of the reduced array.  It also
returns d = det M[:, pivots] for independent rows, the signed product of
the pivots; :func:`det_fp` reads it, tested against an integer Bareiss
reference in the tests.  :func:`pivot_kernel_fp` adds the kernel that is
the identity on the free columns, which gives every maximal minor
through the complementary-minor identity (see :func:`shuffle_sign`).
Characteristic polynomials (:func:`charpoly_fp`) come from a Hessenberg
reduction by similarity mod p and the Hessenberg recurrence; the pencil
reads each chart's minor, a polynomial in u, from one of them, and each
chart's 6 x 6 unit det(u A + B) from its Leibniz expansion
(:func:`pencil_det_fp`), which eliminates nothing.
Univariate interpolation (Newton divided differences) and roots (Yun's
square-free decomposition, then Cantor-Zassenhaus) work over F_p only.
Many residues are inverted at once by Montgomery's trick
(:func:`_inverse_fp`): the node differences of an interpolation, the
denominators of a Fraction matrix.

A subspace of a graded piece is its reduced-row-echelon rows in the
canonical monomial coordinates: the row count is its dimension, and
equality of subspaces is equality of those rows.  Inside, a kernel mod p
is the basis that is the identity on the free columns, from one
elimination (:func:`pivot_kernel_fp`).  In both fields a published kernel
(:func:`kernel_fp`, :func:`kernel_q`) takes right-greedy pivots, which
make that basis RREF as it comes; ``hilbert.square_perp_basis`` reduces
its basis to RREF once, where it is published.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .poly import is_prime

_MAX_PRIME = 1 << 26  # keeps k * p^2 < 2^63 for shared dimensions up to 2^11
# unreduced dense updates an int64 entry of _rref holds: each one
# subtracts less than _MAX_PRIME^2, and this many stay below 2^62
_DELAY = 2 ** 62 // _MAX_PRIME ** 2


def _exact_array(mat) -> tuple[np.ndarray, bool]:
    """An exact matrix as a numpy array, and whether it holds Fractions.

    The one input contract of both fields: every entry is an int (Python
    or numpy integer) or a Fraction.  Anything else, a float dtype
    included, raises TypeError; an empty input of any dtype is an empty
    integer array.  The array has an integer dtype, or object dtype for
    Python ints too large for int64 and for Fractions.
    """
    arr = np.asarray(mat)
    if arr.size == 0:
        return arr.astype(np.int64), False
    if arr.dtype.kind == "u" and arr.dtype.itemsize >= 8:
        arr = arr.astype(object)
    if arr.dtype.kind in "biu":
        return arr, False
    if arr.dtype != object:
        raise TypeError("exact matrices hold ints or Fractions, not %s"
                        % arr.dtype)
    kinds = set(map(type, arr.ravel().tolist()))
    if not all(issubclass(t, (int, np.integer, Fraction)) for t in kinds):
        raise TypeError("exact matrices hold ints or Fractions, not %s"
                        % ", ".join(sorted(t.__name__ for t in kinds)))
    return arr, any(issubclass(t, Fraction) for t in kinds)


def _inverse_fp(values: list, p: int) -> list:
    """Inverses mod p of a list of integers, by Montgomery's trick
    (Montgomery 1987, 10.3.1): the prefix products, one inverse of the last
    by x^(p-2), then one backward pass, three products per entry in all.

    Raises ValueError when an entry is 0 mod p: the product of the entries
    is then 0, and no entry is given a wrong inverse.  Callers:
    :func:`to_fp_matrix` (denominators), :func:`interpolate` (node gaps).
    """
    prefix, acc = [], 1
    for x in values:
        acc = acc * x % p
        prefix.append(acc)
    if not acc:
        raise ValueError("no inverse mod %d: a residue is 0" % p)
    inv, out = pow(acc, p - 2, p), [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * values[i] % p
    if values:
        out[0] = inv
    return out


def to_fp_matrix(mat, p: int) -> np.ndarray:
    """Reduce an exact array (ints or Fractions, see :func:`_exact_array`)
    to int64 residues mod p, keeping its shape."""
    if p >= _MAX_PRIME:
        raise ValueError("prime too large for int64-exact arithmetic")
    arr, fractions = _exact_array(mat)
    if arr.dtype != object:
        return arr.astype(np.int64, copy=False) % p
    if not fractions:
        return (arr % p).astype(np.int64)
    num = (np.frompyfunc(_numerator, 1, 1)(arr) % p).astype(np.int64)
    den = (np.frompyfunc(_denominator, 1, 1)(arr) % p).astype(np.int64)
    if not den.all():
        raise ValueError("denominator divisible by p; pick another prime")
    inverses = _inverse_fp(den.ravel().tolist(), p)
    return num * np.array(inverses, dtype=np.int64).reshape(den.shape) % p


def _numerator(x):
    return x.numerator


def _denominator(x):
    return x.denominator


def matmul_fp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact modular product; shared dimension must stay below 2^11."""
    if a.shape[-1] * (p - 1) * (p - 1) >= 2 ** 63:
        raise ValueError("matmul shared dimension too large for int64")
    return (a @ b) % p


def field_array(mat, p: int) -> np.ndarray:
    """A fresh 2-D working array of an exact matrix: int64 residues mod p."""
    m = to_fp_matrix(mat, p)
    return m.reshape(1, -1) if m.ndim == 1 else m


def _rref(m: np.ndarray, p: int):
    """Gauss-Jordan elimination of a working array mod p, in place.

    Returns (reduced array, rank, pivot column list, pivot rows, d): the
    pivot rows are the input rows each pivot was taken from, in pivot
    order, so they are independent and the input restricted to them and
    the pivot columns is invertible mod p.  d = det M[:, pivots] when the
    rows of M are independent, and 0 otherwise: the product of the pivots
    before each row is normalized, its sign flipped at each row swap.

    One nonzero scan of the pivot column gives the pivot row (the first
    at or below the current row) and the rows to update.  When more than
    half the rows need the update, it runs in place on the whole
    ``m[:, c:]`` and is not reduced: it subtracts less than (p - 1)^2,
    below 2^52 for p < ``_MAX_PRIME``, so ``_DELAY`` = 1024 of them on a
    residue stay exact in int64.  Fewer rows are gathered, updated and
    reduced at once, as a very sparse matrix needs.  While unreduced
    updates are pending, the pivot column is reduced before it is read
    as factors and the pivot row before it is normalized; the whole array
    is reduced after ``_DELAY`` of them, before a jump scan and once at
    the end.  A run of columns with nothing left at or below the current
    row is jumped over by one scan of the remaining block.
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    order = list(range(nrows))
    r, c, d, pending = 0, 0, 1, 0  # pending: unreduced dense updates
    while r < nrows and c < ncols:
        f = m[:, c] % p if pending else m[:, c].copy()
        nz = f.nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            if pending:
                np.remainder(m, p, out=m)
                pending = 0
            live = m[r:, c + 1:].any(axis=0).nonzero()[0]
            if live.size == 0:
                break
            c += 1 + int(live[0])
            continue
        # the pivot row, and after a swap row r moved to i, take no update
        i = int(nz[k])
        pivot = int(f[i])
        f[i] = 0
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[r], order[i] = order[i], order[r]
            d = -d
        d = d * pivot % p
        prow = (m[r, c:] % p if pending else m[r, c:]) * pow(pivot, -1, p) % p
        m[r, c:] = prow
        if 2 * (nz.size - 1) > nrows:
            m[:, c:] -= np.multiply.outer(f, prow)
            pending += 1
            if pending == _DELAY:
                np.remainder(m, p, out=m)
                pending = 0
        elif nz.size > 1:
            blk = m[nz, c:]
            blk -= np.multiply.outer(f[nz], prow)
            np.remainder(blk, p, out=blk)
            m[nz, c:] = blk
        pivots.append(c)
        r, c = r + 1, c + 1
    if pending:
        np.remainder(m, p, out=m)
    return m, r, pivots, order[:r], d if r == nrows else 0


def pivot_kernel_fp(mat, p: int):
    """One Gauss-Jordan elimination of one matrix M over F_p.

    Returns (d, pivots, kernel): d = det M[:, pivots] when the rows of M
    are independent and 0 otherwise, the greedy pivot columns, and the
    right kernel basis that is the identity on the free columns (one int64
    row per free column, in increasing order; not RREF).  The input is
    not modified.
    """
    return _pivot_kernel(field_array(mat, p), p)


def _pivot_kernel(m: np.ndarray, p: int):
    """:func:`pivot_kernel_fp` of a working array (2-D int64 residues mod
    p) that the caller owns: it is eliminated in place, not copied or
    reduced again."""
    red, rank, pivots, _, d = _rref(m, p)
    free = np.ones(m.shape[1], dtype=bool)
    free[pivots] = False
    basis = np.eye(m.shape[1], dtype=np.int64)[free]
    basis[:, pivots] = -red[:rank, free].T % p
    return d, pivots, basis


def rref_fp(mat, p: int):
    """Reduced row echelon form over F_p.

    Returns (reduced int64 array, rank, pivot column list).  The input is
    not modified.
    """
    return _rref(field_array(mat, p), p)[:3]


def rank_fp(mat, p: int) -> int:
    return rref_fp(mat, p)[1]


def kernel_fp(mat, p: int) -> np.ndarray:
    """RREF-canonical basis of the right kernel, one int64 row per basis
    vector.

    It is the free-column kernel of the column-reversed matrix, reversed
    back: its pivots are the right-greedy pivots of M, and the kernel
    basis that is the identity on their free columns is already RREF
    (matroid duality, as in :func:`kernel_q`), so no second elimination
    runs."""
    return pivot_kernel_fp(np.atleast_2d(mat)[:, ::-1], p)[2][::-1, ::-1]


def shuffle_sign(cols) -> int:
    """eps(T) = (-1)^(sum_k (t_k - k)) over the sorted columns t_k of T,
    counted from 0: the sign of the permutation that moves them to the
    front, in order.

    For a full-row-rank M with (d, pivots, K) from :func:`pivot_kernel_fp`
    and free columns F, the minor dropping any |F| columns S is
    det M[:, S^c] = eps(S) * eps(F) * d * det K[:, S] (complementary
    minors of a row space and its annihilator).  The same holds for any
    kernel basis K that is the identity on some columns F, with
    d = det M[:, F^c]."""
    cols = sorted(int(c) for c in cols)
    return -1 if (sum(cols) - len(cols) * (len(cols) - 1) // 2) % 2 else 1


def det_fp(mat, p: int) -> int:
    """Determinant mod p of one 2-D matrix, the d of its Gauss-Jordan
    elimination."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    return _rref(field_array(mat, p), p)[4]


@functools.cache
def _permutations(n: int):
    """The n! permutations of range(n), one per row, and their signs."""
    perms = np.array(list(itertools.permutations(range(n))),
                     dtype=np.intp).reshape(math.factorial(n), n)
    i, j = np.triu_indices(n, 1)
    signs = 1 - 2 * ((perms[:, i] > perms[:, j]).sum(axis=1) % 2)
    perms.flags.writeable = signs.flags.writeable = False  # shared by calls
    return perms, signs


def pencil_det_fp(a, b, p: int) -> list:
    """det(u a + b) mod p of two n x n matrices, as at most n + 1
    ascending coefficients in u, trimmed ([] when it vanishes).

    The Leibniz expansion: the n! products sign(s) prod_i (u a[i, s(i)]
    + b[i, s(i)]) are expanded together, one linear factor per numpy
    pass, once every permutation s through an entry where a and b are
    both 0 is dropped.  A pass adds two products of residues, below
    2 p^2 < 2^53.  Meant for the pencil's 6 x 6 chart units (720 terms).
    """
    a, b = to_fp_matrix(a, p), to_fp_matrix(b, p)
    n = len(a)
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("pencil determinant of unequal or non-square blocks")
    perms, signs = _permutations(n)
    live = ((a != 0) | (b != 0))[range(n), perms].all(axis=1)
    pa, pb = a[range(n), perms[live]], b[range(n), perms[live]]
    coeffs = np.zeros((len(pa), n + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    for i in range(n):
        nxt = coeffs * pb[:, i, None]
        nxt[:, 1:] += coeffs[:, :-1] * pa[:, i, None]
        coeffs = nxt % p
    return _trim((signs[live] @ coeffs % p).tolist())


def charpoly_fp(mat, p: int) -> list:
    """Characteristic polynomial det(x I - G) mod p of one square matrix:
    n + 1 ascending coefficients, the last one 1.

    G is brought to upper Hessenberg form H by similarity mod p: for each
    column, a row swap and its column swap put a nonzero entry on the
    subdiagonal, and the entries below it are cleared by row operations
    with their inverse column operations.  The Hessenberg recurrence
    (Cohen 1993, Alg. 2.2.9) then gives the polynomials of the leading
    blocks, p_0 = 1 and
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1),
    one numpy pass per column in each half.  Every sum holds at most n
    products below p^2, so n stays below 2^11 for p < 2^26.
    """
    h = field_array(mat, p)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n * (p - 1) ** 2 + p >= 2 ** 63:
        raise ValueError("matrix too large for an int64 charpoly")
    for m in range(1, n - 1):
        nz = np.flatnonzero(h[m:, m - 1])
        if not nz.size:
            continue
        i = m + int(nz[0])
        if i != m:
            h[[m, i]] = h[[i, m]]
            h[:, [m, i]] = h[:, [i, m]]
        f = h[m + 1:, m - 1] * pow(int(h[m, m - 1]), p - 2, p) % p
        # left of column m - 1 these rows are already 0
        h[m + 1:, m - 1:] = (h[m + 1:, m - 1:]
                             - np.outer(f, h[m, m - 1:])) % p
        h[:, m] = (h[:, m] + h[:, m + 1:] @ f) % p
    # row k of polys: p_k; chain[i - 1] = h_(i+1,i) ... h_(m,m-1) (1-based)
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    chain = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            chain = np.append(chain, 1) * h[m - 1, m - 2] % p
        acc = -h[m - 1, m - 1] * polys[m - 1, :m + 1]
        acc[:m - 1] -= (h[:m - 1, m - 1] * chain % p) @ polys[:m - 1, :m - 1]
        acc[1:] += polys[m - 1, :m]
        polys[m, :m + 1] = acc % p
    return polys[n].tolist()


def restrict_kernel(basis: np.ndarray, constraint: np.ndarray, p: int) -> np.ndarray:
    """Intersect a solution space (rows of ``basis``) with ker(constraint).

    Returns an unreduced basis of the intersection: the combinations of
    the rows of ``basis`` that the free-column kernel of
    constraint · basis^T picks out.  No package code calls it; it stays
    for the benchmark tracer, which binds it by name, and for the
    block-by-block reference of the squared-ideal perps in the tests.
    """
    prod = matmul_fp(to_fp_matrix(constraint, p), basis.T, p)
    return matmul_fp(pivot_kernel_fp(prod, p)[2], basis, p)


# -- rational path: one p-adic solver --------------------------------------

# the one fixed prime stream (also hilbert's certificate primes): the four
# largest primes below 2^26, then every prime below; the solver takes them
# in turn, an unlucky prime is caught by the exact checks
_Q_PRIMES = (67108859, 67108837, 67108819, 67108777)
_LIMB = 26  # limb width, the bit size of the residues mod p < 2^26
_MASK = (1 << _LIMB) - 1
_HALF = _LIMB // 2
_MARGIN = 20  # bits an early reconstruction must leave to spare
_ZERO, _ONE = Fraction(0), Fraction(1)


def _solver_primes():
    yield from _Q_PRIMES
    q = min(_Q_PRIMES) - 1
    while q > 2:
        if is_prime(q):
            yield q
        q -= 1


def _bits(a: np.ndarray) -> int:
    """Bit length of the largest absolute entry (0 for an empty array)."""
    return int(np.abs(a).max()).bit_length() if a.size else 0


def integer_rows(mat) -> np.ndarray:
    """An exact matrix (see :func:`_exact_array`) as a 2-D integer array
    with the same row span and kernel: each row times the lcm of its
    denominators, divided by the gcd of its entries.  int64 when every
    entry stays below 2^62, Python ints (object dtype) otherwise."""
    arr, fractions = _exact_array(mat)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if fractions:
        rows = []
        for row in arr.tolist():
            scale = math.lcm(*(x.denominator for x in row))
            rows.append([int(x.numerator) * (scale // x.denominator)
                         for x in row])
        arr = np.array(rows, dtype=object).reshape(arr.shape)
    if arr.dtype == object and _bits(arr) < 62:
        arr = arr.astype(np.int64)
    arr = arr if arr.dtype == object else arr.astype(np.int64, copy=False)
    if arr.size:
        content = np.gcd.reduce(arr, axis=1)
        if (content > 1).any():
            arr = arr // np.where(content > 1, content, 1)[:, None]
    return arr


def _limbs(a: np.ndarray) -> np.ndarray:
    """Signed 26-bit limbs of an integer array: an int64 array of shape
    (L, *a.shape) with a = sum_j limbs[j] * 2^(26 j) and |limbs| < 2^26."""
    mag = np.abs(a)
    out = np.empty((max(1, -(-_bits(a) // _LIMB)),) + a.shape,
                   dtype=np.int64)
    for j in range(len(out)):
        out[j] = (mag >> (_LIMB * j)) & _MASK
    out[:, np.asarray(a < 0, dtype=bool)] *= -1
    return out


def _carry(acc: np.ndarray):
    """Move all but the low 26 bits of every limb below the top one limb
    up, keeping sum_j acc[j] * 2^(26 j); the top limb takes the sign."""
    for j in range(len(acc) - 1):
        acc[j + 1] += acc[j] >> _LIMB
        acc[j] &= _MASK


def _accumulate(acc: np.ndarray, a: np.ndarray, b: np.ndarray, sign: int):
    """acc += sign * (a @ b) exactly, for a float64 stack of 26-bit limbs
    a (La, m, n) and an int64 one b (Lb, n, k), all in limb form.

    The matmuls run in float64 (BLAS) and are exact: each limb of b is
    split into 13-bit halves, so a product stays below 2^39 and a sum of
    at most 2^13 of them below 2^52.  The 2^13 shift of the high half is
    split between limbs s and s + 1, and each limb of ``acc`` takes at most
    2 min(La, Lb) such sums between carries.
    """
    lb, n, k = b.shape
    bt = b.transpose(1, 0, 2).reshape(n, lb * k)
    halves = [(bt & ((1 << _HALF) - 1)).astype(np.float64),
              (bt >> _HALF).astype(np.float64)]
    for s in range(0, n, 1 << 13):
        lo, hi = (np.matmul(a[:, :, s:s + (1 << 13)], h[s:s + (1 << 13)])
                  .astype(np.int64).reshape(len(a), -1, lb, k)
                  .transpose(0, 2, 1, 3) for h in halves)
        for i in range(len(a)):
            acc[i:i + lb] += sign * (lo[i] + ((hi[i] & ((1 << _HALF) - 1))
                                             << _HALF))
            acc[i + 1:i + lb + 1] += sign * (hi[i] >> _HALF)
            if i % 256 == 255:
                _carry(acc)
        _carry(acc)


def _padic_value(digits: list, p: int) -> np.ndarray:
    """sum_i digits[i] * p^i in Python ints, combined pairwise."""
    vals, q = [d.astype(object) for d in digits], p
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] * q if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
        q *= q
    return vals[0]


def _denominator_of(u: int, modulus: int, bound: int, d_bound: int):
    """The denominator t <= d_bound of the fraction n/t = u mod modulus
    with |n| <= bound (Wang's half extended Euclid), or None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if t1 and abs(t1) <= d_bound else None


def _common_denominator(values: np.ndarray, modulus: int, bound: int):
    """Vector rational reconstruction: (d, n) with n = d * values mod
    modulus, every |n| <= bound and d <= bound, or None.

    One pass over the entries in order: an entry that the denominator so
    far does not make small multiplies it by its own reconstructed
    denominator.  The numerators are then checked all at once, and a
    numerator pushed past the bound by a later factor starts a new pass.
    """
    d, flat = 1, values.ravel().tolist()
    while True:
        w = values * d % modulus
        w = np.where(w > modulus // 2, w - modulus, w)
        big = np.flatnonzero(np.abs(w) > bound)
        if not big.size:
            return d, w
        for e in big.tolist():
            u = flat[e] * d % modulus
            if min(u, modulus - u) <= bound:
                continue
            t = _denominator_of(u, modulus, bound, bound // d)
            if t is None or t == 1:
                return None
            d *= t


def _is_kernel(mf: np.ndarray, basis: np.ndarray) -> bool:
    """Whether M @ basis = 0 exactly, for M given by its float64 limbs and
    an integer basis with one column per vector."""
    bl = _limbs(basis)
    acc = np.zeros((len(mf) + len(bl) + 1, mf.shape[1], basis.shape[1]),
                   dtype=np.int64)
    _accumulate(acc, mf, bl, 1)
    return not acc.any()


def _lift(m, mf, mp, rows, pivots, free, p):
    """Y = A^-1 B over Q, A = M[rows, pivots] and B = M[rows, free], by
    Dixon's p-adic lifting mod p, for at least one free column.

    ``mf`` holds the limbs of M (float64) and ``mp`` its residues mod p.
    Returns (d, W) with Y = W / d once it is proved: M times the basis
    with W on the pivot columns and -d I on the free ones is exactly zero,
    and W vanishes wherever a free column lies right of a pivot column
    (the echelon shape of right-greedy pivots).  Returns None when the
    prime was unlucky: the rank or the right-greedy pivots of M differ
    over Q.

    The residual B - A x stays in 26-bit limbs, so each step is one
    matmul mod p, exact float64 limb matmuls (:func:`_accumulate`) and a
    limb division by p.  The p-adic value is reconstructed whenever the
    digit count k doubles and at the Hadamard bound k_max.  An early
    candidate must leave ``_MARGIN`` bits to spare; one that fails the
    check sends the lift on to k_max, where the reconstruction is the
    exact Y.
    """
    r, k = len(pivots), len(free)
    off_shape = np.array(free)[None, :] > np.array(pivots)[:, None]
    top = m[rows]
    al = mf[:, rows][:, :, pivots]
    # Hadamard: |det A| <= prod of the column norms =: H, and Cramer's
    # numerators are at most H times the largest column norm of B
    half_log_r = 0.5 * math.log2(max(r, 2))
    log_n = half_log_r + _bits(top[:, free]) + sum(
        _bits(top[:, c]) + half_log_r for c in pivots)
    k_max = max(1, math.ceil((2 * log_n + _MARGIN + 2) / math.log2(p)))
    # |residual| < max|B| + r max|A|; before the division by p, p times that
    res = np.zeros((len(mf) + 3, r, k), dtype=np.int64)
    res[:len(mf)] = mf[:, rows][:, :, free]
    _carry(res)
    aug = np.hstack([mp[rows][:, pivots], np.eye(r, dtype=np.int64)])
    inverse = _rref(aug, p)[0][:, r:]
    shift = pow(2, _LIMB, p)
    value, modulus, steps, digits, target = 0, 1, 0, [], 1
    while True:
        v = res[-1] % p
        for j in range(len(res) - 2, -1, -1):
            v = (v * shift + res[j]) % p
        y = matmul_fp(inverse, v, p)
        digits.append(y)
        _accumulate(res, al, y[None], -1)
        for j in range(len(res) - 1, 0, -1):
            res[j], rem = np.divmod(res[j], p)
            res[j - 1] += rem << _LIMB
        res[0] //= p
        if len(digits) < target:
            continue
        # fold the digits since the last attempt into the p-adic value
        value = value + _padic_value(digits, p) * modulus
        modulus *= p ** len(digits)
        steps, digits = steps + len(digits), []
        cand = _common_denominator(value, modulus,
                                   math.isqrt(modulus >> (_MARGIN + 1)))
        if cand is not None:
            d, w = cand
            basis = np.zeros((m.shape[1], k), dtype=object)
            basis[pivots] = w
            basis[free, range(k)] = -d
            if _is_kernel(mf, basis):
                return None if w[off_shape].any() else (d, w)
        if steps >= k_max:
            return None
        target = k_max - steps if cand is not None else \
            min(steps, k_max - steps)


def _solve(m: np.ndarray):
    """The verified solve behind the rational entry points.

    Takes the right-greedy pivot columns of M mod each prime of
    :func:`_solver_primes` in turn, from one elimination of the
    column-reversed matrix, with independent pivot rows.  Returns
    (pivots, free columns, d, W), the kernel basis with -W / d on the
    pivot columns that is the identity on the free ones.  With no free
    column mod p the rank is full, proved by reduction, which never
    raises a rank, and W is empty; otherwise :func:`_lift` proves the
    kernel, and its echelon-shape check proves the pivots.
    """
    ncols = m.shape[1]
    mf = None
    for p in _solver_primes():
        mp = (m % p).astype(np.int64)
        _, _, rev, rows, _ = _rref(mp[:, ::-1].copy(), p)
        pivots = sorted(ncols - 1 - c for c in rev)
        free = sorted(set(range(ncols)).difference(pivots))
        if not free:
            return pivots, free, 1, np.zeros((len(pivots), 0), dtype=object)
        mf = _limbs(m).astype(np.float64) if mf is None else mf
        found = _lift(m, mf, mp, rows, pivots, free, p)
        if found is not None:
            return (pivots, free) + found
    raise AssertionError("unreachable: the primes do not run out")


def _kernel_rows(ncols, pivots, free, d, w) -> list:
    """The kernel basis that is the identity on the free columns and
    -W / d on the pivot columns, as Fraction rows."""
    out = []
    for j, f in enumerate(free):
        row = [_ZERO] * ncols
        row[f] = _ONE
        for i, c in enumerate(pivots):
            if w[i][j]:
                row[c] = Fraction(-w[i][j], d)
        out.append(row)
    return out


def rref_q(mat):
    """Reduced row echelon form over Q: (list of Fraction rows, rank,
    pivot column list), one row per input row, zero rows last.

    The row space is the kernel of the kernel, and a kernel from
    :func:`kernel_q` is RREF as it comes, its pivots the leading 1s of
    its rows; both solves are verified.  No package code calls it; the
    benchmark tracer binds it and the tests use it.
    """
    m = integer_rows(mat)
    kern = kernel_q(m)
    rows = kernel_q(np.array(kern, dtype=object).reshape(len(kern),
                                                         m.shape[1]))
    pivots = [row.index(_ONE) for row in rows]
    zeros = [[_ZERO] * m.shape[1] for _ in range(m.shape[0] - len(rows))]
    return rows + zeros, len(rows), pivots


def rank_q(mat) -> int:
    """Rank over Q from the verified solve of the matrix or of its
    transpose, whichever is tall: its kernel is the smaller one, and a
    full rank mod p is proved without a lift."""
    m = integer_rows(mat)
    return len(_solve(m.T if m.shape[0] < m.shape[1] else m)[0])


def kernel_q(mat):
    """Right-kernel basis over Q, RREF-canonical rows of Fractions.

    The pivots are right-greedy, so the basis that is the identity on the
    free columns is already the RREF of the kernel (matroid duality); the
    echelon-shape check proves it."""
    m = integer_rows(mat)
    pivots, free, d, w = _solve(m)
    return _kernel_rows(m.shape[1], pivots, free, d, w.tolist())


# -- one field switch -------------------------------------------------------


def rank(mat, p: int | None = None) -> int:
    return rank_q(mat) if p is None else rank_fp(mat, p)


def kernel(mat, p: int | None = None) -> list:
    """RREF-canonical right-kernel basis as a list of rows: ints mod p,
    Fractions over Q."""
    return kernel_q(mat) if p is None else kernel_fp(mat, p).tolist()


# -- univariate interpolation and roots -----------------------------------


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def interpolate(samples, bound: int, p: int) -> list:
    """Degree-``bound`` interpolation mod p with consistency checking.

    ``samples`` is a list of (node, value) pairs whose nodes are distinct
    mod p; at least bound+1 are required, and any extra samples must match
    the interpolant exactly, otherwise the fit is rejected (a wrong degree
    bound shows up as an inconsistency, not a silent bad answer).

    The first bound+1 samples give Newton divided differences, and the
    Newton form is expanded by Horner's rule.  The node differences of the
    divided differences are inverted as one batch (:func:`_inverse_fp`,
    one modular exponentiation per fit).  Returns ascending coefficients,
    trailing zeros trimmed.
    """
    nodes = [s[0] % p for s in samples]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate interpolation nodes")
    if len(samples) < bound + 1:
        raise ValueError("need at least %d samples for degree %d" % (bound + 1, bound))
    base, extra = samples[: bound + 1], samples[bound + 1:]
    xs = [x % p for x, _ in base]
    dd = [y % p for _, y in base]
    # after pass k, dd[i] (i >= k) is the divided difference f[x_{i-k}..x_i];
    # the node differences of all passes are inverted as one batch
    passes = [range(len(xs) - 1, k - 1, -1) for k in range(1, len(xs))]
    inverses = iter(_inverse_fp([xs[i] - xs[i - k] for k, rows in
                                 enumerate(passes, 1) for i in rows], p))
    for rows in passes:
        for i in rows:
            dd[i] = (dd[i] - dd[i - 1]) * next(inverses) % p
    coeffs = [dd[-1]]
    for k in range(len(xs) - 2, -1, -1):
        # coeffs <- coeffs * (u - x_k) + dd[k]
        nxt = [0] + coeffs
        for j, c in enumerate(coeffs):
            nxt[j] = (nxt[j] - c * xs[k]) % p
        nxt[0] = (nxt[0] + dd[k]) % p
        coeffs = nxt
    for xe, ye in extra:
        if poly_eval(coeffs, xe, p) != ye % p:
            raise ValueError(
                "samples are inconsistent with degree bound %d" % bound)
    return _trim(coeffs)


def poly_divmod_fp(a: list, b: list, p: int):
    a = [x % p for x in a]
    b = _trim([x % p for x in b])
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    inv = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[len(b) + k - 1] * inv % p
        quot[k] = c
        if c:
            for j, bc in enumerate(b):
                rem[j + k] = (rem[j + k] - c * bc) % p
    return _trim(quot), _trim(rem)


def poly_gcd_fp(a: list, b: list, p: int) -> list:
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, poly_divmod_fp(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def poly_mul_fp(a: list, b: list, p: int) -> list:
    """Plain univariate product mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def squarefree_decomposition_fp(coeffs: list, p: int) -> dict[int, list[int]]:
    """Yun's algorithm: f = prod out[j]^j with the out[j] monic, squarefree,
    pairwise coprime and nonconstant.

    Requires p > deg f so derivatives never collapse; every degree in this
    package stays far below the working primes.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if len(f) - 1 >= p:
        raise ValueError("degree must stay below the characteristic")
    lead_inv = pow(f[-1], p - 2, p)
    f = [c * lead_inv % p for c in f]
    if len(f) == 1:
        return {}

    def deriv(g):
        return _trim([(i * c) % p for i, c in enumerate(g)][1:])

    def sub(x, y):
        out = [0] * max(len(x), len(y))
        for i, c in enumerate(x):
            out[i] = c
        for i, c in enumerate(y):
            out[i] = (out[i] - c) % p
        return _trim(out)

    a = poly_gcd_fp(f, deriv(f), p)
    b = poly_divmod_fp(f, a, p)[0]
    c = poly_divmod_fp(deriv(f), a, p)[0]
    d = sub(c, deriv(b))
    out: dict[int, list[int]] = {}
    i = 1
    while len(b) > 1:
        ai = poly_gcd_fp(b, d, p)
        if len(ai) > 1:
            out[i] = ai
        b = poly_divmod_fp(b, ai, p)[0]
        c = poly_divmod_fp(d, ai, p)[0]
        d = sub(c, deriv(b))
        i += 1
    return out


def _poly_mulmod_fp(a, b, mod, p):
    return poly_divmod_fp(poly_mul_fp(a, b, p), mod, p)[1]


def _poly_powmod_fp(base, e, mod, p):
    result, acc = [1], poly_divmod_fp(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod_fp(result, acc, mod, p)
        acc = _poly_mulmod_fp(acc, acc, mod, p)
        e >>= 1
    return result


def roots_fp(coeffs: list, p: int, rng: random.Random | None = None) -> dict[int, int]:
    """All roots in F_p with multiplicities.

    The polynomial must be nonzero of degree below p, as Yun's
    :func:`squarefree_decomposition_fp` requires (it raises ValueError
    otherwise); the working primes here are at least 2^25 and pencil
    degrees at most 240.  Each square-free factor of exponent j is split
    into linear factors by gcd(x^p - x, .) and Cantor-Zassenhaus, and each
    of its roots has multiplicity j.
    """
    rng = rng or random.Random(0)
    out: dict[int, int] = {}

    def split(g: list, mult: int):
        deg = len(g) - 1
        if deg == 0:
            return
        if deg == 1:
            out[(-g[0] * pow(g[1], p - 2, p)) % p] = mult
            return
        while True:
            delta = rng.randrange(p)
            probe = _poly_powmod_fp([delta, 1], (p - 1) // 2, g, p)
            probe = _trim([(c - (1 if k == 0 else 0)) % p
                           for k, c in enumerate(probe)])
            h = poly_gcd_fp(probe, g, p) if probe else list(g)
            if 0 < len(h) - 1 < deg:
                split(h, mult)
                split(poly_divmod_fp(g, h, p)[0], mult)
                return

    for mult, g in squarefree_decomposition_fp(coeffs, p).items():
        # product of the distinct linear factors of g: gcd(x^p - x, g)
        xp = _poly_powmod_fp([0, 1], p, g, p)
        xp_minus_x = list(xp) + [0] * max(0, 2 - len(xp))
        xp_minus_x[1] = (xp_minus_x[1] - 1) % p
        split(poly_gcd_fp(xp_minus_x, g, p), mult)
    return out


def random_prime(rng: random.Random) -> int:
    """Uniform-ish random prime in [2^25, 2^26), sized for int64-exact
    matmul."""
    while True:
        cand = rng.randrange((1 << 25) | 1, _MAX_PRIME, 2)
        if is_prime(cand):
            return cand


def seeded_rng(seed: int, tag: str) -> random.Random:
    """Deterministic child generator for one named task; string seeding
    hashes through sha512, which is stable across runs and platforms."""
    return random.Random("%d:%s" % (seed, tag))
