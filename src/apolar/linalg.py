"""Dense exact linear algebra over the rationals and over prime fields.

Elimination runs on 2-D numpy working arrays (:func:`field_array`): int64
residues mod p, or object-dtype Fractions when ``p`` is None.  With
p < 2**26 every product fits comfortably in int64 even after summing along
the longest shared dimension used in this package (792), so the modular
code is exact in machine integers.  This elimination core is the only code
that serves both fields: one Gauss-Jordan body and one kernel construction,
with ``rref``, ``rank`` and ``kernel`` the field switch callers use.  The
``_fp`` entry points return int64 arrays, the ``_q`` ones lists of Fraction
rows.

Determinants and pivot kernels run one forward elimination
(:func:`pivot_kernels_fp`; :func:`det_fp` is its square case and
:func:`det_bareiss` the integer reference it is tested against).  It delays
the modular reduction of the trailing block (Dumas-Giorgi-Pernet, FFLAS):
a column is reduced when it becomes the pivot column and a row when it
becomes the pivot row, so the unreduced entries stay below
min(nrows, ncols) * (p-1)^2 + p.  That must stay below 2^63, which for
p < 2^26 allows 2,048 rows or columns; larger shapes are refused.  The
kernel it returns, the identity on the free columns, gives every maximal
minor through the complementary-minor identity (see :func:`shuffle_sign`).
Univariate interpolation (Newton divided differences) and roots (Yun's
square-free decomposition, then Cantor-Zassenhaus) work over F_p only.

Subspaces of a graded piece are stored as reduced-row-echelon bases in the
canonical monomial coordinates, so equality of subspaces is equality of
their basis matrices.  Inside, a kernel is the basis that is the identity
on the free columns, from one elimination (:func:`_kernel`), and
:func:`restrict_kernel` carries such bases unreduced; a basis is reduced
to RREF once, where it is published (:func:`kernel_fp`, :func:`kernel_q`,
``hilbert.square_perp_basis``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poly import is_prime

_MAX_PRIME = 1 << 26  # keeps k * p^2 < 2^63 for shared dimensions up to 2^11


def _as_fp(mat, p: int) -> np.ndarray:
    m = np.asarray(mat, dtype=object)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    out = np.empty(m.shape, dtype=np.int64)
    flat_in, flat_out = m.ravel(), out.ravel()
    for i, v in enumerate(flat_in):
        if isinstance(v, Fraction):
            if v.denominator % p == 0:
                raise ValueError("denominator divisible by p; pick another prime")
            flat_out[i] = v.numerator * pow(v.denominator, p - 2, p) % p
        else:
            flat_out[i] = int(v) % p
    return out


def to_fp_matrix(mat, p: int) -> np.ndarray:
    """Reduce an exact matrix (ints or Fractions) to residues mod p."""
    if p >= _MAX_PRIME:
        raise ValueError("prime too large for int64-exact arithmetic")
    arr = np.asarray(mat)
    if arr.dtype == object:
        # Fractions and oversized ints; numpy would silently truncate these
        # through int() if asked for an integer dtype directly.
        return _as_fp(mat, p)
    return arr.astype(np.int64, copy=False) % p


def matmul_fp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact modular product; shared dimension must stay below 2^11."""
    if a.shape[-1] * (p - 1) * (p - 1) >= 2 ** 63:
        raise ValueError("matmul shared dimension too large for int64")
    return (a @ b) % p


def field_array(mat, p: int | None = None) -> np.ndarray:
    """A fresh 2-D working array of an exact matrix: int64 residues mod p,
    or object-dtype Fractions when p is None."""
    if p is None:
        m = np.frompyfunc(Fraction, 1, 1)(np.array(mat, dtype=object))
    else:
        m = to_fp_matrix(mat, p)
    return m.reshape(1, -1) if m.ndim == 1 else m


def _rref(m: np.ndarray, p: int | None):
    """Gauss-Jordan elimination of a working array, in place.

    One body for both fields: residues mod p, or Fractions when p is None.
    Only the rows with a nonzero entry in the pivot column are updated.
    Returns (reduced array, rank, pivot column list).
    """
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        if p is None:
            m[r, c:] = m[r, c:] / m[r, c]
        else:
            m[r, c:] = m[r, c:] * pow(int(m[r, c]), p - 2, p) % p
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != r]
        if rows.size:
            update = m[rows, c:] - np.outer(m[rows, c], m[r, c:])
            m[rows, c:] = update if p is None else update % p
        pivots.append(c)
        r += 1
    return m, r, pivots


def _kernel(m: np.ndarray, p: int | None) -> np.ndarray:
    """Basis of the right kernel of a working array from one Gauss-Jordan
    elimination, in the array's own field: one row per free column, in
    increasing order, the identity on the free columns (not RREF)."""
    red, rank, pivots = _rref(m, p)
    free = np.setdiff1d(np.arange(m.shape[1]), pivots)
    basis = field_array(np.eye(m.shape[1], dtype=np.int64)[free], p)
    basis[:, pivots] = -red[:rank, free].T
    if p is not None:
        basis %= p
    return basis


def rref_fp(mat, p: int):
    """Reduced row echelon form over F_p.

    Returns (reduced int64 array, rank, pivot column list).  The input is
    not modified.
    """
    return _rref(field_array(mat, p), p)


def rank_fp(mat, p: int) -> int:
    return rref_fp(mat, p)[1]


def kernel_fp(mat, p: int) -> np.ndarray:
    """RREF-canonical basis of the right kernel, one int64 row per basis
    vector."""
    return _rref(_kernel(field_array(mat, p), p), p)[0]


def pivot_kernels_fp(stack, p: int) -> list:
    """One forward elimination over F_p with delayed reduction, run on a
    stack of equally shaped matrices at once.

    Returns, per matrix M of the stack, (d, pivots, kernel): d =
    det M[:, pivots] when the rows of M are independent and 0 otherwise,
    the greedy pivot columns, and the right kernel basis that is the
    identity on the free columns (one int64 row per free column, in
    increasing order).  Column c is reduced mod p only when it becomes the
    pivot column and a row only when it becomes the pivot row; the trailing
    block is updated without ``% p``, so its entries stay below
    min(nrows, ncols) * (p-1)^2 + p in absolute value.  The matrices share
    every numpy step while their pivot columns agree; a column that is a
    pivot for some of them and free for the others splits the stack.
    """
    shape = np.shape(stack)
    if len(shape) != 3:
        raise ValueError("expected a stack of matrices")
    if min(shape[1:]) * (p - 1) ** 2 + p >= 2 ** 63:
        raise ValueError("elimination too large for int64 delayed reduction")
    m = to_fp_matrix(stack, p)
    batch, nrows, ncols = m.shape
    out: list = [None] * batch
    # each group: members, their working arrays, next column, pivot
    # columns so far, determinant so far, pivot inverses so far
    groups = [(np.arange(batch), m, 0, [], np.ones(batch, dtype=np.int64), [])]
    while groups:
        members, m, c0, pivots, d, inverses = groups.pop()
        r = len(pivots)
        for c in range(c0, ncols):
            if r == nrows:
                break
            m[:, r:, c] %= p
            nonzero = m[:, r:, c] != 0
            has = nonzero.any(axis=1)
            if not has.all():
                if not has.any():
                    continue
                rest = ~has
                groups.append((members[rest], m[rest], c + 1, list(pivots),
                               d[rest], [inv[rest] for inv in inverses]))
                members, m, d, nonzero = (members[has], m[has], d[has],
                                          nonzero[has])
                inverses = [inv[has] for inv in inverses]
            lead = nonzero.argmax(axis=1)
            swap = lead.nonzero()[0]
            if swap.size:
                lead = r + lead[swap]
                top = m[swap, lead]
                m[swap, lead] = m[swap, r]
                m[swap, r] = top
                d[swap] = -d[swap]
            m[:, r, c:] %= p
            piv = m[:, r, c]
            d = d * piv % p
            inverses.append(np.array([pow(x, p - 2, p) for x in piv.tolist()],
                                     dtype=np.int64))
            factors = m[:, r + 1:, c] * inverses[-1][:, None] % p
            m[:, r + 1:, c + 1:] -= factors[:, :, None] * m[:, r, None, c + 1:]
            pivots.append(c)
            r += 1
        is_pivot = set(pivots)
        free = [c for c in range(ncols) if c not in is_pivot]
        kernel = np.zeros((len(members), len(free), ncols), dtype=np.int64)
        if free:
            # back substitution for the free columns only; entries of a row
            # left of its pivot are never read, free-column ones are 0 mod p
            upper = m[:, :r, pivots]
            sol = -(m[:, :r, free] % p)
            for i in range(r - 1, -1, -1):
                tail = upper[:, i, None, i + 1:] @ sol[:, i + 1:]
                acc = sol[:, i] - tail[:, 0]
                sol[:, i] = acc % p * inverses[i][:, None] % p
            kernel[:, range(len(free)), free] = 1
            kernel[:, :, pivots] = sol.transpose(0, 2, 1)
        for k, member in enumerate(members):
            out[member] = (int(d[k]) if r == nrows else 0, list(pivots),
                           kernel[k])
    return out


def shuffle_sign(cols) -> int:
    """eps(T) = (-1)^(sum_k (t_k - k)) over the sorted columns t_k of T,
    counted from 0: the sign of the permutation that moves them to the
    front, in order.

    For a full-row-rank M with (d, pivots, K) from :func:`pivot_kernels_fp`
    and free columns F, the minor dropping any |F| columns S is
    det M[:, S^c] = eps(S) * eps(F) * d * det K[:, S] (complementary
    minors of a row space and its annihilator).  The same holds for any
    kernel basis K that is the identity on some columns F, with
    d = det M[:, F^c]."""
    cols = sorted(int(c) for c in cols)
    return -1 if (sum(cols) - len(cols) * (len(cols) - 1) // 2) % 2 else 1


def det_fp(mat, p: int) -> int:
    """Determinant mod p: the square case of :func:`pivot_kernels_fp`."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    return pivot_kernels_fp(mat[None], p)[0][0]


def restrict_kernel(basis: np.ndarray, constraint: np.ndarray, p: int) -> np.ndarray:
    """Intersect a solution space (rows of ``basis``) with ker(constraint).

    Returns an unreduced basis of the intersection: the combinations of
    the rows of ``basis`` that the free-column kernel of
    constraint · basis^T picks out.  Lets large kernels be cut down block
    by block without ever forming the full stacked constraint matrix.
    """
    prod = matmul_fp(to_fp_matrix(constraint, p), basis.T, p)
    return matmul_fp(_kernel(prod, p), basis, p)


# -- rational path -------------------------------------------------------


def rref_q(mat):
    """Reduced row echelon form over Q: (list of Fraction rows, rank,
    pivot column list)."""
    red, rank, pivots = _rref(field_array(mat), None)
    return red.tolist(), rank, pivots


def rank_q(mat) -> int:
    return rref_q(mat)[1]


def kernel_q(mat):
    """Right-kernel basis over Q, RREF-canonical rows of Fractions."""
    return _rref(_kernel(field_array(mat), None), None)[0].tolist()


# -- one field switch -------------------------------------------------------


def rref(mat, p: int | None = None):
    """(reduced rows as a list, rank, pivot columns) over F_p, or over Q
    when p is None."""
    if p is None:
        return rref_q(mat)
    red, rank, pivots = rref_fp(mat, p)
    return red.tolist(), rank, pivots


def rank(mat, p: int | None = None) -> int:
    return rank_q(mat) if p is None else rank_fp(mat, p)


def kernel(mat, p: int | None = None) -> list:
    """RREF-canonical right-kernel basis as a list of rows: ints mod p,
    Fractions over Q."""
    return kernel_q(mat) if p is None else kernel_fp(mat, p).tolist()


def det_bareiss(mat):
    """Determinant of an integer matrix by Bareiss elimination, exact in
    integers; the reference that :func:`det_fp` is tested against."""
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


# -- subspaces ------------------------------------------------------------


@dataclass
class SubspaceBasis:
    """RREF basis of a subspace of one graded piece, in monomial coordinates.

    ``rows`` is a list of coefficient rows (Fractions over Q, ints mod p);
    row count equals the dimension.  The dataclass equality compares the
    ambient and the rows, which for canonical bases is subspace equality.
    """

    ring: str
    degree: int
    n_vars: int
    ncols: int
    p: int | None = None
    rows: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector) -> bool:
        """Membership test for one coefficient row; exact, no tolerance."""
        grown = span(list(self.rows) + [list(vector)], self.ring, self.degree,
                     self.n_vars, self.ncols, self.p)
        return grown.dim == self.dim


def span(vectors, ring: str, degree: int, n_vars: int, ncols: int,
         p: int | None = None) -> SubspaceBasis:
    """Canonical basis of the span of the given coefficient rows."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return SubspaceBasis(ring, degree, n_vars, ncols, p, [])
    red, rank, _ = rref(vectors, p)
    return SubspaceBasis(ring, degree, n_vars, ncols, p, red[:rank])


def perp(u: SubspaceBasis) -> SubspaceBasis:
    """Coordinate-orthogonal complement (the contraction pairing is diagonal
    on monomials, so perps of graded pieces are plain kernels)."""
    rows = u.rows or np.zeros((0, u.ncols), dtype=np.int64)
    return SubspaceBasis(u.ring, u.degree, u.n_vars, u.ncols, u.p,
                         kernel(rows, u.p))


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
    Newton form is expanded by Horner's rule.  Returns ascending
    coefficients, trailing zeros trimmed.
    """
    nodes = [s[0] % p for s in samples]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate interpolation nodes")
    if len(samples) < bound + 1:
        raise ValueError("need at least %d samples for degree %d" % (bound + 1, bound))
    base, extra = samples[: bound + 1], samples[bound + 1:]
    xs = [x % p for x, _ in base]
    dd = [y % p for _, y in base]
    # after pass k, dd[i] (i >= k) is the divided difference f[x_{i-k}..x_i]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * pow(xs[i] - xs[i - k], p - 2, p) % p
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
        if len(rem) < len(b) + k:
            continue
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


def random_prime(rng: random.Random, lo: int = 1 << 25, hi: int = _MAX_PRIME) -> int:
    """Uniform-ish random prime in [lo, hi), sized for int64-exact matmul."""
    while True:
        cand = rng.randrange(lo | 1, hi, 2)
        if is_prime(cand):
            return cand


def seeded_rng(seed: int, tag: str) -> random.Random:
    """Deterministic child generator for one named task; string seeding
    hashes through sha512, which is stable across runs and platforms."""
    return random.Random("%d:%s" % (seed, tag))
