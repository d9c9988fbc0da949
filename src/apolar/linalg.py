"""Dense exact linear algebra over the rationals and over prime fields.

Prime-field matrices are numpy int64 arrays of least nonnegative residues;
with p < 2**26 every product fits comfortably in int64 even after summing
along the longest shared dimension used in this package (792), so all
elimination and matmul code below is exact in machine integers.  Rational
matrices are plain lists of Fraction rows.  Throughout, ``p=None`` selects
the rational path.

Subspaces of a graded piece are stored as reduced-row-echelon bases in the
canonical monomial coordinates, so equality of subspaces is equality of
their basis matrices.
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


def rref_fp(mat, p: int):
    """Reduced row echelon form over F_p.

    Returns (reduced matrix, rank, pivot column list).  The input is not
    modified.
    """
    m = to_fp_matrix(mat, p).copy()
    if m.ndim == 1:
        m = m.reshape(1, -1)
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = m[r, c:] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        if np.any(col):
            m[:, c:] = (m[:, c:] - np.outer(col, m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, r, pivots


def rank_fp(mat, p: int) -> int:
    return rref_fp(mat, p)[1]


def kernel_fp(mat, p: int) -> np.ndarray:
    """RREF-canonical basis of the right kernel, one row per basis vector."""
    m = to_fp_matrix(mat, p)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    ncols = m.shape[1]
    red, rank, pivots = rref_fp(m, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for j, pc in enumerate(pivots):
            basis[k, pc] = (-int(red[j, fc])) % p
    return rref_fp(basis, p)[0][: len(free)]


def det_fp(mat, p: int) -> int:
    m = to_fp_matrix(mat, p).copy()
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            m[[c, i]] = m[[i, c]]
            det = -det
        piv = int(m[c, c])
        det = det * piv % p
        inv = pow(piv, p - 2, p)
        col = m[c + 1:, c]
        if np.any(col):
            factors = col * inv % p
            m[c + 1:, c:] = (m[c + 1:, c:] - np.outer(factors, m[c, c:])) % p
    return det % p


def restrict_kernel(basis: np.ndarray, constraint: np.ndarray, p: int) -> np.ndarray:
    """Intersect a solution space (rows of ``basis``) with ker(constraint).

    Lets large kernels be cut down block by block without ever forming the
    full stacked constraint matrix.
    """
    if basis.shape[0] == 0:
        return basis
    prod = matmul_fp(to_fp_matrix(constraint, p), basis.T, p)
    coeffs = kernel_fp(prod, p)
    if coeffs.shape[0] == 0:
        return np.zeros((0, basis.shape[1]), dtype=np.int64)
    return rref_fp(matmul_fp(coeffs, basis, p), p)[0][: coeffs.shape[0]]


# -- rational path -------------------------------------------------------


def rref_q(mat):
    """Reduced row echelon form with exact Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, r, pivots


def rank_q(mat) -> int:
    return rref_q(mat)[1]


def kernel_q(mat, ncols: int | None = None):
    """Right-kernel basis over Q, RREF-canonical rows of Fractions."""
    if not mat:
        n = ncols or 0
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ncols = len(mat[0])
    red, rank, pivots = rref_q(mat)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for j, pc in enumerate(pivots):
            vec[pc] = -red[j][fc]
        basis.append(vec)
    if not basis:
        return []
    return rref_q(basis)[0][: len(basis)]


def det_bareiss(mat):
    """Fraction-free determinant (Bareiss) for integer matrices.

    Falls back to exact Fraction elimination when entries are not integers.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if not all(isinstance(x, int) for row in mat for x in row):
        m = [[Fraction(x) for x in row] for row in mat]
        det = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det
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
    row count equals the dimension.
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

    def matrix(self):
        if self.p is not None:
            return to_fp_matrix(self.rows, self.p) if self.rows else np.zeros(
                (0, self.ncols), dtype=np.int64)
        return [list(r) for r in self.rows]

    def same_ambient(self, other: "SubspaceBasis") -> bool:
        return (self.ring, self.degree, self.n_vars, self.ncols, self.p) == (
            other.ring, other.degree, other.n_vars, other.ncols, other.p)

    def contains(self, vector) -> bool:
        """Membership test for one coefficient row; exact, no tolerance."""
        grown = span(list(self.rows) + [list(vector)], self.ring, self.degree,
                     self.n_vars, self.ncols, self.p)
        return grown.dim == self.dim

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis) or not self.same_ambient(other):
            return False
        if self.p is not None:
            a, b = self.matrix(), other.matrix()
            return a.shape == b.shape and bool(np.array_equal(a, b))
        return [list(map(Fraction, r)) for r in self.rows] == [
            list(map(Fraction, r)) for r in other.rows]


def span(vectors, ring: str, degree: int, n_vars: int, ncols: int,
         p: int | None = None) -> SubspaceBasis:
    """Canonical basis of the span of the given coefficient rows."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return SubspaceBasis(ring, degree, n_vars, ncols, p, [])
    if p is None:
        red, rank, _ = rref_q(vectors)
        rows = red[:rank]
    else:
        red, rank, _ = rref_fp(vectors, p)
        rows = [list(map(int, r)) for r in red[:rank]]
    return SubspaceBasis(ring, degree, n_vars, ncols, p, rows)


def subspace_sum(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    if not u.same_ambient(v):
        raise ValueError("subspace ambients differ")
    return span(list(u.rows) + list(v.rows), u.ring, u.degree, u.n_vars,
                u.ncols, u.p)


def perp(u: SubspaceBasis) -> SubspaceBasis:
    """Coordinate-orthogonal complement (the contraction pairing is diagonal
    on monomials, so perps of graded pieces are plain kernels)."""
    if not u.rows:
        eye = [[int(i == j) for j in range(u.ncols)] for i in range(u.ncols)]
        return SubspaceBasis(u.ring, u.degree, u.n_vars, u.ncols, u.p, eye)
    if u.p is None:
        rows = kernel_q(u.matrix())
    else:
        rows = [list(map(int, r)) for r in kernel_fp(u.matrix(), u.p)]
    return SubspaceBasis(u.ring, u.degree, u.n_vars, u.ncols, u.p, rows)


def intersect(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    if not u.same_ambient(v):
        raise ValueError("subspace ambients differ")
    return perp(subspace_sum(perp(u), perp(v)))


# -- univariate interpolation and roots -----------------------------------


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x, p: int | None = None):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if p is not None:
            acc %= p
    return acc


def interpolate(samples, bound: int, p: int | None = None) -> list:
    """Degree-``bound`` Lagrange interpolation with consistency checking.

    ``samples`` is a list of (node, value) pairs with distinct nodes; at
    least bound+1 are required, and any extra samples must match the
    interpolant exactly, otherwise the fit is rejected (a wrong degree
    bound shows up as an inconsistency, not a silent bad answer).

    Returns ascending coefficients, trailing zeros trimmed.
    """
    nodes = [s[0] for s in samples]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate interpolation nodes")
    if len(samples) < bound + 1:
        raise ValueError("need at least %d samples for degree %d" % (bound + 1, bound))
    base, extra = samples[: bound + 1], samples[bound + 1:]
    zero = 0 if p is not None else Fraction(0)
    coeffs = [zero] * (bound + 1)
    for i, (xi, yi) in enumerate(base):
        # numerator polynomial prod_{j != i} (x - x_j), built incrementally
        num = [1]
        denom = 1
        for j, (xj, _) in enumerate(base):
            if j == i:
                continue
            nxt = [zero] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= c * xj
            num = [c % p for c in nxt] if p is not None else nxt
            denom = denom * (xi - xj)
            if p is not None:
                denom %= p
        if p is not None:
            scale = yi * pow(denom % p, p - 2, p) % p
            for k, c in enumerate(num):
                coeffs[k] = (coeffs[k] + c * scale) % p
        else:
            scale = Fraction(yi) / denom
            for k, c in enumerate(num):
                coeffs[k] += c * scale
    for xe, ye in extra:
        have = poly_eval(coeffs, xe, p)
        want = ye % p if p is not None else Fraction(ye)
        if have != want:
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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_divmod_fp(out, mod, p)[1]


def _poly_powmod_fp(base, e, mod, p):
    result, acc = [1], poly_divmod_fp(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod_fp(result, acc, mod, p)
        acc = _poly_mulmod_fp(acc, acc, mod, p)
        e >>= 1
    return result


def roots_fp(coeffs: list, p: int, rng: random.Random | None = None) -> dict[int, int]:
    """All roots in F_p with multiplicities (Cantor-Zassenhaus splitting)."""
    rng = rng or random.Random(0)
    f = _trim([c % p for c in coeffs])
    if len(f) <= 1:
        return {}
    # product of distinct linear factors: gcd(x^p - x, f)
    xp = _poly_powmod_fp([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * max(0, 2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    lin = poly_gcd_fp(xp_minus_x, f, p)
    roots: list[int] = []

    def split(g: list):
        deg = len(g) - 1
        if deg == 0:
            return
        if deg == 1:
            roots.append((-g[0] * pow(g[1], p - 2, p)) % p)
            return
        while True:
            delta = rng.randrange(p)
            probe = _poly_powmod_fp([delta, 1], (p - 1) // 2, g, p)
            probe = _trim([(c - (1 if k == 0 else 0)) % p
                           for k, c in enumerate(probe)])
            h = poly_gcd_fp(probe, g, p) if probe else list(g)
            if 0 < len(h) - 1 < deg:
                split(h)
                split(poly_divmod_fp(g, h, p)[0])
                return

    split(lin)
    out: dict[int, int] = {}
    for r in roots:
        out[r] = multiplicity_at(f, r, p)
    return out


def multiplicity_at(coeffs: list, root, p: int | None = None) -> int:
    """Largest k with (u - root)^k dividing the polynomial."""
    cur = _trim(list(coeffs))
    if not cur:
        raise ValueError("zero polynomial has no multiplicity")
    k = 0
    while cur and poly_eval(cur, root, p) == 0:
        # synthetic division by (u - root); remainder is the evaluation, 0
        out = [0] * (len(cur) - 1)
        acc = 0
        for i in range(len(cur) - 1, 0, -1):
            acc = acc * root + cur[i]
            if p is not None:
                acc %= p
            out[i - 1] = acc
        cur = _trim(out)
        k += 1
    return k


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
