"""Helpers that only the tests use: the test-side view of a few package
objects, kept out of ``src/`` because no package code calls them.

* :func:`fiber_equivalence` decides whether two affine cubics with the
  same leading form give the same point of the fiber over it;
* :func:`le_vector` lays a polynomial of degree <= dmax out on the
  concatenated monomial lists of degrees 0..dmax, the coordinates of
  ``apolarity._contraction_matrix`` and of ``translated_apolar``;
* :func:`graded_parts` splits a polynomial by total degree;
* :func:`fiber_point` samples a point of the fiber over a random cubic;
* :func:`span_rows` and :func:`in_span` treat a subspace as its RREF rows:
  the row count is the dimension, equal rows are equal subspaces;
* :func:`change_of_basis` moves a P polynomial by an invertible matrix,
  for the GL6 equivariance tests.
"""

from __future__ import annotations

from apolar import linalg
from apolar.apolarity import _contraction_matrix, _le_offsets
from apolar.constructions import _coeff, random_cubic
from apolar.linalg import seeded_rng
from apolar.poly import Poly, dp_mul, monomial_index, monomials, waring_power


def span_rows(vectors, p: int | None = None) -> list:
    """The RREF rows of the span of the given coefficient rows, over F_p
    (ints) or over Q when p is None (Fractions); one row per dimension."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    if p is None:
        red, rank, _ = linalg.rref_q(vectors)
    else:
        red, rank, _ = linalg.rref_fp(vectors, p)
        red = red.tolist()
    return red[:rank]


def in_span(rows, v, p: int | None = None) -> bool:
    """Whether the coefficient row v lies in the span of ``rows``: adding
    it does not grow the rank.  Exact, no tolerance."""
    rows = [list(r) for r in rows]
    return len(span_rows(rows + [list(v)], p)) == len(span_rows(rows, p))


def fiber_equivalence(F3: Poly, Q: Poly, Q2: Poly, p: int | None = None) -> bool:
    """Whether F3 + Q and F3 + Q2 generate the same contraction module.

    True exactly when Q - Q2 is a linear combination of the six first-order
    contractions of F3, i.e. when the two affine cubics define the same
    point of the fiber over the leading form.
    """
    for q in (Q, Q2):
        if q.ring != "P" or (not q.is_zero() and q.degree() > 2):
            raise ValueError("expected P-side forms of degree at most 2")
    return span_rows(_contraction_matrix(F3 + Q, 3, p), p) == \
        span_rows(_contraction_matrix(F3 + Q2, 3, p), p)


def le_vector(f: Poly, dmax: int) -> list:
    """Coefficients of a polynomial of degree <= dmax on the concatenated
    canonical monomial lists of degrees 0..dmax."""
    offs, total = _le_offsets(f.n, dmax)
    vec: list = [0] * total
    for expo, coeff in f.terms.items():
        d = sum(expo)
        vec[offs[d] + monomial_index(f.n, d)[expo]] = coeff
    return vec


def graded_parts(f: Poly) -> list[Poly]:
    """Split by total degree, lowest first, top-degree form last."""
    if not f.terms:
        return []
    buckets: dict[int, dict] = {}
    for expo, coeff in f.terms.items():
        buckets.setdefault(sum(expo), {})[expo] = coeff
    return [Poly(f.ring, f.n, buckets[d]) for d in sorted(buckets)]


def fiber_point(seed: int = 0, p: int | None = None) -> tuple[Poly, Poly]:
    """A random nondegenerate leading cubic together with a quadratic
    tail, i.e. a point of the fiber over the leading form."""
    F3 = random_cubic(seed, p)
    rng = seeded_rng(seed, "tail")
    while True:
        terms = {e: _coeff(rng, p) for e in monomials(6, 2)}
        Q = Poly("P", 6, terms)
        if not Q.is_zero():
            return F3, Q


def change_of_basis(F: Poly, g) -> Poly:
    """Apply an invertible linear change of variables to a P polynomial.

    The variable x_i is sent to the linear form sum_j g[j][i] x_j, and a
    monomial x^a maps to the divided-power product of the powers
    waring_power(column_i, a_i).  With this normalization plain monomial
    substitution is recovered for diagonal and permutation matrices, the
    map is a group action ((gh)·F = g·(h·F)), and the contraction pairing
    transforms equivariantly, so catalecticant ranks are preserved.

    Raises:
        ValueError: if g is not square of the right size or is singular.
    """
    if F.ring != "P":
        raise ValueError("change_of_basis acts on the P ring")
    rows = [list(r) for r in g]
    if len(rows) != F.n or any(len(r) != F.n for r in rows):
        raise ValueError("matrix must be %d x %d" % (F.n, F.n))
    if linalg.rank(rows) < F.n:
        raise ValueError("singular change of basis")
    cols = [[rows[j][i] for j in range(F.n)] for i in range(F.n)]
    out = Poly.zero("P", F.n)
    for expo, coeff in F.terms.items():
        piece = None
        for i, e in enumerate(expo):
            if not e:
                continue
            factor = waring_power(cols[i], e)
            piece = factor if piece is None else dp_mul(piece, factor)
        if piece is None:  # constant term
            piece = Poly("P", F.n, {tuple([0] * F.n): 1})
        out = out + piece.scale(coeff)
    return out
