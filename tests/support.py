"""Helpers that only the tests use: the test-side view of a few package
objects, kept out of ``src/`` because no package code calls them.

* :func:`fiber_equivalence` decides whether two affine cubics with the
  same leading form give the same point of the fiber over it;
* :func:`le_vector` lays a polynomial of degree <= dmax out on the
  concatenated monomial lists of degrees 0..dmax, the coordinates of
  ``apolarity._contraction_matrix`` and of ``translated_apolar``;
* :func:`graded_parts` splits a polynomial by total degree;
* :func:`fiber_point` samples a point of the fiber over a random cubic.
"""

from __future__ import annotations

from apolar import linalg
from apolar.apolarity import _contraction_matrix, _le_offsets
from apolar.constructions import _coeff, random_cubic
from apolar.linalg import seeded_rng
from apolar.poly import Poly, monomial_index, monomials


def fiber_equivalence(F3: Poly, Q: Poly, Q2: Poly, p: int | None = None) -> bool:
    """Whether F3 + Q and F3 + Q2 generate the same contraction module.

    True exactly when Q - Q2 is a linear combination of the six first-order
    contractions of F3, i.e. when the two affine cubics define the same
    point of the fiber over the leading form.
    """
    for q in (Q, Q2):
        if q.ring != "P" or (not q.is_zero() and q.degree() > 2):
            raise ValueError("expected P-side forms of degree at most 2")
    (ra, rka, _), (rb, rkb, _) = (
        linalg.rref(_contraction_matrix(F3 + q, 3, p), p) for q in (Q, Q2))
    return ra[:rka] == rb[:rkb]


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
