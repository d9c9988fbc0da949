"""Families of cubic forms with prescribed apolarity behaviour.

Three sources of examples, plus generic samplers:

* linear sections of the Grassmannian of planes in six-space, obtained by
  substituting random linear forms into the 15 three-term pair-coordinate
  relations and taking the dual socle generator of the resulting net of
  quadrics — these land on the divisor E with tangent dimension >= 85;
* sums of dp-cubes of linear forms (explicit apolar decompositions, on or
  off E depending on the number of summands);
* the coefficient-gathering construction that turns a ternary sextic into
  a cubic in six variables by reading each degree-3 exponent as a sum of
  the six quadratic exponents in three variables.

Rational samplers draw integer coefficients in [-10000, 10000]; prime-field
samplers draw uniformly.  Everything is reproducible from (seed, tag).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .apolarity import _products, dual_socle_generator, is_nondegenerate_cubic
from .linalg import seeded_rng
from .poly import Poly, monomials, poly_from_vector, waring_cube

_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]

_COEFF_BOUND = 10000
_ATTEMPTS = 10  # draws a sampler makes before giving up


def _coeff(rng, p: int | None) -> int:
    if p is not None:
        return rng.randrange(p)
    return rng.randrange(-_COEFF_BOUND, _COEFF_BOUND + 1)


def pluecker_pairs() -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, naming the 15 pair coordinates."""
    return list(_PAIRS)


def pluecker_quadrics() -> list[Poly]:
    """The 15 three-term relations cutting out the plane Grassmannian.

    One relation per 4-subset {a < b < c < d} of the six indices:
    p_ab p_cd - p_ac p_bd + p_ad p_bc, written in the S-ring on the 15
    pair coordinates ordered as in :func:`pluecker_pairs`.
    """
    idx = {pair: k for k, pair in enumerate(_PAIRS)}
    quads = []
    for a, b, c, d in itertools.combinations(range(6), 4):
        terms: dict[tuple, int] = {}
        for p1, p2, sign in (((a, b), (c, d), 1),
                             ((a, c), (b, d), -1),
                             ((a, d), (b, c), 1)):
            e = [0] * 15
            e[idx[p1]] += 1
            e[idx[p2]] += 1
            terms[tuple(e)] = sign
        quads.append(Poly("S", 15, terms))
    return quads


@dataclass
class SectionSample:
    """A Grassmannian section: the cubic, the 15 x 6 substitution matrix,
    and the substituted quadrics (which span its quadratic annihilator)."""

    cubic: Poly
    matrix: list[list[int]]
    quadrics: list[Poly]


def gr26_section_cubic(seed: int = 0, p: int | None = None) -> SectionSample:
    """Cubic apolar to a random linear section of the pair-coordinate
    relations.

    Each pair coordinate is replaced by a random linear form in six
    operator variables; when the 15 substituted quadrics stay linearly
    independent and admit a one-dimensional common perp in degree 3, the
    dual socle generator is returned.  Degenerate draws are resampled up
    to ``_ATTEMPTS`` times.
    """
    # each relation as its terms (i, j, sign): sign * p_i * p_j
    relations = [[(*np.repeat(np.arange(15), e), c)
                  for e, c in q.terms.items()] for q in pluecker_quadrics()]
    rng = seeded_rng(seed, "gr26")
    for _ in range(_ATTEMPTS):
        matrix = [[_coeff(rng, p) for _ in range(6)] for _ in range(15)]
        lin = np.array(matrix, dtype=np.int64)
        if not lin.any(axis=1).all():
            continue
        # the substituted quadrics, in integers left unreduced
        prods = _products(lin, lin, 1, 1, 6)
        rows = [sum(c * prods[i, j] for i, j, c in rel).tolist()
                for rel in relations]
        if not all(any(row) for row in rows):
            continue
        if linalg.rank(rows, p) != 15:
            continue
        subbed = [poly_from_vector(row, "S", 6, 2) for row in rows]
        try:
            F = dual_socle_generator(subbed, p)
        except ValueError:
            continue
        if not is_nondegenerate_cubic(F, p):
            continue
        return SectionSample(F, matrix, subbed)
    raise ValueError("no nondegenerate section found in %d attempts"
                     % _ATTEMPTS)


def waring_sum(n_points: int, seed: int = 0,
               p: int | None = None) -> tuple[Poly, list[tuple[int, ...]]]:
    """Sum of dp-cubes of ``n_points`` random linear forms, with the
    points; resamples until the cubic is nondegenerate."""
    if n_points < 1:
        raise ValueError("need at least one point")
    rng = seeded_rng(seed, "waring:%d" % n_points)
    for _ in range(_ATTEMPTS):
        pts = []
        while len(pts) < n_points:
            c = tuple(_coeff(rng, p) for _ in range(6))
            if any(c):
                pts.append(c)
        F = Poly.zero("P", 6)
        for c in pts:
            F = F + waring_cube(c)
        if is_nondegenerate_cubic(F, p):
            return F, pts
    raise ValueError("no nondegenerate sum of %d cubes found" % n_points)


def sum_of_cubes() -> Poly:
    """x_0^3 + ... + x_5^3."""
    terms = {}
    for i in range(6):
        e = [0] * 6
        e[i] = 3
        terms[tuple(e)] = 1
    return Poly("P", 6, terms)


# the six output variables name the quadratic exponents in three
# variables, in the canonical monomial order
_DVAP_QUADRICS = tuple(monomials(3, 2))


def dvap_identification() -> list[tuple[int, ...]]:
    """Which ternary quadratic exponent each of the six variables names."""
    return list(_DVAP_QUADRICS)


def dvap_cubic(G: Poly) -> Poly:
    """Cubic in six variables gathering the coefficients of a ternary
    sextic.

    Each degree-3 exponent e in six variables is sent to the degree-6
    exponent nu(e) = sum_k e_k * q_k in three variables (q_k as in
    :func:`dvap_identification`), and the coefficient of x^e is read off
    as the coefficient of w^nu(e) in G.  The map G -> cubic is linear and
    injective; dp-powers of linear forms go to dp-cubes of the
    corresponding quadratic point: dvap of waring_power((a0,a1,a2), 6) is
    waring_cube((a0^2, a0 a1, a0 a2, a1^2, a1 a2, a2^2)).
    """
    if G.ring != "P" or G.n != 3:
        raise ValueError("input must be a form in three P-side variables")
    if G.is_zero() or G.degree() != 6 or not G.is_homogeneous():
        raise ValueError("input must be a nonzero ternary sextic")
    terms = {}
    for e in monomials(6, 3):
        nu = tuple(sum(e[k] * q[i] for k, q in enumerate(_DVAP_QUADRICS))
                   for i in range(3))
        c = G.terms.get(nu, 0)
        if c:
            terms[e] = c
    return Poly("P", 6, terms)


def random_ternary_sextic(seed: int = 0, p: int | None = None) -> Poly:
    """Random degree-6 form in three variables (dense, reproducible)."""
    rng = seeded_rng(seed, "sextic")
    while True:
        terms = {e: _coeff(rng, p) for e in monomials(3, 6)}
        G = Poly("P", 3, terms)
        if not G.is_zero():
            return G


def random_cubic(seed: int = 0, p: int | None = None) -> Poly:
    """Random nondegenerate cubic form in x0..x5 (dense, reproducible:
    drawn from the seed's "cubic:6" stream)."""
    rng = seeded_rng(seed, "cubic:6")
    for _ in range(_ATTEMPTS):
        terms = {e: _coeff(rng, p) for e in monomials(6, 3)}
        F = Poly("P", 6, terms)
        if is_nondegenerate_cubic(F, p):
            return F
    raise ValueError("could not sample a nondegenerate cubic")
