"""Tangent-space analysis for apolar schemes of cubics in six variables.

A nondegenerate cubic F (Hilbert function (1,6,6,1)) gives a length-14
point of the Hilbert scheme of A^6.  The tangent space there has dimension
70 + sum over d = 4..7 of the dimension of the degree-d perp of the squared
annihilator ideal; the generic value is 76, attained exactly when the
degree-4 perp has its minimal dimension 6.  The locus where the dimension
jumps is a divisor E, cut out along any pencil of cubics by a determinant
that this module computes exactly over prime fields.

Conventions used throughout:

* perp spaces live inside the polynomial side P_d with its monomial
  coordinates (the contraction pairing is diagonal on monomials);
* (I^2)_d is spanned by the products I_a * I_b over a + b = d with
  a, b >= 2, where I_a is the degree-a annihilator slice (all of S_a once
  a exceeds 3);
* the six vectors x_i (dp-times) F always lie in the degree-4 perp, which
  is why 6 is the floor and why chart minors drop six columns at a time;
* every product matrix here (the product blocks, the 120 x 126 matrix of
  :func:`ev_product_matrix`, the pencil's M(u)) comes from the one product
  scatter ``apolarity._products``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import seeded_rng
from .apolarity import (
    _products,
    ann_degree,
    catalecticant,
    hilbert_function,
    is_nondegenerate_cubic,
    shift_table,
)
from .poly import (
    Poly,
    coefficient_vector,
    dim_degree,
    is_prime,
    monomial_index,
    monomials,
    poly_from_vector,
)

VERDICT_NONSMOOTHABLE = "NonSmoothableCertified"
VERDICT_BOUNDARY = "SmoothableBoundary"
VERDICT_DEGENERATE = "Degenerate"


# first candidate prime for one-sided certificates on the rational path:
# full rank mod p proves full rank over Q, never the other way round
_CERT_PRIME = next(linalg._solver_primes())


def _reduces_mod(q: int, forms) -> bool:
    """Whether every form has a reduction mod q, i.e. q divides none of
    their coefficient denominators."""
    return all(Fraction(c).denominator % q
               for f in forms for c in f.terms.values())


def _cert_prime(F: Poly) -> int:
    """The first prime of the fixed stream :func:`linalg._solver_primes`
    (``_CERT_PRIME`` unless F forbids it) at which F reduces to a
    nondegenerate cubic.

    The certificates are sound only where the Hilbert function does not
    drop under reduction, which for a cubic is exactly nondegeneracy mod q;
    a prime dividing a denominator of F has no reduction at all.
    """
    for q in linalg._solver_primes():
        if _reduces_mod(q, [F]) and is_nondegenerate_cubic(F, q):
            return q


def draw_primes(n_primes: int, seed: int, *forms: Poly) -> list[int]:
    """Distinct random working primes, reproducible from the seed.

    A drawn prime that divides a coefficient denominator of one of the
    ``forms`` is skipped and the next one drawn from the same stream, so
    forms without denominators get the primes the seed alone gives.
    """
    rng = seeded_rng(seed, "primes")
    chosen: set[int] = set()
    while len(chosen) < n_primes:
        q = linalg.random_prime(rng)
        if _reduces_mod(q, forms):
            chosen.add(q)
    return sorted(chosen)


# ----------------------------------------------------------------------
# squared-ideal perps
# ----------------------------------------------------------------------


def _witness_rows(fvec: np.ndarray, n: int, degree: int = 3) -> np.ndarray:
    """The vectors x_j (dp-times) f in degree-(degree + 1) coordinates, one
    row per j, from the coefficient vector ``fvec`` of a form f of the
    given degree; for a cubic F these are the six witnesses.  A stack of
    coefficient vectors gives a stack of row blocks.

    x_j (dp-times) x^m = (m_j + 1) x^(m + e_j), so row j places
    (m_j + 1) * fvec[m] at the index of m + e_j.  The rows keep the dtype
    of ``fvec``: object arrays stay exact (ints or Fractions, with Python
    int multiplicities), int64 residues are left unreduced.
    """
    mult = np.array(monomials(n, degree), dtype=fvec.dtype) + 1
    table = shift_table(n, 1, degree)
    rows = np.zeros(fvec.shape[:-1] + (n, dim_degree(n, degree + 1)),
                    dtype=fvec.dtype)
    for j in range(n):
        rows[..., j, table[j]] = fvec * mult[:, j]
    return rows


def _degree_pairs(d: int) -> list[tuple[int, int]]:
    return [(a, d - a) for a in range(2, d - 1) if a <= d - a]


def _product_blocks(d: int, slices):
    """The product blocks spanning (I^2)_d, one per basis operator of the
    lower factor, in the field of ``slices``.  Over Q the slices are
    primitive integer rows, and the products stay in int64 when they fit
    (a sum of at most 56 products), else Python ints."""
    n = slices.F.n
    for a, b in _degree_pairs(d):
        lower = slices(a)
        # above the cubic's degree, I_b is all of S_b
        upper = slices(b) if b <= 3 else None
        if slices.p is None and linalg._bits(lower) + (
                1 if upper is None else linalg._bits(upper)) > 56:
            lower = lower.astype(object)
            upper = None if upper is None else upper.astype(object)
        for pvec in lower:
            yield _products(pvec[None], upper, a, b, n)[0]


@dataclass
class _Slices:
    """Annihilator slices of one cubic over one field, each computed once.

    Made by :func:`_checked_slices` only after the cubic was found
    nondegenerate over that field.  Called with r <= 3 it gives the rows
    of the degree-r slice, converted once: int64 residues mod p, or over
    Q primitive integer rows (:func:`linalg.integer_rows`), the same span,
    so the products and their kernels stay in integers.  ``perps`` holds
    the perps computed so far over the same field, by degree; over Q,
    ``cert`` holds the slices at the certificate prime, with the perps
    there in ``cert.perps``.
    """

    F: Poly
    p: int | None
    cert: "_Slices | None" = None
    cache: dict = field(default_factory=dict)
    perps: dict = field(default_factory=dict)  # perps by degree

    def __call__(self, r: int) -> np.ndarray:
        if r not in self.cache:
            rows = ann_degree(self.F, r, self.p).rows
            self.cache[r] = linalg.integer_rows(rows) if self.p is None \
                else linalg.field_array(rows, self.p)
        return self.cache[r]


def _check_prime(p: int) -> None:
    """Refuse an explicit modulus that is not prime: every inverse mod p
    would silently be wrong, or fail deep inside an elimination."""
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)


def _checked_slices(F: Poly, p: int | None) -> _Slices:
    if p is not None and p <= 7:
        raise ValueError("the modular perps need a prime above 7")
    if p is not None:
        _check_prime(p)
    if not is_nondegenerate_cubic(F, p):
        raise ValueError("squared-ideal analysis needs a nondegenerate cubic")
    cert = None if p is not None else _Slices(F, _cert_prime(F))
    return _Slices(F, p, cert)


def square_perp_basis(F: Poly, d: int, p: int | None = None,
                      slices: _Slices | None = None) -> linalg.SubspaceBasis:
    """Canonical (RREF) basis of the degree-d perp of the squared
    annihilator ideal.

    Mod p (p > 7) the perp comes from :func:`_perp_fp`.  ``slices``
    carries the annihilator slices of F over the same field across calls
    (and F's nondegeneracy check with them), and the perps computed so
    far, one computation per degree.

    Over the rationals the perp dimension is first bounded by the perp
    at a certificate prime q at which F stays nondegenerate (this
    function mod q); reduction can only enlarge a perp, so that bound
    holds over Q.  A zero bound is then the rational answer.  In degree 4
    a bound of 6 is met by the six vectors x_i (dp-times) F, checked
    exactly to lie in the perp (their integer pairings with the distinct
    products of the I_2 rows, :func:`_pair_rows`, vanish) and to be
    independent, so their span is the perp.  Otherwise the stacked
    product blocks, built from the slices scaled to integer rows, go to
    the p-adic solver :func:`linalg.kernel_q`.

    Raises ValueError for a degree outside 4..7, p <= 7, a modulus that is
    not prime, or a degenerate cubic.
    """
    if d < 4 or d > 7:
        raise ValueError("degree must be between 4 and 7")
    slices = slices if slices is not None else _checked_slices(F, p)
    if p is not None:
        return _perp_fp(F, d, slices)
    if d not in slices.perps:
        slices.perps[d] = _square_perp_basis_q(F, d, slices)
    return slices.perps[d]


def _perp_fp(F: Poly, d: int, slices: _Slices) -> linalg.SubspaceBasis:
    """The degree-d perp mod p (p > 7), kept in ``slices.perps``.

    A perp vector g has every a_j ∘ g in the perp of degree d - 1 (the
    squared ideal is an ideal), and Euler's identity for divided powers
    gives d g = sum_j x_j (dp-times) (a_j ∘ g), so the perp lies in the
    span of the x_j (dp-times) v over the rows v of the degree-(d - 1)
    perp; that needs d and the multiplicities m_j + 1 <= d of
    :func:`_witness_rows` invertible mod p.  The search space is that
    span in RREF, or all of P_4 in degree 4; an empty perp one degree down
    gives the empty perp at once.  :func:`_cut_space` cuts the perp out
    of the space, reduced to RREF once, where it is published.
    """
    if d not in slices.perps:
        n, p, dim_d = F.n, slices.p, dim_degree(F.n, d)
        if d == 4:
            space = np.eye(dim_d, dtype=np.int64)
        else:
            prev = _perp_fp(F, d - 1, slices)
            if not prev.dim:
                slices.perps[d] = linalg.SubspaceBasis("P", d, n, dim_d, p, [])
                return slices.perps[d]
            red, rank, _ = linalg.rref_fp(
                _witness_rows(np.array(prev.rows, dtype=np.int64), n, d - 1)
                .reshape(-1, dim_d), p)
            space = red[:rank]
        slices.perps[d] = linalg.SubspaceBasis(
            "P", d, n, dim_d, p,
            linalg.rref_fp(_cut_space(space, d, slices), p)[0].tolist())
    return slices.perps[d]


def _cut_space(space: np.ndarray, d: int, slices: _Slices) -> np.ndarray:
    """A basis (unreduced) of the vectors in the span of ``space`` (rows
    mod p) that pair to zero with the product blocks of degree d.

    For each degree pair (a, b) the lower-slice rows are read in chunks:
    ceil(k / n_b) rows first (k vectors left, n_b products per row), then
    twice as many each time.  A chunk's nonzero pairings with the space
    left (:func:`_pair_rows`) cut the space to their kernel, until it is
    empty or the rows run out."""
    n, p = slices.F.n, slices.p
    for a, b in _degree_pairs(d):
        rows = len(slices(a))
        n_b = dim_degree(n, b) if b > 3 else len(slices(b))
        start, size = 0, -(-len(space) // n_b)
        while len(space) and start < rows:
            stop = min(start + size, rows)
            pairs = _pair_rows(space, a, b, slices, start, stop)
            kern = linalg.pivot_kernel_fp(pairs[pairs.any(axis=1)], p)[2]
            space = linalg.matmul_fp(kern, space, p)
            start, size = stop, 2 * size
    return space


def _matmul(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """a @ b mod p (:func:`linalg.matmul_fp`), or exactly for integer
    arrays over Q: in int64 while the entries leave room for the sum along
    the shared dimension, else in Python ints."""
    if p is not None:
        return linalg.matmul_fp(a, b, p)
    if a.dtype == object or b.dtype == object or linalg._bits(a) \
            + linalg._bits(b) + a.shape[-1].bit_length() > 62:
        return a.astype(object) @ b.astype(object)
    return a @ b


def _pair_rows(vecs: np.ndarray, a: int, b: int, slices: _Slices,
               start: int = 0, stop: int | None = None) -> np.ndarray:
    """The pairing <x y, v> of the products x y of the rows ``start:stop``
    of the degree-a slice with the degree-b slice (all of S_b above the
    cubic's degree) with every row v of ``vecs``, mod p, or exactly over Q
    for integer ``vecs``: one row per distinct product, one column per v.

    <x y, v> = x . C_v . y, with C_v the catalecticant gather of v, so no
    product block is formed.  For a = b, x_i x_j = x_j x_i, so only the
    slice rows i <= j are kept, in the row order of
    :func:`ev_product_matrix`; the rows run over x first, then y."""
    n, p = slices.F.n, slices.p
    lower = slices(a)[start:stop]
    pair = _matmul(lower, vecs[:, shift_table(n, a, b)], p)
    if b <= 3:
        pair = _matmul(pair, slices(b).T, p)
    first = np.arange(start, start + len(lower))[:, None]
    return pair[:, (first <= np.arange(pair.shape[2])) | (a != b)].T


def _square_perp_basis_q(F, d, slices):
    n, dim_d = F.n, dim_degree(F.n, d)
    mod_dim = square_perp_basis(F, d, slices.cert.p, slices.cert).dim
    if mod_dim == 0:
        return linalg.SubspaceBasis("P", d, n, dim_d, None, [])
    if d == 4 and mod_dim == n:
        # F scaled to integers spans the same witnesses, so their pairings
        # with the products of the integer I_2 rows, degree 4's one pair
        # (2, 2), stay in integers; the witness multiplicities go up to 4
        fvec = linalg.integer_rows([coefficient_vector(F, 3)])[0]
        if linalg._bits(fvec) >= 60:
            fvec = fvec.astype(object)
        witness = _witness_rows(fvec, n)
        if not _pair_rows(witness, 2, 2, slices).any():
            basis = linalg.span(witness, "P", d, n, dim_d)
            if basis.dim == n:
                return basis
    kern = linalg.kernel_q(np.vstack(list(_product_blocks(d, slices))))
    return linalg.SubspaceBasis("P", d, n, dim_d, None, kern)


def perp_dimensions(F: Poly, p: int | None = None) -> dict[int, int]:
    """Dimensions of the degree-4..7 perps of the squared ideal, mod p or
    over Q (certified as described on :func:`square_perp_basis`).

    The annihilator slices, the perps of each degree, and the check that
    F is a nondegenerate cubic are shared across degrees.
    """
    slices = _checked_slices(F, p)
    return {d: square_perp_basis(F, d, p, slices).dim for d in (4, 5, 6, 7)}


def perp4_dim(F: Poly, p: int | None = None) -> int:
    """Dimension of the degree-4 perp of the squared ideal (6 generically,
    larger exactly on the divisor E)."""
    return square_perp_basis(F, 4, p).dim


def ev_product_matrix(quadric_basis: list[Poly], F: Poly, p: int | None = None):
    """The 120 x 126 matrix of pairwise products of 15 quadric operators.

    Row order is (i, j) with i <= j lexicographic; columns are the
    canonical degree-4 monomial coordinates.  Every supplied quadric must
    annihilate F — the rows then all pair to zero against the six vectors
    x_i (dp-times) F.  Over Q the result is an object array of the exact
    product coefficients (Python ints for integer quadrics); mod p it is
    the int64 residue matrix of :func:`linalg.to_fp_matrix`.
    """
    if len(quadric_basis) != 15:
        raise ValueError("expected a basis of 15 quadrics")
    for q in quadric_basis:
        if q.ring != "S" or q.is_zero() or q.degree() != 2:
            raise ValueError("ev rows must be degree-2 operators")
    qs = np.array([coefficient_vector(q, 2) for q in quadric_basis],
                  dtype=object)
    # q ∘ F is the row of q's coefficients times the catalecticant of F
    cat = catalecticant(F, 2, p)
    if (qs @ cat if p is None else
            linalg.matmul_fp(linalg.to_fp_matrix(qs, p), cat, p)).any():
        raise ValueError("a quadric in the basis does not annihilate F")
    rows = _products(qs, qs, 2, 2, F.n)[np.triu_indices(15)]
    if p is not None:
        return linalg.to_fp_matrix(rows, p)
    return rows


# ----------------------------------------------------------------------
# analysis reports
# ----------------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Everything the tangent-space pipeline knows about one cubic."""

    hf: tuple
    dim_I2: int
    perp_dims: dict[int, int]
    tangent_dim: int | None
    on_E: bool | None
    verdict: str
    field_kind: str
    primes_used: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": "apolar-report/1",
            "hf": list(self.hf),
            "dim_I2": self.dim_I2,
            "perp_dims": {str(k): v for k, v in sorted(self.perp_dims.items())},
            "tangent_dim": self.tangent_dim,
            "on_E": self.on_E,
            "verdict": self.verdict,
            "field": self.field_kind,
            "primes_used": list(self.primes_used),
        }


def _analyze_once(F: Poly, p: int | None):
    hf = hilbert_function(F, p).values
    dim2 = dim_degree(F.n, 2) - hf[2]
    if hf[1] != F.n:
        return hf, dim2, {}, None, None
    perps = perp_dimensions(F, p)
    tangent = 70 + sum(perps.values())
    return hf, dim2, perps, tangent, perps[4] > 6


def analyze(F: Poly, primes: list[int] | None = None, n_primes: int = 3,
            seed: int = 0, field_kind: str = "fp") -> AnalysisReport:
    """Full tangent-space report, multi-prime checked or exact rational.

    With ``field_kind="fp"`` the computation runs over ``n_primes``
    distinct random primes that divide no denominator of F (or the
    explicit ``primes``, each of which must be prime, else ValueError)
    and every reported integer must agree across them; disagreement
    raises RuntimeError.
    With ``field_kind="q"`` the exact rational path runs (certificates,
    and the verified p-adic solver where certificates do not apply).

    The verdict is NonSmoothableCertified exactly when the Hilbert
    function is (1,6,6,1) and the tangent dimension is 76 (below the
    84-dimensional smoothable component), Degenerate for cones, and
    SmoothableBoundary otherwise.
    """
    if F.ring != "P" or F.is_zero() or F.degree() != 3:
        raise ValueError("analysis expects a nonzero cubic form on the P side")
    if field_kind == "q":
        results = [_analyze_once(F, None)]
        used: list[int] = []
    elif field_kind == "fp":
        if primes is None:
            primes = draw_primes(n_primes, seed, F)
        else:
            for p in primes:
                _check_prime(p)
        used = list(primes)
        if not used:
            raise ValueError("the fp analysis needs at least one prime")
        results = [_analyze_once(F, p) for p in used]
    else:
        raise ValueError("field_kind must be 'fp' or 'q'")
    if len(set(map(repr, results))) != 1:
        raise RuntimeError(
            "prime fields disagree: %s (primes %s)" % (results, used))
    hf, dim2, perps, tangent, on_e = results[0]
    if tangent is None:
        verdict = VERDICT_DEGENERATE
    elif tangent == 76 and tuple(hf) == (1, 6, 6, 1):
        verdict = VERDICT_NONSMOOTHABLE
    else:
        verdict = VERDICT_BOUNDARY
    return AnalysisReport(tuple(hf), dim2, perps, tangent, on_e, verdict,
                          "q" if field_kind == "q" else "fp", used)


# ----------------------------------------------------------------------
# pencils
# ----------------------------------------------------------------------


@dataclass
class PencilProfile:
    """The divisor equation along one pencil, over one prime.

    ``determinant`` holds the ascending monic coefficients of the chart
    determinant after the chart-unit factor (the 6 x 6 minor of the
    witness rows x_j (dp-times) F on the dropped columns) has been divided
    out.  By the complementary-minor identity this quotient is the same
    for every usable chart; ``chart`` records the one that computed it,
    and ``roots`` are found once, on it.  Each chart's minor comes from
    its own Schur complement and characteristic polynomial, so the
    verifying chart of the walk is an independent computation of the
    same quotient; one direct 120 x 120 minor of the accepted chart at
    the first node checks the raw polynomial itself.  Its roots are the
    pencil parameters u (with v = 1) meeting the divisor of non-generic
    annihilator squares.  At a simple crossing
    through a generic divisor point the square of the annihilator spans
    111 of the 126 degree-4 coordinates, the 120 x 120 minor drops rank
    by 9, and the root shows up with multiplicity 9; crossings through
    deeper strata carry their own multiplicities (the five-term worked
    cubic paired with its distinguished cube gives u^10 exactly).  Only
    roots rational over the working prime field are listed, so
    ``total_degree`` may exceed the sum of the listed multiplicities.
    """

    chart: tuple
    p: int
    determinant: list[int]
    raw_degree: int
    unit_degree: int
    roots: dict[int, int]
    total_degree: int

    @property
    def multiplicity_at_zero(self) -> int:
        return self.roots.get(0, 0)

    def summary(self) -> tuple:
        return (self.total_degree, self.multiplicity_at_zero,
                tuple(sorted(self.roots.values())))


def _section_pairs(quadric_family, n: int):
    zero = [0] * dim_degree(n, 2)
    return [(zero if a is None else coefficient_vector(a, 2),
             coefficient_vector(b, 2)) for a, b in quadric_family]


def pencil_family(F1: Poly, F2: Poly, p: int) -> list[tuple[Poly | None, Poly]]:
    """Quadric annihilator family along u*F1 + v*F2: constant sections
    (common annihilators of both endpoints, stored as (None, q)) plus
    moving sections (a, b) meaning u*a + v*b, a canonical basis of the
    kernel of the three bilinear compatibility conditions taken modulo the
    constants.  The section values at any parameter with a 15-dimensional
    annihilator slice span that slice exactly.

    The constants come from one kernel, of both transposed degree-2
    catalecticants stacked: canonical RREF rows of the common annihilator
    slice.  The movers are the rows of one RREF of the constants (in both
    halves) and the solutions together whose pivot is not a pivot of the
    constants: a subspace's pivots are among its superspace's, so these
    rows are the RREF of the solutions modulo the constants."""
    n = F1.n
    dim2 = dim_degree(n, 2)
    t1 = catalecticant(F1, 2, p)
    t2 = catalecticant(F2, 2, p)
    constants = linalg.kernel_fp(np.vstack([t1.T, t2.T]), p)
    zero = np.zeros_like(t1.T)
    rows = np.vstack([
        np.hstack([t1.T, zero]),
        np.hstack([zero, t2.T]),
        np.hstack([t2.T, t1.T]),
    ])
    solutions = linalg.kernel_fp(rows, p)
    zc = np.zeros_like(constants)
    cc = np.vstack([np.hstack([constants, zc]), np.hstack([zc, constants])])
    fixed = set(linalg.rref_fp(cc, p)[2])
    red, _, pivots = linalg.rref_fp(np.vstack([cc, solutions]), p)
    movers = [red[i] for i, c in enumerate(pivots) if c not in fixed]
    if len(constants) + len(movers) != 15:
        raise ValueError(
            "pencil family has %d constants + %d movers, expected 15 total"
            % (len(constants), len(movers)))
    if not movers:
        raise ValueError("pencil does not move (endpoints share all quadrics)")
    family: list[tuple[Poly | None, Poly]] = []
    for crow in constants:
        family.append((None, poly_from_vector(crow.tolist(), "S", n, 2)))
    for m in movers:
        family.append((poly_from_vector(m[:dim2].tolist(), "S", n, 2),
                       poly_from_vector(m[dim2:].tolist(), "S", n, 2)))
    return family


def _chart_columns(chart: tuple, n: int) -> list[int]:
    idx4 = monomial_index(n, 4)
    cols = []
    for i in range(n):
        e = list(chart)
        e[i] += 1
        cols.append(idx4[tuple(e)])
    return cols


class _PencilData(NamedTuple):
    """One prime's pencil data (see :func:`_collect_node_data`)."""

    us: np.ndarray         # the nodes u
    witness: np.ndarray    # the 6 x 126 witness rows W(u), one per node
    scale: int             # eps(rows of C) * eps(Pc) * det C[:, Pc], or 0
    kernel: np.ndarray     # K_C, the kernel of C that is the identity on Fc
    schur: tuple           # N0, N1, N2: the moving rows times K_C^T
    quadratic: np.ndarray  # the rows where N2 is nonzero


def _collect_node_data(F1, F2, sections, nodes, p):
    """Everything one prime's chart walk reads, built once: the 120 x 126
    product matrix M(u_0) of the section values at the first node (the
    only M(u) formed; the spot check reads it), and the
    :class:`_PencilData` of the pencil.

    The data holds the 6 x 126 witness rows W(u) of the fiber cubic
    u*F1 + F2 at every node, which the chart units read, and one Schur
    complement of M(u) = M0 + u*M1 + u^2*M2.  The rows C where M1 and M2
    vanish (the products of two constant sections) do not move with u;
    they are eliminated once, giving their pivot columns Pc, d =
    det C[:, Pc] and their kernel K_C, the identity on the other columns
    Fc.  For the moving rows V(u), N(u) = V(u) K_C^T = N0 + u*N1 + u^2*N2
    comes from three fixed products, and only the rows of N2 that belong
    to two moving sections are nonzero.  ``scale`` is det C[:, Pc] times
    the signs that move the rows of C to the top of M(u) and the columns
    Pc to the front, so that det [M(u); E] = scale * det [K_C[:, S]^T;
    N(u)] for the unit rows E of any six columns S (:func:`_chart_minor`);
    it is 0 when C drops rank, and then every chart minor is 0.
    """
    n = F1.n
    f1v, f2v = linalg.to_fp_matrix(
        [coefficient_vector(F1, 3), coefficient_vector(F2, 3)], p)
    w1, w2 = _witness_rows(f1v, n), _witness_rows(f2v, n)
    a_mat = linalg.to_fp_matrix([s[0] for s in sections], p)
    b_mat = linalg.to_fp_matrix([s[1] for s in sections], p)
    pairs = np.triu_indices(15)

    def products(x, y):
        # row (i, j), i <= j: degree-4 coordinates of x_i * y_j
        return _products(x, y, 2, 2, n)[pairs] % p

    first_vals = (a_mat * nodes[0] + b_mat) % p
    first = products(first_vals, first_vals)
    m0, m2 = products(b_mat, b_mat), products(a_mat, a_mat)
    ab = _products(a_mat, b_mat, 2, 2, n)  # b_i * a_j is ab[j, i]
    m1 = (ab + ab.transpose(1, 0, 2))[pairs] % p
    fixed = ~(m1.any(axis=1) | m2.any(axis=1))
    d_fixed, piv_fixed, k_fixed = linalg.pivot_kernel_fp(m0[fixed], p)
    schur = tuple(linalg.matmul_fp(mk[~fixed], k_fixed.T, p)
                  for mk in (m0, m1, m2))
    scale = (linalg.shuffle_sign(np.flatnonzero(fixed))
             * linalg.shuffle_sign(piv_fixed) * d_fixed) % p
    us = np.array(nodes, dtype=np.int64)
    return first, _PencilData(us, (w1 * us[:, None, None] + w2) % p, scale,
                              k_fixed, schur,
                              np.flatnonzero(schur[2].any(axis=1)))


def _chart_minor(data: _PencilData, dropped, p: int) -> list[int]:
    """det M(u)[:, S^c] for the sorted six columns S = ``dropped``, as
    ascending coefficients mod p, trimmed ([] when it vanishes).

    Putting the unit rows E of S under M(u) gives a 126 x 126 matrix
    whose determinant is eps(S) times the minor (Laplace along E).  The
    rows C of :func:`_collect_node_data` are eliminated once for every
    chart, which leaves scale * det [Y; N(u)] with Y = K_C[:, S]^T; its
    six rows are eliminated here, giving their pivot columns J, d_Y and
    the kernel B, the identity on the other columns.  Then

        det M(u)[:, S^c] = eps(S) * scale * eps(J) * d_Y * det N'(u),

    N'(u) = N(u) B^T, an r x r matrix (r moving rows) whose only
    quadratic rows are the q rows of N2.  With E' the unit columns of
    those rows, det N'(u) = det L(u) for the (r + q) x (r + q) pencil
    L(u) = L0 + u*L1 = [[N0' + u*N1', u*E'], [-u*N2'[quad], I]].  At a
    shift node u* with L(u*) invertible, X = -L(u*)^-1 L1 gives
    det L(u* + t) = det L(u*) * det(I - t X), the reversed
    characteristic polynomial of X (:func:`linalg.charpoly_fp`), which a
    Taylor shift by -u* turns into a polynomial in u.  The shift node is
    the first node after u_0 (so the spot check at u_0 reads the shifted
    polynomial) where L(u) is invertible; after r + q + 1 singular nodes
    the polynomial, of degree at most r + q, is 0.
    """
    if not data.scale:
        return []
    d_y, pivots, basis = linalg.pivot_kernel_fp(data.kernel[:, dropped].T, p)
    if not d_y:
        return []
    rest = np.ones(data.kernel.shape[0], dtype=bool)
    rest[pivots] = False
    n0, n1, n2 = ((nk[:, rest] + linalg.matmul_fp(
        nk[:, pivots], basis[:, pivots].T, p)) % p for nk in data.schur)
    r, quad = len(n0), data.quadratic
    size = r + len(quad)
    const, lin = np.zeros((2, size, size), dtype=np.int64)
    const[:r, :r], lin[:r, :r], lin[r:, :r] = n0, n1, -n2[quad] % p
    const[range(r, size), range(r, size)] = 1
    lin[quad, range(r, size)] = 1
    for shift in data.us[1:size + 2].tolist():
        d_lin, lin_pivots, solution = linalg.pivot_kernel_fp(
            np.hstack([(const + shift * lin) % p, lin]), p)
        if d_lin and lin_pivots[-1] == size - 1:
            break
    else:
        return []
    # solution rows are [X[:, k]; e_k]: (L(u*) | L1) times them is 0
    char = linalg.charpoly_fp(solution[:, :size].T, p)
    out = np.zeros(size + 1, dtype=np.int64)
    for c in char:
        # out <- out * (u - u*) + c: Horner on the reversed polynomial
        out[1:] = (out[:-1] - shift * out[1:]) % p
        out[0] = (c - shift * out[0]) % p
    factor = (linalg.shuffle_sign(dropped) * data.scale
              * linalg.shuffle_sign(pivots) * d_y % p * d_lin % p)
    return linalg._trim((out * factor % p).tolist())


def pencil_profile(F1: Poly, F2: Poly, chart_cubic=None,
                   p: int | None = None, seed: int = 0) -> PencilProfile:
    """Chart determinant along the pencil u*F1 + v*F2 (v = 1), exactly
    over one prime field.

    The 120 x 120 minor of the section-product matrix M(u), with the six
    columns {x_i * m} of the chart cubic m dropped, is computed as a
    polynomial in u (degree at most 16 per moving section), and divided
    exactly by the chart-unit determinant, interpolated from its values
    at distinct nonzero nodes (degree 6, with surplus samples
    cross-checked); the quotient cuts out the divisor of cubics with
    oversized square perps, with the multiplicity structure described on
    :class:`PencilProfile`.  The parameter u = 0 itself is never a node
    — only the polynomials speak about it, which is the point: the
    annihilator there may jump.

    The family (:func:`pencil_family`), the nodes and the pencil data are
    built once per prime (:func:`_collect_node_data`): the witness rows
    at every node, and one elimination of the rows of M(u) that do not
    move with u, which leaves a Schur complement quadratic in u.  A
    chart's unit is one stacked elimination of its 6 x 6 blocks
    W(u)[:, chart columns] at all nodes (:func:`linalg.dets_fp`);
    its raw minor is :func:`_chart_minor`, one six-row elimination and one
    characteristic polynomial of the linearized Schur complement, shifted
    to a node.  The determinant comes from ``chart_cubic`` when given,
    else from the first usable cubic monomial.  The first usable monomial
    after it, in cyclic monomial order, verifies it: its own Schur
    complement and characteristic polynomial must give the same monic
    determinant.  A spot check then compares one direct 120 x 120
    determinant of the accepted chart at the first node, which is never
    a shift node, with its raw polynomial there.  Roots are then found
    once, on the accepted determinant.

    Args:
        chart_cubic: optional degree-3 exponent tuple or monomial Poly.
        p: working prime (required; profiles are per-prime objects),
            with at least 16 * movers + 5 nonzero residues to sample.

    Raises:
        ValueError: a modulus that is not prime, a prime too small for
            the nodes, an unusable explicit chart, no usable chart at
            all, charts that disagree, a spot check that disagrees with
            the chart's characteristic polynomial, or a family that does
            not move.
    """
    if p is None:
        raise ValueError("pencil profiles are computed over a prime field")
    _check_prime(p)
    n = F1.n
    chart = None
    if isinstance(chart_cubic, Poly):
        if len(chart_cubic.terms) != 1:
            raise ValueError("chart must be a single cubic monomial")
        chart = next(iter(chart_cubic.terms))
    elif chart_cubic is not None:
        chart = tuple(chart_cubic)
    if chart is not None and (len(chart) != n or sum(chart) != 3
                              or min(chart) < 0):
        raise ValueError("chart monomial must have degree 3")
    sections = _section_pairs(pencil_family(F1, F2, p), n)
    bound = 16 * sum(1 for a, _ in sections if any(a))

    if p - 1 < bound + 5:
        raise ValueError(
            "prime %d has %d nonzero nodes; the pencil needs %d"
            % (p, p - 1, bound + 5))
    rng = seeded_rng(seed, "pencil:%d" % p)
    nodes: list[int] = []
    seen: set[int] = set()
    while len(nodes) < bound + 5:
        u = rng.randrange(1, p)
        if u not in seen:
            seen.add(u)
            nodes.append(u)
    first_matrix, data = _collect_node_data(F1, F2, sections, nodes, p)
    raws = {}

    def chart_determinant(chart_expo: tuple):
        chart_cols = _chart_columns(chart_expo, n)
        units = linalg.dets_fp(data.witness[:, :, chart_cols], p)
        dunit = linalg.interpolate(list(zip(nodes, units)), 6, p)
        if not dunit:
            raise ValueError("chart unit vanishes identically (bad chart)")
        draw = raws[chart_expo] = _chart_minor(data, sorted(chart_cols), p)
        if not draw:
            raise ValueError("chart minor identically zero (degenerate chart)")
        quo, rem = linalg.poly_divmod_fp(draw, dunit, p)
        if rem:
            raise ValueError("chart unit does not divide the raw determinant")
        lead_inv = pow(quo[-1], p - 2, p)
        monic = [c * lead_inv % p for c in quo]
        return monic, len(draw) - 1, len(dunit) - 1

    chart, (monic, raw_degree, unit_degree) = _default_chart(
        chart_determinant, n, chart)
    dropped = sorted(_chart_columns(chart, n))
    direct = linalg.det_fp(np.delete(first_matrix, dropped, axis=1), p)
    if direct != linalg.poly_eval(raws[chart], nodes[0], p):
        raise ValueError(
            "chart %s minor at u = %d disagrees with its characteristic "
            "polynomial" % (chart, nodes[0]))
    roots = linalg.roots_fp(monic, p, seeded_rng(seed, "roots:%d" % p))
    return PencilProfile(chart, p, monic, raw_degree, unit_degree, roots,
                         len(monic) - 1)


def _default_chart(fn, n: int, chart: tuple | None):
    """One walk over the cubic monomials, in cyclic order, on one prime's
    data; returns the accepted chart and ``fn`` of it.

    ``fn`` maps a chart to (monic normalized determinant, raw degree, unit
    degree) and raises ValueError for an unusable chart.  The explicit
    ``chart`` (which must be usable), or else the first usable monomial,
    gives the determinant; the first other usable monomial must give the
    same monic determinant, as the complementary-minor identity says every
    usable chart does.  In the pencil each chart runs its own Schur
    complement and characteristic polynomial (:func:`_chart_minor`), so
    the second chart checks all of the first's arithmetic but the
    fixed-row elimination they share; the spot
    check of one direct minor in :func:`pencil_profile` checks the raw
    polynomial, which the monic normalization would hide.  The walk
    starts just after an explicit chart, so a chart carried over from
    an earlier prime is verified by the monomial that verified it there,
    without first retrying the unusable ones before it.  A lone usable
    chart is accepted unverified.
    """
    monos = monomials(n, 3)
    start = 0 if chart is None else monos.index(chart) + 1
    found = None if chart is None else (chart, fn(chart))
    for cand in monos[start:] + monos[:start]:
        if found is not None and cand == found[0]:
            continue
        try:
            value = fn(cand)
        except ValueError:
            continue
        if found is None:
            found = (cand, value)
            continue
        if value[0] != found[1][0]:
            raise ValueError(
                "charts disagree on the normalized determinant: %s vs %s"
                % (found[0], cand))
        return found
    if found is None:
        raise ValueError("no usable chart monomial found")
    return found


def pencil_report(F1: Poly, F2: Poly, chart_cubic=None,
                  primes: list[int] | None = None, n_primes: int = 3,
                  seed: int = 0) -> dict:
    """Multi-prime pencil summary.

    The prime-stable facts (total degree of the normalized determinant and
    the multiplicity at u = 0) must agree across all working primes;
    rational-root multisets are reported per prime, since an irreducible
    factor may split at one prime and not another.  Without ``chart_cubic``
    the chart found at the first prime is used at every later one.
    """
    for name, F in (("F1", F1), ("F2", F2)):
        if F.ring != "P" or F.is_zero() or F.degree() != 3 \
                or not F.is_homogeneous():
            raise ValueError("pencil endpoint %s must be a nonzero homogeneous "
                             "P-side cubic" % name)
    if F1 == F2:
        raise ValueError("pencil needs two distinct endpoints")
    if primes is None:
        primes = draw_primes(n_primes, seed, F1, F2)
    if not primes:
        raise ValueError("a pencil report needs at least one prime")
    profiles = []
    for p in primes:
        prof = pencil_profile(F1, F2, chart_cubic, p, seed)
        chart_cubic = prof.chart
        profiles.append(prof)
    stable = {(prof.total_degree, prof.multiplicity_at_zero)
              for prof in profiles}
    if len(stable) != 1:
        raise RuntimeError(
            "pencil profiles disagree across primes: %s"
            % sorted((prof.p, prof.summary()) for prof in profiles))
    first = profiles[0]
    return {
        "chart": list(first.chart),
        "primes": list(primes),
        "total_degree": first.total_degree,
        "multiplicity_at_zero": first.multiplicity_at_zero,
        "roots_by_prime": {prof.p: dict(prof.roots) for prof in profiles},
        "profiles": profiles,
    }
