"""Tangent-space analysis for apolar schemes of cubics in six variables.

A nondegenerate cubic F (Hilbert function (1,6,6,1)) gives a length-14
point of the Hilbert scheme of A^6.  The tangent space there has dimension
70 + sum over d = 4..7 of the dimension of the degree-d perp of the squared
annihilator ideal; the generic value is 76, attained exactly when the
degree-4 perp has its minimal dimension 6.  The locus where the dimension
jumps is a divisor E, cut out along any pencil of cubics by a determinant
that this module samples and interpolates exactly over prime fields.

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
  scatter ``apolarity._products``, and the contraction modules from
  ``apolarity._contraction_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import seeded_rng
from .apolarity import (
    _contraction_matrix,
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


def _primes_below_2_26():
    q = (1 << 26) - 1
    while True:
        if is_prime(q):
            yield q
        q -= 2


# first candidate prime for one-sided certificates on the rational path:
# full rank mod p proves full rank over Q, never the other way round
_CERT_PRIME = next(_primes_below_2_26())


def _reduces_mod(q: int, forms) -> bool:
    """Whether every form has a reduction mod q, i.e. q divides none of
    their coefficient denominators."""
    return all(Fraction(c).denominator % q
               for f in forms for c in f.terms.values())


def _cert_prime(F: Poly) -> int:
    """The first prime below 2^26 (``_CERT_PRIME`` unless F forbids it) at
    which F reduces to a nondegenerate cubic.

    The certificates are sound only where the Hilbert function does not
    drop under reduction, which for a cubic is exactly nondegeneracy mod q;
    a prime dividing a denominator of F has no reduction at all.
    """
    for q in _primes_below_2_26():
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


def _checked_slices(F: Poly, p: int | None) -> _Slices:
    if p is not None and p <= 7:
        raise ValueError("the modular perps need a prime above 7")
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
    exactly to lie in the perp (their integer :func:`_pairings` with the
    products of the I_2 rows vanish) and to be independent, so their span
    is the perp.  Otherwise the stacked product blocks, built from the
    slices scaled to integer rows, go to the p-adic solver
    :func:`linalg.kernel_q`.

    Raises ValueError for a degree outside 4..7, p <= 7 or a degenerate
    cubic.
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
    span in RREF, or all of P_4 in degree 4; an empty perp gives an empty
    space one degree up.  The space is paired once with the product
    blocks (:func:`_pairings`), the kernel of the pairings picks the perp
    out of it, and the result is reduced to RREF once, where it is
    published.
    """
    if d not in slices.perps:
        n, p, dim_d = F.n, slices.p, dim_degree(F.n, d)
        if d == 4:
            space = np.eye(dim_d, dtype=np.int64)
        else:
            prev = _perp_fp(F, d - 1, slices)
            rows = np.array(prev.rows, dtype=np.int64).reshape(prev.dim,
                                                               prev.ncols)
            red, rank, _ = linalg.rref_fp(
                _witness_rows(rows, n, d - 1).reshape(-1, dim_d), p)
            space = red[:rank]
        kern = linalg._kernel(_pairings(space, d, slices), p)
        slices.perps[d] = linalg.SubspaceBasis(
            "P", d, n, dim_d, p,
            linalg.rref_fp(linalg.matmul_fp(kern, space, p), p)[0].tolist())
    return slices.perps[d]


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


def _pairings(vecs: np.ndarray, d: int, slices: _Slices) -> np.ndarray:
    """The pairing <x y, v> of every product x y of the product blocks of
    degree d (see :func:`_product_blocks`) with every row v of ``vecs``,
    mod p, or exactly over Q for integer ``vecs``: one row per product,
    one column per v.

    <x y, v> = x . C_v . y, with C_v the catalecticant gather of v, so no
    product block is formed."""
    n, p = slices.F.n, slices.p
    out = []
    for a, b in _degree_pairs(d):
        pair = _matmul(slices(a), vecs[:, shift_table(n, a, b)], p)
        if b <= 3:  # above the cubic's degree, I_b is all of S_b
            pair = _matmul(pair, slices(b).T, p)
        # an explicit width, so an empty search space reshapes too
        out.append(pair.reshape(len(vecs), pair.shape[1] * pair.shape[2]))
    return np.hstack(out).T


def _square_perp_basis_q(F, d, slices):
    n, dim_d = F.n, dim_degree(F.n, d)
    mod_dim = square_perp_basis(F, d, slices.cert.p, slices.cert).dim
    if mod_dim == 0:
        return linalg.SubspaceBasis("P", d, n, dim_d, None, [])
    if d == 4 and mod_dim == n:
        # F scaled to integers spans the same witnesses, so their check
        # against the integer I_2 rows stays in integers; the witness
        # multiplicities go up to 4
        fvec = linalg.integer_rows([coefficient_vector(F, 3)])[0]
        if linalg._bits(fvec) >= 60:
            fvec = fvec.astype(object)
        witness = _witness_rows(fvec, n)
        if not _pairings(witness, 4, slices).any():
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


def member_E(F: Poly, p: int | None = None) -> bool:
    """Whether F lies on the divisor of cubics with excess tangent space
    (equivalently, whose apolar scheme lies in the closure of the locus
    met by the smoothable boundary)."""
    return perp4_dim(F, p) > 6


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
    explicit ``primes``) and every reported integer must agree across
    them; disagreement raises RuntimeError.
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


# ----------------------------------------------------------------------
# pencils
# ----------------------------------------------------------------------


@dataclass
class PencilProfile:
    """Interpolated divisor equation along one pencil, over one prime.

    ``determinant`` holds the ascending monic coefficients of the chart
    determinant after the chart-unit factor (the 6 x 6 minor of the
    witness rows x_j (dp-times) F on the dropped columns) has been divided
    out.  By the complementary-minor identity this quotient is the same
    for every usable chart; ``chart`` records the one that computed it,
    and ``roots`` are found once, on it.  Every chart minor is read from
    each node's kernel through that identity, so the verifying
    chart of the walk checks the identity, not an independent
    computation; the independent check is one direct 120 x 120 minor of
    the accepted chart at the first node.  Its roots are the pencil
    parameters u (with v = 1) meeting the divisor of non-generic
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
    slice."""
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
    movers: list[np.ndarray] = []
    if len(constants):
        zc = np.zeros_like(constants)
        cc = np.vstack([np.hstack([constants, zc]),
                        np.hstack([zc, constants])])
        red, rank, pivots = linalg.rref_fp(cc, p)
        for vec in solutions:
            v = vec.copy()
            for rrow, pc in zip(red[:rank], pivots):
                if v[pc]:
                    v = (v - int(v[pc]) * rrow) % p
            if np.any(v):
                movers.append(v)
    else:
        movers = [vec.copy() for vec in solutions]
    if movers:
        red, rank, _ = linalg.rref_fp(movers, p)
        movers = [red[i] for i in range(rank)]
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


_NODE_BATCH = 32  # nodes eliminated as one stack; bounds its working memory


class _NodeData(NamedTuple):
    """The per-node data of one prime, stacked along the nodes (see
    :func:`_collect_node_data`)."""

    us: np.ndarray         # the nodes u
    d: np.ndarray          # det M(u)[:, F^c], 0 where M(u) drops rank
    sign_free: np.ndarray  # eps(F)
    kernels: np.ndarray    # the 6 x 126 kernels K (zero where d = 0)
    witness: np.ndarray    # the 6 x 126 witness rows W(u)


def _collect_node_data(F1, F2, sections, nodes, p):
    """Per node u: the kernel data of the 120 x 126 product matrix M(u) of
    the section values, and the 6 x 126 witness rows W(u) of the fiber
    cubic u*F1 + F2, all mod p.

    Returns M(u_0), built directly from the section values at the first
    node (the only M(u) formed; the spot check reads it), and the
    :class:`_NodeData` of all nodes, one array per field: the kernel K of
    M(u), which is the identity on the columns F, the sign
    ``linalg.shuffle_sign`` of F, and d = det M[:, F^c] (0 where M drops
    rank, and then every minor is 0).  By the complementary-minor identity
    the chart minor dropping the columns S is eps(S) * eps(F) * d *
    det K[:, S]; the chart unit keeps exactly those columns of W(u).

    M(u) = M0 + u*M1 + u^2*M2, and the rows where M1 and M2 vanish (the
    products of two constant sections) do not move with u.  Those rows C
    are eliminated once, giving their pivot columns Pc and their kernel KC,
    the identity on the other columns Fc.  For the moving rows V(u),
    ker M(u) = ker(V(u) KC^T) KC, and N(u) = V(u) KC^T = N0 + u*N1 + u^2*N2
    comes from three fixed products.  The N(u) of a batch of nodes are
    eliminated as one stack, giving each node's d' = det N[:, P'], pivots
    P' and kernel K'.  With Q = Pc and Fc[P'], the Schur complement gives
    det M[:, Q] = eps(rows of C) * det C[:, Pc] * eps(Pc within Q) * d'.
    """
    n = F1.n
    f1v, f2v = linalg.to_fp_matrix(
        [coefficient_vector(F1, 3), coefficient_vector(F2, 3)], p)
    w1, w2 = _witness_rows(f1v, n), _witness_rows(f2v, n)
    a_mat = linalg.to_fp_matrix([s[0] for s in sections], p)
    b_mat = linalg.to_fp_matrix([s[1] for s in sections], p)
    dim4 = dim_degree(n, 4)
    pairs = np.triu_indices(15)

    def products(x, y):
        # row (i, j), i <= j: degree-4 coordinates of x_i * y_j
        return _products(x, y, 2, 2, n)[pairs] % p

    first_vals = (a_mat * nodes[0] + b_mat) % p
    first = products(first_vals, first_vals)
    m0, m2 = products(b_mat, b_mat), products(a_mat, a_mat)
    m1 = (products(a_mat, b_mat) + products(b_mat, a_mat)) % p
    fixed = ~(m1.any(axis=1) | m2.any(axis=1))
    ((d_fixed, piv_fixed, k_fixed),) = linalg.pivot_kernels_fp(
        m0[fixed][None], p)
    piv_fixed = np.array(piv_fixed, dtype=np.int64)
    free_fixed = np.setdiff1d(np.arange(dim4), piv_fixed)
    n0, n1, n2 = (linalg.matmul_fp(mk[~fixed], k_fixed.T, p)
                  for mk in (m0, m1, m2))
    fixed_factor = linalg.shuffle_sign(np.flatnonzero(fixed)) * d_fixed
    us = np.array(nodes, dtype=np.int64)
    out = _NodeData(us, np.zeros_like(us), np.zeros_like(us),
                    np.zeros((len(us), dim4 - len(first), dim4), np.int64),
                    (w1 * us[:, None, None] + w2) % p)
    for start in range(0, len(us), _NODE_BATCH):
        batch = us[start:start + _NODE_BATCH, None, None]
        stack = (n0 + batch * n1 + batch * batch % p * n2) % p
        for i, (d, pivots, kernel) in enumerate(
                linalg.pivot_kernels_fp(stack, p), start):
            q = np.sort(np.concatenate([piv_fixed, free_fixed[pivots]]))
            out.d[i] = (fixed_factor * d * linalg.shuffle_sign(
                np.searchsorted(q, piv_fixed))) % p
            if out.d[i]:
                out.sign_free[i] = linalg.shuffle_sign(
                    np.delete(free_fixed, pivots))
                out.kernels[i] = linalg.matmul_fp(kernel, k_fixed, p)
    return first, out


def pencil_profile(F1: Poly, F2: Poly, chart_cubic=None,
                   p: int | None = None, seed: int = 0) -> PencilProfile:
    """Interpolated chart determinant along the pencil u*F1 + v*F2 (v = 1).

    The 120 x 120 minor of the section-product matrix, with the six
    columns {x_i * m} of the chart cubic m dropped, is sampled at distinct
    nonzero parameters, interpolated (degree bound 16 per moving section,
    with surplus samples cross-checked), and divided exactly by the
    interpolated chart-unit determinant; the quotient cuts out the
    divisor of cubics with oversized square perps, with the multiplicity
    structure described on :class:`PencilProfile`.  The parameter u = 0
    itself is never sampled — only the interpolant speaks about it, which
    is the point: the annihilator there may jump.

    The family (:func:`pencil_family`), the nodes and the per-node data
    are built once: the rows of the product matrix M(u) that do not move
    with u are eliminated once per prime, the rest at all nodes together
    in one stacked elimination (see :func:`_collect_node_data`), and every
    chart reads its minor from the resulting 6 x 126 kernel by the
    complementary-minor identity (Grassmann duality Gr(120,126) =
    Gr(6,126)), a 6 x 6 determinant.  A chart is evaluated at all nodes
    by two stacked eliminations (:func:`linalg.pivot_kernels_fp`): one of
    the 6 x 6 unit blocks W(u)[:, chart columns], one of the kernel
    blocks K[:, dropped] of the nodes where M(u) has full rank (the minor
    is 0 at the others).  The determinant comes from
    ``chart_cubic`` when given, else from the first usable cubic monomial.
    The first usable monomial after it, in cyclic monomial order, verifies
    it: the two monic determinants must be equal.  Both read the same kernels, so this
    checks the identity rather than the elimination; the independent
    check is a spot check, one direct 120 x 120 determinant of the
    accepted chart at the first node compared with the identity's value.
    Roots are then found once, on the accepted determinant.

    Args:
        chart_cubic: optional degree-3 exponent tuple or monomial Poly.
        p: working prime (required; profiles are per-prime objects),
            with at least 16 * movers + 5 nonzero residues to sample.

    Raises:
        ValueError: a prime too small for the nodes, an unusable explicit
            chart, no usable chart at all, charts that disagree, a spot
            check that disagrees with the identity, or a family that does
            not move.
    """
    if p is None:
        raise ValueError("pencil profiles are computed over a prime field")
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
    live = np.flatnonzero(data.d)

    def raw_minors(dropped, at):
        # det M(u)[:, dropped^c] at the nodes ``at`` (each with d != 0) by
        # the complementary-minor identity: one stacked elimination of the
        # 6 x 6 blocks K[:, dropped]
        minors = [m for m, _, _ in linalg.pivot_kernels_fp(
            data.kernels[:, :, dropped][at], p)]
        return (linalg.shuffle_sign(dropped) * data.sign_free[at]
                * data.d[at] % p * minors % p)

    def chart_determinant(chart_expo: tuple):
        chart_cols = _chart_columns(chart_expo, n)
        dropped = sorted(chart_cols)
        units = [m for m, _, _ in linalg.pivot_kernels_fp(
            data.witness[:, :, chart_cols], p)]
        dunit = linalg.interpolate(list(zip(nodes, units)), 6, p)
        if not dunit:
            raise ValueError("chart unit vanishes identically (bad chart)")
        raw = np.zeros_like(data.d)
        raw[live] = raw_minors(dropped, live)
        draw = linalg.interpolate(list(zip(nodes, raw.tolist())), bound, p)
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
    identity = raw_minors(dropped, [0])[0] if data.d[0] else 0
    if direct != identity:
        raise ValueError(
            "chart %s minor at u = %d disagrees with its kernel identity"
            % (chart, nodes[0]))
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
    usable chart does.  In the pencil both charts read their minors from
    the same per-node kernels through that identity, so the second chart
    checks the identity and the chart arithmetic; the spot check of one
    direct minor in :func:`pencil_profile` is the independent one.  The
    walk starts just after an explicit chart, so a chart carried over from
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
