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
  is why 6 is the floor and why chart minors drop six columns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import seeded_rng
from .apolarity import (
    ann_degree,
    catalecticant,
    hilbert_function,
    is_nondegenerate_cubic,
    shift_table,
)
from .poly import (
    Poly,
    coefficient_vector,
    contract,
    dim_degree,
    dp_mul,
    is_prime,
    monomial_index,
    monomials,
    mul_s,
    poly_from_vector,
)

VERDICT_NONSMOOTHABLE = "NonSmoothableCertified"
VERDICT_BOUNDARY = "SmoothableBoundary"
VERDICT_DEGENERATE = "Degenerate"


def _largest_prime_below_2_26() -> int:
    n = (1 << 26) - 1
    while not is_prime(n):
        n -= 2
    return n


# fixed internal prime used only for one-sided certificates on the rational
# path: full rank mod p proves full rank over Q, never the other way round
_CERT_PRIME = _largest_prime_below_2_26()


def draw_primes(n_primes: int, seed: int) -> list[int]:
    """Distinct random working primes, reproducible from the seed."""
    rng = seeded_rng(seed, "primes")
    chosen: set[int] = set()
    while len(chosen) < n_primes:
        chosen.add(linalg.random_prime(rng))
    return sorted(chosen)


# ----------------------------------------------------------------------
# squared-ideal perps
# ----------------------------------------------------------------------


def _product_block(pvec, a: int, b: int, basis_b, n: int, p: int | None):
    """Rows spanning pvec * I_b inside degree a+b, for one fixed operator.

    ``basis_b`` is None when I_b is the full S_b, else a basis matrix.
    """
    dim_b = dim_degree(n, b)
    dim_d = dim_degree(n, a + b)
    table = shift_table(n, a, b)
    if p is not None:
        block = np.zeros((dim_b, dim_d), dtype=np.int64)
        ar = np.arange(dim_b)
        for si, c in enumerate(pvec):
            if c:
                block[ar, table[si]] = (block[ar, table[si]] + int(c)) % p
        if basis_b is not None:
            block = linalg.matmul_fp(basis_b, block, p)
        return block
    rows = [[0] * dim_d for _ in range(dim_b)]
    for si, c in enumerate(pvec):
        if c:
            for t in range(dim_b):
                rows[t][table[si, t]] += c
    if basis_b is not None:
        rows = [
            [sum(bq * rows[t][m] for t, bq in enumerate(brow) if bq)
             for m in range(dim_d)]
            for brow in basis_b
        ]
    return rows


def _degree_pairs(d: int) -> list[tuple[int, int]]:
    return [(a, d - a) for a in range(2, d - 1) if a <= d - a]


def square_perp_basis(F: Poly, d: int, p: int | None = None,
                      slices: dict | None = None) -> linalg.SubspaceBasis:
    """Basis of the degree-d perp of the squared annihilator ideal.

    Computed by intersecting kernels block by block (one block per basis
    operator of the lower factor), which keeps the working set small even
    in degree 7 where the full product matrix would have ~10^4 rows.

    Over the rationals, a full-rank certificate mod a fixed internal prime
    settles the frequent perp-is-zero case rigorously (rank can only drop
    under reduction); otherwise exact Fraction elimination runs, which is
    slow in degrees 6 and 7.
    """
    if not is_nondegenerate_cubic(F, p):
        raise ValueError("squared-ideal analysis needs a nondegenerate cubic")
    if d < 4 or d > 7:
        raise ValueError("degree must be between 4 and 7")
    n = F.n
    dim_d = dim_degree(n, d)
    slices = slices if slices is not None else {}

    def slice_basis(r: int):
        if r not in slices:
            slices[r] = ann_degree(F, r, p)
        return slices[r]

    if p is None:
        if square_perp_basis(F, d, _CERT_PRIME).dim == 0:
            return linalg.SubspaceBasis("P", d, n, dim_d, None, [])
        return _square_perp_basis_q(F, d, slice_basis, n, dim_d)

    basis: np.ndarray | None = None
    for a, b in _degree_pairs(d):
        A = slice_basis(a)
        Bb = slice_basis(b)
        basis_b = None if Bb.dim == dim_degree(n, b) else Bb.matrix()
        for pvec in A.rows:
            block = _product_block(pvec, a, b, basis_b, n, p)
            if basis is None:
                basis = linalg.kernel_fp(block, p)
            else:
                basis = linalg.restrict_kernel(basis, block, p)
            if basis.shape[0] == 0:
                break
        if basis is not None and basis.shape[0] == 0:
            break
    rows = [list(map(int, r)) for r in basis] if basis is not None else []
    return linalg.SubspaceBasis("P", d, n, dim_d, p, rows)


def _square_perp_basis_q(F, d, slice_basis, n, dim_d):
    rows_all: list = []
    for a, b in _degree_pairs(d):
        A = slice_basis(a)
        Bb = slice_basis(b)
        basis_b = None if Bb.dim == dim_degree(n, b) else Bb.rows
        for pvec in A.rows:
            rows_all.extend(_product_block(pvec, a, b, basis_b, n, None))
    kern = linalg.kernel_q(rows_all)
    return linalg.SubspaceBasis("P", d, n, dim_d, None, kern)


def square_ideal_degree(F: Poly, d: int, p: int | None = None) -> linalg.SubspaceBasis:
    """The degree-d piece of the squared annihilator ideal, as a subspace
    of S_d (perp of the perp, so the returned basis is canonical)."""
    pp = square_perp_basis(F, d, p)
    ideal = linalg.perp(pp)
    return linalg.SubspaceBasis("S", d, F.n, pp.ncols, p, ideal.rows)


def perp_dimensions(F: Poly, p: int | None = None) -> dict[int, int]:
    """Dimensions of the degree-4..7 perps of the squared ideal.

    Once a degree comes out zero every higher degree is zero too (the
    squared ideal is an ideal, so multiplying a full graded piece by the
    linear operators keeps it full); degrees past the first zero are not
    recomputed.
    """
    slices: dict = {}
    out: dict[int, int] = {}
    for d in (4, 5, 6, 7):
        if out and out[d - 1] == 0:
            out[d] = 0
            continue
        if p is None:
            out[d] = _perp_dim_q(F, d, slices)
        else:
            out[d] = square_perp_basis(F, d, p, slices).dim
    return out


def _perp_dim_q(F: Poly, d: int, slices: dict) -> int:
    """Rational perp dimension with one-sided certificates.

    Full rank mod the fixed certificate prime proves a zero perp over Q.
    For d = 4, corank 6 mod p plus an exact rational check that the six
    vectors x_i (dp-times) F are independent members of the perp pins the
    value 6 without any large rational elimination.
    """
    n = F.n

    def slice_basis(r: int):
        if r not in slices:
            slices[r] = ann_degree(F, r, None)
        return slices[r]

    mod_dim = square_perp_basis(F, d, _CERT_PRIME).dim
    if mod_dim == 0:
        return 0
    if d == 4 and mod_dim == 6:
        prods = ev_product_matrix(
            [poly_from_vector(r, "S", n, 2) for r in slice_basis(2).rows], F)
        witness = [coefficient_vector(dp_mul(Poly.variable("P", n, i), F), 4)
                   for i in range(n)]
        annihilated = all(
            sum(rc * wc for rc, wc in zip(row, wit)) == 0
            for row in prods for wit in witness)
        if annihilated and linalg.rank_q(witness) == n:
            return 6
    return square_perp_basis(F, d, None, slices).dim


def perp4_dim(F: Poly, p: int | None = None) -> int:
    """Dimension of the degree-4 perp of the squared ideal (6 generically,
    larger exactly on the divisor E)."""
    if p is None:
        return _perp_dim_q(F, 4, {})
    return square_perp_basis(F, 4, p).dim


def tangent_dimension(F: Poly, p: int | None = None) -> int:
    """Tangent-space dimension of the Hilbert scheme of 14 points at the
    apolar scheme of F: 70 plus the degree-4..7 perp dimensions.

    Raises ValueError for degenerate cubics (cones), whose apolar scheme
    does not have length 14.
    """
    if not is_nondegenerate_cubic(F, p):
        raise ValueError("tangent dimension needs a nondegenerate cubic")
    return 70 + sum(perp_dimensions(F, p).values())


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
    x_i (dp-times) F.
    """
    if len(quadric_basis) != 15:
        raise ValueError("expected a basis of 15 quadrics")
    n = F.n
    for q in quadric_basis:
        if q.ring != "S" or q.is_zero() or q.degree() != 2:
            raise ValueError("ev rows must be degree-2 operators")
        residual = contract(q, F)
        if p is None:
            bad = not residual.is_zero()
        else:
            bad = linalg.to_fp_matrix(
                [coefficient_vector(residual, 1)], p).any()
        if bad:
            raise ValueError("a quadric in the basis does not annihilate F")
    rows = []
    for i in range(15):
        for j in range(i, 15):
            prod = mul_s(quadric_basis[i], quadric_basis[j])
            rows.append(coefficient_vector(prod, 4))
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
    hf = hilbert_function(F, p)
    dim2 = ann_degree(F, 2, p).dim
    if not is_nondegenerate_cubic(F, p):
        return hf.values, dim2, {}, None, None
    perps = perp_dimensions(F, p)
    tangent = 70 + sum(perps.values())
    return hf.values, dim2, perps, tangent, perps[4] > 6


def analyze(F: Poly, primes: list[int] | None = None, n_primes: int = 3,
            seed: int = 0, field_kind: str = "fp") -> AnalysisReport:
    """Full tangent-space report, multi-prime checked or exact rational.

    With ``field_kind="fp"`` the computation runs over ``n_primes``
    distinct random primes (or the explicit ``primes``) and every reported
    integer must agree across them; disagreement raises RuntimeError.
    With ``field_kind="q"`` the exact rational path runs (certificates
    plus Fraction elimination where certificates do not apply).

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
            primes = draw_primes(n_primes, seed)
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
    from .apolarity import _le_vector

    def span_rows(f: Poly):
        rows = []
        for r in range(4):
            for se in monomials(f.n, r):
                g = contract(Poly.monomial("S", f.n, se), f)
                if not g.is_zero():
                    rows.append(_le_vector(g, 3))
        return rows

    a, b = span_rows(F3 + Q), span_rows(F3 + Q2)
    if p is not None:
        ra, rka, _ = linalg.rref_fp(a, p)
        rb, rkb, _ = linalg.rref_fp(b, p)
        return rka == rkb and bool(np.array_equal(ra[:rka], rb[:rkb]))
    ra, rka, _ = linalg.rref_q(a)
    rb, rkb, _ = linalg.rref_q(b)
    return ra[:rka] == rb[:rkb]


# ----------------------------------------------------------------------
# pencils
# ----------------------------------------------------------------------


@dataclass
class PencilProfile:
    """Interpolated divisor equation along one pencil, over one prime.

    ``determinant`` holds the ascending monic coefficients of the chart
    determinant after the chart-unit factor (the 6 x 6 minor of the
    x_j (dp-times) F coordinates on the dropped columns) has been divided
    out.  Its roots are the pencil parameters u (with v = 1) meeting the
    divisor of non-generic annihilator squares.  At a simple crossing
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
    out = []
    for a, b in quadric_family:
        za = [0] * dim_degree(n, 2)
        zb = list(za)
        for q, target in ((a, za), (b, zb)):
            if q is None or q.is_zero():
                continue
            if q.ring != "S" or q.degree() != 2:
                raise ValueError("family sections must be quadric operators")
            target[:] = coefficient_vector(q, 2)
        out.append((za, zb))
    return out


def _check_family_annihilates(quadric_family, F1: Poly, F2: Poly):
    """Exact identity check: (u a + v b) must kill u F1 + v F2 for all
    (u, v), i.e. the three bilinear pieces must each vanish."""
    zero = Poly.zero("S", F1.n)
    for a, b in quadric_family:
        a = a or zero
        b = b or zero
        for piece in (contract(a, F1),
                      contract(b, F2),
                      contract(a, F2) + contract(b, F1)):
            if not piece.is_zero():
                raise ValueError(
                    "family section does not annihilate the pencil identically")


def pencil_family(F1: Poly, F2: Poly, p: int) -> list[tuple[Poly | None, Poly]]:
    """Quadric annihilator family along u*F1 + v*F2: constant sections
    (common annihilators of both endpoints, stored as (None, q)) plus
    moving sections (a, b) meaning u*a + v*b, a canonical basis of the
    kernel of the three bilinear compatibility conditions taken modulo the
    constants.  The section values at any parameter with a 15-dimensional
    annihilator slice span that slice exactly."""
    n = F1.n
    c_space = linalg.intersect(ann_degree(F1, 2, p), ann_degree(F2, 2, p))
    dim2 = dim_degree(n, 2)
    t1 = np.asarray(catalecticant(F1, 2, p), dtype=np.int64)
    t2 = np.asarray(catalecticant(F2, 2, p), dtype=np.int64)
    zero = np.zeros_like(t1.T)
    rows = np.vstack([
        np.hstack([t1.T, zero]),
        np.hstack([zero, t2.T]),
        np.hstack([t2.T, t1.T]),
    ])
    solutions = linalg.kernel_fp(rows, p)
    movers: list[np.ndarray] = []
    if c_space.dim:
        cc = []
        for crow in c_space.rows:
            cc.append(list(crow) + [0] * dim2)
            cc.append([0] * dim2 + list(crow))
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
    if c_space.dim + len(movers) != 15:
        raise ValueError(
            "pencil family has %d constants + %d movers, expected 15 total"
            % (c_space.dim, len(movers)))
    if not movers:
        raise ValueError("pencil does not move (endpoints share all quadrics)")
    family: list[tuple[Poly | None, Poly]] = []
    for crow in c_space.rows:
        family.append((None, poly_from_vector(crow, "S", n, 2)))
    for m in movers:
        family.append((poly_from_vector([int(x) for x in m[:dim2]], "S", n, 2),
                       poly_from_vector([int(x) for x in m[dim2:]], "S", n, 2)))
    return family


def _chart_columns(chart: tuple, n: int) -> list[int]:
    idx4 = monomial_index(n, 4)
    cols = []
    for i in range(n):
        e = list(chart)
        e[i] += 1
        cols.append(idx4[tuple(e)])
    return cols


def _collect_node_data(F1, F2, sections, nodes, p):
    """Per node: the 120 x 126 product matrix of the section values and
    the degree-3 coefficient vector of the fiber cubic."""
    n = F1.n
    f1v = np.asarray(linalg.to_fp_matrix([coefficient_vector(F1, 3)], p))[0]
    f2v = np.asarray(linalg.to_fp_matrix([coefficient_vector(F2, 3)], p))[0]
    a_mat = linalg.to_fp_matrix([s[0] for s in sections], p)
    b_mat = linalg.to_fp_matrix([s[1] for s in sections], p)
    flat_map = shift_table(n, 2, 2).reshape(-1)
    dim4 = dim_degree(n, 4)
    data = []
    for u in nodes:
        vals = (a_mat * u + b_mat) % p
        rows = np.zeros((120, dim4), dtype=np.int64)
        r = 0
        for i in range(15):
            for j in range(i, 15):
                outer = (vals[i][:, None] * vals[j][None, :]).reshape(-1)
                np.add.at(rows[r], flat_map, outer)
                r += 1
        rows %= p
        data.append((u, rows, (f1v * u + f2v) % p))
    return data


def _unit_matrix(fvec, chart_cols, n, p):
    """6 x 6 chart-unit matrix: column j holds the coordinates of
    x_j (dp-times) F on the six dropped chart columns."""
    unit_table = shift_table(n, 1, 3)
    dim4 = dim_degree(n, 4)
    unit = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        mult = np.array([mono[j] + 1 for mono in monomials(n, 3)],
                        dtype=np.int64)
        img = np.zeros(dim4, dtype=np.int64)
        img[unit_table[j]] = fvec * mult % p
        unit[:, j] = img[chart_cols]
    return unit


def pencil_profile(F1: Poly, F2: Poly, chart_cubic=None, quadric_family=None,
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

    The family, the nodes and the per-node product matrices are built
    once; every chart is then evaluated on that shared data.  The profile
    comes from ``chart_cubic`` when given, else from the first usable
    cubic monomial.  The first other usable monomial always verifies it:
    the two root profiles must agree.

    Args:
        chart_cubic: optional degree-3 exponent tuple or monomial Poly.
        quadric_family: optional explicit list of 15 sections (a, b) read
            as u*a + v*b with constants written (None, q); the family must
            annihilate the pencil identically.  Computed by kernel
            continuation when absent.
        p: working prime (required; profiles are per-prime objects).

    Raises:
        ValueError: an unusable explicit chart, no usable chart at all,
            charts that disagree, or a family that does not move or does
            not annihilate the pencil.
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
    if quadric_family is None:
        family = pencil_family(F1, F2, p)
    else:
        family = list(quadric_family)
        if len(family) != 15:
            raise ValueError("explicit family must have 15 sections")
        _check_family_annihilates(family, F1, F2)
    sections = _section_pairs(family, n)
    movers = sum(1 for a, _ in sections if any(a))
    if movers == 0:
        raise ValueError("pencil does not move (all sections constant)")
    bound = 16 * movers

    rng = seeded_rng(seed, "pencil:%d" % p)
    nodes: list[int] = []
    seen: set[int] = set()
    while len(nodes) < bound + 5:
        u = rng.randrange(1, p)
        if u not in seen:
            seen.add(u)
            nodes.append(u)
    node_data = _collect_node_data(F1, F2, sections, nodes, p)
    dim4 = dim_degree(n, 4)

    def profile_for(chart_expo: tuple) -> PencilProfile:
        chart_cols = _chart_columns(chart_expo, n)
        dropped = set(chart_cols)
        keep = [c for c in range(dim4) if c not in dropped]
        unit_vals = [(u, linalg.det_fp(_unit_matrix(fv, chart_cols, n, p), p))
                     for u, _, fv in node_data]
        dunit = linalg.interpolate(unit_vals, 6, p)
        if not dunit:
            raise ValueError("chart unit vanishes identically (bad chart)")
        raw_vals = [(u, linalg.det_fp(rows[:, keep], p))
                    for u, rows, _ in node_data]
        draw = linalg.interpolate(raw_vals, bound, p)
        if not draw:
            raise ValueError("chart minor identically zero (degenerate chart)")
        quo, rem = linalg.poly_divmod_fp(draw, dunit, p)
        if rem:
            raise ValueError("chart unit does not divide the raw determinant")
        lead_inv = pow(quo[-1], p - 2, p)
        monic = [c * lead_inv % p for c in quo]
        roots = linalg.roots_fp(monic, p, seeded_rng(seed, "roots:%d" % p))
        return PencilProfile(chart_expo, p, monic, len(draw) - 1,
                             len(dunit) - 1, roots, len(monic) - 1)

    return _default_chart(profile_for, n, chart)


def _default_chart(profile_for, n: int, chart: tuple | None) -> PencilProfile:
    """One walk over the cubic monomials, in order, on one prime's data.

    ``profile_for`` maps a chart to its profile and raises ValueError for
    an unusable chart.  The explicit ``chart`` (which must be usable), or
    else the first usable monomial, gives the profile; the first other
    usable monomial must agree on the root profile.  A lone usable chart
    is accepted unverified.
    """
    result = None if chart is None else profile_for(chart)
    for cand in monomials(n, 3):
        if result is not None and cand == result.chart:
            continue
        try:
            other = profile_for(cand)
        except ValueError:
            continue
        if result is None:
            result = other
            continue
        if other.summary() != result.summary():
            raise ValueError(
                "charts disagree on the root profile: %s vs %s"
                % (result.summary(), other.summary()))
        return result
    if result is None:
        raise ValueError("no usable chart monomial found")
    return result


def pencil_report(F1: Poly, F2: Poly, chart_cubic=None, quadric_family=None,
                  primes: list[int] | None = None, n_primes: int = 3,
                  seed: int = 0) -> dict:
    """Multi-prime pencil summary.

    The prime-stable facts (total degree of the normalized determinant and
    the multiplicity at u = 0) must agree across all working primes;
    rational-root multisets are reported per prime, since an irreducible
    factor may split at one prime and not another.  Without ``chart_cubic``
    the chart found at the first prime is used at every later one.
    """
    if F1.ring != "P" or F2.ring != "P":
        raise ValueError("pencil endpoints must be P-side cubics")
    if F1.is_zero() or F2.is_zero() or F1 == F2:
        raise ValueError("pencil needs two distinct nonzero endpoints")
    if primes is None:
        primes = draw_primes(n_primes, seed)
    if not primes:
        raise ValueError("a pencil report needs at least one prime")
    profiles = []
    for p in primes:
        prof = pencil_profile(F1, F2, chart_cubic, quadric_family, p, seed)
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
