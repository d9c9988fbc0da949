"""Catalecticants, graded annihilators, Hilbert functions, apolar lengths.

A homogeneous F of degree d on the polynomial side P determines for each r
the catalecticant map S_r -> P_{d-r}, sigma -> sigma ∘ F.  Its rank is the
Hilbert function value h(r) of the quotient algebra, its left kernel is the
degree-r slice of the annihilator ideal, and the row span is the
coordinate complement of the degree-(d-r) annihilator slice (the pairing of
monomial bases is diagonal).  Everything here is exact: Fractions over the
rationals, int64 residues when a prime is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .poly import (
    Poly,
    Scalar,
    coefficient_vector,
    contract,
    dim_degree,
    graded_parts,
    monomial_index,
    monomials,
    poly_from_vector,
    substitute_shift,
)


@lru_cache(maxsize=None)
def shift_table(n_vars: int, r: int, s: int) -> np.ndarray:
    """Index table: entry [i, j] is the position of sigma_i + tau_j in the
    canonical monomial list of degree r + s."""
    idx = monomial_index(n_vars, r + s)
    rows = monomials(n_vars, r)
    cols = monomials(n_vars, s)
    out = np.empty((len(rows), len(cols)), dtype=np.int64)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            out[i, j] = idx[tuple(x + y for x, y in zip(a, b))]
    return out


def _require_form(F: Poly, degree: int | None = None):
    if F.ring != "P":
        raise ValueError("expected a P-ring form")
    if not F.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    if degree is not None and not F.is_zero() and F.degree() != degree:
        raise ValueError("expected degree %d, got %s" % (degree, F.degree()))


def catalecticant(F: Poly, r: int, p: int | None = None):
    """Matrix of sigma -> sigma ∘ F from S_r to P_{d-r}.

    Rows are indexed by the degree-r operator monomials, columns by the
    degree-(d-r) polynomial monomials; the entry is the coefficient of F at
    the product exponent.  Over a prime field a numpy array is returned,
    over the rationals a list of rows.
    """
    _require_form(F)
    d = 0 if F.is_zero() else F.degree()
    if r < 0 or r > d:
        raise ValueError("catalecticant index %d out of range 0..%d" % (r, d))
    table = shift_table(F.n, r, d - r)
    vec = coefficient_vector(F, d)
    if p is not None:
        arr = linalg.to_fp_matrix([vec], p)[0]
        return arr[table]
    return [[vec[table[i, j]] for j in range(table.shape[1])]
            for i in range(table.shape[0])]


def ann_degree(F: Poly, r: int, p: int | None = None) -> linalg.SubspaceBasis:
    """Degree-r slice of the annihilator ideal of F, as a subspace of S_r.

    For r beyond the degree of F this is all of S_r.
    """
    _require_form(F)
    n = F.n
    ncols = dim_degree(n, r)
    d = 0 if F.is_zero() else F.degree()
    if F.is_zero() or r > d:
        eye = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        return linalg.SubspaceBasis("S", r, n, ncols, p, eye)
    cat = catalecticant(F, r, p)
    if p is not None:
        rows = [list(map(int, v)) for v in linalg.kernel_fp(cat.T, p)]
    else:
        transposed = [[cat[i][j] for i in range(len(cat))]
                      for j in range(len(cat[0]))]
        rows = linalg.kernel_q(transposed)
    return linalg.SubspaceBasis("S", r, n, ncols, p, rows)


@dataclass(frozen=True)
class HilbertFunctionRecord:
    """Values h(0..d) of the apolar algebra's Hilbert function."""

    values: tuple[int, ...]

    @property
    def socle_degree(self) -> int:
        return len(self.values) - 1

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, HilbertFunctionRecord):
            return self.values == other.values
        return tuple(self.values) == tuple(other)

    def __hash__(self):
        return hash(self.values)


def hilbert_function(F: Poly, p: int | None = None) -> HilbertFunctionRecord:
    """h(r) = rank of the degree-r catalecticant, for r = 0..deg F."""
    _require_form(F)
    if F.is_zero():
        return HilbertFunctionRecord((0,))
    d = F.degree()
    vals = []
    for r in range(d + 1):
        cat = catalecticant(F, r, p)
        rank = linalg.rank_fp(cat, p) if p is not None else linalg.rank_q(cat)
        vals.append(rank)
    return HilbertFunctionRecord(tuple(vals))


def is_nondegenerate_cubic(F: Poly, p: int | None = None) -> bool:
    """True when all six first-order contractions of a cubic are independent,
    i.e. the Hilbert function is (1, 6, 6, 1) and the form is not a cone."""
    if F.is_zero() or F.degree() != 3:
        return False
    _require_form(F, 3)
    cat = catalecticant(F, 1, p)
    rank = linalg.rank_fp(cat, p) if p is not None else linalg.rank_q(cat)
    return rank == F.n


@lru_cache(maxsize=None)
def _le_offsets(n_vars: int, dmax: int) -> tuple[tuple[int, ...], int]:
    offs, total = [], 0
    for r in range(dmax + 1):
        offs.append(total)
        total += dim_degree(n_vars, r)
    return tuple(offs), total


def _le_vector(f: Poly, dmax: int) -> list[Scalar]:
    """Coefficients of a polynomial of degree <= dmax on the concatenated
    canonical monomial lists of degrees 0..dmax."""
    offs, total = _le_offsets(f.n, dmax)
    vec: list[Scalar] = [0] * total
    for expo, coeff in f.terms.items():
        d = sum(expo)
        vec[offs[d] + monomial_index(f.n, d)[expo]] = coeff
    return vec


def apolar_length(f: Poly, p: int | None = None) -> int:
    """Dimension of the contraction module S ∘ f for a polynomial of degree
    at most 3 (the constant operator is included, so f itself is in the
    span); the zero polynomial has length 0."""
    if f.ring != "P":
        raise ValueError("apolar_length acts on the P ring")
    if f.is_zero():
        return 0
    if f.degree() > 3:
        raise ValueError("apolar_length expects degree <= 3")
    rows = []
    for r in range(4):
        for se in monomials(f.n, r):
            g = contract(Poly.monomial("S", f.n, se), f)
            if not g.is_zero():
                rows.append(_le_vector(g, 3))
    if p is not None:
        return linalg.rank_fp(rows, p)
    return linalg.rank_q(rows)


def scheme_length(f: Poly, p: int | None = None) -> int:
    """Length of the affine apolar scheme: like apolar_length, except the
    empty polynomial still carries the structure constant (length 1)."""
    return max(apolar_length(f, p), 1)


def dual_socle_generator(quadrics: list[Poly], n_vars: int = 6,
                         p: int | None = None) -> Poly:
    """The cubic annihilated by all the given quadric operators, when it is
    unique up to scalar.

    Args:
        quadrics: degree-2 S-ring forms (typically 15 of them).
        n_vars: ambient variable count.

    Returns:
        The generator, normalized to leading coefficient 1 in graded-lex
        order.

    Raises:
        ValueError: when the common perp in degree 3 is not 1-dimensional
            (degenerate input collections are the caller's cue to resample).
    """
    rows = []
    table = shift_table(n_vars, 2, 1)
    dim1 = dim_degree(n_vars, 1)
    dim3 = dim_degree(n_vars, 3)
    for q in quadrics:
        if q.ring != "S" or q.is_zero() or q.degree() != 2 or q.n != n_vars:
            raise ValueError("dual_socle_generator expects S-ring quadrics")
        qvec = coefficient_vector(q, 2)
        for tau in range(dim1):
            row: list[Scalar] = [0] * dim3
            for si, c in enumerate(qvec):
                if c:
                    row[table[si, tau]] += c
            rows.append(row)
    if p is not None:
        kern = [list(map(int, r)) for r in linalg.kernel_fp(rows, p)]
    else:
        kern = linalg.kernel_q(rows)
    if len(kern) != 1:
        raise ValueError(
            "common cubic perp has dimension %d, expected 1" % len(kern))
    return poly_from_vector(kern[0], "P", n_vars, 3)


@dataclass
class TranslatedApolar:
    """Shifted generator set for the annihilator of a translated scheme."""

    generators: list[Poly]
    length: int
    support: tuple


def translated_apolar(f: Poly, w, p: int | None = None) -> TranslatedApolar:
    """Translate the apolar scheme of f to sit over the point w.

    The generators are the shift a_i -> a_i + w_i applied to a basis of the
    annihilator of f in operator degrees <= 4 (which generates the whole
    annihilator for degree-3 f); the length is translation invariant.
    """
    if f.ring != "P":
        raise ValueError("translated_apolar acts on the P ring")
    w = tuple(w)
    if len(w) != f.n:
        raise ValueError("support point has wrong length")
    rows = []
    for r in range(5):
        for se in monomials(f.n, r):
            sigma = Poly.monomial("S", f.n, se)
            rows.append(_le_vector(contract(sigma, f), 3))
    # operator-coefficient combinations live in the left kernel
    cols = [[rows[i][j] for i in range(len(rows))]
            for j in range(len(rows[0]))]
    if p is not None:
        kern = [list(map(int, r)) for r in linalg.kernel_fp(cols, p)]
    else:
        kern = linalg.kernel_q(cols)
    gens = []
    offs, _ = _le_offsets(f.n, 4)
    for vec in kern:
        terms: dict[tuple, Scalar] = {}
        for r in range(5):
            for j, expo in enumerate(monomials(f.n, r)):
                c = vec[offs[r] + j]
                if c:
                    terms[expo] = c
        gens.append(substitute_shift(Poly("S", f.n, terms), w))
    return TranslatedApolar(gens, apolar_length(f, p), w)


@dataclass
class FamilyProfile:
    """Fiberwise lengths of a one-parameter family, with a flatness flag."""

    lengths: dict
    flag: str  # "CONSTANT" or "JUMP"


def family_length_profile(template: Poly, samples, p: int | None = None) -> FamilyProfile:
    """Scheme lengths of the specializations of a t-parametrized family.

    ``template`` has one trailing parameter variable (see
    poly.parse_family_template).  A family whose lengths all agree is
    flagged CONSTANT, anything else JUMP.  The zero fiber is reported with
    length 1: the underlying scheme is the single (embedded) point, not the
    empty scheme, which is exactly why a jump flags non-flatness.
    """
    from .poly import specialize_parameter

    lengths: dict = {}
    for t in samples:
        ft = specialize_parameter(template, t)
        lengths[t] = scheme_length(ft, p)
    distinct = set(lengths.values())
    return FamilyProfile(lengths, "CONSTANT" if len(distinct) <= 1 else "JUMP")


def leading_form_check(f: Poly, p: int | None = None) -> bool:
    """Property hook: length 14 must co-occur with a nondegenerate top form.

    Returns (apolar_length(f) == 14) == is_nondegenerate_cubic(top form);
    the contract is that this is always true for degree-3 input.
    """
    parts = graded_parts(f)
    top = parts[-1] if parts else Poly.zero("P", f.n)
    top_ok = (not top.is_zero()) and top.degree() == 3 and \
        is_nondegenerate_cubic(top, p)
    return (apolar_length(f, p) == 14) == top_ok
