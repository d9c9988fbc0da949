"""Catalecticants, graded annihilators, Hilbert functions, apolar lengths.

A homogeneous F of degree d on the polynomial side P determines for each r
the catalecticant map S_r -> P_{d-r}, sigma -> sigma ∘ F.  Its rank is the
Hilbert function value h(r) of the quotient algebra, its left kernel is the
degree-r slice of the annihilator ideal, and the row span is the
coordinate complement of the degree-(d-r) annihilator slice (the pairing of
monomial bases is diagonal).  Everything here is exact: object arrays of
the exact coefficients (ints or Fractions) over the rationals, int64
residues when a prime is supplied; :mod:`linalg` picks the field from
``p``.

Every product and contraction matrix of the package comes from this
module, indexed through :func:`shift_table`: products of operator forms
from one scatter (:func:`_products`), contractions sigma ∘ f from one
gather, catalecticant by catalecticant (:func:`catalecticant`,
:func:`_contraction_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .poly import (
    Poly,
    Scalar,
    coefficient_vector,
    dim_degree,
    monomial_index,
    monomials,
    poly_from_vector,
    specialize_parameter,
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


def _products(x: np.ndarray, y: np.ndarray | None, a: int, b: int,
              n_vars: int) -> np.ndarray:
    """Degree-(a+b) coefficients of every product x_i * y_j, with shape
    (len x, len y, dim_{a+b}).

    ``x`` holds degree-a coefficient rows and ``y`` degree-b rows, or None
    for the monomial basis of S_b.  Each nonzero column si of x scatters
    x[:, si] * y into the columns of the products with monomial si.  The
    dtype is kept: object arrays of exact scalars stay exact, int64
    residues are left unreduced (an entry sums at most dim_a terms below
    2^52 each: below 21 * 2^52 for a = 2 and 56 * 2^52 for a = 3, inside
    int64); the caller reduces them.
    """
    table = shift_table(n_vars, a, b)
    ny = table.shape[1] if y is None else len(y)
    dtype = x.dtype if y is None else np.result_type(x, y)
    out = np.zeros((len(x), ny, dim_degree(n_vars, a + b)), dtype=dtype)
    for si in np.flatnonzero(x.any(axis=0)):
        if y is None:
            out[:, np.arange(ny), table[si]] += x[:, si, None]
        else:
            out[:, :, table[si]] += x[:, si, None, None] * y[None]
    return out


def _coefficients(f: Poly, degree: int, p: int | None) -> np.ndarray:
    """The degree-d coefficient vector of f: exact scalars in an object
    array over Q, int64 residues mod p."""
    vec = coefficient_vector(f, degree)
    return np.array(vec, dtype=object) if p is None else \
        linalg.to_fp_matrix(vec, p)


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
    the product exponent: int64 residues mod p, or over Q an object array
    of F's coefficients.
    """
    _require_form(F)
    d = 0 if F.is_zero() else F.degree()
    if r < 0 or r > d:
        raise ValueError("catalecticant index %d out of range 0..%d" % (r, d))
    return _coefficients(F, d, p)[shift_table(F.n, r, d - r)]


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
    rows = linalg.kernel(catalecticant(F, r, p).T, p)
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
    return HilbertFunctionRecord(tuple(
        linalg.rank(catalecticant(F, r, p), p) for r in range(d + 1)))


def is_nondegenerate_cubic(F: Poly, p: int | None = None) -> bool:
    """True when all six first-order contractions of a cubic are independent,
    i.e. the Hilbert function is (1, 6, 6, 1) and the form is not a cone."""
    if F.is_zero() or F.degree() != 3:
        return False
    _require_form(F, 3)
    return linalg.rank(catalecticant(F, 1, p), p) == F.n


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


def _contraction_matrix(f: Poly, max_op_degree: int, p: int | None = None):
    """Matrix of sigma -> sigma ∘ f for a polynomial f of degree <= 3.

    Rows are the operator monomials of degrees 0..max_op_degree, columns
    the monomials of degrees 0..3, each in concatenated canonical order.
    Block (r, s) is the catalecticant gather of the degree-(r+s) part of f
    and is zero when r + s > 3.  Residues mod p, or exact coefficients
    over Q, as in :func:`catalecticant`.
    """
    if not f.is_zero() and f.degree() > 3:
        raise ValueError("contraction matrices need degree <= 3")
    n = f.n
    vecs = [_coefficients(f, k, p) for k in range(4)]
    return np.block([[vecs[r + s][shift_table(n, r, s)] if r + s <= 3 else
                      np.zeros((dim_degree(n, r), dim_degree(n, s)),
                               dtype=vecs[0].dtype)
                      for s in range(4)] for r in range(max_op_degree + 1)])


def apolar_length(f: Poly, p: int | None = None) -> int:
    """Dimension of the contraction module S ∘ f for a polynomial of degree
    at most 3 (the constant operator is included, so f itself is in the
    span); the zero polynomial has length 0."""
    if f.ring != "P":
        raise ValueError("apolar_length acts on the P ring")
    if f.is_zero():
        return 0
    mat = _contraction_matrix(f, 3, p)
    return linalg.rank(mat[np.flatnonzero(mat.any(axis=1))], p)


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
    for q in quadrics:
        if q.ring != "S" or q.is_zero() or q.degree() != 2 or q.n != n_vars:
            raise ValueError("dual_socle_generator expects S-ring quadrics")
    qs = np.array([coefficient_vector(q, 2) for q in quadrics], dtype=object)
    rows = _products(qs, None, 2, 1, n_vars).reshape(
        -1, dim_degree(n_vars, 3))
    kern = linalg.kernel(rows, p)
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
    annihilator for degree-3 f): the kernel basis of one elimination, a
    generating set rather than a canonical basis.  The length is
    translation invariant.
    """
    if f.ring != "P":
        raise ValueError("translated_apolar acts on the P ring")
    w = tuple(w)
    if len(w) != f.n:
        raise ValueError("support point has wrong length")
    mat = _contraction_matrix(f, 4, p)
    # operator-coefficient combinations live in the left kernel
    kern = linalg._free_kernel_q(mat.T) if p is None else \
        linalg._kernel(linalg.field_array(mat.T, p), p).tolist()
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
    # rank-nullity: the contractions span a space of dimension
    # len(mat) - len(kern), which is the apolar length
    return TranslatedApolar(gens, len(mat) - len(kern), w)


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
    lengths: dict = {}
    for t in samples:
        ft = specialize_parameter(template, t)
        lengths[t] = max(apolar_length(ft, p), 1)
    distinct = set(lengths.values())
    return FamilyProfile(lengths, "CONSTANT" if len(distinct) <= 1 else "JUMP")

