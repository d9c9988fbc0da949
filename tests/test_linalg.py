from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apolar import linalg
from fraction_reference import (
    det_bareiss,
    free_kernel_reference,
    kernel_reference,
    rref_fp_reference,
    rref_reference,
)
from support import in_span, span_rows

P = 67108859  # prime, fits the int64-exact budget
SMALL_P = 7   # small enough that reduction often drops a rank

small_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def test_to_fp_matrix_plain_ints():
    out = linalg.to_fp_matrix([[1, -1, P + 3]], P)
    assert out.tolist() == [[1, P - 1, 3]]


def test_to_fp_matrix_fractions_reduce_not_truncate():
    # Fraction(1, 2) must become the modular inverse of 2, never int(1/2) = 0.
    out = linalg.to_fp_matrix([[Fraction(1, 2)]], P)
    assert out[0, 0] == pow(2, P - 2, P)
    assert (out[0, 0] * 2) % P == 1
    # huge numerators/denominators, the kind dual socle generators produce
    big = Fraction(3 ** 200 + 7, 5 ** 180 + 11)
    out = linalg.to_fp_matrix([[big]], P)
    assert (int(out[0, 0]) * ((5 ** 180 + 11) % P)) % P == (3 ** 200 + 7) % P


def test_to_fp_matrix_oversized_ints():
    out = linalg.to_fp_matrix([[2 ** 200]], P)
    assert int(out[0, 0]) == pow(2, 200, P)


def test_to_fp_matrix_bad_denominator():
    with pytest.raises(ValueError):
        linalg.to_fp_matrix([[Fraction(1, P)]], P)


@pytest.mark.parametrize("mat", [
    [[0.5, 1.7]],
    np.array([[0.5, 0.25]]),
    np.array([[1, 2]], dtype=np.float32),
    [["1/2", 1]],
    np.array([[Fraction(1, 2), 0.5]], dtype=object),
], ids=["float-list", "float64", "float32", "strings", "object-float"])
def test_both_fields_reject_floats_and_strings(mat):
    # one input contract: ints and Fractions; a float used to be
    # truncated mod p (rank_fp([[0.5, 0.25]], P) was 0) and taken as
    # Fraction(x) over Q
    calls = (lambda: linalg.to_fp_matrix(mat, P),
             lambda: linalg.rank_fp(mat, P),
             lambda: linalg.rref_q(mat),
             lambda: linalg.kernel_q(mat),
             lambda: linalg.rank_q(mat))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_both_fields_take_python_and_numpy_ints_and_fractions():
    mat = np.array([[np.int64(3), Fraction(1, 2), 2 ** 70],
                    [1, np.int32(-4), Fraction(-7, 3)]], dtype=object)
    want = [[3, pow(2, P - 2, P), pow(2, 70, P)],
            [1, P - 4, (-7 * pow(3, P - 2, P)) % P]]
    assert linalg.to_fp_matrix(mat, P).tolist() == want
    assert linalg.rank_q(mat) == linalg.rank_fp(mat, P) == 2
    assert linalg.rank_q(np.array([[1, 2], [2, 4]], dtype=np.uint64)) == 1
    # an empty input has no entry to object to, whatever numpy calls it
    assert linalg.rank_q(np.zeros((0, 3))) == 0
    assert linalg.kernel_fp(np.zeros((0, 2)), P).tolist() == [[1, 0], [0, 1]]


def test_rref_and_rank_fp():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, rank, pivots = linalg.rref_fp(mat, P)
    assert rank == 2
    assert pivots == [0, 1]
    assert linalg.rank_fp(mat, P) == 2


def test_rref_q_matches_fp_rank():
    rng = random.Random(7)
    for _ in range(10):
        mat = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(4)]
        assert linalg.rank_q(mat) == linalg.rank_fp(mat, P)


def test_kernel_fp_annihilates():
    rng = random.Random(1)
    mat = [[rng.randrange(-9, 10) for _ in range(7)] for _ in range(3)]
    kern = linalg.kernel_fp(mat, P)
    assert kern.shape[0] == 7 - linalg.rank_fp(mat, P)
    prod = linalg.matmul_fp(linalg.to_fp_matrix(mat, P), kern.T, P)
    assert not prod.any()


def test_kernel_q_annihilates():
    mat = [[1, 1, 0], [0, 1, 1]]
    kern = linalg.kernel_q(mat)
    assert len(kern) == 1
    v = kern[0]
    assert [sum(Fraction(a) * b for a, b in zip(row, v)) for row in mat] == [0, 0]


# entries of every kind the rational solver meets: small ints, ints of at
# least 2^100, and Fractions
exact_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda a, neg: -a if neg else a,
              st.integers(2 ** 100, 2 ** 110), st.booleans()),
    st.fractions(-20, 20, max_denominator=30),
)


@st.composite
def exact_matrices(draw):
    """Lists of rows, numpy object arrays (0 x n included) or one 1-D row,
    often with a zero row or a row dependent on two others."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows = [draw(st.lists(exact_entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        a = draw(st.fractions(-3, 3, max_denominator=5))
        rows.append([a * x + y for x, y in zip(rows[0], rows[1])])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    form = draw(st.sampled_from(["list", "array", "row"]))
    if form == "row" and rows:
        return rows[0]
    if form == "array":
        arr = np.empty((len(rows), ncols), dtype=object)
        arr[...] = rows if rows else arr
        return arr
    return rows


@settings(max_examples=200, deadline=None)
@given(exact_matrices())
def test_rational_solver_matches_the_fraction_reference(mat):
    red, rank, pivots = rref_reference(mat)
    got = linalg.rref_q(mat)
    assert got == (red, rank, pivots)
    assert linalg.rank_q(mat) == rank
    kern = linalg.kernel_q(mat)
    assert kern == kernel_reference(mat)
    # Fraction for Fraction, not just equal values
    assert all(type(x) is Fraction
               for rows in (got[0], kern) for row in rows for x in row)


@settings(max_examples=100, deadline=None)
@given(exact_matrices())
def test_kernel_reference_is_the_rref_of_the_free_column_basis(mat):
    # one elimination of the column-reversed matrix gives what the
    # reference's old body gave: a second Gauss-Jordan over the basis
    # that is the identity on the free columns of the left-greedy pivots
    basis = free_kernel_reference(mat)
    assert kernel_reference(mat) == \
        (rref_reference(basis)[0] if basis else [])


def _spy_primes(monkeypatch, first):
    """Make ``first`` the solver's first prime, then P; returns the list
    of (prime, accepted) that the lifts record."""
    monkeypatch.setattr(linalg, "_Q_PRIMES", (first, P))
    tried = []
    lift = linalg._lift

    def recording(*args):
        out = lift(*args)
        tried.append((args[6], out is not None))
        return out

    monkeypatch.setattr(linalg, "_lift", recording)
    return tried


def test_a_prime_dividing_a_pivot_minor_is_skipped(monkeypatch):
    mat = [[1, 2], [3, 13]]  # determinant 7
    assert linalg.rank_fp(mat, 7) == 1
    tried = _spy_primes(monkeypatch, 7)
    assert linalg.rank_q(mat) == 2
    assert tried == [(7, False)]  # rank 2 mod P is full: no lift
    for call, want in ((linalg.kernel_q, []),
                       (linalg.rref_q, rref_reference(mat))):
        tried.clear()
        assert call(mat) == want
        assert tried == [(7, False), (P, True)]


def test_a_prime_that_moves_the_greedy_pivots_is_skipped(monkeypatch):
    mat = [[1, 1, 0], [0, 7, 1]]  # pivots [0, 1] over Q, [0, 2] mod 7
    assert linalg.rref_fp(mat, 7)[2] == [0, 2]
    tried = _spy_primes(monkeypatch, 7)
    assert linalg.rref_q(mat) == rref_reference(mat)
    assert tried == [(7, False), (P, True)]


def test_a_prime_that_breaks_the_kernel_shape_is_skipped(monkeypatch):
    # the right-greedy pivot is column 2 over Q and column 1 mod 7, so
    # the basis mod 7 is not in echelon form over Q
    mat = [[1, 1, 7]]
    tried = _spy_primes(monkeypatch, 7)
    assert linalg.kernel_q(mat) == kernel_reference(mat)
    assert tried == [(7, False), (P, True)]


def test_the_solver_goes_on_past_its_prime_list(monkeypatch):
    monkeypatch.setattr(linalg, "_Q_PRIMES", (7,))
    assert linalg.rank_q([[1, 2], [3, 13]]) == 2


def test_exact_kernel_check_sees_a_unit_in_the_last_place():
    a, b = 3 ** 300 + 1, 5 ** 200 - 2
    m = np.array([[a, b], [2 * a, 2 * b]], dtype=object)
    mf = linalg._limbs(m).astype(np.float64)
    assert linalg._is_kernel(mf, np.array([[b], [-a]], dtype=object))
    assert not linalg._is_kernel(mf, np.array([[b], [1 - a]], dtype=object))
    assert not linalg._is_kernel(mf, np.array([[b + 1], [-a]], dtype=object))


def _is_rref(rows):
    leads = [next(j for j, x in enumerate(row) if x) for row in rows]
    return leads == sorted(set(leads)) and all(
        rows[k][lead] == (k == i) for i, lead in enumerate(leads)
        for k in range(len(rows)))


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_reduction_never_raises_the_rank(mat):
    assert linalg.rank_fp(mat, SMALL_P) <= linalg.rank_q(mat)


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_kernel_q_is_an_exact_rref_complement(mat):
    # over Q, and over F_7 where the reduction often drops a rank
    for p, kern, rank in ((None, linalg.kernel_q(mat), linalg.rank_q(mat)),
                          (SMALL_P, linalg.kernel_fp(mat, SMALL_P).tolist(),
                           linalg.rank_fp(mat, SMALL_P))):
        dots = [sum(Fraction(a) * b for a, b in zip(row, vec))
                for row in mat for vec in kern]
        assert all((dot if p is None else dot % p) == 0 for dot in dots)
        assert _is_rref(kern)
        assert len(kern) + rank == len(mat[0])


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_rref_q_reduces_to_rref_fp_when_ranks_agree(mat):
    red_q, rank_q, piv_q = linalg.rref_q(mat)
    red_p, rank_p, piv_p = linalg.rref_fp(mat, SMALL_P)
    if (rank_q, piv_q) == (rank_p, piv_p):
        assert np.array_equal(linalg.to_fp_matrix(red_q, SMALL_P), red_p)


def test_det_bareiss_known_values():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det_bareiss([]) == 1
    # an integer reference only: floor division would corrupt Fractions
    with pytest.raises(ValueError):
        det_bareiss([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])


def test_det_fp_matches_bareiss():
    rng = random.Random(2)
    for _ in range(10):
        m = [[rng.randrange(-20, 21) for _ in range(4)] for _ in range(4)]
        assert linalg.det_fp(m, P) == det_bareiss(m) % P


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        linalg.det_fp([[1, 2, 3], [4, 5, 6]], P)


# square integer matrices up to 24 x 24 with entries up to +-P; a repeated
# row makes some singular.  P is the largest prime below 2^26, so every
# product of the elimination runs close to the word size.
word_size_squares = st.integers(1, 24).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-P, P), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()))


@settings(max_examples=40, deadline=None)
@given(word_size_squares)
def test_det_fp_matches_bareiss_at_word_size(case):
    m, i, j, repeat = case
    if repeat:
        m[i] = list(m[j])
    assert linalg.det_fp(m, P) == det_bareiss(m) % P


@pytest.mark.parametrize("rows,extra", [(1, 1), (2, 3), (3, 2), (4, 3), (5, 1)])
def test_complementary_minors_from_the_pivot_kernel(rows, extra):
    # det M[:, S^c] == eps(S) eps(F) d det K[:, S] for every S, where K
    # annihilates M and is the identity on the free columns F
    ncols = rows + extra
    rng = random.Random(rows * 10 + extra)
    mat = np.array([[rng.randrange(P) for _ in range(ncols)]
                    for _ in range(rows)], dtype=np.int64)
    # a zero column forces a free column that is not at the end
    mat[:, rng.randrange(rows)] = 0
    d, pivots, kern = linalg.pivot_kernel_fp(mat, P)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(pivots) == rows and d != 0
    assert not linalg.matmul_fp(mat, kern.T, P).any()
    assert np.array_equal(kern[:, free], np.eye(extra, dtype=np.int64))
    for dropped in itertools.combinations(range(ncols), extra):
        keep = [c for c in range(ncols) if c not in dropped]
        identity = (linalg.shuffle_sign(dropped) * linalg.shuffle_sign(free)
                    * d * linalg.det_fp(kern[:, list(dropped)], P)) % P
        assert linalg.det_fp(mat[:, keep], P) == identity


def test_dets_of_a_stack_match_each_matrix_alone():
    # members that lose their pivot at columns 0, 1, 2 and 4, and members
    # that need a row swap
    rng = random.Random(5)
    stack = np.array([[[rng.randrange(P) for _ in range(5)] for _ in range(5)]
                      for _ in range(7)], dtype=np.int64)
    stack[1, :, 0] = 0
    stack[2, :, 1] = 3 * stack[2, :, 0]
    stack[3, :, 2] = stack[3, :, 0] + stack[3, :, 1]
    stack[4, 4] = stack[4, 0] - stack[4, 2]
    stack[5, 0, 0] = 0
    stack[6, 1, :2] = 2 * stack[6, 0, :2]
    together = [linalg.det_fp(mat, P) for mat in stack]
    lost = []
    for mat, d in zip(stack, together):
        assert d == det_bareiss(mat.tolist()) % P
        d1, pivots, kern = linalg.pivot_kernel_fp(mat, P)
        assert d1 == d
        assert not linalg.matmul_fp(mat, kern.T, P).any()
        lost.append(min(set(range(5)) - set(pivots), default=None))
    assert [bool(d) for d in together] == [True, False, False, False, False,
                                           True, True]
    assert lost == [None, 0, 1, 2, 4, None, None]


def test_pivot_kernels_of_rectangular_matrices():
    # zero columns and repeated rows make the pivot columns differ
    rng = random.Random(5)
    stack = np.array([[[rng.randrange(P) for _ in range(7)] for _ in range(4)]
                      for _ in range(6)], dtype=np.int64)
    stack[1, :, 0] = 0
    stack[2, :, 3] = 0
    stack[3, 2] = stack[3, 0]
    stack[4, :, :2] = 0
    found = [linalg.pivot_kernel_fp(mat, P) for mat in stack]
    for mat, (d, pivots, kern) in zip(stack, found):
        assert not linalg.matmul_fp(mat, kern.T, P).any()
        if d:
            assert d == det_bareiss(mat[:, pivots].tolist()) % P
    assert [len(pivots) for _, pivots, _ in found] == [4, 4, 4, 3, 4, 4]
    assert found[1][1][0] == 1 and found[4][1][0] == 2


@pytest.mark.parametrize("density", [0.05, 0.15, 0.4])
def test_pivot_kernels_of_sparse_matrices(density):
    # most rows below a pivot have a zero factor and are left as they are;
    # determinants still match Bareiss, kernels still annihilate, and the
    # leading square blocks still have their Bareiss determinants
    rng = random.Random(int(density * 100))
    for n, extra in [(8, 0), (20, 0), (30, 5), (12, 9)]:
        stack = np.array([[[rng.randrange(1, P) if rng.random() < density
                            else 0 for _ in range(n + extra)]
                           for _ in range(n)] for _ in range(3)],
                         dtype=np.int64)
        for mat in stack:
            d, pivots, kern = linalg.pivot_kernel_fp(mat, P)
            assert not linalg.matmul_fp(mat, kern.T, P).any()
            assert d == (det_bareiss(mat[:, pivots].tolist()) % P
                         if len(pivots) == n else 0)
        squares = stack[:, :, :n]
        assert [linalg.det_fp(mat, P) for mat in squares] == \
            [det_bareiss(mat.tolist()) % P for mat in squares]


def test_pivot_kernel_of_a_rank_deficient_matrix():
    mat = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 5]], dtype=np.int64)
    d, pivots, kern = linalg.pivot_kernel_fp(mat, P)
    assert d == 0
    assert pivots == [0, 1]
    assert kern.shape == (2, 4)
    assert not linalg.matmul_fp(mat, kern.T, P).any()
    assert linalg.det_fp(mat[:, :3], P) == 0


@st.composite
def elimination_inputs(draw):
    """(p, M) at a small prime or at one near 2^26: tall, wide and square
    shapes up to 12 x 12, sparse or dense, with a run of empty columns,
    columns that are multiples of earlier ones (empty below the rows
    already eliminated) and rows that combine earlier ones."""
    p = draw(st.sampled_from([SMALL_P, P]))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    mat = np.array([[rng.randrange(1, p) if rng.random() < density else 0
                     for _ in range(ncols)] for _ in range(nrows)],
                   dtype=np.int64).reshape(nrows, ncols)
    if ncols:
        start = draw(st.integers(0, ncols - 1))
        mat[:, start:draw(st.integers(start, ncols))] = 0
    for j in draw(st.lists(st.integers(1, max(ncols - 1, 1)), max_size=3)):
        if j < ncols:
            mat[:, j] = mat[:, rng.randrange(j)] * rng.randrange(p) % p
    for i in draw(st.lists(st.integers(1, max(nrows - 1, 1)), max_size=3)):
        if i < nrows:
            mat[i] = (mat[rng.randrange(i)] * rng.randrange(p)
                      + mat[rng.randrange(i)] * rng.randrange(p)) % p
    return p, mat


_EMPTY_SHAPES = [(q, np.zeros(shape, dtype=np.int64)) for q in (SMALL_P, P)
                 for shape in [(0, 5), (4, 0), (0, 0)]]


def _with_empty_shapes(test):
    for case in _EMPTY_SHAPES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
@_with_empty_shapes
def test_rref_matches_the_column_by_column_reference(case):
    # all five values: reduced array, rank, pivots, pivot rows and d
    p, mat = case
    got = linalg._rref(mat.copy(), p)
    want = rref_fp_reference(mat.copy(), p)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
@_with_empty_shapes
def test_kernel_fp_is_the_rref_of_the_free_column_kernel(case):
    # one elimination of the column-reversed matrix gives the RREF basis
    # that a second elimination of the free-column kernel used to give
    p, mat = case
    kern = linalg.kernel_fp(mat, p)
    want = rref_fp_reference(linalg.pivot_kernel_fp(mat, p)[2], p)[0]
    assert kern.shape == want.shape == (mat.shape[1] - linalg.rank_fp(mat, p),
                                        mat.shape[1])
    assert np.array_equal(kern, want)
    red, rank, _ = linalg.rref_fp(kern, p)
    assert rank == len(kern) and np.array_equal(red, kern)
    assert not linalg.matmul_fp(mat, kern.T, p).any()


def _matches_the_reference(p, mat) -> bool:
    """All five values of ``_rref`` equal the column-by-column reference."""
    got = linalg._rref(mat.copy(), p)
    want = rref_fp_reference(mat.copy(), p)
    return np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@st.composite
def dense_elimination_inputs(draw):
    """(P, M) up to 80 x 100 at the prime just below 2^26, dense enough
    that most updates run unreduced on the whole array: a run of columns
    in the span of the columns before it (0 mod P below the rows those
    eliminate, but not 0 as stored until the array is reduced) and rows
    that combine earlier ones."""
    nrows, ncols = draw(st.integers(13, 80)), draw(st.integers(13, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.6, 1.0]))
    mat = rng.integers(1, P, (nrows, ncols)) * (
        rng.random((nrows, ncols)) < density)
    k = draw(st.integers(1, min(nrows, ncols) - 1))
    stop = draw(st.integers(k, ncols))
    mat[:, k:stop] = linalg.matmul_fp(
        mat[:, :k], rng.integers(0, P, (k, stop - k)), P)
    for i in draw(st.lists(st.integers(1, nrows - 1), max_size=4)):
        mat[i] = rng.integers(0, P, i) @ mat[:i] % P
    return P, mat


def _zero_columns_after_dense_updates():
    """Columns 10..14 in the span of columns 0..9: after ten dense updates
    they are 0 mod P below row 10 but not 0 as stored, so the jump scan
    must read them reduced to land on column 15."""
    rng = np.random.default_rng(5)
    a = rng.integers(1, P, (40, 10))
    return np.hstack([a, linalg.matmul_fp(a, rng.integers(0, P, (10, 5)), P),
                      rng.integers(1, P, (40, 25))])


def _p_minus_1(diagonal):
    full = np.full((80, 100), P - 1, dtype=np.int64)
    if diagonal is not None:
        np.fill_diagonal(full, diagonal)
    return full


@pytest.mark.parametrize("delay", [linalg._DELAY, 1],
                         ids=["delayed", "reduced-every-update"])
@settings(max_examples=25, deadline=None)
@given(dense_elimination_inputs())
@example((P, _zero_columns_after_dense_updates()))
@example((P, _p_minus_1(None)))
# 1 on the diagonal: the first update subtracts (P - 1)^2 from every entry
@example((P, _p_minus_1(1)))
def test_dense_rref_matches_the_column_by_column_reference(delay, case):
    # with the constant at 1 the periodic reduction runs after every
    # unreduced update
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_DELAY", delay)
        assert _matches_the_reference(*case)


def test_unreduced_updates_fit_int64():
    # _DELAY updates below (p - 1)^2 on a residue below p, for every
    # prime the modular code takes
    top = linalg._MAX_PRIME - 1
    assert linalg._DELAY == 1024
    assert linalg._DELAY * top ** 2 + top < 2 ** 63


charpoly_cases = st.tuples(st.sampled_from([SMALL_P, P]),
                           st.integers(0, 24)).flatmap(
    lambda pn: st.tuples(
        st.just(pn[0]),
        st.lists(st.lists(st.integers(0, pn[0] - 1), min_size=pn[1],
                          max_size=pn[1]), min_size=pn[1], max_size=pn[1]),
        st.lists(st.booleans(), min_size=pn[1], max_size=pn[1]),
        st.floats(0, 1)))


@settings(max_examples=60, deadline=None)
@given(charpoly_cases)
def test_charpoly_matches_interpolated_determinants(case):
    # det(x I - G) sampled by det_fp at n + 1 nodes and interpolated; mod 7
    # only n <= 6 has that many nodes, and larger n is checked at all 7.
    # Sparse inputs and cleared subdiagonal entries give the Hessenberg
    # reduction columns without a pivot and the recurrence zero links
    p, rows, cut, density = case
    n = len(rows)
    rng = random.Random(n)
    g = np.array([[x if rng.random() < density else 0 for x in row]
                  for row in rows], dtype=np.int64).reshape(n, n)
    for j in range(n - 1):
        if cut[j]:
            g[j + 1, j] = 0
    char = linalg.charpoly_fp(g, p)
    assert len(char) == n + 1 and char[-1] == 1
    nodes = range(min(n + 1, p))
    values = [linalg.det_fp((x * np.eye(n, dtype=np.int64) - g) % p, p)
              if n else 1 for x in nodes]
    if n < p:
        assert linalg._trim(list(char)) == \
            linalg.interpolate(list(zip(nodes, values)), n, p)
    else:
        assert [linalg.poly_eval(char, x, p) for x in nodes] == values


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        linalg.charpoly_fp([[1, 2, 3], [4, 5, 6]], P)


def _pencil_blocks(n):
    # two n x n blocks with entries up to +-P, a density for sparse
    # blocks, and a row cleared in both (or None)
    square = st.lists(st.lists(st.integers(-P, P), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return st.tuples(square, square, st.floats(0, 1),
                     st.none() | st.integers(0, n - 1))


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pencil_det_matches_bareiss_at_n_plus_2_nodes(n, data):
    # det(u a + b) of the Leibniz expansion has degree at most n and
    # equals the Bareiss determinant at n + 2 values of u; a row that is 0
    # in both blocks leaves no permutation, and the polynomial is []
    a, b, density, zero_row = data.draw(_pencil_blocks(n))
    rng = random.Random(density)
    a, b = ([[x if rng.random() < density else 0 for x in row] for row in m]
            for m in (a, b))
    if zero_row is not None:
        a[zero_row], b[zero_row] = [0] * n, [0] * n
    coeffs = linalg.pencil_det_fp(a, b, P)
    assert len(coeffs) <= n + 1 and all(0 <= c < P for c in coeffs)
    assert not coeffs or coeffs[-1]
    if zero_row is not None:
        assert coeffs == []
    for u in range(-1, n + 1):
        pencil = [[u * x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert linalg.poly_eval(coeffs, u, P) == det_bareiss(pencil) % P


def test_pencil_det_rejects_unequal_or_non_square_blocks():
    rect = [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError, match="non-square"):
        linalg.pencil_det_fp(rect, rect, P)
    with pytest.raises(ValueError, match="unequal"):
        linalg.pencil_det_fp([[1, 2], [3, 4]], [[1]], P)


def test_restrict_kernel_matches_stacked_kernel():
    """Cutting a kernel down block by block must agree with one big kernel."""
    rng = random.Random(9)
    for _ in range(6):
        a = [[rng.randrange(-5, 6) for _ in range(9)] for _ in range(3)]
        b = [[rng.randrange(-5, 6) for _ in range(9)] for _ in range(3)]
        basis = linalg.kernel_fp(a, P)
        cut = linalg.restrict_kernel(basis, np.asarray(b, dtype=np.int64) % P, P)
        direct = linalg.kernel_fp(a + b, P)
        assert cut.shape[0] == direct.shape[0]
        # same span: each direct vector reduces to zero against cut's rref
        joined = np.vstack([cut, direct]) if cut.size else direct
        assert linalg.rank_fp(joined, P) == direct.shape[0]


def test_span_perp_intersect():
    e = [[1, 0, 0, 0], [0, 1, 0, 0]]
    u = span_rows(e, P)
    assert len(u) == 2
    assert in_span(u, [0, 1, 0, 0], P)
    assert not in_span(u, [0, 0, 1, 0], P)
    # the pairing is diagonal on monomials, so a perp is a plain kernel
    perp = span_rows(linalg.kernel(u, P), P)
    assert len(perp) == 2
    assert span_rows(linalg.kernel(perp, P), P) == u


def test_span_over_q():
    u = span_rows([[1, 2], [2, 4]])
    assert u == [[1, 2]]
    assert in_span(u, [Fraction(1, 2), 1])
    assert not in_span(u, [1, 0])


def test_interpolate_round_trip():
    coeffs = [3, 0, 5, 7]  # 3 + 5u^2 + 7u^3
    nodes = [1, 2, 3, 4, 5, 6]
    samples = [(u, (3 + 5 * u * u + 7 * u ** 3) % P) for u in nodes]
    got = linalg.interpolate(samples, 3, P)
    assert got == coeffs
    # surplus consistent samples are fine; inconsistent ones are an error
    with pytest.raises(ValueError):
        bad = samples[:-1] + [(6, (samples[-1][1] + 1) % P)]
        linalg.interpolate(bad, 3, P)


def test_interpolate_duplicate_nodes():
    with pytest.raises(ValueError):
        linalg.interpolate([(1, 1), (1, 2)], 1, P)
    with pytest.raises(ValueError):
        linalg.interpolate([(1, 5), (1 + P, 7)], 1, P)


nonzero_residues = st.integers(1, P - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(nonzero_residues, min_size=1, max_size=200))
def test_batched_inverse_matches_fermat(values):
    assert linalg._inverse_fp(values, P) == [pow(x, P - 2, P) for x in values]


def test_batched_inverse_of_short_lists():
    assert linalg._inverse_fp([], P) == []
    assert linalg._inverse_fp([2], P) == [pow(2, P - 2, P)]
    # entries are taken mod p: negative ones and ones past p
    assert linalg._inverse_fp([-1, P + 2], P) == [P - 1, pow(2, P - 2, P)]


@settings(max_examples=100, deadline=None)
@given(st.lists(nonzero_residues, min_size=0, max_size=50), st.data())
def test_batched_inverse_refuses_a_zero_residue(values, data):
    zero = data.draw(st.sampled_from([0, P, -P, 3 * P]))
    k = data.draw(st.integers(0, len(values)))
    with pytest.raises(ValueError, match="a residue is 0"):
        linalg._inverse_fp(values[:k] + [zero] + values[k:], P)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 24), st.data())
def test_interpolate_recovers_any_degree_up_to_the_bound(bound, data):
    deg = data.draw(st.integers(0, bound))
    coeffs = data.draw(st.lists(st.integers(0, P - 1), min_size=deg + 1,
                                max_size=deg + 1))
    coeffs[-1] = coeffs[-1] or 1
    nodes = data.draw(st.lists(st.integers(1, P - 1), min_size=bound + 4,
                               max_size=bound + 4, unique=True))
    samples = [(u, linalg.poly_eval(coeffs, u, P)) for u in nodes]
    # three consistent surplus samples pass
    assert linalg.interpolate(samples, bound, P) == coeffs
    k = data.draw(st.integers(bound + 1, len(samples) - 1))
    u, v = samples[k]
    with pytest.raises(ValueError):
        linalg.interpolate(samples[:k] + [(u, v + 1)] + samples[k + 1:],
                           bound, P)


def test_roots_fp_with_multiplicities():
    # (u - 1)^2 (u - 3) = u^3 - 5u^2 + 7u - 3
    coeffs = [-3, 7, -5, 1]
    roots = linalg.roots_fp(coeffs, P)
    assert roots == {1: 2, 3: 1}


def test_roots_fp_no_rational_roots():
    # u^2 + 1 mod a prime with -1 a non-residue (P % 4 == 3)
    assert P % 4 == 3
    assert linalg.roots_fp([1, 0, 1], P) == {}


def test_roots_fp_scaling_invariance():
    coeffs = [-3, 7, -5, 1]
    scaled = [(c * 12345) % P for c in coeffs]
    assert linalg.roots_fp(scaled, P) == linalg.roots_fp(coeffs, P)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(0, P - 1), st.integers(1, 4), max_size=5),
       st.integers(1, P - 1))
def test_roots_fp_multiplicities_survive_a_rootless_factor(mults, a):
    # u^2 + a^2 has no root mod P, since -1 is a non-residue (P % 4 == 3)
    f = [a * a % P, 0, 1]
    for r, m in mults.items():
        for _ in range(m):
            f = linalg.poly_mul_fp(f, [P - r, 1], P)
    assert linalg.roots_fp(f, P) == mults


def test_roots_fp_needs_degree_below_p():
    with pytest.raises(ValueError):
        linalg.roots_fp([0] * 7 + [1], 7)


def test_squarefree_decomposition():
    # (u - 1)^2 (u - 3): pieces {1: u - 3, 2: u - 1}
    pieces = linalg.squarefree_decomposition_fp([-3, 7, -5, 1], P)
    assert pieces == {1: [P - 3, 1], 2: [P - 1, 1]}
    # u^10 comes back whole
    assert linalg.squarefree_decomposition_fp([0] * 10 + [1], P) == {10: [0, 1]}
    # squarefree input, non-monic scaling ignored
    assert linalg.squarefree_decomposition_fp([3, 0, 3], P) == {1: [1, 0, 1]}
    # constants decompose to nothing; zero is rejected
    assert linalg.squarefree_decomposition_fp([5], P) == {}
    with pytest.raises(ValueError):
        linalg.squarefree_decomposition_fp([0], P)


def test_squarefree_decomposition_rebuilds_input():
    rng = random.Random(6)
    for _ in range(8):
        f = [1]
        for _ in range(rng.randrange(1, 5)):
            root = rng.randrange(1, 50)
            mult = rng.randrange(1, 4)
            for _ in range(mult):
                f = linalg.poly_mul_fp(f, [P - root, 1], P)
        rebuilt = [1]
        for j, aj in linalg.squarefree_decomposition_fp(f, P).items():
            for _ in range(j):
                rebuilt = linalg.poly_mul_fp(rebuilt, aj, P)
        assert rebuilt == f


def test_seeded_rng_reproducible():
    a = linalg.seeded_rng(42, "tag")
    b = linalg.seeded_rng(42, "tag")
    c = linalg.seeded_rng(42, "other")
    seq_a = [a.randrange(10 ** 9) for _ in range(5)]
    seq_b = [b.randrange(10 ** 9) for _ in range(5)]
    seq_c = [c.randrange(10 ** 9) for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_random_prime_range():
    from apolar.poly import is_prime

    rng = linalg.seeded_rng(0, "primes")
    for _ in range(5):
        q = linalg.random_prime(rng)
        assert 2 ** 25 <= q < 2 ** 26
        assert is_prime(q)


def test_matmul_fp_budget_guard():
    big = np.zeros((1, 3000), dtype=np.int64)
    with pytest.raises(ValueError):
        linalg.matmul_fp(big, big.T, P)
