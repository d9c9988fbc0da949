from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from apolar import linalg
from apolar.apolarity import (
    _contraction_matrix,
    _products,
    ann_degree,
    apolar_length,
    catalecticant,
    dual_socle_generator,
    family_length_profile,
    hilbert_function,
    is_nondegenerate_cubic,
    shift_table,
    translated_apolar,
)
from apolar.constructions import random_cubic, sum_of_cubes
from fraction_reference import kernel_reference
from apolar.poly import (
    Poly,
    coefficient_vector,
    contract,
    dim_degree,
    monomial_index,
    monomials,
    mul_s,
    parse_family_template,
    parse_poly,
    poly_from_vector,
    substitute_shift,
)
from support import fiber_point, graded_parts, le_vector, span_rows

P = 67108859

# the five-term cubic all the worked numbers in this suite come from
FIXTURE = "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"


def _fixture():
    return parse_poly(FIXTURE, "P", 6)


def test_shift_table_indexes_products():
    table = shift_table(6, 2, 1)
    idx2 = monomials(6, 2)
    idx1 = monomials(6, 1)
    lookup = monomial_index(6, 3)
    for i, e2 in enumerate(idx2):
        for j, e1 in enumerate(idx1):
            prod = tuple(a + b for a, b in zip(e2, e1))
            assert table[i, j] == lookup[prod]


def _draw(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return rng.randrange(P)


def _coefficients(forms, degree, kind):
    vecs = [coefficient_vector(f, degree) for f in forms]
    if kind == "mod":
        return linalg.to_fp_matrix(vecs, P)
    return np.array(vecs, dtype=object)


@pytest.mark.parametrize("kind", ["int", "fraction", "mod"])
@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (2, 2), (2, 5)])
def test_products_match_mul_s(a, b, kind):
    # (2, 5) runs with y = None, the monomial basis of S_5
    rng = random.Random(10 * a + b)

    def forms(count, degree):
        return [Poly("S", 6, {e: _draw(rng, kind) for e in monomials(6, degree)
                              if rng.random() < 0.6}) for _ in range(count)]

    xs = forms(3, a)
    if b == 5:
        ys, y = [Poly.monomial("S", 6, e) for e in monomials(6, b)], None
    else:
        ys = forms(4, b)
        y = _coefficients(ys, b, kind)
    out = _products(_coefficients(xs, a, kind), y, a, b, 6)
    assert out.shape == (len(xs), len(ys), dim_degree(6, a + b))
    for i, xf in enumerate(xs):
        for j, yf in enumerate(ys):
            want = coefficient_vector(mul_s(xf, yf), a + b)
            if kind == "mod":
                assert (out[i, j] % P).tolist() == [c % P for c in want]
            else:
                assert out[i, j].tolist() == want
    if kind == "int":
        assert {type(c) for c in out.ravel()} == {int}


@pytest.mark.parametrize("p", [None, P])
@pytest.mark.parametrize("max_op_degree", [3, 4])
def test_contraction_matrix_rows_are_contractions(max_op_degree, p):
    F3, Q = fiber_point(seed=1)
    f = F3 + Q
    ops = [e for r in range(max_op_degree + 1) for e in monomials(6, r)]
    want = [le_vector(contract(Poly.monomial("S", 6, e), f), 3)
            for e in ops]
    mat = _contraction_matrix(f, max_op_degree, p)
    assert mat.shape == (len(ops), 84)
    if p is None:
        assert mat.tolist() == want
    else:
        assert mat.tolist() == linalg.to_fp_matrix(want, p).tolist()


def test_catalecticant_rank_of_a_cube():
    F = parse_poly("x5^3", "P", 6)
    for r in (1, 2):
        cat = catalecticant(F, r, P)
        assert linalg.rank_fp(cat, P) == 1
    assert hilbert_function(F, P) == (1, 1, 1, 1)


def test_catalecticant_bad_degree_index():
    F = _fixture()
    with pytest.raises(ValueError):
        catalecticant(F, 5, P)
    with pytest.raises(ValueError):
        catalecticant(F, -1, P)


def test_hilbert_function_fixture():
    F = _fixture()
    assert hilbert_function(F, P) == (1, 6, 6, 1)
    assert hilbert_function(F) == (1, 6, 6, 1)  # exact rational agreement
    hf = hilbert_function(F, P)
    assert len(hf) - 1 == 3  # the socle degree
    # a plain tuple: comparing with anything else is just unequal
    assert hf != None and hf != 5  # noqa: E711


def test_hilbert_function_sum_of_cubes():
    assert hilbert_function(sum_of_cubes(), P) == (1, 6, 6, 1)


def test_hilbert_function_is_symmetric_for_random_cubics():
    for seed in range(5):
        F = random_cubic(seed=seed, p=P)
        hf = tuple(hilbert_function(F, P))
        assert hf == hf[::-1]


def test_ann_degree_dimensions():
    F = _fixture()
    assert len(ann_degree(F, 2, P)) == 15
    assert len(ann_degree(F, 3, P)) == 55
    # past the socle the annihilator is everything: the identity rows
    assert ann_degree(F, 4, P) == np.eye(126, dtype=int).tolist()
    assert len(ann_degree(F, 2)) == 15
    # the rows are canonical: their own RREF, in both fields
    for p in (P, None):
        rows = ann_degree(F, 2, p)
        assert span_rows(rows, p) == rows


def test_ann_degree_rows_annihilate():
    F = _fixture()
    for row in ann_degree(F, 2, P):
        q = poly_from_vector([int(c) for c in row], "S", 6, 2)
        res = contract(q, F)
        assert all(c % P == 0 for c in res.terms.values())


def test_apolar_length_values():
    assert apolar_length(_fixture(), P) == 14
    assert apolar_length(parse_poly("x5^3", "P", 6), P) == 4
    assert apolar_length(Poly.zero("P", 6)) == 0
    # a zero fiber still carries the structure constant: scheme length 1
    zero_fiber = family_length_profile(parse_family_template("t*x1", 6), [0])
    assert zero_fiber.lengths == {0: 1}


def test_apolar_length_rejects_high_degree():
    with pytest.raises(ValueError):
        apolar_length(Poly.monomial("P", 6, (4, 0, 0, 0, 0, 0)))


def test_translated_apolar_rejects_high_degree():
    with pytest.raises(ValueError, match="degree <= 3"):
        translated_apolar(Poly.monomial("P", 6, (4, 0, 0, 0, 0, 0)), (0,) * 6)


def test_is_nondegenerate_cubic():
    assert is_nondegenerate_cubic(_fixture(), P)
    assert not is_nondegenerate_cubic(parse_poly("x5^3", "P", 6), P)
    assert not is_nondegenerate_cubic(parse_poly("x0*x1*x2", "P", 6), P)
    assert not is_nondegenerate_cubic(Poly.zero("P", 6), P)


def test_dual_socle_generator_inverts_annihilator():
    """Recover the cubic from its 15 quadric annihilators, both fields."""
    F = _fixture()
    for p in (P, None):
        qs = [poly_from_vector(list(row), "S", 6, 2)
              for row in ann_degree(F, 2, p)]
        G = dual_socle_generator(qs, p)
        # unique up to scalar; both are normalized forms of the same line
        catF = coefficient_vector(F, 3)
        catG = coefficient_vector(G, 3)
        assert len(span_rows([catF, catG], p)) == 1


def test_dual_socle_generator_degenerate_input():
    qs = [Poly.monomial("S", 6, e) for e in monomials(6, 2)]
    with pytest.raises(ValueError, match="dimension"):
        dual_socle_generator(qs[:3], P)
    # empty, mixed or non-S input: the variable count comes from the
    # quadrics, so every one of them must be an S-ring quadric in it
    for bad in ([], qs[:14] + [Poly.monomial("S", 5, (2, 0, 0, 0, 0))],
                qs[:14] + [Poly.monomial("P", 6, (2, 0, 0, 0, 0, 0))],
                qs[:14] + [Poly.monomial("S", 6, (3, 0, 0, 0, 0, 0))]):
        with pytest.raises(ValueError, match="expects S-ring quadrics"):
            dual_socle_generator(bad, P)


def test_translated_apolar_length_invariant():
    rng = random.Random(12)
    F3, Q = fiber_point(seed=2, p=P)
    f = F3 + Q
    base = apolar_length(f, P)
    for _ in range(4):
        w = tuple(rng.randrange(P) for _ in range(6))
        ta = translated_apolar(f, w, P)
        assert ta.length == base
        assert ta.support == w


@pytest.mark.parametrize("p", [P, None])
def test_translated_apolar_length_is_apolar_length(p):
    # a point of the fiber over the fixture: same leading cubic, small
    # lower-degree tail (so the rational elimination stays quick)
    tail = parse_poly("x0^2 - 2*x1*x4 + x5^2 + 3*x2", "P", 6)
    for f in (_fixture(), _fixture() + tail, Poly.zero("P", 6)):
        ta = translated_apolar(f, (1, 0, 2, 0, 0, 3), p)
        assert ta.length == apolar_length(f, p)


def _slice_span(gens):
    # span mod P of operators of degree <= 4; Fractions reduce mod P
    return span_rows([le_vector(g, 4) for g in gens], P)


def test_translated_apolar_round_trip():
    """Shifting generators back by -w recovers the original slice span."""
    F3, Q = fiber_point(seed=5, p=P)
    f = F3 + Q
    w = (3, 1, 4, 1, 5, 9)
    ta = translated_apolar(f, w, P)
    zero = translated_apolar(f, (0,) * 6, P)
    back = [substitute_shift(g, tuple(-c for c in w)) for g in ta.generators]
    assert _slice_span(back) == _slice_span(zero.generators)


def test_translated_apolar_over_q_reduces_to_mod_p():
    F3, Q = fiber_point(seed=2)
    f = F3 + Q
    w = (1, 0, 2, 0, 0, 3)
    exact, modular = translated_apolar(f, w), translated_apolar(f, w, P)
    assert exact.length == modular.length == 14
    assert len(exact.generators) == len(modular.generators)
    assert _slice_span(exact.generators) == _slice_span(modular.generators)


def _shifted_operators(rows, w):
    # kernel rows in the contraction matrix's operator coordinates
    # (degrees 0..4), shifted to w as translated_apolar shifts them
    ops = [e for r in range(5) for e in monomials(6, r)]
    return [substitute_shift(Poly("S", 6, {e: c for e, c in zip(ops, row)
                                           if c}), w) for row in rows]


def test_translated_apolar_over_q_keeps_its_generator_list():
    # the generators are the RREF basis of the left kernel: the p-adic
    # solver must give exactly the basis that Fraction Gauss-Jordan
    # elimination gives
    F3, Q = fiber_point(seed=2)
    f, w = F3 + Q, (1, 0, 2, 0, 0, 3)
    solved = translated_apolar(f, w)
    reference = kernel_reference(_contraction_matrix(f, 4).T)
    assert solved.generators == _shifted_operators(reference, w)
    assert solved.length == 210 - len(reference) == 14


def test_translated_apolar_generators_mod_p_are_the_rref_kernel():
    F3, Q = fiber_point(seed=2, p=P)
    f, w = F3 + Q, (1, 0, 2, 0, 0, 3)
    kern = linalg.kernel_fp(_contraction_matrix(f, 4, P).T, P).tolist()
    ta = translated_apolar(f, w, P)
    assert ta.generators == _shifted_operators(kern, w)
    assert ta.length == 210 - len(kern) == 14


def test_translated_apolar_generators_kill_translated_data():
    # at w = 0 the generators are plain annihilators of f
    F3, Q = fiber_point(seed=7, p=P)
    f = F3 + Q
    ta = translated_apolar(f, (0,) * 6, P)
    for g in ta.generators[:25]:
        res = contract(g, f)
        assert all(c % P == 0 for c in res.terms.values())


def test_family_length_profile_constant():
    tmpl = parse_family_template("t*x1^2 + x1*x2", 6)
    prof = family_length_profile(tmpl, [0, 1, 2, 3, 4], P)
    assert prof.flag == "CONSTANT"
    assert set(prof.lengths.values()) == {4}


def test_family_length_profile_jump():
    tmpl = parse_family_template("t*x1", 6)
    prof = family_length_profile(tmpl, [0, 1, 2, 3], P)
    assert prof.flag == "JUMP"
    assert prof.lengths[0] == 1
    assert all(prof.lengths[t] == 2 for t in (1, 2, 3))


def test_family_length_profile_constant_template():
    tmpl = parse_family_template("x1*x2 + x3", 6)
    prof = family_length_profile(tmpl, [0, 5], P)
    assert prof.flag == "CONSTANT"


def leading_form_check(f: Poly, p: int | None = None) -> bool:
    """Length 14 must co-occur with a nondegenerate top form: returns
    (apolar_length(f) == 14) == is_nondegenerate_cubic(top form), which
    holds for every degree-3 input."""
    parts = graded_parts(f)
    top = parts[-1] if parts else Poly.zero("P", f.n)
    top_ok = (not top.is_zero()) and top.degree() == 3 and \
        is_nondegenerate_cubic(top, p)
    return (apolar_length(f, p) == 14) == top_ok


def test_leading_form_check_random_inputs():
    for seed in range(6):
        F = random_cubic(seed=seed, p=P)
        assert leading_form_check(F, P)
    F3, Q = fiber_point(seed=1, p=P)
    assert leading_form_check(F3 + Q, P)
