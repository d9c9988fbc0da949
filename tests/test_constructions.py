from __future__ import annotations

import random
from itertools import combinations

import pytest

from apolar.apolarity import apolar_length, hilbert_function, is_nondegenerate_cubic
from apolar.constructions import (
    _PAIRS,
    dvap_cubic,
    dvap_identification,
    gr26_section_cubic,
    pluecker_quadrics,
    random_cubic,
    random_ternary_sextic,
    sum_of_cubes,
    waring_sum,
)
from apolar.poly import (
    Poly,
    contract,
    format_poly,
    monomials,
    mul_s,
    parse_poly,
    waring_cube,
    waring_power,
)
from support import fiber_point

P = 67108859


def pluecker_pairs() -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, naming the 15 pair coordinates, in the
    order of the variables of :func:`pluecker_quadrics`."""
    return list(_PAIRS)


def test_pluecker_pairs_enumeration():
    pairs = pluecker_pairs()
    assert len(pairs) == 15
    assert pairs == list(combinations(range(6), 2))


def test_pluecker_quadrics_shape():
    qs = pluecker_quadrics()
    assert len(qs) == 15
    for q in qs:
        assert q.ring == "S"
        assert q.n == 15
        assert q.degree() == 2
        assert len(q.terms) == 3
        assert sorted(q.terms.values()) == [-1, 1, 1]


def test_pluecker_quadrics_vanish_on_decomposables():
    """The three-term relations hold on the 2 x 2 minors of any 2 x 6
    matrix, which is what makes them the Grassmannian's ideal."""
    rng = random.Random(13)
    pairs = pluecker_pairs()
    for _ in range(10):
        m = [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(2)]
        minors = {(i, j): m[0][i] * m[1][j] - m[0][j] * m[1][i]
                  for i, j in pairs}
        coords = [minors[ij] for ij in pairs]
        for q in pluecker_quadrics():
            val = 0
            for expo, c in q.terms.items():
                term = c
                for k, e in enumerate(expo):
                    term *= coords[k] ** e
                val += term
            assert val == 0


def test_gr26_section_reproducible():
    a = gr26_section_cubic(seed=3, p=P)
    b = gr26_section_cubic(seed=3, p=P)
    assert a.cubic == b.cubic
    assert a.matrix == b.matrix
    assert gr26_section_cubic(seed=4, p=P).cubic != a.cubic


def test_gr26_section_structure():
    s = gr26_section_cubic(seed=0, p=P)
    assert len(s.quadrics) == 15
    assert len(s.matrix) == 15 and len(s.matrix[0]) == 6
    assert hilbert_function(s.cubic, P) == (1, 6, 6, 1)
    for q in s.quadrics:
        res = contract(q, s.cubic)
        assert all(c % P == 0 for c in res.terms.values())


def test_gr26_section_rational_field():
    s = gr26_section_cubic(seed=1)
    assert hilbert_function(s.cubic) == (1, 6, 6, 1)
    for q in s.quadrics:
        assert contract(q, s.cubic).is_zero()


def _substituted_relations(matrix):
    # each pair coordinate replaced by the linear form of its matrix row
    lin = [Poly("S", 6, {tuple(int(k == i) for k in range(6)): c
                         for i, c in enumerate(row)}) for row in matrix]
    out = []
    for q in pluecker_quadrics():
        total = Poly.zero("S", 6)
        for expo, c in q.terms.items():
            term = Poly.monomial("S", 6, (0,) * 6, c)
            for k, e in enumerate(expo):
                for _ in range(e):
                    term = mul_s(term, lin[k])
            total = total + term
        out.append(total)
    return out


@pytest.mark.parametrize("seed, p", [(1, None), (0, P)])
def test_gr26_quadrics_are_the_substituted_relations(seed, p):
    s = gr26_section_cubic(seed=seed, p=p)
    assert s.quadrics == _substituted_relations(s.matrix)
    assert {type(c) for q in s.quadrics for c in q.terms.values()} == {int}


def test_waring_sum_structure():
    F, pts = waring_sum(9, seed=2, p=P)
    assert len(pts) == 9
    total = Poly.zero("P", 6)
    for c in pts:
        total = total + waring_cube(c)
    assert total == F
    assert hilbert_function(F, P) == (1, 6, 6, 1)


def test_waring_sum_needs_points():
    with pytest.raises(ValueError):
        waring_sum(0, seed=0, p=P)


def test_sum_of_cubes():
    F = sum_of_cubes()
    assert format_poly(F) == "x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
    assert is_nondegenerate_cubic(F, P)


def test_dvap_identification_is_quadric_monomial_list():
    ident = dvap_identification()
    assert len(ident) == 6
    assert tuple(ident) == monomials(3, 2)


def test_dvap_cubic_on_powers_of_linear_forms():
    """dp sixth powers must land on dp cubes of the quadric Veronese point."""
    rng = random.Random(4)
    for _ in range(8):
        a = [rng.randrange(-9, 10) for _ in range(3)]
        if not any(a):
            continue
        G = waring_power(a, 6)
        v = (a[0] * a[0], a[0] * a[1], a[0] * a[2],
             a[1] * a[1], a[1] * a[2], a[2] * a[2])
        assert dvap_cubic(G) == waring_cube(v)


def test_dvap_cubic_rejects_bad_input():
    with pytest.raises(ValueError):
        dvap_cubic(parse_poly("x0^3", "P", 6))
    with pytest.raises(ValueError):
        dvap_cubic(parse_poly("x0^2", "P", 3))
    with pytest.raises(ValueError):
        dvap_cubic(Poly.zero("P", 3))


def test_random_ternary_sextic_shape():
    G = random_ternary_sextic(seed=1, p=P)
    assert G.n == 3 and G.degree() == 6 and G.is_homogeneous()
    assert G == random_ternary_sextic(seed=1, p=P)


def test_random_cubic_nondegenerate_and_reproducible():
    F = random_cubic(seed=5, p=P)
    assert F == random_cubic(seed=5, p=P)
    assert is_nondegenerate_cubic(F, P)
    assert hilbert_function(F, P) == (1, 6, 6, 1)


def test_fiber_point_shape():
    F3, Q = fiber_point(seed=6, p=P)
    assert F3.degree() == 3 and Q.degree() == 2
    assert is_nondegenerate_cubic(F3, P)
    assert apolar_length(F3 + Q, P) == 14
    again = fiber_point(seed=6, p=P)
    assert (F3, Q) == again
