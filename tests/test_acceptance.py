"""End-to-end certification suite.

Each test is one acceptance criterion for the package: the worked
five-term cubic and its degree-10 pencil, the Grassmannian and Waring
constructions, the quadric-product vanishing law, the tangent-space
dichotomy, the Macaulay cube example, family flatness profiles, and the
fiber structure over a leading cubic.  Run with ``pytest -v`` to get one
pass/fail line per criterion.  Stated runtime ceilings are asserted with
a wall clock.
"""

from __future__ import annotations

import random
import time

from apolar import linalg
from apolar.apolarity import (
    ann_degree,
    apolar_length,
    family_length_profile,
    hilbert_function,
    translated_apolar,
)
from apolar.constructions import (
    gr26_section_cubic,
    random_cubic,
    sum_of_cubes,
    waring_sum,
)
from apolar.hilbert import (
    analyze,
    draw_primes,
    ev_product_matrix,
    pencil_profile,
    perp4_dim,
)
from apolar.poly import (
    Poly,
    coefficient_vector,
    contract,
    dp_mul,
    monomials,
    mul_s,
    parse_family_template,
    parse_poly,
    poly_from_vector,
    substitute_shift,
)
from support import (
    fiber_equivalence,
    fiber_point,
    in_span,
    le_vector,
    span_rows,
)

P1 = 67108859
P2 = 67108837

FSTAR = "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"

# The fourteen quadric operators annihilating every member of the pencil
# through the worked cubic and its distinguished cube, plus the one
# moving section (u-part, v-part).
FIXED_QUADRICS = [
    "a0^2",
    "a0*a2",
    "-a0*a3 + a2^2",
    "a0*a4 + a2*a5",
    "a0*a5",
    "a1^2",
    "a1*a2 - a4*a5",
    "a1*a3 + a4^2",
    "a1*a4",
    "a1*a5",
    "a2*a3",
    "a2*a4 - a3*a5",
    "a3^2",
    "a3*a4",
]
MOVER = ("a0*a1 - a5^2", "a3*a5")


def _fstar():
    return parse_poly(FSTAR, "P", 6)


def _cube():
    return parse_poly("x5^3", "P", 6)


def _pencil_sections():
    fixed = [(None, parse_poly(q, "S", 6)) for q in FIXED_QUADRICS]
    mover = (parse_poly(MOVER[0], "S", 6), parse_poly(MOVER[1], "S", 6))
    return fixed + [mover]


def _ann_quadrics(F, p):
    return [poly_from_vector([int(c) for c in row], "S", 6, 2)
            for row in ann_degree(F, 2, p)]


def _ann_quadrics_q(F):
    return [poly_from_vector(list(row), "S", 6, 2) for row in ann_degree(F, 2)]


def _slice_span(gens):
    return span_rows([le_vector(g, 4) for g in gens], P1)


def test_criterion_01_fixture_values():
    start = time.monotonic()
    F = _fstar()

    exact = analyze(F, field_kind="q")
    modular = analyze(F, n_primes=3, seed=21)
    assert all(q > 3 for q in modular.primes_used)
    assert len(set(modular.primes_used)) == 3

    for report in (exact, modular):
        assert report.hf == (1, 6, 6, 1)
        assert report.dim_I2 == 15
        assert report.perp_dims[4] == 6
        assert report.tangent_dim == 76
        assert report.on_E is False

    assert time.monotonic() - start < 30.0


def test_criterion_02_pencil_determinant_both_charts():
    start = time.monotonic()
    F1, F2 = _fstar(), _cube()
    charts = [(0, 0, 0, 0, 0, 3), (0, 0, 0, 1, 0, 2)]

    for p in draw_primes(3, seed=2):
        for chart in charts:
            prof = pencil_profile(F1, F2, chart, p)
            assert prof.determinant == [0] * 10 + [1]
            assert prof.total_degree == 10
            assert prof.multiplicity_at_zero == 10
            assert prof.roots == {0: 10}
            assert prof.raw_degree == prof.unit_degree + 10

    assert time.monotonic() - start < 300.0


def test_criterion_03_fixed_space_containment():
    F1, F2 = _fstar(), _cube()
    sections = _pencil_sections()
    rng = random.Random(3)

    for _ in range(20):
        u, v = rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4)
        G = F1.scale(u) + F2.scale(v)
        basis = ann_degree(G, 2)
        assert len(basis) == 15
        for a, b in sections:
            value = b.scale(v) if a is None else a.scale(u) + b.scale(v)
            assert in_span(basis, coefficient_vector(value, 2))


def test_criterion_04_grassmannian_sections():
    start = time.monotonic()
    passed = 0
    for seed in range(10):
        try:
            sample = gr26_section_cubic(seed)
        except ValueError:
            continue
        report = analyze(sample.cubic, primes=[P1, P2])
        span = span_rows([coefficient_vector(q, 2) for q in sample.quadrics],
                         P1)
        ok = (report.hf == (1, 6, 6, 1)
              and report.dim_I2 == 15
              and ann_degree(sample.cubic, 2, P1) == span
              and report.on_E is True
              and report.tangent_dim >= 85)
        passed += ok
    assert passed >= 9
    assert time.monotonic() - start < 600.0


def _member_two_primes(F):
    a, b = perp4_dim(F, P1) > 6, perp4_dim(F, P2) > 6
    assert a == b
    return a


def test_criterion_05_waring_membership():
    for seed in range(10):
        F, pts = waring_sum(9, seed)
        assert len(pts) == 9
        assert _member_two_primes(F)

    off = 0
    for seed in range(10):
        F, _ = waring_sum(10, seed)
        off += not _member_two_primes(F)
    assert off >= 9

    assert _member_two_primes(sum_of_cubes())


def test_criterion_06_quadric_products_kill_shifts():
    for seed in range(50):
        F = random_cubic(seed)
        for p in (P1, P2):
            qs = _ann_quadrics(F, p)
            M = ev_product_matrix(qs, F, p)
            shifts = [coefficient_vector(dp_mul(Poly.variable("P", 6, i), F), 4)
                      for i in range(6)]
            V = linalg.to_fp_matrix(shifts, p).T
            assert not linalg.matmul_fp(M, V, p).any()

    # exact rational witness on two of the same cubics, straight from the
    # definitions: (q_i q_j) applied to x_k (dp-times) F is the zero form
    for seed in (0, 1):
        F = random_cubic(seed)
        qs = _ann_quadrics_q(F)
        for i in range(15):
            for j in range(i, 15):
                prod = mul_s(qs[i], qs[j])
                for k in range(6):
                    shifted = dp_mul(Poly.variable("P", 6, k), F)
                    assert contract(prod, shifted).is_zero()


def test_criterion_07_tangent_dichotomy():
    for seed in range(50):
        F = random_cubic(seed)
        report = analyze(F, primes=[P1, P2])
        low = report.tangent_dim == 76
        tight = report.perp_dims[4] == 6
        assert low == tight == (not report.on_E)
        if report.on_E:
            assert report.tangent_dim >= 85


def test_criterion_08_macaulay_cubes_example():
    F = sum_of_cubes()
    assert hilbert_function(F) == (1, 6, 6, 1)

    basis = ann_degree(F, 2)
    assert len(basis) == 15
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            e = [0] * 6
            e[i] += 1
            e[j] += 1
            op = Poly.monomial("S", 6, tuple(e))
            assert contract(op, F).is_zero()
            assert in_span(basis, coefficient_vector(op, 2))

    cube_ops = [Poly.monomial("S", 6, tuple(3 if k == i else 0
                                            for k in range(6)))
                for i in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                assert contract(cube_ops[i] - cube_ops[j], F).is_zero()


def test_criterion_09_family_profiles():
    flat = parse_family_template("t*x1^2 + x1*x2", 6)
    prof = family_length_profile(flat, [0, 1, 2, 7])
    assert prof.flag == "CONSTANT"
    assert prof.lengths == {0: 4, 1: 4, 2: 4, 7: 4}

    jumping = parse_family_template("t*x1", 6)
    prof = family_length_profile(jumping, [0, 1, 5])
    assert prof.flag == "JUMP"
    assert prof.lengths == {0: 1, 1: 2, 5: 2}


def test_criterion_10_fiber_structure():
    rng = random.Random(10)
    false_hits = 0
    for seed in range(20):
        F3, Q = fiber_point(seed)
        f = F3 + Q
        assert apolar_length(f, P1) == 14

        for i in range(6):
            moved = Q + contract(Poly.variable("S", 6, i), F3)
            assert fiber_equivalence(F3, Q, moved, P1)

        stray = Poly("P", 6, {e: rng.randint(-50, 50)
                              for e in monomials(6, 2)})
        false_hits += not fiber_equivalence(F3, Q, Q + stray, P1)
    assert false_hits >= 19

    # translation never changes the length: shifting the generator set
    # back must recover the untranslated annihilator slice
    F3, Q = fiber_point(seed=0)
    f = F3 + Q
    zero = translated_apolar(f, (0,) * 6, P1)
    base = _slice_span(zero.generators)
    for trial in range(20):
        w = tuple(rng.randint(-20, 20) for _ in range(6))
        ta = translated_apolar(f, w, P1)
        assert ta.length == 14
        back = [substitute_shift(g, tuple(-c for c in w))
                for g in ta.generators]
        assert _slice_span(back) == base
