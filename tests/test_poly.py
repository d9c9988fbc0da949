from __future__ import annotations

import random
from fractions import Fraction

import pytest

from apolar.linalg import rref_q
from apolar.poly import (
    Poly,
    coefficient_vector,
    contract,
    dim_degree,
    dp_mul,
    format_poly,
    is_prime,
    monomial_index,
    monomials,
    mul_s,
    parse_family_template,
    parse_poly,
    poly_from_vector,
    specialize_parameter,
    substitute_shift,
    waring_cube,
    waring_power,
)
from support import change_of_basis, graded_parts


def _x(i, n=6):
    return Poly.variable("P", n, i)


def _a(i, n=6):
    return Poly.variable("S", n, i)


def test_monomial_counts():
    assert len(monomials(6, 2)) == 21
    assert len(monomials(6, 3)) == 56
    assert len(monomials(6, 4)) == 126
    assert dim_degree(6, 3) == 56
    assert dim_degree(3, 6) == 28
    idx = monomial_index(6, 3)
    for k, e in enumerate(monomials(6, 3)):
        assert idx[e] == k


def test_parse_format_round_trip():
    texts = [
        "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2",
        "x0^3",
        "2*x1^2*x2 - 7*x5^3",
        "1/2*x0^2*x1 - 3/4*x3^3",
    ]
    for t in texts:
        f = parse_poly(t, "P", 6)
        again = parse_poly(format_poly(f), "P", 6)
        assert f == again


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("x0 +* x1", "P", 6)
    with pytest.raises(ValueError):
        parse_poly("x9^3", "P", 6)
    with pytest.raises(ValueError):
        parse_poly("y0^2", "P", 6)
    with pytest.raises(ValueError):
        parse_poly("x0^2", "Q", 6)


def test_parse_rejects_dangling_sign():
    for text in ("x0^3+", "x0^3 -", "-"):
        with pytest.raises(ValueError, match="dangling sign"):
            parse_poly(text, "P", 6)
    with pytest.raises(ValueError, match="empty term"):
        parse_poly("x0^3*", "P", 6)
    assert parse_poly("- x0^3", "P", 6) == parse_poly("-x0^3", "P", 6)


def test_parse_positions_in_errors():
    try:
        parse_poly("x0 + ??", "P", 6)
    except ValueError as exc:
        assert "position" in str(exc)
    else:
        raise AssertionError("expected a syntax error")


def test_contract_monomials():
    # a^e ∘ x^b = x^(b-e) when divisible, else 0; no factorials anywhere
    f = parse_poly("x0^3", "P", 6)
    assert contract(_a(0), f) == parse_poly("x0^2", "P", 6)
    assert contract(mul_s(_a(0), _a(0)), f) == parse_poly("x0", "P", 6)
    assert contract(_a(1), f).is_zero()
    g = parse_poly("x0*x1", "P", 6)
    one = contract(mul_s(_a(0), _a(1)), g)
    assert one.terms == {(0,) * 6: 1}
    # the a0 and a1 images of the two terms cancel on x1
    cancel = contract(_a(0) - _a(1), parse_poly("x0*x1 + x1^2", "P", 6))
    assert cancel.terms == {(1, 0, 0, 0, 0, 0): -1}


def test_contract_ring_mismatch():
    with pytest.raises(ValueError):
        contract(_x(0), _x(1))
    with pytest.raises(ValueError):
        contract(_a(0, 3), _x(0, 6))


def test_dp_mul_binomial_weights():
    sq = dp_mul(_x(0), _x(0))
    assert sq.terms == {(2, 0, 0, 0, 0, 0): 2}
    cube = dp_mul(sq, _x(0))
    assert cube.terms == {(3, 0, 0, 0, 0, 0): 6}
    mixed = dp_mul(_x(0), _x(1))
    assert mixed.terms == {(1, 1, 0, 0, 0, 0): 1}
    diff = dp_mul(_x(0) + _x(1), _x(0) - _x(1))
    assert diff.terms == {(2, 0, 0, 0, 0, 0): 2, (0, 2, 0, 0, 0, 0): -2}


def test_contract_is_derivation_for_dp():
    """Linear operators satisfy Leibniz for the divided-power product."""
    rng = random.Random(11)
    for _ in range(8):
        f = _random_poly(rng, 2)
        g = _random_poly(rng, 3)
        for i in range(6):
            lhs = contract(_a(i), dp_mul(f, g))
            rhs = dp_mul(contract(_a(i), f), g) + dp_mul(f, contract(_a(i), g))
            assert lhs == rhs


def _random_poly(rng, degree, n=6):
    terms = {}
    for e in monomials(n, degree):
        if rng.random() < 0.3:
            terms[e] = rng.randrange(-5, 6)
    terms[monomials(n, degree)[0]] = 1
    return Poly("P", n, terms)


def test_waring_power_contraction():
    # sigma ∘ c^(d) = sigma(c) * c^(d-r), the whole point of dp powers
    rng = random.Random(5)
    for _ in range(6):
        c = [rng.randrange(-4, 5) for _ in range(6)]
        if not any(c):
            c[0] = 1
        F = waring_power(c, 3)
        for i in range(6):
            got = contract(_a(i), F)
            want = waring_power(c, 2).scale(c[i]) if c[i] else got
            if c[i]:
                assert got == want
            else:
                assert got.is_zero() or got == waring_power(c, 2).scale(0)


def test_waring_cube_is_degree_three_power():
    assert waring_cube([1, 0, 0, 0, 0, 0]).terms == {(3, 0, 0, 0, 0, 0): 1}
    F = waring_cube([1, 1, 0, 0, 0, 0])
    assert F.coeff((3, 0, 0, 0, 0, 0)) == 1
    assert F.coeff((2, 1, 0, 0, 0, 0)) == 1
    assert F.coeff((1, 2, 0, 0, 0, 0)) == 1


def test_waring_power_zero_vector():
    with pytest.raises(ValueError):
        waring_power([0, 0, 0], 3)


def test_mul_s_is_plain_multiplication():
    q = mul_s(_a(0) + _a(1), _a(0) - _a(1))
    assert q == parse_poly("a0^2 - a1^2", "S", 6)


def test_substitute_shift_round_trip():
    rng = random.Random(3)
    sigma = parse_poly("a0^2*a1 - 2*a3*a4^2 + a5^3", "S", 6)
    for _ in range(5):
        w = [rng.randrange(-3, 4) for _ in range(6)]
        shifted = substitute_shift(sigma, w)
        back = substitute_shift(shifted, [-wi for wi in w])
        assert back == sigma
    assert substitute_shift(sigma, [0] * 6) == sigma
    # (a0 - 1)^2 + 2 (a0 - 1): the linear terms of the two images cancel
    cancel = substitute_shift(parse_poly("a0^2 + 2*a0", "S", 6),
                              [-1, 0, 0, 0, 0, 0])
    assert cancel.terms == {(2, 0, 0, 0, 0, 0): 1, (0,) * 6: -1}


def test_specialize_parameter():
    tmpl = parse_family_template("t*x1^2 + x1*x2", 6)
    assert tmpl.n == 7
    at0 = specialize_parameter(tmpl, 0)
    assert at0 == parse_poly("x1*x2", "P", 6)
    at2 = specialize_parameter(tmpl, 2)
    assert at2 == parse_poly("2*x1^2 + x1*x2", "P", 6)


def test_change_of_basis_identity_and_composition():
    F = parse_poly("x0*x1*x3 - x0*x4^2 + x1*x2^2", "P", 6)
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    assert change_of_basis(F, eye) == F
    g = [[int(i == (j + 1) % 6) for j in range(6)] for i in range(6)]
    twice = change_of_basis(change_of_basis(F, g), g)
    gg = [[sum(g[i][k] * g[k][j] for k in range(6)) for j in range(6)]
          for i in range(6)]
    assert twice == change_of_basis(F, gg)


def test_change_of_basis_rejects_singular():
    F = parse_poly("x0^3", "P", 6)
    zero = [[0] * 6 for _ in range(6)]
    with pytest.raises(ValueError):
        change_of_basis(F, zero)


def test_change_of_basis_rational_matrices():
    F = parse_poly("x0*x1*x3 - x0*x4^2 + 1/3*x1*x2^2 + x5^3", "P", 6)
    rng = random.Random(4)
    g = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(6)]
         for _ in range(6)]
    singular = [row[:] for row in g]
    singular[5] = [Fraction(1, 2) * a - Fraction(2, 3) * b
                   for a, b in zip(g[0], g[1])]
    with pytest.raises(ValueError):
        change_of_basis(F, singular)
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    red, rank, _ = rref_q([row + e for row, e in zip(g, eye)])
    assert rank == 6 and [row[:6] for row in red] == eye
    g_inv = [row[6:] for row in red]
    assert change_of_basis(change_of_basis(F, g_inv), g) == F
    assert change_of_basis(change_of_basis(F, g), g_inv) == F


def test_coefficient_vector_round_trip():
    F = parse_poly("x0*x1*x3 - x0*x4^2 + 5*x3*x5^2", "P", 6)
    vec = coefficient_vector(F, 3)
    assert len(vec) == 56
    assert poly_from_vector(vec, "P", 6, 3) == F


def test_graded_parts():
    f = parse_poly("x0^3 + x1*x2 - 4*x5 + 7", "P", 6)
    parts = graded_parts(f)
    assert [p.degree() for p in parts if not p.is_zero()] == [0, 1, 2, 3]
    total = Poly.zero("P", 6)
    for p in parts:
        total = total + p
    assert total == f


def test_poly_equality_ignores_zero_terms():
    f = Poly("P", 6, {(3, 0, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0, 0): 0})
    g = Poly("P", 6, {(3, 0, 0, 0, 0, 0): 1})
    assert f == g
    assert f.coeff((0, 3, 0, 0, 0, 0)) == 0


def test_scale_and_neg():
    f = parse_poly("x0^2*x1 - x2^3", "P", 6)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert (-f) + f == Poly.zero("P", 6)


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 67108859]
    fails = [0, 1, 4, 9, 561, 67108861]
    assert all(is_prime(q) for q in primes)
    assert not any(is_prime(q) for q in fails)
