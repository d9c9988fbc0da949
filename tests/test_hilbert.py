from __future__ import annotations

import random

import pytest

from apolar import hilbert, linalg
from apolar.apolarity import ann_degree
from apolar.constructions import (
    fiber_point,
    gr26_section_cubic,
    random_cubic,
    sum_of_cubes,
    waring_sum,
)
from apolar.hilbert import (
    VERDICT_BOUNDARY,
    VERDICT_DEGENERATE,
    VERDICT_NONSMOOTHABLE,
    analyze,
    draw_primes,
    ev_product_matrix,
    fiber_equivalence,
    member_E,
    pencil_family,
    pencil_profile,
    pencil_report,
    perp4_dim,
    perp_dimensions,
    square_ideal_degree,
    square_perp_basis,
    tangent_dimension,
)
from apolar.poly import (
    Poly,
    contract,
    parse_poly,
    poly_from_vector,
)

P = 67108859

FIXTURE = "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"


def _fixture():
    return parse_poly(FIXTURE, "P", 6)


def _cube():
    return parse_poly("x5^3", "P", 6)


def test_draw_primes():
    ps = draw_primes(4, seed=3)
    assert len(set(ps)) == 4
    assert ps == draw_primes(4, seed=3)
    assert all(q > 3 for q in ps)
    assert ps != draw_primes(4, seed=4)


def test_square_perp_dims_fixture_mod_p():
    F = _fixture()
    assert square_perp_basis(F, 4, P).dim == 6
    assert square_perp_basis(F, 5, P).dim == 0
    assert square_perp_basis(F, 6, P).dim == 0
    assert square_perp_basis(F, 7, P).dim == 0


def test_square_perp_dims_fixture_rational():
    F = _fixture()
    assert perp_dimensions(F) == {4: 6, 5: 0, 6: 0, 7: 0}


def test_square_ideal_degree_complements_perp():
    F = _fixture()
    sq = square_ideal_degree(F, 4, P)
    assert sq.dim == 120
    pp = square_perp_basis(F, 4, P)
    # same rref rows; the perp presents its vectors on the P side
    assert [list(map(int, r)) for r in linalg.perp(sq).rows] == \
        [list(map(int, r)) for r in pp.rows]


def test_perp4_contains_witness_vectors():
    """x_i ⊛ F always pair to zero against (I^2)_4, so perp4 >= 6."""
    from apolar.poly import dp_mul

    for seed in (0, 3):
        F = random_cubic(seed=seed, p=P)
        basis = square_perp_basis(F, 4, P)
        assert basis.dim >= 6
        for i in range(6):
            w = dp_mul(Poly.variable("P", 6, i), F)
            from apolar.poly import coefficient_vector
            assert basis.contains(
                [c % P for c in coefficient_vector(w, 4)])


def test_tangent_dimension_values():
    assert tangent_dimension(_fixture(), P) == 76
    assert tangent_dimension(sum_of_cubes(), P) == 112
    assert tangent_dimension(_fixture()) == 76


def test_tangent_dimension_rejects_cones():
    with pytest.raises(ValueError):
        tangent_dimension(_cube(), P)


def test_member_E():
    assert not member_E(_fixture(), P)
    assert member_E(sum_of_cubes(), P)
    assert perp4_dim(_fixture(), P) == 6
    assert perp4_dim(sum_of_cubes(), P) == 36


def test_ev_product_matrix_fixture_rank():
    F = _fixture()
    A = ann_degree(F, 2, P)
    qs = [poly_from_vector([int(c) for c in r], "S", 6, 2) for r in A.rows]
    M = ev_product_matrix(qs, F, P)
    assert M.shape == (120, 126)
    assert linalg.rank_fp(M, P) == 120  # not on the divisor: full rank


def test_ev_product_matrix_divisor_member_drops_rank():
    s = gr26_section_cubic(seed=1)
    M = ev_product_matrix(s.quadrics, F=s.cubic, p=P)
    assert linalg.rank_fp(M, P) == 111  # 126 - 15
    rows = ev_product_matrix(s.quadrics, s.cubic)  # exact rational path
    assert linalg.rank_q(rows) == 111


def test_ev_product_matrix_rejects_non_annihilators():
    F = _fixture()
    qs = [Poly.monomial("S", 6, e) for e in
          __import__("apolar.poly", fromlist=["monomials"]).monomials(6, 2)[:15]]
    with pytest.raises(ValueError):
        ev_product_matrix(qs, F, P)
    with pytest.raises(ValueError):
        ev_product_matrix(qs[:4], F, P)


def test_analyze_fixture_report():
    rep = analyze(_fixture(), n_primes=3, seed=1)
    assert rep.hf == (1, 6, 6, 1)
    assert rep.dim_I2 == 15
    assert rep.perp_dims == {4: 6, 5: 0, 6: 0, 7: 0}
    assert rep.tangent_dim == 76
    assert rep.on_E is False
    assert rep.verdict == VERDICT_NONSMOOTHABLE
    assert len(rep.primes_used) == 3
    d = rep.to_json_dict()
    assert d["schema"] == "apolar-report/1"
    assert d["hf"] == [1, 6, 6, 1]
    assert d["verdict"] == VERDICT_NONSMOOTHABLE


def test_analyze_rational_path():
    rep = analyze(_fixture(), field_kind="q")
    assert rep.tangent_dim == 76
    assert rep.field_kind == "q"
    assert rep.primes_used == []


def test_analyze_degenerate_and_boundary():
    rep = analyze(_cube(), n_primes=2, seed=0)
    assert rep.verdict == VERDICT_DEGENERATE
    assert rep.tangent_dim is None
    rep2 = analyze(sum_of_cubes(), n_primes=2, seed=0)
    assert rep2.verdict == VERDICT_BOUNDARY
    assert rep2.on_E is True


def test_analyze_deterministic():
    a = analyze(_fixture(), n_primes=2, seed=9)
    b = analyze(_fixture(), n_primes=2, seed=9)
    assert a == b


def test_analyze_rejects_non_cubics():
    with pytest.raises(ValueError):
        analyze(Poly.zero("P", 6))
    with pytest.raises(ValueError):
        analyze(parse_poly("x0^2", "P", 6))
    with pytest.raises(ValueError):
        analyze(_fixture(), field_kind="float")


def test_analyze_rejects_empty_prime_list():
    with pytest.raises(ValueError):
        analyze(_fixture(), primes=[])
    with pytest.raises(ValueError):
        analyze(_fixture(), n_primes=0)


def test_fiber_equivalence_reflexive_and_shifted():
    F3, Q = fiber_point(seed=4, p=P)
    assert fiber_equivalence(F3, Q, Q, P)
    for i in range(6):
        sh = Q + contract(Poly.variable("S", 6, i), F3)
        assert fiber_equivalence(F3, Q, sh, P)


def test_fiber_equivalence_detects_difference():
    rng = random.Random(8)
    F3, Q = fiber_point(seed=4, p=P)
    other = poly_from_vector([rng.randrange(P) for _ in range(21)], "P", 6, 2)
    assert not fiber_equivalence(F3, Q, Q + other, P)


# ---------------------------------------------------------------------------
# pencil machinery


def test_pencil_family_fixture_counts():
    F, G = _fixture(), _cube()
    fam = pencil_family(F, G, P)
    assert len(fam) == 15
    constants = [s for s in fam if s[0] is None or s[0].is_zero()]
    movers = [s for s in fam if not (s[0] is None or s[0].is_zero())]
    assert len(constants) == 14
    assert len(movers) == 1


def test_pencil_family_sections_annihilate_everywhere():
    F, G = _fixture(), _cube()
    fam = pencil_family(F, G, P)
    zero = Poly.zero("S", 6)
    for a, b in fam:
        a = a or zero
        b = b or zero
        for piece in (contract(a, F), contract(b, G),
                      contract(a, G) + contract(b, F)):
            assert all(c % P == 0 for c in piece.terms.values())


def test_pencil_profile_primary_chart():
    prof = pencil_profile(_fixture(), _cube(), (0, 0, 0, 0, 0, 3), p=P, seed=2)
    assert prof.total_degree == 10
    assert prof.multiplicity_at_zero == 10
    assert prof.roots == {0: 10}
    assert prof.unit_degree == 0
    assert prof.raw_degree == 10
    # monic, ascending: u^10 exactly
    assert prof.determinant == [0] * 10 + [1]


def test_pencil_profile_secondary_chart():
    prof = pencil_profile(_fixture(), _cube(), (0, 0, 0, 1, 0, 2), p=P, seed=2)
    assert prof.total_degree == 10
    assert prof.roots == {0: 10}
    assert prof.unit_degree == 6
    assert prof.determinant == [0] * 10 + [1]


def test_pencil_profile_unusable_chart():
    # x0^3 pairs degenerately with this pencil near u = 0
    with pytest.raises(ValueError):
        pencil_profile(_fixture(), _cube(), (3, 0, 0, 0, 0, 0), p=P, seed=2)


def test_pencil_profile_chart_as_poly():
    prof = pencil_profile(_fixture(), _cube(), parse_poly("x5^3", "P", 6),
                          p=P, seed=0)
    assert prof.chart == (0, 0, 0, 0, 0, 3)
    assert prof.summary() == (10, 10, (10,))


def test_pencil_report_cross_prime():
    out = pencil_report(_fixture(), _cube(), chart_cubic=(0, 0, 0, 0, 0, 3),
                        n_primes=3, seed=6)
    assert out["total_degree"] == 10
    assert out["multiplicity_at_zero"] == 10
    assert len(out["primes"]) == 3
    for roots in out["roots_by_prime"].values():
        assert roots == {0: 10}


def test_pencil_report_rejects_identical_endpoints():
    with pytest.raises(ValueError):
        pencil_report(_cube(), _cube())
    with pytest.raises(ValueError):
        pencil_report(_cube(), Poly.zero("P", 6))


def test_pencil_report_rejects_empty_prime_list():
    with pytest.raises(ValueError):
        pencil_report(_fixture(), _cube(), primes=[])
    with pytest.raises(ValueError):
        pencil_report(_fixture(), _cube(), n_primes=0)


def test_pencil_report_builds_node_data_once_per_prime(monkeypatch):
    calls = {"pencil_family": 0, "_collect_node_data": 0}
    for name in calls:
        orig = getattr(hilbert, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(hilbert, name, counted)
    out = pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert calls == {"pencil_family": 3, "_collect_node_data": 3}
    # the default chart gives the same report as that chart given explicitly
    explicit = pencil_report(_fixture(), _cube(), tuple(out["chart"]),
                             n_primes=3, seed=0)
    assert explicit["chart"] == out["chart"]
    assert explicit["roots_by_prime"] == out["roots_by_prime"]
    assert [prof.determinant for prof in explicit["profiles"]] == \
        [prof.determinant for prof in out["profiles"]]


def test_chart_search_without_usable_chart():
    def unusable(chart):
        raise ValueError("chart minor identically zero (degenerate chart)")

    with pytest.raises(ValueError, match="no usable chart monomial found"):
        hilbert._default_chart(unusable, 6, None)


def test_pencil_of_two_generic_cubics_misses_zero():
    """A pencil between two off-divisor cubics meets the divisor in 10
    points, none at the endpoints, and every generic crossing carries
    determinant multiplicity 9 (the square minor drops rank by 9 there)."""
    F1 = random_cubic(seed=21, p=P)
    F2 = random_cubic(seed=22, p=P)
    assert not member_E(F1, P) and not member_E(F2, P)
    out = pencil_report(F1, F2, n_primes=2, seed=1)
    assert out["total_degree"] == 9 * 10
    assert out["multiplicity_at_zero"] == 0
    for roots in out["roots_by_prime"].values():
        assert len(roots) <= 10  # at most ten crossings can be rational
        assert all(m % 9 == 0 for m in roots.values())
    for prof in out["profiles"]:
        pieces = linalg.squarefree_decomposition_fp(prof.determinant, prof.p)
        assert pieces.keys() == {9}
        assert len(pieces[9]) - 1 == 10  # a 9th power of a degree-10 equation
