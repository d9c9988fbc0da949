from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    change_of_basis,
    coefficient_vector,
    contract,
    dp_mul,
    monomials,
    mul_s,
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


def test_rational_perp4_runs_one_certificate_prime_perp(monkeypatch):
    # the certificate-prime bound is one pairing rank (_cert_dim), not a
    # modular square_perp_basis
    primes, bounds = [], []
    orig, orig_bound = hilbert.square_perp_basis, hilbert._cert_dim

    def counted(F, d, p=None, slices=None):
        primes.append(p)
        return orig(F, d, p, slices)

    def bound(F, d, slices):
        bounds.append((d, slices.cert.p))
        return orig_bound(F, d, slices)

    monkeypatch.setattr(hilbert, "square_perp_basis", counted)
    monkeypatch.setattr(hilbert, "_cert_dim", bound)
    assert perp4_dim(sum_of_cubes()) == 36
    assert primes == [None]
    assert bounds == [(4, hilbert._CERT_PRIME)]


def test_rational_perp_checks_and_slices_once_per_field(monkeypatch):
    calls = {"square_perp_basis": [], "is_nondegenerate_cubic": [],
             "ann_degree": [], "_cert_dim": []}
    for name, record in calls.items():
        orig = getattr(hilbert, name)

        def counted(*args, _orig=orig, _record=record):
            _record.append(args[1:])
            return _orig(*args)

        monkeypatch.setattr(hilbert, name, counted)
    assert perp_dimensions(random_cubic(0)) == {4: 6, 5: 0, 6: 0, 7: 0}
    q = hilbert._CERT_PRIME
    # one certificate-prime bound per computed degree; the degree-5 one
    # starts from the rational degree-4 perp, so no modular perp runs
    assert [args[1] for args in calls["square_perp_basis"]] == [None] * 2
    assert [args[0] for args in calls["_cert_dim"]] == [4, 5]
    assert calls["is_nondegenerate_cubic"] == [(None,), (q,)]
    assert calls["ann_degree"] == [(2, q), (2, None), (3, q)]


@pytest.mark.parametrize("d", [4, 5])
def test_rational_fallback_basis_reduces_to_the_modular_one(d):
    # sum_of_cubes has perps 36 and 6 here, so the rational basis comes
    # from exact elimination of the stacked product blocks
    F = sum_of_cubes()
    exact = square_perp_basis(F, d)
    assert exact.dim == (36, 6)[d - 4]
    assert linalg.to_fp_matrix(exact.rows, P).tolist() == \
        square_perp_basis(F, d, P).rows


def test_rational_perp4_witness_basis_is_canonical():
    F = _fixture()
    quadrics = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2).rows]
    assert square_perp_basis(F, 4).rows == \
        linalg.kernel_q(ev_product_matrix(quadrics, F))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10 ** 6), prime_seed=st.integers(0, 10 ** 6))
def test_rational_perp_dims_match_a_prime(seed, prime_seed):
    # the whole report agrees, apart from the field it was computed over
    F = random_cubic(seed)
    p = draw_primes(1, prime_seed)[0]
    exact = analyze(F, field_kind="q").to_json_dict()
    modular = analyze(F, primes=[p]).to_json_dict()
    for doc in (exact, modular):
        del doc["field"], doc["primes_used"]
    assert exact == modular


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


def test_witness_rows_match_dp_mul():
    F = random_cubic(seed=3)
    for G in (F, F.scale(Fraction(2, 7))):
        witness = [coefficient_vector(dp_mul(Poly.variable("P", 6, i), G), 4)
                   for i in range(6)]
        exact = hilbert._witness_rows(
            np.array(coefficient_vector(G, 3), dtype=object), 6)
        assert exact.tolist() == witness
        assert {type(c) for c in exact.ravel()} <= {int, Fraction}
        residues = hilbert._witness_rows(
            linalg.to_fp_matrix([coefficient_vector(G, 3)], P)[0], 6)
        assert (residues % P).tolist() == \
            linalg.to_fp_matrix(witness, P).tolist()


def test_rational_analysis_runs_each_rank_once(monkeypatch):
    # one rank in random_cubic's nondegeneracy check, four for the Hilbert
    # function and one nondegeneracy check before the perps; ev_product_matrix
    # checks annihilation with one product, not a rank of the 15
    # contractions, and the witness span of the degree-4 certificate needs
    # no separate rank
    calls = []
    orig = linalg.rank_q

    def counted(mat):
        calls.append(len(mat))
        return orig(mat)

    monkeypatch.setattr(linalg, "rank_q", counted)
    rep = analyze(random_cubic(3), field_kind="q")
    assert rep.tangent_dim == 76
    assert len(calls) == 6
    assert calls.count(15) == 0


def test_rational_certificate_products_are_integers(monkeypatch):
    # the degree-4 certificate scales the I_2 rows to integers, so its
    # products and its witness check never touch a Fraction
    seen = []
    orig = hilbert.ev_product_matrix

    def recording(quadrics, F, p=None):
        out = orig(quadrics, F, p)
        seen.append((quadrics, out))
        return out

    monkeypatch.setattr(hilbert, "ev_product_matrix", recording)
    assert analyze(random_cubic(3), field_kind="q").tangent_dim == 76
    ((quadrics, prods),) = seen
    assert {type(c) for q in quadrics for c in q.terms.values()} == {int}
    assert {type(c) for c in prods.ravel()} == {int}


# an integer change of variables with entries in [-2, 2], det -66
GL6 = [[1, 2, 0, -1, 0, 0], [0, 1, -2, 0, 1, 0], [1, 0, 1, 0, 0, 2],
       [0, -1, 0, 1, 2, 0], [2, 0, 0, 0, 1, -1], [0, 0, 1, -2, 0, 1]]


@pytest.mark.parametrize("make,perp4", [(lambda: random_cubic(0), 6),
                                         (lambda: waring_sum(9, 0)[0], 15)],
                         ids=["random", "waring9-on-E"])
def test_rational_analysis_is_gl6_equivariant(make, perp4):
    F = make()
    moved = change_of_basis(F, GL6)
    assert moved != F
    a, b = analyze(F, field_kind="q"), analyze(moved, field_kind="q")
    assert (a.perp_dims, a.tangent_dim, a.on_E) == \
        (b.perp_dims, b.tangent_dim, b.on_E)
    assert a.perp_dims[4] == perp4 and a.on_E == (perp4 > 6)


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


def test_ev_product_matrix_rows_are_the_pairwise_products():
    F = _fixture()
    qs = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2).rows]
    exact, residues = ev_product_matrix(qs, F), ev_product_matrix(qs, F, P)
    assert exact.shape == residues.shape == (120, 126)
    pairs = [(i, j) for i in range(15) for j in range(i, 15)]
    for row, fp_row, (i, j) in zip(exact, residues, pairs):
        want = coefficient_vector(mul_s(qs[i], qs[j]), 4)
        assert row.tolist() == want
        assert fp_row.tolist() == linalg.to_fp_matrix([want], P)[0].tolist()


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


@pytest.mark.parametrize("p", [P, None], ids=["mod-p", "rational"])
def test_ev_product_matrix_rejects_one_non_annihilating_quadric(p):
    F = _fixture()
    qs = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2, p).rows]
    assert ev_product_matrix(qs, F, p).shape == (120, 126)
    qs[7] = parse_poly("a0*a1", "S", 6)  # a0*a1 ∘ F = x3
    with pytest.raises(ValueError, match="does not annihilate F"):
        ev_product_matrix(qs, F, p)


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


def test_degree_4_perp_mod_p_runs_one_elimination_per_block(monkeypatch):
    # the running basis stays unreduced: one elimination per product
    # block, and one RREF of the published basis
    F = _fixture()
    slices = hilbert._checked_slices(F, P)
    blocks = list(hilbert._product_blocks(4, slices))
    calls = []
    orig = linalg._rref

    def counted(m, p):
        calls.append(m.shape)
        return orig(m, p)

    monkeypatch.setattr(linalg, "_rref", counted)
    basis = square_perp_basis(F, 4, P, slices)
    assert len(calls) == len(blocks) + 1 == 16
    assert basis.rows == linalg.kernel_fp(np.vstack(blocks), P).tolist()


# ---------------------------------------------------------------------------
# pencil machinery


def test_pencil_family_fixture_counts(monkeypatch):
    kernels = []
    orig = linalg.kernel_fp

    def counted(mat, p):
        kernels.append(p)
        return orig(mat, p)

    monkeypatch.setattr(linalg, "kernel_fp", counted)
    F, G = _fixture(), _cube()
    fam = pencil_family(F, G, P)
    # one kernel for the common annihilators, one for the sections
    assert kernels == [P, P]
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
    calls = {"pencil_family": 0, "_collect_node_data": 0, "roots_fp": 0}
    for name in calls:
        module = linalg if name == "roots_fp" else hilbert
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    out = pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    # roots are found once per prime, on the accepted determinant only
    assert calls == {"pencil_family": 3, "_collect_node_data": 3,
                     "roots_fp": 3}
    # the default chart gives the same report as that chart given explicitly
    explicit = pencil_report(_fixture(), _cube(), tuple(out["chart"]),
                             n_primes=3, seed=0)
    assert explicit["chart"] == out["chart"]
    assert explicit["roots_by_prime"] == out["roots_by_prime"]
    assert [prof.determinant for prof in explicit["profiles"]] == \
        [prof.determinant for prof in out["profiles"]]


def test_chart_walk_resumes_after_the_carried_chart(monkeypatch):
    # the first prime walks from the first monomial; later primes start
    # just after the carried chart and so skip the unusable ones before it
    evaluations = []
    orig = hilbert._default_chart

    def counted(profile_for, n, chart):
        evaluations.append(0)

        def counting(cand):
            evaluations[-1] += 1
            return profile_for(cand)

        return orig(counting, n, chart)

    monkeypatch.setattr(hilbert, "_default_chart", counted)
    pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert evaluations == [19, 11, 11]


def test_pencil_report_eliminates_each_node_once(monkeypatch):
    # every chart reads its minors from the node kernels; the only
    # 120 x 120 determinants left are the spot checks, one per prime
    shapes = []
    orig_det, orig_pivot = linalg.det_fp, linalg.pivot_kernels_fp

    def det_counted(mat, p):
        shapes.append(("det", np.shape(mat)))
        return orig_det(mat, p)

    def pivot_counted(stack, p):
        shapes.append(("pivot", np.shape(stack)))
        return orig_pivot(stack, p)

    monkeypatch.setattr(linalg, "det_fp", det_counted)
    monkeypatch.setattr(linalg, "pivot_kernels_fp", pivot_counted)
    pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert shapes.count(("det", (120, 120))) == 3
    # per prime: the 105 rows of two constant sections once, then the 21
    # nodes' 15 moving rows reduced to the 21 remaining columns, as a stack
    # (det_fp runs the square stacks of one)
    pivots = [shape for kind, shape in shapes
              if kind == "pivot" and shape[1] != shape[2]]
    assert pivots == [(1, 105, 126), (21, 15, 21)] * 3


def test_pencil_report_reads_no_minor_through_det_fp(monkeypatch):
    # the chart minors and units of every node come from stacked
    # eliminations; det_fp runs only the direct spot check, once per prime
    shapes = []
    orig = linalg.det_fp

    def det_counted(mat, p):
        shapes.append(np.shape(mat))
        return orig(mat, p)

    monkeypatch.setattr(linalg, "det_fp", det_counted)
    pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert shapes == [(120, 120)] * 3
    assert (6, 6) not in shapes


@pytest.mark.parametrize("pair", ["worked", "generic"])
def test_chart_walk_values_equal_the_per_node_minors(monkeypatch, pair):
    # every chart of the first 25 is evaluated on the walk's own data; the
    # unit and raw samples it interpolates must equal per-node det_fp calls
    if pair == "worked":
        F, G = _fixture(), _cube()
    else:
        F, G = random_cubic(seed=21, p=P), random_cubic(seed=22, p=P)
    fits, kept, walked = [], {}, {}
    orig_interpolate = linalg.interpolate
    orig_collect = hilbert._collect_node_data
    orig_chart = hilbert._default_chart

    def recording(samples, bound, p):
        fits.append((bound, [(int(u), int(v)) for u, v in samples]))
        return orig_interpolate(samples, bound, p)

    def keeping(*args):
        first, data = orig_collect(*args)
        kept["data"] = data
        return first, data

    def every_chart(fn, n, chart):
        for cand in monomials(6, 3)[:25]:
            del fits[:]
            try:
                fn(cand)
            except ValueError:
                pass
            walked[cand] = list(fits)
        return orig_chart(fn, n, chart)

    monkeypatch.setattr(linalg, "interpolate", recording)
    monkeypatch.setattr(hilbert, "_collect_node_data", keeping)
    monkeypatch.setattr(hilbert, "_default_chart", every_chart)
    pencil_profile(F, G, p=P)
    data = kept["data"]
    us = data.us.tolist()
    assert len(walked) == 25
    assert sum(len(chart_fits) == 2 for chart_fits in walked.values()) > 1
    for cand, chart_fits in walked.items():
        cols = hilbert._chart_columns(cand, 6)
        dropped = sorted(cols)
        units = [linalg.det_fp(w[:, cols], P) for w in data.witness]
        raws = [linalg.shuffle_sign(dropped) * sign * d
                * linalg.det_fp(kern[:, dropped], P) % P if d else 0
                for d, sign, kern in zip(data.d.tolist(),
                                         data.sign_free.tolist(),
                                         data.kernels)]
        assert chart_fits[0] == (6, list(zip(us, units)))
        assert len(chart_fits) in (1, 2)
        if len(chart_fits) == 2:
            assert chart_fits[1][1] == list(zip(us, raws))


@pytest.mark.parametrize("pair", ["worked", "generic"])
def test_node_kernel_gives_every_chart_minor(pair):
    # each node in turn goes first, so its M(u) is built directly and its
    # minors are compared with the kernel data of the stacked elimination
    if pair == "worked":
        F, G = _fixture(), _cube()
    else:
        F, G = random_cubic(seed=21, p=P), random_cubic(seed=22, p=P)
    sections = hilbert._section_pairs(pencil_family(F, G, P), 6)
    nodes = [12345, 777, 4242424]
    for k in range(len(nodes)):
        order = nodes[k:] + nodes[:k]
        first, data = hilbert._collect_node_data(F, G, sections, order, P)
        u, d, sign_free, kern = (data.us[0], data.d[0], data.sign_free[0],
                                 data.kernels[0])
        assert u == nodes[k] and d != 0 and kern.shape == (6, 126)
        assert not linalg.matmul_fp(first, kern.T, P).any()
        for chart in monomials(6, 3)[:25]:
            dropped = sorted(hilbert._chart_columns(chart, 6))
            identity = (linalg.shuffle_sign(dropped) * sign_free * d
                        * linalg.det_fp(kern[:, dropped], P)) % P
            direct = linalg.det_fp(np.delete(first, dropped, axis=1), P)
            assert direct == identity


def test_spot_check_catches_a_wrong_node_kernel(monkeypatch):
    # the direct minor at the first node is independent of the kernels
    orig = hilbert._collect_node_data

    def perturbed(*args):
        first, data = orig(*args)
        first = first.copy()
        first[0, 0] = (first[0, 0] + 1) % P
        return first, data

    monkeypatch.setattr(hilbert, "_collect_node_data", perturbed)
    with pytest.raises(ValueError, match="disagrees with its kernel identity"):
        pencil_profile(_fixture(), _cube(), (0, 0, 0, 0, 0, 3), p=P, seed=2)


def test_pencil_needs_enough_nonzero_nodes():
    # the worked pair samples 21 distinct nonzero nodes; F_13 has 12
    with pytest.raises(ValueError, match="prime 13 has 12 nonzero nodes"):
        pencil_profile(_fixture(), _cube(), p=13)
    with pytest.raises(ValueError, match="the pencil needs 21"):
        pencil_report(_fixture(), _cube(), primes=[13])


def test_chart_search_without_usable_chart():
    def unusable(chart):
        raise ValueError("chart minor identically zero (degenerate chart)")

    with pytest.raises(ValueError, match="no usable chart monomial found"):
        hilbert._default_chart(unusable, 6, None)


def test_chart_search_rejects_disagreeing_determinants():
    # u(u - 1) and u(u - 2): equal root summaries, different determinants
    fake = {0: [0, P - 1, 1], 1: [0, P - 2, 1]}
    monos = monomials(6, 3)

    def two_charts(chart):
        if monos.index(chart) not in fake:
            raise ValueError("chart minor identically zero (degenerate chart)")
        return fake[monos.index(chart)], 2, 0

    with pytest.raises(ValueError, match="charts disagree"):
        hilbert._default_chart(two_charts, 6, None)


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


@pytest.mark.parametrize("k,at_zero,perp4", [(6, 36, 36), (7, 27, 27),
                                             (8, 18, 19), (9, 9, 15),
                                             (10, 0, 6)])
def test_pencil_meets_E_at_a_secant_point(k, at_zero, perp4):
    # F2 a sum of k cubes: on E for k <= 9 (the paper's sigma_9 inside E),
    # where a general line through it meets E with multiplicity 10 - k, in
    # units of the 9-fold root; off E for k = 10
    F2 = waring_sum(k, 0)[0]
    assert perp_dimensions(F2, P)[4] == perp4
    prof = pencil_profile(random_cubic(21), F2, p=P)
    assert prof.total_degree == 90
    assert prof.multiplicity_at_zero == at_zero


@pytest.mark.parametrize("seed", [0, 1])
def test_pencil_through_a_gr26_section_meets_E_once(seed):
    prof = pencil_profile(random_cubic(21), gr26_section_cubic(seed).cubic,
                          p=P)
    assert (prof.total_degree, prof.multiplicity_at_zero) == (90, 9)


def test_pencil_is_gl6_equivariant():
    F1, F2 = random_cubic(21), random_cubic(22)
    a = pencil_profile(F1, F2, p=P)
    b = pencil_profile(change_of_basis(F1, GL6), change_of_basis(F2, GL6),
                       p=P)
    assert b.determinant == a.determinant
    assert b.total_degree == a.total_degree == 90
