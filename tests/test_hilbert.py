from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apolar import apolarity, hilbert, linalg
from apolar.apolarity import ann_degree, hilbert_function
from apolar.constructions import (
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
    pencil_family,
    pencil_profile,
    pencil_report,
    perp4_dim,
    perp_dimensions,
    square_perp_basis,
)
from apolar.poly import (
    Poly,
    coefficient_vector,
    contract,
    dim_degree,
    dp_mul,
    monomials,
    mul_s,
    parse_poly,
    poly_from_vector,
    waring_cube,
)
from support import change_of_basis, fiber_equivalence, fiber_point, in_span

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
    assert len(square_perp_basis(F, 4, P)) == 6
    assert square_perp_basis(F, 5, P) == []
    assert square_perp_basis(F, 6, P) == []
    assert square_perp_basis(F, 7, P) == []


def test_square_perp_dims_fixture_rational():
    F = _fixture()
    assert perp_dimensions(F) == {4: 6, 5: 0, 6: 0, 7: 0}


def test_rational_perp4_runs_one_certificate_prime_perp(monkeypatch):
    # the certificate-prime bound is the exact modular perp at that prime,
    # and no rational basis is built for a dimension
    primes = []
    orig = hilbert.square_perp_basis

    def counted(F, d, p=None, slices=None):
        primes.append(p)
        return orig(F, d, p, slices)

    monkeypatch.setattr(hilbert, "square_perp_basis", counted)
    assert perp4_dim(sum_of_cubes()) == 36
    assert primes == [hilbert._CERT_PRIME]


def test_rational_perp_checks_and_slices_once_per_field(monkeypatch):
    calls = {"square_perp_basis": [], "is_nondegenerate_cubic": [],
             "ann_degree": [], "_pair_rows": []}
    for name, record in calls.items():
        orig = getattr(hilbert, name)

        def counted(*args, _orig=orig, _record=record):
            _record.append(args[1:])
            return _orig(*args)

        monkeypatch.setattr(hilbert, name, counted)
    assert perp_dimensions(random_cubic(0)) == {4: 6, 5: 0, 6: 0, 7: 0}
    q = hilbert._CERT_PRIME
    # off E the certificate-prime bound meets the floor in every degree:
    # one certificate-prime perp per degree, no rational perp, and every
    # pairing runs at the certificate prime
    assert [args[:2] for args in calls["square_perp_basis"]] == \
        [(d, q) for d in (4, 5, 6, 7)]
    assert calls["_pair_rows"]
    assert {s.p for _, _, s, *_ in calls["_pair_rows"]} == {q}
    # nondegeneracy over Q is read from the rational I_2, and only then are
    # the certificate prime's slices built, its nondegeneracy read from
    # its own I_2: no rank is taken
    assert calls["is_nondegenerate_cubic"] == []
    assert calls["ann_degree"] == [(2, None), (2, q), (3, q)]


def test_modular_analysis_reads_hf_and_nondegeneracy_from_the_slices(
        monkeypatch):
    # one kernel for I_2 and one for I_3 give the Hilbert function, dim I_2,
    # nondegeneracy and the perps: no rank is taken
    F = random_cubic(0)
    slices = []
    orig = hilbert.ann_degree

    def counted(G, r, p=None):
        slices.append((r, p))
        return orig(G, r, p)

    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(hilbert, "ann_degree", counted)
    for mod, name in [(apolarity, "hilbert_function"),
                      (apolarity, "is_nondegenerate_cubic"),
                      (hilbert, "is_nondegenerate_cubic"),
                      (linalg, "rank_fp")]:
        monkeypatch.setattr(mod, name, refused)
    assert not hasattr(hilbert, "hilbert_function")
    rep = analyze(F, primes=[P])
    assert (rep.hf, rep.dim_I2, rep.tangent_dim) == ((1, 6, 6, 1), 15, 76)
    assert slices == [(2, P), (3, P)]


_CONES = ["x5^3", "x0*x1*x2", "x0^3 + x1*x2*x3 + x4^3 + x0*x1*x4"]


@settings(max_examples=6, deadline=None)
@given(F=st.one_of(
    st.integers(0, 10 ** 6).map(random_cubic),
    st.dictionaries(st.sampled_from(monomials(6, 3)),
                    st.integers(-3, 3).filter(bool), min_size=1, max_size=8)
    .map(lambda terms: Poly("P", 6, terms))))
@example(F=parse_poly(_CONES[0], "P", 6))
@example(F=parse_poly(_CONES[1], "P", 6))
@example(F=parse_poly(_CONES[2], "P", 6))
def test_analysis_hf_and_dim_I2_match_the_references(F):
    # the report reads (1, h, h, 1) and dim I_2 off the I_2 kernel; the
    # references take every catalecticant rank and the I_2 kernel apart
    for p, kwargs in ((P, {"primes": [P]}), (None, {"field_kind": "q"})):
        rep = analyze(F, **kwargs)
        assert rep.hf == hilbert_function(F, p)
        assert rep.dim_I2 == len(ann_degree(F, 2, p))
        assert (rep.verdict == VERDICT_DEGENERATE) == (rep.hf[1] != 6)


def test_analyze_at_small_and_bad_inputs():
    # a cone is Degenerate at any prime, 7 included: its Hilbert function
    # needs no prime above 7, only the perps of a nondegenerate cubic do
    rep = analyze(_cube(), primes=[7])
    assert (rep.hf, rep.dim_I2, rep.verdict) == \
        ((1, 1, 1, 1), 20, VERDICT_DEGENERATE)
    with pytest.raises(ValueError, match="prime above 7"):
        analyze(_fixture(), primes=[7])
    # a cubic that vanishes mod p has the zero Hilbert function there
    rep = analyze(_fixture().scale(11), primes=[11])
    assert (rep.hf, rep.dim_I2, rep.verdict) == \
        ((0, 0, 0, 0), 21, VERDICT_DEGENERATE)
    for kwargs in ({"primes": [7]}, {"primes": [P]}, {"field_kind": "q"}):
        with pytest.raises(ValueError, match="expected a homogeneous form"):
            analyze(parse_poly("x0^3 + x1", "P", 6), **kwargs)


def test_certificate_primes_follow_the_solver_stream():
    # scaling F by 1 / (product of the first k primes) puts each of them
    # in a denominator, so the certificate prime is the (k + 1)-th
    stream = list(itertools.islice(linalg._solver_primes(), 20))
    assert hilbert._CERT_PRIME == stream[0]
    F, skipped = _fixture(), 1
    for q in stream:
        assert hilbert._cert_prime(F.scale(Fraction(1, skipped))).p == q
        skipped *= q


def test_modular_perps_eliminate_no_matrix_without_columns(monkeypatch):
    # perp_5 of random_cubic(0) is 0, so the degree-6 and degree-7 perps
    # are empty at once, with no (4915, 0) or (10710, 0) pairing matrix
    shapes = []
    orig = linalg._rref

    def recorded(m, p):
        shapes.append(m.shape)
        return orig(m, p)

    monkeypatch.setattr(linalg, "_rref", recorded)
    assert perp_dimensions(random_cubic(0), P) == {4: 6, 5: 0, 6: 0, 7: 0}
    assert shapes and all(ncols for _, ncols in shapes)


@pytest.mark.parametrize("d", [4, 5])
def test_rational_fallback_basis_reduces_to_the_modular_one(d):
    # sum_of_cubes has perps 36 and 6 here, so the rational basis comes
    # from exact elimination of the stacked product blocks
    F = sum_of_cubes()
    exact = square_perp_basis(F, d)
    assert len(exact) == (36, 6)[d - 4]
    assert linalg.to_fp_matrix(exact, P).tolist() == \
        square_perp_basis(F, d, P)


def test_rational_perp4_witness_basis_is_canonical():
    F = _fixture()
    quadrics = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2)]
    assert square_perp_basis(F, 4) == \
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


def test_perp4_contains_witness_vectors():
    """x_i ⊛ F always pair to zero against (I^2)_4, so perp4 >= 6."""
    from apolar.poly import dp_mul

    for seed in (0, 3):
        F = random_cubic(seed=seed, p=P)
        basis = square_perp_basis(F, 4, P)
        assert len(basis) >= 6
        for i in range(6):
            w = dp_mul(Poly.variable("P", 6, i), F)
            from apolar.poly import coefficient_vector
            assert in_span(basis, [c % P for c in coefficient_vector(w, 4)],
                           P)


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
    # the one rank is random_cubic's nondegeneracy check: the analysis
    # reads the Hilbert function and nondegeneracy from the I_2 kernel,
    # ev_product_matrix checks annihilation with one product, not a rank
    # of the 15 contractions, and off E the certificate-prime bound of
    # each perp meets its floor, so no perp needs a rank
    calls = []
    orig = linalg.rank_q

    def counted(mat):
        calls.append(len(mat))
        return orig(mat)

    monkeypatch.setattr(linalg, "rank_q", counted)
    rep = analyze(random_cubic(3), field_kind="q")
    assert rep.tangent_dim == 76
    assert len(calls) == 1
    assert calls.count(15) == 0


def test_rational_certificate_products_are_integers(monkeypatch):
    # on E the one rational rank is of the 120 x 126 distinct products of
    # the I_2 rows scaled to integers, so it never touches a Fraction; off
    # E no rational product block is formed at all, and the only rational
    # solve is the I_2 kernel of the 6 x 21 catalecticant
    on_e, off_e = waring_sum(9, 0)[0], random_cubic(3)
    ranks, kernels, blocks = [], [], []
    orig_rank, orig_kernel = linalg.rank_q, linalg.kernel_q
    orig_blocks = hilbert._product_blocks

    def ranked(mat):
        ranks.append(mat)
        return orig_rank(mat)

    def solved(mat):
        kernels.append(np.shape(mat))
        return orig_kernel(mat)

    def formed(d, slices):
        if slices.p is None:
            blocks.append(d)
        return orig_blocks(d, slices)

    monkeypatch.setattr(linalg, "rank_q", ranked)
    monkeypatch.setattr(linalg, "kernel_q", solved)
    monkeypatch.setattr(hilbert, "_product_blocks", formed)
    assert analyze(off_e, field_kind="q").tangent_dim == 76
    assert ranks == blocks == [] and kernels == [(6, 21)]
    assert analyze(on_e, field_kind="q").perp_dims == \
        {4: 15, 5: 0, 6: 0, 7: 0}
    assert blocks == [4]
    (mat,) = ranks
    # int64 where the entries fit, Python ints where they do not (the I_2
    # rows of this cubic reach 238 bits)
    assert mat.shape == (120, 126)
    assert mat.dtype == np.int64 or {type(c) for c in mat.ravel()} == {int}
    qs = [poly_from_vector(r, "S", 6, 2) for r in
          linalg.integer_rows(ann_degree(on_e, 2)).tolist()]
    assert mat.tolist() == ev_product_matrix(qs, on_e).tolist()


def test_rational_pairings_leave_int64_when_they_must():
    # a 60-bit coefficient moves the I_2 rows, and with them the product
    # blocks, to Python ints; the dimensions still agree with mod p
    F = _fixture() + Poly.monomial("P", 6, (3, 0, 0, 0, 0, 0), (1 << 60) - 1)
    assert perp_dimensions(F) == perp_dimensions(F, P)
    for G, wide in ((_fixture(), False), (F, True)):
        slices = hilbert._checked_slices(hilbert._Slices(G, None))
        assert (linalg._bits(slices(2)) > 28) == wide
        first = next(hilbert._product_blocks(4, slices))
        assert (first.dtype == object) == wide
        qs = [poly_from_vector(r, "S", 6, 2) for r in slices(2).tolist()]
        assert first.tolist() == [coefficient_vector(mul_s(qs[0], q), 4)
                                  for q in qs]


def _small_waring(k):
    """A sum of k dp-cubes of points with coordinates in {-1, 0, 1}, any
    six of them independent (k <= 9 puts it on E)."""
    rng = random.Random("small-waring:%d" % k)
    while True:
        pts = [tuple(rng.choice((-1, 0, 1)) for _ in range(6))
               for _ in range(k)]
        if all(linalg.det_fp(six, P)
               for six in itertools.combinations(pts, 6)):
            return functools.reduce(Poly.__add__, map(waring_cube, pts))


@pytest.mark.parametrize("make", [sum_of_cubes] + [
    functools.partial(_small_waring, k) for k in (6, 7, 8, 9)] + [
    functools.partial(random_cubic, seed) for seed in (0, 3)],
    ids=["cubes", "waring6", "waring7", "waring8", "waring9", "random0",
         "random3"])
def test_rational_perp_dims_equal_the_reference_basis(monkeypatch, make):
    # the dimension over Q is the certificate-prime bound where it meets
    # the floor (6 in degree 4, 0 above), else dim P_d minus one verified
    # rank; rank_q runs exactly in the degrees where the bound is above
    # the floor, so never off E
    F = make()
    ranked = []
    orig = linalg.rank_q

    def counted(mat):
        ranked.append(len(mat))
        return orig(mat)

    slices = hilbert._checked_slices(hilbert._Slices(F, None))
    monkeypatch.setattr(linalg, "rank_q", counted)
    dims = {d: hilbert._perp_dim(F, d, slices) for d in (4, 5, 6, 7)}
    monkeypatch.setattr(linalg, "rank_q", orig)
    bounds = {d: len(square_perp_basis(F, d, slices.cert.p, slices.cert))
              for d in (4, 5, 6, 7)}
    assert dims == {d: len(square_perp_basis(F, d)) for d in (4, 5, 6, 7)}
    on_e = [d for d in (4, 5, 6, 7) if bounds[d] > (6 if d == 4 else 0)]
    assert (on_e != []) == (dims[4] > 6)
    # one rank per such degree, of the stacked product blocks
    assert ranked == [len(np.vstack(list(hilbert._product_blocks(d, slices))))
                      for d in on_e]


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


def _integer_gl6(rng):
    while True:
        g = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        if linalg.det_fp(g, P):  # nonzero mod P, so nonzero over Q
            return g


@pytest.mark.parametrize("make", [lambda: random_cubic(0), sum_of_cubes],
                         ids=["random", "cubes"])
def test_rational_perps_are_gl6_invariant_over_several_g(make):
    # the rational perps run the certificate-prime perps and, for
    # sum_of_cubes, the exact degree-5 kernel
    F, rng = make(), random.Random(6)
    dims = perp_dimensions(F)
    for _ in range(3):
        assert perp_dimensions(change_of_basis(F, _integer_gl6(rng))) == dims


small_gl6 = st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6),
                     min_size=6, max_size=6).filter(
    lambda g: linalg.det_fp(g, P) != 0)


def _modular_facts(F):
    report = analyze(F, primes=[P])
    return (report.hf, report.dim_I2, report.perp_dims, report.tangent_dim,
            report.on_E)


@settings(max_examples=12, deadline=None)
@given(small_gl6, st.sampled_from(["random", "waring7", "waring9"]),
       st.integers(0, 3))
def test_modular_analysis_is_gl6_equivariant(g, kind, seed):
    F = random_cubic(seed) if kind == "random" \
        else waring_sum(int(kind[-1]), seed)[0]
    assert _modular_facts(change_of_basis(F, g)) == _modular_facts(F)


@functools.lru_cache(maxsize=None)
def _gr26_section():
    return gr26_section_cubic(0).cubic


@settings(max_examples=5, deadline=None)
@given(small_gl6)
def test_gr26_section_stays_on_E_under_gl6(g):
    assert analyze(change_of_basis(_gr26_section(), g), primes=[P]).on_E


def test_tangent_dimension_values():
    assert analyze(_fixture(), primes=[P]).tangent_dim == 76
    assert analyze(sum_of_cubes(), primes=[P]).tangent_dim == 112
    assert analyze(_fixture(), field_kind="q").tangent_dim == 76


def test_tangent_dimension_rejects_cones():
    with pytest.raises(ValueError):
        perp_dimensions(_cube(), P)


def test_member_E():
    # F lies on E exactly when its degree-4 perp exceeds 6
    assert perp4_dim(_fixture(), P) == 6
    assert perp4_dim(sum_of_cubes(), P) == 36


def test_ev_product_matrix_fixture_rank():
    F = _fixture()
    qs = [poly_from_vector([int(c) for c in r], "S", 6, 2)
          for r in ann_degree(F, 2, P)]
    M = ev_product_matrix(qs, F, P)
    assert M.shape == (120, 126)
    assert linalg.rank_fp(M, P) == 120  # not on the divisor: full rank


def test_ev_product_matrix_rows_are_the_pairwise_products():
    F = _fixture()
    qs = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2)]
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
    qs = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2, p)]
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


def test_perp_mod_p_matches_the_block_chain():
    # reference: the kernel of every product block, intersected block by
    # block over all of P_d, against the search among x_j (dp-times) the
    # perp of degree d - 1; mod 19 random_cubic(0) lies on E (perp_4 is
    # 15), so a chunk of its degree-4 products drops rank there
    for p, F in itertools.product(
            (P, 19), (_fixture(), random_cubic(0), waring_sum(7, 0)[0],
                      waring_sum(9, 0)[0], sum_of_cubes())):
        slices = hilbert._checked_slices(hilbert._Slices(F, p))
        for d in (4, 5, 6, 7):
            chain = None
            for block in hilbert._product_blocks(d, slices):
                chain = linalg.pivot_kernel_fp(block, p)[2] \
                    if chain is None else \
                    linalg.restrict_kernel(chain, block, p)
                if chain.shape[0] == 0:
                    break
            assert square_perp_basis(F, d, p, slices) == \
                linalg.rref_fp(chain, p)[0].tolist()


@pytest.mark.parametrize("make", [lambda: random_cubic(0), sum_of_cubes,
                                  lambda: waring_sum(9, 0)[0]],
                         ids=["random", "cubes", "waring9"])
def test_degree4_pairings_are_the_ev_product_matrix(make):
    # paired with all of P_4, the distinct products of the I_2 rows are
    # the 120 x 126 product matrix, in its row order; a chunk of I_2 rows
    # gives the rows of the products whose first factor is in the chunk.
    # All of P_4 is the identity, or None: the product coefficients
    F = make()
    qs = [poly_from_vector(r, "S", 6, 2) for r in ann_degree(F, 2, P)]
    slices = hilbert._checked_slices(hilbert._Slices(F, P))
    want = ev_product_matrix(qs, F, P).tolist()
    first = np.triu_indices(15)[0]
    for full in (np.eye(126, dtype=np.int64), None):
        pairs = hilbert._pair_rows(full, 2, 2, slices)
        assert pairs.shape == (120, 126)
        assert pairs.tolist() == want
        for start, stop in ((0, 1), (0, 9), (3, 7), (9, 15), (14, 15)):
            chunk = hilbert._pair_rows(full, 2, 2, slices, start, stop)
            assert chunk.tolist() == \
                pairs[(first >= start) & (first < stop)].tolist()


@pytest.mark.parametrize("make", [lambda: random_cubic(0),
                                  lambda: waring_sum(9, 0)[0]],
                         ids=["random", "waring9"])
def test_degree4_cut_multiplies_only_after_its_first_chunk(monkeypatch,
                                                            make):
    # the first degree-4 chunk pairs with all of P_4 as product
    # coefficients, and its kernel is the space: no matmul_fp.  Each later
    # chunk takes three, two for its pairings and one for kern @ space.
    # Pairing the first chunk with an identity took three more
    F = make()
    slices = hilbert._checked_slices(hilbert._Slices(F, P))
    slices(2)
    counts = {"matmul_fp": 0, "_pair_rows": 0}
    for module, name in ((linalg, "matmul_fp"), (hilbert, "_pair_rows")):
        def counted(*args, _orig=getattr(module, name), _name=name):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    square_perp_basis(F, 4, P, slices)
    assert counts["_pair_rows"] >= 2
    assert counts["matmul_fp"] == 3 * (counts["_pair_rows"] - 1)


_CUT_CUBICS = {"random": lambda: random_cubic(0),
               "waring7": lambda: waring_sum(7, 0)[0]}


@functools.lru_cache(maxsize=None)
def _cut_setup(name, p, d):
    """The slices of a cubic mod p and its degree-d perp rows."""
    F = _CUT_CUBICS[name]()
    slices = hilbert._checked_slices(hilbert._Slices(F, p))
    return slices, np.array(square_perp_basis(F, d, p, slices),
                            dtype=np.int64).reshape(-1, dim_degree(6, d))


@st.composite
def _search_spaces(draw):
    """A search space mod p in degree 4 or 5: zero rows, copies of earlier
    rows and combinations of a few base vectors, some in the perp and
    some random, so it may empty in the first chunk or never."""
    p = draw(st.sampled_from([11, P]))
    d = draw(st.sampled_from([4, 5]))
    name = draw(st.sampled_from(sorted(_CUT_CUBICS)))
    n_perp, n_random = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    kinds = draw(st.lists(st.sampled_from(["zero", "copy", "combo"]),
                          max_size=12))
    return p, d, name, n_perp, n_random, kinds, draw(st.integers(0, 2 ** 16))


def _rref_rows(basis, p):
    red, rank, _ = linalg.rref_fp(basis, p)
    return red[:rank].tolist()


@settings(max_examples=60, deadline=None)
@given(_search_spaces())
@example((P, 4, "random", 0, 3, ["combo"] * 3, 0))   # empties at once
@example((11, 4, "random", 6, 0, ["combo", "zero", "copy"] * 4, 1))  # never
@example((P, 5, "waring7", 1, 2, ["combo", "copy", "zero"] * 3, 2))
@example((P, 5, "random", 0, 4, [], 3))               # an empty space
def test_pairing_kernel_spans_the_kernel_of_the_whole_matrix(case):
    # the space _cut_space leaves is the kernel of the whole degree-d
    # pairing matrix (all product blocks stacked) on the search space
    p, d, name, n_perp, n_random, kinds, seed = case
    slices, perp = _cut_setup(name, p, d)
    rng = np.random.default_rng(seed)
    base = np.vstack([perp[rng.permutation(len(perp))[:n_perp]],
                      rng.integers(0, p, (n_random, dim_degree(6, d)))])
    rows = []
    for kind in kinds:
        if kind == "zero" or not len(base):
            rows.append(np.zeros(base.shape[1], dtype=np.int64))
        elif kind == "copy" and rows:
            rows.append(rows[rng.integers(len(rows))])
        else:
            rows.append(rng.integers(0, p, len(base)) @ base % p)
    space = np.array(rows, dtype=np.int64).reshape(len(rows), base.shape[1])
    blocks = np.vstack(list(hilbert._product_blocks(d, slices))) % p
    kern = linalg.pivot_kernel_fp(linalg.matmul_fp(blocks, space.T, p), p)[2]
    assert _rref_rows(hilbert._cut_space(space, d, slices), p) == \
        _rref_rows(linalg.matmul_fp(kern, space, p), p)


@pytest.mark.parametrize("name,d", [("waring7", 4)], ids=["all-zero"])
def test_pairing_kernel_cuts_in_doubling_chunks(monkeypatch, name, d):
    # a search space inside the perp pairs to zero with every product, so
    # it is never cut: each pair (a, b) reads ceil(k / n_b) rows and then
    # twice as many, until its rows run out
    slices, perp = _cut_setup(name, P, d)
    calls = []
    orig = hilbert._pair_rows

    def recorded(vecs, a, b, slices, start, stop):
        out = orig(vecs, a, b, slices, start, stop)
        assert not out.any()
        calls.append((a, b, start, stop))
        return out

    monkeypatch.setattr(hilbert, "_pair_rows", recorded)
    assert len(perp) > 0
    assert _rref_rows(hilbert._cut_space(perp, d, slices), P) == \
        _rref_rows(perp, P)
    expected = []
    for a, b in hilbert._degree_pairs(d):
        rows = len(slices(a))
        n_b = dim_degree(6, b) if b > 3 else len(slices(b))
        start, size = 0, -(-len(perp) // n_b)
        while start < rows:
            expected.append((a, b, start, min(start + size, rows)))
            start, size = min(start + size, rows), 2 * size
    assert calls == expected and len(calls) > len(hilbert._degree_pairs(d))


@pytest.mark.parametrize("make,p,pinned", [
    # degree 4: ceil(126 / 15) = 9 rows, then the 6 left; degree 5:
    # ceil(21 / 55) = 1 row, then 2 rows empty the space
    (lambda: random_cubic(0), P,
     [(2, 2, 0, 9), (2, 2, 9, 15), (2, 3, 0, 1), (2, 3, 1, 3)]),
    (lambda: random_cubic(0), 19, None),
    (lambda: waring_sum(7, 0)[0], P, None), (sum_of_cubes, P, None)],
    ids=["random", "random-on-E-mod-19", "waring7", "cubes"])
def test_cut_space_reads_doubling_chunks_until_the_space_is_empty(
        monkeypatch, make, p, pinned):
    calls = []
    orig = hilbert._pair_rows

    def recorded(vecs, a, b, slices, start, stop):
        out = orig(vecs, a, b, slices, start, stop)
        # the vectors left after this chunk, the search space being
        # independent; None is all of P_d, 126 monomials in degree 4
        k = dim_degree(6, a + b) if vecs is None else len(vecs)
        calls.append((a, b, start, stop, k, k - linalg.rref_fp(out, p)[1]))
        return out

    monkeypatch.setattr(hilbert, "_pair_rows", recorded)
    F = make()
    dims = perp_dimensions(F, p)
    slices = hilbert._checked_slices(hilbert._Slices(F, p))
    for d in (4, 5, 6, 7):
        in_degree = [c for c in calls if c[0] + c[1] == d]
        left = in_degree[0][4] if in_degree else 0
        for a, b in hilbert._degree_pairs(d):
            rows = len(slices(a))
            n_b = dim_degree(6, b) if b > 3 else len(slices(b))
            start, size = 0, None
            for *_, c_start, c_stop, k, c_left in (
                    c for c in in_degree if c[:2] == (a, b)):
                # no call on an empty space, and none past the slice
                assert k == left > 0 and c_stop <= rows
                size = -(-k // n_b) if size is None else 2 * size
                assert (c_start, c_stop) == (start, min(start + size, rows))
                start, left = c_stop, c_left
            # a pair stops once the space is empty or its rows run out
            assert left == 0 or start == rows
        assert left == dims[d]
    assert pinned is None or [c[:4] for c in calls] == pinned


@pytest.mark.parametrize("make,chunk_shapes", [
    (lambda: waring_sum(9, 0)[0], [(99, 126), (21, 27), (110, 75), (118, 3)]),
    (lambda: random_cubic(0), [(99, 126), (21, 27), (55, 21), (72, 3)])],
    ids=["waring9", "random"])
def test_modular_perps_never_eliminate_a_whole_degree5_pairing(
        monkeypatch, make, chunk_shapes):
    # the degree-5 pairing has 825 rows over a search space of 75 or 21
    # vectors; it is read in chunks of 1 or 2 I_2 rows and then twice as
    # many (nonzero products by vectors left), and degree 4 reads its 120
    # distinct products in chunks of 9 and 6 I_2 rows
    shapes = []
    orig = linalg._rref

    def recorded(m, p):
        shapes.append(m.shape)
        return orig(m, p)

    monkeypatch.setattr(linalg, "_rref", recorded)
    perp_dimensions(make(), P)
    assert [s for s in shapes if s in chunk_shapes] == chunk_shapes
    assert all(nrows != 825 for nrows, _ in shapes)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_modular_perps_reject_primes_up_to_7(p):
    # the search among x_j (dp-times) perp_(d-1) needs d and the
    # multiplicities up to 7 invertible
    with pytest.raises(ValueError, match="prime above 7"):
        perp_dimensions(sum_of_cubes(), p)
    with pytest.raises(ValueError, match="prime above 7"):
        square_perp_basis(_fixture(), 4, p)


@pytest.mark.parametrize("entry,modulus", [
    (lambda q: analyze(random_cubic(0), primes=[P, q]), 3000009),
    (lambda q: perp_dimensions(random_cubic(0), q), 3000009),
    (lambda q: pencil_report(_fixture(), _cube(), primes=[q]), 91),
    (lambda q: pencil_profile(_fixture(), _cube(), p=q), 91),
], ids=["analyze", "perps", "pencil_report", "pencil_profile"])
def test_composite_moduli_are_refused_where_they_enter(entry, modulus):
    # 3000009 = 3 * 1000003 gave perp dims of 0 and a wrong verdict, and
    # 91 = 7 * 13 failed on a missing inverse inside the pencil
    with pytest.raises(ValueError, match="modulus %d is not prime" % modulus):
        entry(modulus)


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
    a, b = pencil_family(F, G, P)
    # one kernel gives the sections, and the common annihilators with them
    assert kernels == [P]
    assert a.shape == b.shape == (15, 21)
    # 14 constants (a = 0) first, then the one mover
    assert a.any(axis=1).tolist() == [False] * 14 + [True]
    assert b.any(axis=1).all()


def test_pencil_family_sections_annihilate_everywhere():
    F, G = _fixture(), _cube()
    for ra, rb in zip(*pencil_family(F, G, P)):
        a = poly_from_vector(ra.tolist(), "S", 6, 2)
        b = poly_from_vector(rb.tolist(), "S", 6, 2)
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


def test_pencil_report_eliminates_the_fixed_rows_once(monkeypatch):
    # per prime the 105 rows of two constant sections are eliminated once;
    # each chart then eliminates only the six rows K_C[:, S]^T and its
    # 16 x 32 linearization, and the only 120 x 120 determinants left are
    # the spot checks, one per prime
    shapes = []
    orig_det, orig_pivot = linalg.det_fp, linalg.pivot_kernel_fp

    def det_counted(mat, p):
        shapes.append(("det", np.shape(mat)))
        return orig_det(mat, p)

    def pivot_counted(mat, p):
        shapes.append(("pivot", np.shape(mat)))
        return orig_pivot(mat, p)

    monkeypatch.setattr(linalg, "det_fp", det_counted)
    monkeypatch.setattr(linalg, "pivot_kernel_fp", pivot_counted)
    pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert shapes.count(("det", (120, 120))) == 3
    # (18, 42) is pencil_family's one kernel_fp call
    pivots = [shape for kind, shape in shapes if kind == "pivot"]
    assert pivots.count((105, 126)) == 3
    assert set(pivots) == {(105, 126), (6, 21), (16, 32), (18, 42)}


def test_pencil_report_reads_no_minor_through_det_fp(monkeypatch):
    # the chart minors come from characteristic polynomials and the units
    # from Leibniz expansions; det_fp runs only the direct spot check, once
    # per prime
    shapes = []
    orig = linalg.det_fp

    def det_counted(mat, p):
        shapes.append(np.shape(mat))
        return orig(mat, p)

    monkeypatch.setattr(linalg, "det_fp", det_counted)
    pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert shapes == [(120, 120)] * 3
    assert (6, 6) not in shapes


def test_chart_units_are_read_once_per_chart_and_never_sampled(monkeypatch):
    # each chart of the walk (19 + 11 + 11 evaluations, as in
    # test_chart_walk_resumes_after_the_carried_chart) expands its unit
    # once from two 6 x 6 blocks; no unit is sampled, so none interpolated
    calls, fits = [], []
    orig = linalg.pencil_det_fp

    def counted(a, b, p):
        calls.append((p, np.shape(a), np.shape(b)))
        return orig(a, b, p)

    monkeypatch.setattr(linalg, "pencil_det_fp", counted)
    monkeypatch.setattr(linalg, "interpolate",
                        lambda *args: fits.append(args))
    out = pencil_report(_fixture(), _cube(), n_primes=3, seed=0)
    assert len(calls) == 41
    assert {call[1:] for call in calls} == {((6, 6), (6, 6))}
    assert [[p for p, _, _ in calls].count(q) for q in out["primes"]] == \
        [19, 11, 11]
    assert fits == []


def _pencil_pair(pair):
    if pair == "worked":
        return _fixture(), _cube()
    if pair == "generic":
        return random_cubic(seed=21, p=P), random_cubic(seed=22, p=P)
    return random_cubic(seed=21, p=P), waring_sum(8, 0)[0]


def _direct_product_matrix(F, G, family, u):
    # M(u) from the section values at u, built and checked to annihilate
    # u*F + G by ev_product_matrix, independently of the pencil's data
    values = [poly_from_vector(((u * a + b) % P).tolist(), "S", 6, 2)
              for a, b in zip(*family)]
    return ev_product_matrix(values, F.scale(u) + G, P)


@pytest.mark.parametrize("pair", ["worked", "generic", "waring8"])
def test_chart_walk_values_equal_the_per_node_minors(monkeypatch, pair):
    # every chart of the first 25 is evaluated on the walk's own data: its
    # unit, at every node of the walk, equals the per-node det_fp of the
    # witness rows W(u) of the fiber cubic u*F + G, and each raw
    # polynomial the walk reads equals the direct 120 x 120 minor at three
    # nodes, none of them a node of the walk and so none its shift node
    F, G = _pencil_pair(pair)
    units, raws, kept, walked = [], {}, {}, {}
    orig_unit = linalg.pencil_det_fp
    orig_collect = hilbert._collect_node_data
    orig_minor = hilbert._chart_minor
    orig_chart = hilbert._default_chart

    def recording(a, b, p):
        units.append(orig_unit(a, b, p))
        return units[-1]

    def keeping(*args):
        first, data = orig_collect(*args)
        kept["data"] = data
        return first, data

    def minor_kept(data, dropped, p):
        raws[tuple(dropped)] = orig_minor(data, dropped, p)
        return raws[tuple(dropped)]

    def every_chart(fn, n, chart):
        for cand in monomials(6, 3)[:25]:
            del units[:]
            try:
                fn(cand)
            except ValueError:
                pass
            walked[cand] = list(units)
        return orig_chart(fn, n, chart)

    monkeypatch.setattr(linalg, "pencil_det_fp", recording)
    monkeypatch.setattr(hilbert, "_collect_node_data", keeping)
    monkeypatch.setattr(hilbert, "_chart_minor", minor_kept)
    monkeypatch.setattr(hilbert, "_default_chart", every_chart)
    pencil_profile(F, G, p=P)
    us = kept["data"].us.tolist()
    witness = {u: hilbert._witness_rows(linalg.to_fp_matrix(
        coefficient_vector(F.scale(u) + G, 3), P), 6) for u in us}
    assert len(walked) == 25
    for cand, chart_units in walked.items():
        cols = hilbert._chart_columns(cand, 6)
        assert len(chart_units) == 1
        assert [linalg.poly_eval(chart_units[0], u, P) for u in us] == \
            [linalg.det_fp(witness[u][:, cols], P) for u in us]
    family = pencil_family(F, G, P)
    nodes = [12345, 777, 4242424]
    assert not set(nodes) & set(us)
    matrices = [_direct_product_matrix(F, G, family, u) for u in nodes]
    assert sum(bool(raw) for raw in raws.values()) > 1
    for dropped, raw in raws.items():
        for u, mat in zip(nodes, matrices):
            assert linalg.poly_eval(raw, u, P) == \
                linalg.det_fp(np.delete(mat, dropped, axis=1), P)


@pytest.mark.parametrize("pair", ["worked", "generic"])
def test_chart_minor_across_the_fixed_pivots(pair):
    # every cubic chart, whichever of its six columns are pivots of the
    # fixed rows, gives the direct minor at the first node
    F, G = _pencil_pair(pair)
    family = pencil_family(F, G, P)
    first, data = hilbert._collect_node_data(F, G, family,
                                              list(range(1, 99)), P)
    assert np.array_equal(first, _direct_product_matrix(F, G, family, 1))
    # a free column's kernel column is a unit vector
    free = (data.kernel != 0).sum(axis=0) == 1
    met = set()
    for chart in monomials(6, 3):
        dropped = sorted(hilbert._chart_columns(chart, 6))
        met.add(int((~free[dropped]).sum()))
        raw = hilbert._chart_minor(data, dropped, P)
        assert linalg.poly_eval(raw, 1, P) == \
            linalg.det_fp(np.delete(first, dropped, axis=1), P)
    # the generic pair meets 0..6 fixed pivots, the worked pair all but 2
    assert len(met) >= 6


def test_spot_check_catches_a_wrong_node_kernel(monkeypatch):
    # the direct minor at the first node is independent of the Schur data
    orig = hilbert._collect_node_data

    def perturbed(*args):
        first, data = orig(*args)
        first = first.copy()
        first[0, 0] = (first[0, 0] + 1) % P
        return first, data

    monkeypatch.setattr(hilbert, "_collect_node_data", perturbed)
    with pytest.raises(ValueError, match="disagrees with its characteristic"):
        pencil_profile(_fixture(), _cube(), (0, 0, 0, 0, 0, 3), p=P, seed=2)


@pytest.mark.parametrize("wrong", ["shift-determinant", "charpoly"])
def test_spot_check_catches_a_wrong_chart_polynomial(monkeypatch, wrong):
    # a wrong det L(u*) scales every chart's raw polynomial alike, so the
    # charts still agree; a wrong charpoly coefficient is caught by the
    # verifying chart, so here the explicit chart is the only usable one.
    # Either way the spot check must raise
    chart = (0, 0, 0, 0, 0, 3)
    if wrong == "shift-determinant":
        orig = linalg.pivot_kernel_fp

        def perturbed(mat, p):
            d, pivots, kern = orig(mat, p)
            if np.shape(mat)[1] == 2 * np.shape(mat)[0] > 12:
                d = (d + 1) % p
            return d, pivots, kern

        monkeypatch.setattr(linalg, "pivot_kernel_fp", perturbed)
    else:
        orig_char, orig_chart = linalg.charpoly_fp, hilbert._default_chart

        def perturbed(mat, p):
            char = orig_char(mat, p)
            char[1] = (char[1] + 1) % p
            return char

        def lone(fn, n, explicit):
            def only(cand):
                if cand != chart:
                    raise ValueError("chart unit vanishes identically")
                return fn(cand)
            return orig_chart(only, n, explicit)

        monkeypatch.setattr(linalg, "charpoly_fp", perturbed)
        monkeypatch.setattr(hilbert, "_default_chart", lone)
    with pytest.raises(ValueError, match="disagrees with its characteristic"):
        pencil_profile(_fixture(), _cube(), chart, p=P, seed=2)


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
    assert perp4_dim(F1, P) == perp4_dim(F2, P) == 6
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
