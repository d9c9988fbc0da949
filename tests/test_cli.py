from __future__ import annotations

import json

import pytest

from apolar import cli, hilbert
from apolar.cli import main

FIXTURE = "x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture_exit_zero(capsys):
    code, out, _ = _run(capsys, "analyze", FIXTURE, "--primes", "2", "--seed", "1")
    assert code == 0
    assert "hilbert function: (1, 6, 6, 1)" in out
    assert "tangent dimension: 76" in out
    assert "verdict: NonSmoothableCertified" in out


def test_analyze_boundary_exit_two(capsys):
    cubic = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
    code, out, _ = _run(capsys, "analyze", cubic, "--primes", "2")
    assert code == 2
    assert "on divisor E: yes" in out
    assert "verdict: SmoothableBoundary" in out


def test_analyze_degenerate_exit_three(capsys):
    code, out, _ = _run(capsys, "analyze", "x5^3", "--primes", "2")
    assert code == 3
    assert "verdict: Degenerate" in out
    assert "tangent" not in out


def test_analyze_json_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = _run(capsys, "analyze", FIXTURE, "--primes", "2",
                      "--seed", "5", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "apolar-report/1"
    for key in ("input", "field", "hf", "dim_I2", "perp_dims", "tangent_dim",
                "on_E", "verdict", "primes_used", "timings_ms"):
        assert key in doc
    assert doc["hf"] == [1, 6, 6, 1]
    assert doc["on_E"] is False
    assert len(doc["primes_used"]) == 2


def test_analyze_rational_field(capsys):
    code, out, _ = _run(capsys, "analyze", FIXTURE, "--field", "q")
    assert code == 0
    assert "tangent dimension: 76" in out


def test_analyze_rational_field_picks_a_certificate_prime(capsys):
    # 67108859, the largest prime below 2^26, divides a denominator of the
    # first cubic and makes the second one degenerate; both are valid
    # nondegenerate cubics over Q, off the divisor
    for cubic in (
            "1/67108859*x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2",
            "67108859*x0*x1*x3 - 67108859*x0*x4^2 + x1*x2^2 + x2*x4*x5"
            " + x3*x5^2"):
        code, out, _ = _run(capsys, "analyze", cubic, "--field", "q")
        assert code == 0
        assert "perp dims: 4 -> 6, 5 -> 0, 6 -> 0, 7 -> 0" in out


def test_drawn_prime_dividing_a_denominator_is_skipped(capsys):
    # seed 0 draws 53455691, which divides a denominator of this cubic;
    # the next prime of the same seeded stream takes its place
    cubic = "1/53455691*x0*x1*x3 - x0*x4^2 + x1*x2^2 + x2*x4*x5 + x3*x5^2"
    for argv in (("analyze", cubic),
                 ("pencil", "--f1", cubic, "--f2", "x5^3")):
        code, out, _ = _run(capsys, *argv)
        assert code in (0, 2)
        primes = out.rsplit("primes: ", 1)[1].strip().split(", ")
        assert len(primes) == 3 and "53455691" not in primes
        assert "59259479" in primes and "60845693" in primes


def test_analyze_json_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(capsys, "analyze", FIXTURE, "--primes", "2", "--seed", "3",
         "--json", str(a))
    _run(capsys, "analyze", FIXTURE, "--primes", "2", "--seed", "3",
         "--json", str(b))
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timings_ms"), db.pop("timings_ms")
    assert da == db


def test_analyze_syntax_error(capsys):
    code, _, err = _run(capsys, "analyze", "x0 +* x1")
    assert code == 3
    assert "error:" in err


def test_analyze_dangling_sign_is_a_parse_error(capsys):
    code, _, err = _run(capsys, "analyze", "x0^3 +")
    assert code == 3
    assert "dangling sign" in err


def _refuse(*_args, **_kwargs):
    raise AssertionError("computed before checking the report path")


def test_analyze_unwritable_json_path_fails_first(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(cli.hilbert, "analyze", _refuse)
    path = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, "analyze", FIXTURE, "--json", str(path))
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_pencil_unwritable_json_path_fails_first(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(cli.hilbert, "pencil_report", _refuse)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = _run(capsys, "pencil", "--f1", FIXTURE,
                              "--f2", "x5^3", "--json", str(path))
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_pencil_fixture(capsys, tmp_path):
    path = tmp_path / "pencil.json"
    code, out, _ = _run(capsys, "pencil", "--f1", FIXTURE, "--f2", "x5^3",
                        "--primes", "3", "--seed", "2", "--json", str(path))
    assert code == 0
    assert "total degree: 10" in out
    assert "multiplicity at u = 0: 10" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "apolar-pencil/1"
    assert doc["total_degree"] == 10
    assert len(doc["roots_by_prime"]) == 3
    for roots in doc["roots_by_prime"].values():
        assert roots == {"0": 10}
    for det in doc["determinant_by_prime"].values():
        assert det == [0] * 10 + [1]


def test_pencil_rejects_rational_field(capsys):
    code, _, err = _run(capsys, "pencil", "--f1", "x0^3", "--f2", "x1^3",
                        "--field", "q")
    assert code == 64
    assert "prime" in err


def test_pencil_identical_endpoints(capsys):
    code, _, err = _run(capsys, "pencil", "--f1", "x5^3", "--f2", "x5^3")
    assert code == 3
    assert "distinct" in err


def test_pencil_rejects_an_endpoint_that_is_not_a_cubic(capsys):
    for f1, f2, name in (("x0^2", "x5^3", "F1"), (FIXTURE, "x0^4", "F2")):
        code, _, err = _run(capsys, "pencil", "--f1", f1, "--f2", f2)
        assert code == 3
        assert "pencil endpoint %s must be a nonzero homogeneous" % name in err


def test_pencil_that_does_not_move(capsys):
    # proportional endpoints share every quadric; the default-chart path
    # reports the family error, as the explicit-chart path does
    for extra in ([], ["--chart", "x5^3"]):
        code, _, err = _run(capsys, "pencil", "--f1", "x5^3",
                            "--f2", "2*x5^3", *extra)
        assert code == 3
        assert "pencil family has 20 constants + 0 movers" in err


def test_primes_below_one_is_a_usage_error(capsys):
    for count in ("0", "-1"):
        code, _, err = _run(capsys, "analyze", FIXTURE, "--primes", count)
        assert code == 64
        assert "--primes" in err
        code, _, err = _run(capsys, "pencil", "--f1", FIXTURE, "--f2", "x5^3",
                            "--primes", count)
        assert code == 64
        assert "--primes" in err


def test_construct_sum_cubes(capsys):
    code, out, _ = _run(capsys, "construct", "sum-cubes", "--json", "-")
    assert code == 0
    assert "x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["schema"] == "apolar-construct/1"
    assert doc["kind"] == "sum-cubes"


def test_construct_gr26_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ca, _, _ = _run(capsys, "construct", "gr26", "--seed", "7", "--json", str(a))
    cb, _, _ = _run(capsys, "construct", "gr26", "--seed", "7", "--json", str(b))
    assert ca == cb == 0
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert len(doc["quadrics"]) == 15
    assert len(doc["matrix"]) == 15


def test_construct_gr26_feeds_analyze(capsys):
    code, out, _ = _run(capsys, "construct", "gr26", "--seed", "2", "--json", "-")
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    code2, out2, _ = _run(capsys, "analyze", doc["cubic"], "--primes", "2")
    assert code2 == 2
    assert "on divisor E: yes" in out2


def test_construct_waring_points_echoed(capsys):
    code, out, _ = _run(capsys, "construct", "waring", "--points", "9",
                        "--seed", "1", "--json", "-")
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert doc["kind"] == "waring"
    assert len(doc["points"]) == 9


@pytest.mark.parametrize("points", ["0", "-1"])
def test_construct_waring_bad_point_count_is_a_usage_error(capsys, points):
    code, out, err = _run(capsys, "construct", "waring", "--points", points)
    assert code == 64
    assert out == ""
    assert "--points" in err


def test_construct_dvap_echoes_identification(capsys):
    sextic = "x0^6 + x1^6 + x2^6"
    code, out, _ = _run(capsys, "construct", "dvap", "--input", sextic,
                        "--json", "-")
    assert code == 0
    assert "x0^3 + x3^3 + x5^3" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["sextic"] == sextic
    assert doc["identification"] == [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                                     [0, 2, 0], [0, 1, 1], [0, 0, 2]]


def test_family_constant(capsys):
    code, out, _ = _run(capsys, "family", "t*x1^2 + x1*x2",
                        "--samples", "0,1,2,3")
    assert code == 0
    assert "profile: CONSTANT" in out
    assert out.count("length 4") == 4


def test_family_jump(capsys):
    code, out, _ = _run(capsys, "family", "t*x1", "--samples", "0,1,2",
                        "--json", "-")
    assert code == 0
    assert "profile: JUMP" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["schema"] == "apolar-family/1"
    assert doc["lengths"] == {"0": 1, "1": 2, "2": 2}


def test_family_fp_skips_a_prime_in_a_denominator(capsys):
    # the seed-0 prime divides a coefficient denominator of the template,
    # so the fp run draws the next prime and answers as the q run does
    q = hilbert.draw_primes(1, 0)[0]
    docs = {}
    for field in ("fp", "q"):
        code, out, _ = _run(capsys, "family", "t*x1 + 1/%d*x2^2" % q,
                            "--samples", "0,1", "--field", field,
                            "--json", "-")
        assert code == 0
        docs[field] = json.loads(out[out.index("{"):])
    assert docs["fp"]["prime"] != q
    assert docs["fp"]["lengths"] == docs["q"]["lengths"]
    assert docs["fp"]["flag"] == docs["q"]["flag"] == "CONSTANT"


def test_family_bad_samples(capsys):
    code, _, err = _run(capsys, "family", "t*x1", "--samples", "a,b")
    assert code == 64
    code, _, err = _run(capsys, "family", "t*x1", "--samples", "")
    assert code == 64


def test_unknown_subcommand(capsys):
    assert _run(capsys, "nosuch")[0] == 64


def test_unsupported_variable_count(capsys):
    assert _run(capsys, "analyze", "x0^3", "--vars", "4")[0] == 64
