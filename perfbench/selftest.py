"""Checks of the benchmark harness itself (not part of the package tests).

    python3 -m pytest -q perfbench/selftest.py

The tracer must see every call of a traced function, whichever module
binding the call went through: its span counts are compared with the call
counts ``cProfile`` reports for one small op of each workload.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from apolar import cli, constructions, hilbert  # noqa: E402

SMALL_OPS = [("analyze-fp", "rc0"), ("exact-q", "rq0"), ("exact-q", "flat"),
             ("pencil", "worked")]


def _originals():
    return {(mod, fn): getattr(sys.modules["apolar." + mod], fn)
            for mod, fns in tracer_mod.LAYERS.items() for fn in fns}


def test_install_replaces_every_binding_and_uninstall_restores_it():
    originals = _originals()
    modules = [m for name, m in sys.modules.items()
               if name == "apolar" or name.startswith("apolar.")]
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        for orig in originals.values():
            for m in modules:
                assert all(v is not orig for v in vars(m).values()), m
        # names imported by name into other modules
        assert hilbert.ann_degree is not originals[("apolarity", "ann_degree")]
        assert hilbert.is_nondegenerate_cubic is not \
            originals[("apolarity", "is_nondegenerate_cubic")]
        assert constructions.dual_socle_generator is not \
            originals[("apolarity", "dual_socle_generator")]
    finally:
        tr.uninstall()
    assert _originals() == originals
    assert hilbert.ann_degree is originals[("apolarity", "ann_degree")]


@pytest.mark.parametrize("workload,key", SMALL_OPS)
def test_span_counts_match_cprofile(workload, key):
    op = next(o for o in workloads.make_pass(workload, 0) if o.key == key)
    argv = list(op.argv)
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        prof.enable()
        cli.main(argv)
        prof.disable()
    raw = pstats.Stats(prof).stats   # (file, line, name) -> (cc, nc, ...)
    expected = {}
    for (mod, fn), orig in _originals().items():
        code = orig.__code__
        entry = raw.get((code.co_filename, code.co_firstlineno, code.co_name))
        expected["%s.%s" % (mod, fn)] = entry[1] if entry else 0

    tr = tracer_mod.Tracer()
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        tr.uninstall()
    stats = tr.layer_stats()
    got = {}
    for name, rec in stats.items():
        base = name.rsplit(".d", 1)[0] if ".square_perp_basis." in name \
            else name
        got[base] = got.get(base, 0) + rec["calls"]
    assert got == expected
    assert stats["cli.main"]["calls"] == 1


def test_self_time_under_recursion():
    # over Q a degree-5 perp first calls itself at the certificate prime
    F = constructions.random_cubic(0)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        hilbert.square_perp_basis(F, 5)
    finally:
        tr.uninstall()
    outer = tr.spans[0]
    inner = [s for s in tr.spans[1:] if s[0] == outer[0]]
    assert outer[0] == "hilbert.square_perp_basis.d5" and len(inner) == 1
    assert tr.cert_prime_calls == 1
    stats = tr.layer_stats()
    rec = stats["hilbert.square_perp_basis.d5"]
    assert rec["calls"] == 2
    assert rec["total_s"] == pytest.approx(outer[2] - outer[1])
    # self times partition the outer span exactly
    assert sum(r["self_s"] for r in stats.values()) == \
        pytest.approx(outer[2] - outer[1])
    assert 0 < rec["self_s"] < rec["total_s"]


def test_self_time_on_synthetic_spans():
    tr = tracer_mod.Tracer()
    tr.spans.extend([
        ["cli.main", 0.0, 10.0, -1, 0],
        ["hilbert.square_perp_basis.d4", 1.0, 9.0, 0, 0],
        ["hilbert.square_perp_basis.d4", 2.0, 6.0, 1, 0],
        ["linalg.rref_fp", 3.0, 4.0, 2, 0],
    ])
    stats = tr.layer_stats()
    assert stats["cli.main"] == {"calls": 1, "self_s": 2.0, "total_s": 10.0}
    assert stats["hilbert.square_perp_basis.d4"] == \
        {"calls": 2, "self_s": 7.0, "total_s": 8.0}
    assert stats["linalg.rref_fp"] == {"calls": 1, "self_s": 1.0,
                                       "total_s": 1.0}


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(11)]) == \
        (0.0, pytest.approx(100 / 11))
    value, pct = run.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)
