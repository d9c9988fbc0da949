"""In-memory span tracer for the layers of the ``apolar`` package.

The tracer wraps module-level functions from outside the package: every
module of ``apolar`` that holds a function under some name (the defining
module, and any module that imported it by name, such as ``hilbert``
importing ``ann_degree`` from ``apolarity``) gets the wrapper at that
binding, so calls made through any binding are seen.  Each call becomes
one span ``(name, start, end, parent span, op id)``; spans stay in memory
until :meth:`Tracer.dump` hands them out.

Layer metrics derived from the spans:

* ``<module>.<function>.calls`` -- number of calls, recursive ones included;
* ``.self_s`` -- span time not covered by child spans, so a recursive call
  is charged to the inner span only;
* ``.total_s`` -- span time of the outermost calls only, so time under a
  recursive call is not counted twice.

``square_perp_basis`` is split by its degree argument into
``hilbert.square_perp_basis.d4`` .. ``.d7``.  A few functions also get a
multiply-add count worked out from each call's shape and rank (labelled
``computed`` in the metric table).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> traced module-level functions
LAYERS = {
    "cli": ("main",),
    "hilbert": ("square_perp_basis", "perp_dimensions", "ev_product_matrix",
                "pencil_family", "pencil_profile", "_collect_node_data",
                "_default_chart"),
    "apolarity": ("hilbert_function", "ann_degree", "is_nondegenerate_cubic",
                  "dual_socle_generator", "family_length_profile"),
    "linalg": ("rref_fp", "kernel_fp", "restrict_kernel", "matmul_fp",
               "det_fp", "interpolate", "roots_fp", "to_fp_matrix",
               "rref_q", "kernel_q", "rank_q"),
    "constructions": ("gr26_section_cubic", "waring_sum", "random_cubic"),
    "poly": ("parse_poly", "format_poly", "mul_s", "contract"),
}

PERP_DEGREES = (4, 5, 6, 7)


def span_names() -> list[str]:
    """Every span name the tracer can record, in a fixed order."""
    names = []
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            if fn == "square_perp_basis":
                names.extend("%s.%s.d%d" % (mod, fn, d) for d in PERP_DEGREES)
            else:
                names.append("%s.%s" % (mod, fn))
    return names


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _shape(mat):
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return tuple(shape) if len(shape) == 2 else (1, shape[0])
    return (len(mat), len(mat[0]) if mat else 0)


# multiply-add counts, worked out from the arguments and the result
def _rref_fp_ops(args, kwargs, result):
    red, _rank, pivots = result
    nrows, ncols = red.shape
    return sum(nrows * (ncols - c) for c in pivots)


def _rref_q_ops(args, kwargs, result):
    # the rational elimination updates whole rows, one pass per pivot
    red, _rank, pivots = result
    nrows, ncols = _shape(red)
    return len(pivots) * nrows * ncols


def _det_fp_ops(args, kwargs, result):
    n = _shape(_arg(args, kwargs, 0, "mat"))[0]
    return (n ** 3 - n) // 3


def _matmul_fp_ops(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    m, k = _shape(a)
    return m * k * _shape(b)[1]


OP_COUNTERS = {
    "linalg.rref_fp": _rref_fp_ops,
    "linalg.det_fp": _det_fp_ops,
    "linalg.matmul_fp": _matmul_fp_ops,
    "linalg.rref_q": _rref_q_ops,
}


class Tracer:
    """Records spans for calls into the traced ``apolar`` functions.

    ``install`` puts the wrappers in place, ``uninstall`` restores the
    original bindings; between the two, set ``op_id`` before each op so
    that its spans carry it.
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id]
        self.ops_count: dict[str, int] = defaultdict(int)
        self.cert_prime_calls = 0
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict[tuple[str, str], object] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import apolar.hilbert  # noqa: F401  (loads every layer module)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "apolar"
                                         or name.startswith("apolar."))]
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules["apolar." + mod_name]
            for fn_name in funcs:
                orig = getattr(mod, fn_name)
                key = (mod_name, fn_name)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(mod_name, fn_name, orig)
                wrapper = self._wrappers[key]
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    def _wrap(self, mod_name: str, fn_name: str, fn):
        base = "%s.%s" % (mod_name, fn_name)
        spans, stack = self.spans, self._stack
        counter = OP_COUNTERS.get(base)
        perf = time.perf_counter
        if fn_name == "square_perp_basis":
            from apolar import hilbert
            cert_prime = hilbert._CERT_PRIME

            def name_of(args, kwargs):
                if _arg(args, kwargs, 2, "p") == cert_prime:
                    self.cert_prime_calls += 1
                return "%s.d%d" % (base, _arg(args, kwargs, 1, "d"))
        else:
            def name_of(args, kwargs):
                return base

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_of(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counter is not None:
                self.ops_count[base] += counter(args, kwargs, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls, self time and total time per span name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        nested = [False] * len(spans)
        for i, (name, start, end, parent, _op) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            # a span is nested when one of its ancestors has its name;
            # parents always precede their children in the list
            anc = parent
            while anc >= 0:
                if spans[anc][0] == name:
                    nested[i] = True
                    break
                anc = spans[anc][3]
        stats = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for n in span_names()}
        for i, (name, start, end, _parent, _op) in enumerate(spans):
            rec = stats[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            if not nested[i]:
                rec["total_s"] += end - start
        return stats

    def dump(self) -> dict:
        """Every span as JSON-ready data: field names once, then rows."""
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans}
