"""Sparse exact polynomials and the contraction (apolarity) calculus.

Two rings share one representation: the operator ring S, printed with
variables ``a0..a{n-1}``, acts on the polynomial side P, printed with
``x0..x{n-1}``.  P carries the divided-power structure: the monomial basis
of P is dual to the monomial basis of S under contraction, with no
factorial factors anywhere.  Coefficients are exact (python ``int`` or
``fractions.Fraction``); residues mod a prime only ever appear inside the
linear-algebra layer, never here.

Monomials are exponent tuples; the canonical order everywhere is graded
lexicographic with x0 > x1 > ... > x{n-1} (within a degree, exponent tuples
sorted lexicographically descending).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]

RING_LETTER = {"P": "x", "S": "a"}

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MILLER_RABIN_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def monomials(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given degree, graded-lex descending."""
    if degree < 0:
        return ()
    if n_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(n_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(n_vars, degree))}


def dim_degree(n_vars: int, degree: int) -> int:
    """Dimension of the degree-d graded piece, C(n+d-1, d)."""
    if degree < 0:
        return 0
    return math.comb(n_vars + degree - 1, degree)


class Poly:
    """Sparse polynomial: map from exponent tuple to nonzero coefficient.

    Instances are treated as immutable; none of the module operations
    mutate their arguments.
    """

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring: str, n_vars: int, terms: dict | None = None):
        if ring not in ("P", "S"):
            raise ValueError("ring must be 'P' or 'S'")
        self.ring = ring
        self.n = n_vars
        clean = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != n_vars:
                raise ValueError("exponent %r has wrong length" % (expo,))
            if coeff:
                clean[tuple(expo)] = coeff
        self.terms = clean

    # -- ring-independent helpers ------------------------------------

    @classmethod
    def zero(cls, ring: str, n_vars: int) -> "Poly":
        return cls(ring, n_vars, {})

    @classmethod
    def monomial(cls, ring: str, n_vars: int, expo, coeff: Scalar = 1) -> "Poly":
        return cls(ring, n_vars, {tuple(expo): coeff})

    @classmethod
    def variable(cls, ring: str, n_vars: int, i: int) -> "Poly":
        e = [0] * n_vars
        e[i] = 1
        return cls.monomial(ring, n_vars, e)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, expo) -> Scalar:
        return self.terms.get(tuple(expo), 0)

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.ring, self.n, {e: fn(c) for e, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        self._match(other)
        total = dict(self.terms)
        for e, c in other.terms.items():
            total[e] = total.get(e, 0) + c
        return Poly(self.ring, self.n, total)

    def __neg__(self) -> "Poly":
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, s: Scalar) -> "Poly":
        if not s:
            return Poly.zero(self.ring, self.n)
        return self.map_coeffs(lambda c: c * s)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return "Poly(%r, %d, %s)" % (self.ring, self.n, format_poly(self))

    def __str__(self):
        return format_poly(self)

    def _match(self, other: "Poly"):
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("ring or variable-count mismatch")


def _sort_key(expo):
    # graded-lex descending: higher degree first, then lex with x0 largest
    return (-sum(expo), tuple(-e for e in expo))


def format_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(p)) recovers p."""
    if not p.terms:
        return "0"
    letter = RING_LETTER[p.ring]
    chunks = []
    for expo in sorted(p.terms, key=_sort_key):
        coeff = p.terms[expo]
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = [
            "%s%d^%d" % (letter, i, e) if e > 1 else "%s%d" % (letter, i)
            for i, e in enumerate(expo)
            if e
        ]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([xat])(\d*)|([+\-*^]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            raise ValueError("syntax error at position %d: %r" % (pos, text[pos:pos + 8]))
        if m.group(1) is not None:
            out.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            out.append(("var", (m.group(2), m.group(3)), m.start(2)))
        else:
            out.append(("op", m.group(4), m.start(4)))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def _parse_terms(text: str, letter: str, n_vars: int, param_index: int | None):
    """Shared parser body; ``param_index`` maps the letter t, if allowed."""
    tokens = _tokenize(text)
    total: dict[tuple, Scalar] = {}
    i, sign, first = 0, 1, True
    width = n_vars + (1 if param_index is not None else 0)
    while i < len(tokens):
        kind, val, pos = tokens[i]
        if kind == "op" and val in "+-":
            if not first and tokens[i - 1][0] == "op":
                raise ValueError("syntax error at position %d: doubled sign" % pos)
            sign = 1 if val == "+" else -1
            i += 1
            continue
        # one term: factors until the next +/- at top level
        coeff: Scalar = sign
        expo = [0] * width
        expect_factor = True
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ValueError("syntax error at position %d: stray '*'" % pos)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ValueError("syntax error at position %d: missing '*'" % pos)
            if kind == "num":
                if "/" in val:
                    num, den = val.split("/")
                    if int(den) == 0:
                        raise ValueError("zero denominator at position %d" % pos)
                    coeff = coeff * Fraction(int(num), int(den))
                else:
                    coeff = coeff * int(val)
                i += 1
            else:
                vletter, vindex = val
                if vletter == "t":
                    if param_index is None:
                        raise ValueError(
                            "parameter 't' not allowed at position %d" % pos)
                    if vindex:
                        raise ValueError("'t' takes no index (position %d)" % pos)
                    var = param_index
                elif vletter != letter:
                    raise ValueError(
                        "variable letter %r at position %d does not match ring %r"
                        % (vletter, pos, letter))
                else:
                    if not vindex:
                        raise ValueError("missing variable index at position %d" % pos)
                    var = int(vindex)
                    if var >= n_vars:
                        raise ValueError(
                            "variable index %d out of range (n=%d) at position %d"
                            % (var, n_vars, pos))
                i += 1
                power = 1
                if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        raise ValueError("bad exponent at position %d" % pos)
                    power = int(tokens[i][1])
                    i += 1
                expo[var] += power
            expect_factor = False
        if expect_factor:
            raise ValueError("empty term near position %d" % (pos,))
        key = tuple(expo)
        total[key] = total.get(key, 0) + coeff
        sign, first = 1, False
    if first and text.strip() != "0" and not total:
        raise ValueError("empty input")
    return total, width


def parse_poly(text: str, ring: str, n_vars: int) -> Poly:
    """Parse the package grammar into a canonical sparse polynomial.

    Grammar: terms joined by + and -; a term is an optional rational
    coefficient (integer or p/q) and '*'-separated factors ``x<i>`` or
    ``a<i>`` with optional ``^<e>``; whitespace is ignored.  The P ring
    uses letter x, the S ring letter a.

    Raises ValueError with a position for syntax errors, out-of-range
    variable indices, and malformed coefficients.
    """
    if ring not in RING_LETTER:
        raise ValueError("ring must be 'P' or 'S'")
    terms, _ = _parse_terms(text, RING_LETTER[ring], n_vars, None)
    return Poly(ring, n_vars, terms)


def parse_family_template(text: str, n_vars: int) -> Poly:
    """Parse a P-ring polynomial that may also use the parameter letter t.

    The result has one extra variable: index ``n_vars`` holds the t-degree.
    Specialize with :func:`specialize_parameter`.
    """
    terms, width = _parse_terms(text, "x", n_vars, n_vars)
    return Poly("P", width, terms)


def specialize_parameter(template: Poly, t_value: Scalar) -> Poly:
    """Evaluate the trailing parameter variable of a family template."""
    n = template.n - 1
    out: dict[tuple, Scalar] = {}
    for expo, coeff in template.terms.items():
        base, tdeg = expo[:n], expo[n]
        c = coeff * (t_value ** tdeg if tdeg else 1)
        if c:
            out[base] = out.get(base, 0) + c
    return Poly("P", n, out)


def contract(sigma: Poly, f: Poly) -> Poly:
    """Apply an operator to a polynomial: a^e ∘ x^b = x^(b-e) or 0.

    The action is the contraction pairing: the monomial bases are dual
    (constant term of a^e ∘ x^b is 1 exactly when e = b) and there are no
    factorial coefficients.  Each linear operator a_i acts as a derivation
    for the divided-power product :func:`dp_mul`.

    Args:
        sigma: an S-ring operator.
        f: a P-ring polynomial with the same number of variables.

    Returns:
        The P-ring polynomial sigma ∘ f.

    Raises:
        ValueError: on ring-tag or variable-count mismatch.
    """
    if sigma.ring != "S" or f.ring != "P":
        raise ValueError("contract wants (S operator, P polynomial)")
    if sigma.n != f.n:
        raise ValueError("variable-count mismatch")
    out: dict[tuple, Scalar] = {}
    for se, sc in sigma.terms.items():
        for fe, fc in f.terms.items():
            if all(b >= a for a, b in zip(se, fe)):
                key = tuple(b - a for a, b in zip(se, fe))
                val = out.get(key, 0) + sc * fc
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
    return Poly("P", f.n, out)


def dp_mul(f: Poly, g: Poly) -> Poly:
    """Divided-power product on P: x^a ⊛ x^b = prod C(a_i+b_i, a_i) x^(a+b).

    This is the multiplication for which every linear operator acts as a
    derivation under :func:`contract`.  Coefficients here are rational;
    when results are later reduced mod p the caller keeps p larger than
    the degrees involved, so the binomial factors never vanish.
    """
    if f.ring != "P" or g.ring != "P":
        raise ValueError("dp_mul is defined on the P ring")
    f._match(g)
    out: dict[tuple, Scalar] = {}
    for ae, ac in f.terms.items():
        for be, bc in g.terms.items():
            w = 1
            for x, y in zip(ae, be):
                if x and y:
                    w *= math.comb(x + y, x)
            key = tuple(x + y for x, y in zip(ae, be))
            val = out.get(key, 0) + ac * bc * w
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return Poly("P", f.n, out)


def mul_s(p: Poly, q: Poly) -> Poly:
    """Ordinary commutative product in the operator ring S."""
    if p.ring != "S" or q.ring != "S":
        raise ValueError("mul_s is defined on the S ring")
    p._match(q)
    out: dict[tuple, Scalar] = {}
    for ae, ac in p.terms.items():
        for be, bc in q.terms.items():
            key = tuple(x + y for x, y in zip(ae, be))
            val = out.get(key, 0) + ac * bc
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return Poly("S", p.n, out)


def waring_power(c: Iterable[Scalar], degree: int, ring: str = "P") -> Poly:
    """Divided-power d-th power of the linear form with coefficients c.

    Returns sum over |e| = d of (prod c_i^e_i) x^e, i.e. the form whose
    contraction by any operator sigma of degree r is sigma(c) times the
    analogous power of degree d - r.
    """
    c = list(c)
    if not any(c):
        raise ValueError("zero vector has no well-defined power point")
    n = len(c)
    terms: dict[tuple, Scalar] = {}
    for expo in monomials(n, degree):
        w: Scalar = 1
        for ci, e in zip(c, expo):
            if e:
                if not ci:
                    w = 0
                    break
                w *= ci ** e
        if w:
            terms[expo] = w
    return Poly(ring, n, terms)


def waring_cube(c: Iterable[Scalar]) -> Poly:
    """Degree-3 power of a point: the rank-one cubics spanning secants.

    Normalized so that the annihilator of the result is the ideal of the
    point [c]: sigma ∘ waring_cube(c) = sigma(c) · waring_power(c, 3 - deg).
    (The divided-power cube of the same linear form differs by 3! = 6.)
    """
    return waring_power(c, 3)


def substitute_shift(sigma: Poly, w: Iterable[Scalar]) -> Poly:
    """Substitute a_i -> a_i + w_i in an operator (ordinary expansion).

    Used to translate annihilator ideals to a new support point.
    """
    if sigma.ring != "S":
        raise ValueError("substitute_shift acts on the S ring")
    w = list(w)
    if len(w) != sigma.n:
        raise ValueError("shift vector has wrong length")
    out: dict[tuple, Scalar] = {}
    for expo, coeff in sigma.terms.items():
        # expand prod_i (a_i + w_i)^{e_i} one variable at a time
        partial = {tuple([0] * sigma.n): coeff}
        for i, e in enumerate(expo):
            if not e:
                continue
            grown: dict[tuple, Scalar] = {}
            for k in range(e + 1):
                scale = math.comb(e, k) * (w[i] ** (e - k) if e != k else 1)
                if not scale:
                    continue
                for pe, pc in partial.items():
                    key = list(pe)
                    key[i] += k
                    key = tuple(key)
                    grown[key] = grown.get(key, 0) + pc * scale
            partial = grown
        for pe, pc in partial.items():
            val = out.get(pe, 0) + pc
            if val:
                out[pe] = val
            elif pe in out:
                del out[pe]
    return Poly("S", sigma.n, out)


def graded_parts(f: Poly) -> list[Poly]:
    """Split by total degree, lowest first, top-degree form last."""
    if not f.terms:
        return []
    buckets: dict[int, dict] = {}
    for expo, coeff in f.terms.items():
        buckets.setdefault(sum(expo), {})[expo] = coeff
    return [Poly(f.ring, f.n, buckets[d]) for d in sorted(buckets)]


def _det_fraction(rows: list[list[Scalar]]) -> Scalar:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def change_of_basis(F: Poly, g) -> Poly:
    """Apply an invertible linear change of variables to a P polynomial.

    The variable x_i is sent to the linear form sum_j g[j][i] x_j, and a
    monomial x^a maps to the divided-power product of the powers
    waring_power(column_i, a_i).  With this normalization plain monomial
    substitution is recovered for diagonal and permutation matrices, the
    map is a group action ((gh)·F = g·(h·F)), and the contraction pairing
    transforms equivariantly, so catalecticant ranks are preserved.

    Raises:
        ValueError: if g is not square of the right size or is singular.
    """
    if F.ring != "P":
        raise ValueError("change_of_basis acts on the P ring")
    rows = [list(r) for r in g]
    if len(rows) != F.n or any(len(r) != F.n for r in rows):
        raise ValueError("matrix must be %d x %d" % (F.n, F.n))
    if _det_fraction(rows) == 0:
        raise ValueError("singular change of basis")
    cols = [[rows[j][i] for j in range(F.n)] for i in range(F.n)]
    out = Poly.zero("P", F.n)
    for expo, coeff in F.terms.items():
        piece = None
        for i, e in enumerate(expo):
            if not e:
                continue
            factor = waring_power(cols[i], e)
            piece = factor if piece is None else dp_mul(piece, factor)
        if piece is None:  # constant term
            piece = Poly("P", F.n, {tuple([0] * F.n): 1})
        out = out + piece.scale(coeff)
    return out


def coefficient_vector(f: Poly, degree: int) -> list[Scalar]:
    """Coefficients of the degree-d part on the canonical monomial list."""
    idx = monomial_index(f.n, degree)
    vec: list[Scalar] = [0] * len(idx)
    for expo, coeff in f.terms.items():
        if sum(expo) == degree:
            vec[idx[expo]] = coeff
    return vec


def poly_from_vector(vec, ring: str, n_vars: int, degree: int) -> Poly:
    monos = monomials(n_vars, degree)
    return Poly(ring, n_vars, {m: c for m, c in zip(monos, vec) if c})
