"""Dense univariate polynomials over Q (Fraction coefficients).

Just enough algebra for curve validation: arithmetic, gcd, squarefree
decomposition, and a small parser for strings like "x^2 - 6*x - 3".
A polynomial keeps its squarefree decomposition once computed, so the
curve's validation, genus and branch divisor and the catalog scan all read
the one decomposition of f.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


class QPoly:
    __slots__ = ("coeffs", "_sqfree")

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        self.coeffs = tuple(coeffs)
        self._sqfree = None

    @classmethod
    def x(cls):
        return cls([0, 1])

    def degree(self):
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and self.degree() != 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return QPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return QPoly([x - y for x, y in zip(a, b)])

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        res = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    res[i + j] += a * b
        return QPoly(res)

    def __pow__(self, e):
        result, base = QPoly([1]), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        q = [Fraction(0)] * max(1, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        do = other.degree()
        lead = other.coeffs[-1]
        while len(r) - 1 >= do and any(c != 0 for c in r):
            c = r[-1] / lead
            if c:
                off = len(r) - 1 - do
                q[off] = c
                for j in range(len(other.coeffs)):
                    r[off + j] -= c * other.coeffs[j]
            r.pop()
            while len(r) > 1 and r[-1] == 0:
                r.pop()
            if not r:
                r = [Fraction(0)]
        return QPoly(q), QPoly(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return QPoly([c / lead for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:] or [0])

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def squarefree_decomposition(self):
        """Yun's algorithm: ((squarefree g_i, i), ...) with f = lc * prod
        g_i^i, computed on the first call and kept."""
        if self._sqfree is not None:
            return self._sqfree
        f = self.monic()
        out = []
        if f.degree() > 0:
            d = f.derivative()
            a = f.gcd(d)
            b = f // a
            c = d // a - b.derivative()
            i = 1
            while b.degree() > 0:
                g = b.gcd(c)
                if g.degree() > 0:
                    out.append((g.monic(), i))
                b = b // g
                c = c // g - b.derivative()
                i += 1
        self._sqfree = tuple(out)
        return self._sqfree

    def squarefree_part(self):
        out = QPoly([1])
        for g, _ in self.squarefree_decomposition():
            out = out * g
        return out

    def content_clear(self):
        """Scale by a positive rational making all coefficients integers
        with gcd 1; returns (integer-coefficient QPoly, scalar applied)."""
        from math import gcd, lcm
        dens = [c.denominator for c in self.coeffs]
        m = 1
        for d in dens:
            m = lcm(m, d)
        ints = [int(c * m) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        g = g or 1
        return QPoly([c // g for c in ints]), Fraction(m, g)


# parse_poly refuses a power of higher degree before expanding it: no field
# search or point count reaches such an f, and (x + 1)^512 alone takes over
# a second to expand with Fraction coefficients
MAX_POWER_DEGREE = 256
# and a constant power of higher exponent: 2^1024 has 309 digits already
MAX_CONSTANT_EXPONENT = 1024
# and an input once the factors it has expanded, at every depth, hold more
# nonzero coefficients than this: a dense power costs about its count
# squared, and 300 terms (x + 1)^256 in one 3 KB string took a second
MAX_EXPANDED_COEFFICIENTS = 4096

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([xX])|(\^)|(\*)|(\+)|(-)|(\()|(\)))")

# parse_poly computes on (numerators, d): the polynomial sum a_i x^i / d
# with integers a_i, the last nonzero unless it is the only one; the
# Fraction coefficients are made once, at the end


def _trim(nums):
    while len(nums) > 1 and not nums[-1]:
        nums.pop()
    return nums


def _add(u, v):
    m = lcm(u[1], v[1])
    out = [0] * max(len(u[0]), len(v[0]))
    for nums, d in (u, v):
        for i, a in enumerate(nums):
            out[i] += a * (m // d)
    return _trim(out), m


def _mul(u, v):
    out = [0] * (len(u[0]) + len(v[0]) - 1)
    for i, a in enumerate(u[0]):
        if a:
            for j, b in enumerate(v[0]):
                out[i + j] += a * b
    return _trim(out), u[1] * v[1]


_MINUS_ONE = ([-1], 1)


def parse_poly(s):
    """Parse expressions like ``x^2 - 6*x - 3`` or ``(x^2-3)*(x^2+3)``.

    A product or power of degree above MAX_POWER_DEGREE, a constant power
    above MAX_CONSTANT_EXPONENT and parentheses nested past the recursion
    limit raise ValueError before anything is expanded; the zero
    polynomial counts as a constant.  A factor that takes the nonzero
    coefficients of the factors read so far, at every depth, past
    MAX_EXPANDED_COEFFICIENTS raises ValueError once it is expanded."""
    pos = 0
    n = len(s)
    expanded = 0  # nonzero coefficients of the factors read so far

    def peek():
        return _TOKEN.match(s, pos)

    def take():
        nonlocal pos
        m = _TOKEN.match(s, pos)
        if m is None:
            raise ValueError(f"cannot parse polynomial at: {s[pos:]!r}")
        pos = m.end()
        return m

    def parse_expr():
        acc = parse_term()
        while (m := peek()) is not None and (m.group(5) or m.group(6)):
            take()
            t = parse_term()
            acc = _add(acc, t if m.group(5) else _mul(_MINUS_ONE, t))
        return acc

    def parse_term():
        acc = parse_factor()
        # implicit multiplication before x and (
        while (m := peek()) is not None and (m.group(4) or m.group(2)
                                             or m.group(7)):
            if m.group(4):
                take()
            f = parse_factor()
            degree = len(acc[0]) + len(f[0]) - 2
            if degree > MAX_POWER_DEGREE:
                raise ValueError(f"product of degree {degree} exceeds "
                                 f"{MAX_POWER_DEGREE}")
            acc = _mul(acc, f)
        return acc

    def parse_factor():
        nonlocal expanded
        m = take()
        if m.group(6):  # unary minus
            return _mul(_MINUS_ONE, parse_factor())
        if m.group(1):
            num, _, den = m.group(1).partition("/")
            base = ([int(num)], int(den or 1))
            if not base[1]:
                raise ValueError(f"zero denominator in {m.group(1)!r}")
        elif m.group(2):
            base = ([0, 1], 1)
        elif m.group(7):
            base = parse_expr()
            closing = take()
            if not closing.group(8):
                raise ValueError("unbalanced parenthesis")
        else:
            raise ValueError(f"unexpected token at {s[pos:]!r}")
        m2 = peek()
        if m2 is not None and m2.group(3):
            take()
            m3 = take()
            if not m3.group(1):
                raise ValueError("exponent must be an integer")
            e = int(m3.group(1))
            deg = len(base[0]) - 1
            if deg * e > MAX_POWER_DEGREE:
                raise ValueError(f"power of degree {deg * e} "
                                 f"exceeds {MAX_POWER_DEGREE}")
            if deg == 0 and e > MAX_CONSTANT_EXPONENT:
                raise ValueError(f"exponent {e} of a constant exceeds "
                                 f"{MAX_CONSTANT_EXPONENT}")
            power = ([1], 1)
            for bit in bin(e)[2:]:
                power = _mul(power, power)
                if bit == "1":
                    power = _mul(power, base)
            base = power
        expanded += sum(1 for a in base[0] if a)
        if expanded > MAX_EXPANDED_COEFFICIENTS:
            raise ValueError(f"factors with {expanded} nonzero coefficients "
                             f"exceed {MAX_EXPANDED_COEFFICIENTS}")
        return base

    try:
        nums, d = parse_expr()
    except RecursionError:
        raise ValueError("parentheses nested too deeply") from None
    if pos != n and s[pos:].strip():
        raise ValueError(f"trailing input: {s[pos:]!r}")
    return QPoly([Fraction(a, d) for a in nums])
