"""Dense univariate polynomials over Q (Fraction coefficients).

Just enough algebra for curve validation: arithmetic, gcd, squarefree
decomposition, and a small parser for strings like "x^2 - 6*x - 3".
"""

from __future__ import annotations

import re
from fractions import Fraction


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls):
        return cls([0, 1])

    @classmethod
    def constant(cls, c):
        return cls([c])

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
        """Yun's algorithm: [(squarefree g_i, i)] with f = lc * prod g_i^i."""
        f = self.monic()
        out = []
        if f.degree() < 1:
            return out
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
        return out

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

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([xX])|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def parse_poly(s):
    """Parse expressions like ``x^2 - 6*x - 3`` or ``(x^2-3)*(x^2+3)``."""
    pos = 0
    n = len(s)

    def peek():
        nonlocal pos
        m = _TOKEN.match(s, pos)
        return m

    def take():
        nonlocal pos
        m = _TOKEN.match(s, pos)
        if m is None:
            raise ValueError(f"cannot parse polynomial at: {s[pos:]!r}")
        pos = m.end()
        return m

    def parse_expr():
        terms = [parse_term()]
        while True:
            m = peek()
            if m is None:
                break
            if m.group(5):
                take()
                terms.append(parse_term())
            elif m.group(6):
                take()
                terms.append(-parse_term())
            else:
                break
        acc = QPoly([0])
        for t in terms:
            acc = acc + t
        return acc

    def parse_term():
        factors = [parse_factor()]
        while True:
            m = peek()
            if m is None:
                break
            if m.group(4):
                take()
                factors.append(parse_factor())
            elif m.group(2) or m.group(7):  # implicit multiplication
                factors.append(parse_factor())
            else:
                break
        acc = QPoly([1])
        for f in factors:
            acc = acc * f
        return acc

    def parse_factor():
        m = take()
        if m.group(6):  # unary minus
            return -parse_factor()
        if m.group(1):
            try:
                base = QPoly.constant(Fraction(m.group(1)))
            except ZeroDivisionError:
                raise ValueError(
                    f"zero denominator in {m.group(1)!r}") from None
        elif m.group(2):
            base = QPoly.x()
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
            if base.degree() * e > MAX_POWER_DEGREE:
                raise ValueError(f"power of degree {base.degree() * e} "
                                 f"exceeds {MAX_POWER_DEGREE}")
            if base.degree() == 0 and e > MAX_CONSTANT_EXPONENT:
                raise ValueError(f"exponent {e} of a constant exceeds "
                                 f"{MAX_CONSTANT_EXPONENT}")
            base = base ** e
        return base

    out = parse_expr()
    if pos != n and s[pos:].strip():
        raise ValueError(f"trailing input: {s[pos:]!r}")
    return out
