"""Input model for superelliptic curves y^n = f(x) over Q at a prime p.

Validation enforces the standing assumptions of the reduction procedure:
no factor of f is an n-th power, the multiplicities of the roots of f are
coprime to n as a set, n is at least 2 and prime to p, and the genus is at
least 2.  The genus and the shape of the branch divisor only depend on the
multiplicity structure of f, so both are computed here over Q without any
p-adic work, from the squarefree decomposition that ``f`` keeps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import (
    DegreeMismatch,
    NonIntegralFactor,
    RootMultiplicityMismatch,
    ValidationError,
)
from .finitefield import is_prime, riemann_hurwitz_genus
from .qpoly import (
    MAX_CONSTANT_EXPONENT,
    MAX_POWER_DEGREE,
    QPoly,
    parse_poly,
)


# f is made integral by m^n, m the lcm of its denominators; a larger scale
# is refused before it is computed: n = 10^8 and m = 2 would make a
# 10^8-bit coefficient
MAX_SCALE_BITS = 1 << 16


class SuperellipticCurve:
    """y^n = f(x), considered over Q_p for the given prime p.

    ``f`` is rescaled internally by an n-th power of an integer to clear
    denominators (this does not change the curve).
    """

    def __init__(self, n, f, p):
        if isinstance(f, (list, tuple)):
            f = QPoly(f)
        self.n = int(n)
        self.p = int(p)
        self.f_input = f
        # clear denominators by an n-th power so the curve is unchanged
        from math import lcm
        m = 1
        for c in f.coeffs:
            m = lcm(m, c.denominator)
        if m > 1 and self.n * m.bit_length() > MAX_SCALE_BITS:
            raise ValidationError(
                f"clearing the denominator {m} of f takes {m}^{self.n}, "
                f"above {MAX_SCALE_BITS} bits")
        self.f = f * Fraction(m**self.n)
        if any(c.denominator != 1 for c in self.f.coeffs):
            raise NonIntegralFactor("rescaled f is not integral")

    def __repr__(self):
        return f"y^{self.n} = {self.f_input!r}  (p = {self.p})"

    def degree(self):
        return self.f.degree()

    def branches_infinity(self):
        return self.degree() % self.n != 0

    def validate(self):
        """Check the standing assumptions; returns a list of violations."""
        violations = []
        if not is_prime(self.p):
            violations.append(f"p = {self.p} is not prime")
        if self.f.degree() < 1:
            violations.append("f must be nonconstant")
            return violations
        if self.n < 2:
            violations.append(f"exponent n = {self.n} must be at least 2")
            return violations
        if gcd(self.n, self.p) != 1:
            violations.append(
                f"exponent n = {self.n} is not prime to p = {self.p}")
        decomp = self.f.squarefree_decomposition()
        if any(m >= self.n for _, m in decomp):
            violations.append(
                f"f has a factor which is an {self.n}-th power over Q")
        mults = [m for _, m in decomp]
        if mults and gcd(self.n, gcd(*mults) if len(mults) > 1 else mults[0]) != 1:
            violations.append(
                "gcd of n and the root multiplicities of f exceeds 1")
        if not violations:
            g = self.genus()
            if g < 2:
                violations.append(f"genus {g} is less than 2")
        return violations

    def genus(self):
        """Genus of the smooth projective model, by Riemann-Hurwitz."""
        branch = [(g_i.degree(), m)
                  for g_i, m in self.f.squarefree_decomposition()]
        total = sum(deg * m for deg, m in branch)
        if total != self.degree():
            raise DegreeMismatch(f"squarefree decomposition has degree "
                                 f"{total}, f has degree {self.degree()}")
        return riemann_hurwitz_genus(self.n, branch + [(1, total)])

    @classmethod
    def from_json_dict(cls, data):
        """Curve spec: {"n": 4, "f": [c0, c1, ...], "p": 3} with coefficients
        integers or "a/b" strings, or factored form "f": [["x^2-3", 1], ...].
        """
        if not isinstance(data, dict):
            raise ValidationError("curve spec must be a JSON object")
        for key in ("n", "f", "p"):
            if key not in data:
                raise ValidationError(f"curve spec has no {key!r}")
        n, p, fspec = data["n"], data["p"], data["f"]
        for key, val in (("n", n), ("p", p)):
            if not _is_int(val):
                raise ValidationError(f"{key} must be an integer, not {val!r}")
        # refused before f is read: multiplicities are reduced mod n below
        if n < 2:
            raise ValidationError(f"exponent n = {n} must be at least 2")
        if not isinstance(fspec, (list, tuple)):
            raise ValidationError(f"f must be a list, not {fspec!r}")
        if fspec and isinstance(fspec[0], (list, tuple)):
            f = QPoly([1])
            for factor in fspec:
                if not (isinstance(factor, (list, tuple)) and len(factor) == 2
                        and isinstance(factor[0], (str, list, tuple))
                        and _is_int(factor[1])):
                    raise ValidationError(
                        f"factor must be [poly, multiplicity], not {factor!r}")
                entry, mult = factor
                if mult < 1:
                    raise ValidationError(
                        f"factor multiplicity must be at least 1, not {mult}")
                base = _parse_factor(entry) if isinstance(entry, str) \
                    else QPoly([_coefficient(c) for c in entry])
                # the check of validate(), made before a large power of
                # base is expanded
                if mult >= n and base.degree() > 0:
                    raise ValidationError(
                        f"f has a factor which is an {n}-th power over Q")
                # a constant c^mult enters as c^(mult mod n): y -> c^k y,
                # k = mult // n, removes the n-th power c^(n k)
                if base.degree() == 0:
                    mult %= n
                # the bounds of parse_poly, checked before base**mult is
                # expanded
                if base.degree() == 0 and mult > MAX_CONSTANT_EXPONENT:
                    raise ValidationError(
                        f"exponent {mult} of a constant exceeds "
                        f"{MAX_CONSTANT_EXPONENT}")
                degree = f.degree() + base.degree() * mult
                if base.degree() > 0 and degree > MAX_POWER_DEGREE:
                    raise ValidationError(
                        f"f has degree {degree}, above {MAX_POWER_DEGREE}")
                f = f * base**mult
        else:
            f = QPoly([_coefficient(c) for c in fspec])
            if f.degree() > MAX_POWER_DEGREE:
                raise ValidationError(
                    f"f has degree {f.degree()}, above {MAX_POWER_DEGREE}")
        return cls(n, f, p)


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _parse_factor(s):
    try:
        return parse_poly(s)
    except ValueError as exc:
        raise ValidationError(f"bad polynomial {s!r}: {exc}") from None


_COEFFICIENT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _coefficient(c):
    # a JSON float is already rounded, a bool is not a number and Fraction
    # would expand a string such as "1e9999999": only integers and "a/b"
    # strings are read
    if isinstance(c, (bool, float)) or (isinstance(c, str)
                                        and not _COEFFICIENT.fullmatch(c)):
        raise ValidationError(f"bad coefficient {c!r}: coefficients are "
                              "integers or \"a/b\" strings")
    try:
        return Fraction(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"bad coefficient {c!r}") from None


class BranchPoint:
    """One point of the branch divisor: a root of f in L, or infinity."""

    __slots__ = ("value", "multiplicity", "is_infinity")

    def __init__(self, value, multiplicity, is_infinity=False):
        self.value = value            # LocalFieldElement, or None for infinity
        self.multiplicity = multiplicity
        self.is_infinity = is_infinity

    def __repr__(self):
        if self.is_infinity:
            return "oo"
        return f"root(mult={self.multiplicity})"


class BranchDivisor:
    __slots__ = ("points",)

    def __init__(self, points):
        self.points = points

    def __len__(self):
        return len(self.points)


def branch_divisor(curve, roots):
    """Branch divisor of y^n = f over L: all roots of f with multiplicities,
    plus infinity when n does not divide deg f.

    ``roots`` has one list of roots in L per squarefree factor of f, in
    ``curve.f.squarefree_decomposition()`` order (``splits_in`` finds them),
    so every root carries its exact multiplicity.
    """
    points = []
    for (g_i, mult), rs in zip(curve.f.squarefree_decomposition(), roots,
                               strict=True):
        if len(rs) != g_i.degree():
            raise RootMultiplicityMismatch(
                f"factor of degree {g_i.degree()} has only {len(rs)} "
                f"roots in the given field")
        for r in rs:
            points.append(BranchPoint(r, mult))
    if curve.branches_infinity():
        points.append(BranchPoint(None, None, is_infinity=True))
    div = BranchDivisor(points)
    if curve.genus() >= 2 and len(div) < 3:
        raise DegreeMismatch("marked tree needs at least three points")
    return div
