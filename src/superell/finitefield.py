"""Exact arithmetic in GF(p^k), polynomial algebra, and Kummer-curve counting.

Fields are represented as GF(p)[a]/(modulus) with elements stored as tuples
of k residues (coefficient of a^j at index j).  When no modulus is supplied
the lexicographically smallest monic irreducible polynomial is chosen, so
field construction is deterministic.

On top of the field arithmetic this module provides

* ``FqPoly`` / ``RationalFunction``: dense univariate polynomials and reduced
  fractions over a fixed field;
* ``factor_poly``: squarefree + distinct-degree + Cantor-Zassenhaus equal
  degree splitting, derandomized by seeding the splitting PRNG from the
  input polynomial;
* ``power_class``: the largest d | n such that a rational function is a
  d-th power, with an explicit witness;
* ``count_kummer_points`` / ``zeta_numerator``: rational point counts on the
  normalization of z^nbar = h(w) and the numerator of its zeta function;
* ``normalize_kummer_equation``: strip nbar-th power factors and denominators
  without changing the function field of the cover.

Bulk work runs on numpy digit arrays, (k, N) int64 arrays holding N
elements as columns of base-p digits.  ``count_kummer_points`` evaluates
num and den of h at all of F_{q^i}, a fixed chunk of points at a time, and
decides n-th-power residuosity of the ordinary points by comparing discrete
logs.  The logs come from one int32 table per field (index -> log, -1 at
zero), built by baby-step/giant-step on first use and kept on the field:
4 bytes per element, so at most about 4 MB for a field within
``DEFAULT_POINT_BUDGET``.  numpy is imported inside the functions that use
it, so importing the package does not load it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import (
    CharacteristicDividesExponent,
    CountsInconsistent,
    EnumerationBudgetExceeded,
    GenusMismatch,
    IsProperPower,
    NonPrime,
    NotDivisible,
    ReducibleModulus,
    WitnessMismatch,
    ZeroFunction,
    ZeroPolynomial,
)

#: default cap on q^i when enumerating points of P^1(F_{q^i})
DEFAULT_POINT_BUDGET = 10**6

INF = "inf"  # marker for the point at infinity of P^1

#: points of F_{q^i} evaluated per numpy pass in ``count_kummer_points``
_KUMMER_CHUNK = 8192


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize_int(n):
    """Prime factorization of a small positive integer as {p: e}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers used only for modulus selection
# ---------------------------------------------------------------------------

def _gfp_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial ``mod``
    dm = len(mod) - 1
    for i in range(len(res) - 1, dm - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(dm):
                res[i - dm + j] = (res[i - dm + j] - c * mod[j]) % p
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


def _gfp_powmod_x(e, mod, p):
    """x^e mod (mod) over GF(p)."""
    result = [1]
    base = [0, 1] if len(mod) > 2 else _gfp_mulmod([0, 1], [1], mod, p)
    while e:
        if e & 1:
            result = _gfp_mulmod(result, base, mod, p)
        base = _gfp_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _gfp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b != [0] and b:
        # remainder of a by b
        b_lead_inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b) and not (len(r) == 1 and r[0] == 0):
            c = r[-1] * b_lead_inv % p
            if c:
                off = len(r) - len(b)
                for j in range(len(b)):
                    r[off + j] = (r[off + j] - c * b[j]) % p
            r.pop()
            while len(r) > 1 and r[-1] == 0:
                r.pop()
            if not r:
                r = [0]
        a, b = b, r
        while len(b) > 1 and b[-1] == 0:
            b.pop()
    return a


def _gfp_is_irreducible(g, p):
    """Rabin irreducibility test for monic g over GF(p)."""
    k = len(g) - 1
    if k < 1:
        return False
    xqk = _gfp_powmod_x(p**k, g, p)
    if xqk != [0, 1]:
        return False
    for ell in _factorize_int(k):
        h = _gfp_powmod_x(p ** (k // ell), g, p)
        # gcd(h - x, g) must be 1
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        while len(diff) > 1 and diff[-1] == 0:
            diff.pop()
        if diff == [0]:
            return False
        if len(_gfp_gcd(g, diff, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _default_modulus(p, k):
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Coefficient tuples are ordered low-to-high; the search runs through
    constant term, then x-coefficient, etc.
    """
    if k == 1:
        return (0, 1)
    for idx in range(p**k):
        coeffs, m = [], idx
        for _ in range(k):
            coeffs.append(m % p)
            m //= p
        g = coeffs + [1]
        if _gfp_is_irreducible(g, p):
            return tuple(g)
    raise ReducibleModulus(f"no irreducible of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class FqField:
    """The finite field GF(p^k) presented as GF(p)[a]/(modulus)."""

    def __init__(self, p, k, modulus):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if k < 1:
            raise ReducibleModulus("extension degree must be >= 1")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree k")
        if k > 1 and not _gfp_is_irreducible(list(modulus), p):
            raise ReducibleModulus(f"modulus {modulus} reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._zero = FqElement(self, (0,) * k)
        self._one = FqElement(self, (1,) + (0,) * (k - 1))
        self._log = None
        self._gen = None
        self._embeddings = {}

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, FqField) and self.p == other.p
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        """The residue class of a (only interesting for k > 1)."""
        if self.k == 1:
            return self._one
        return FqElement(self, (0, 1) + (0,) * (self.k - 2))

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError("coefficient vector has wrong length")
        return FqElement(self, coeffs)

    def from_int(self, n):
        return FqElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_index(self, idx):
        """Element number ``idx`` in the canonical enumeration (base-p digits)."""
        coeffs, m = [], idx % self.q
        for _ in range(self.k):
            coeffs.append(m % self.p)
            m //= self.p
        return FqElement(self, tuple(coeffs))

    def elements(self):
        for idx in range(self.q):
            yield self.from_index(idx)

    def multiplicative_generator(self):
        if self._gen is None:
            fac = _factorize_int(self.q - 1) if self.q > 2 else {}
            for idx in range(1, self.q):
                u = self.from_index(idx)
                if u.is_zero():
                    continue
                if all((u ** ((self.q - 1) // ell)) != self._one for ell in fac):
                    self._gen = u
                    break
        return self._gen

    def roots_of_unity(self, d):
        """mu_d(F) sorted canonically; d must divide q - 1."""
        if d == 1:
            return [self._one]
        if (self.q - 1) % d:
            raise NotDivisible(f"mu_{d} is not contained in {self!r}")
        z = self.multiplicative_generator() ** ((self.q - 1) // d)
        out, acc = [], self._one
        for _ in range(d):
            out.append(acc)
            acc = acc * z
        return sorted(out, key=lambda x: x.index())

    def dlog(self, u):
        """Discrete log of u with respect to the canonical generator."""
        e = int(self._log_table()[u.index()])
        if e < 0:
            raise KeyError(f"discrete log of zero in {self!r}")
        return e

    def _log_table(self):
        """int32 array of length q: index -> discrete log, -1 at zero.

        Baby-step/giant-step: about sqrt(q) scalar multiplies give the baby
        block g^0, ..., g^(m-1); every giant step multiplies the whole block
        by g^m as one digit-array product and files the next m logs.
        """
        if self._log is None:
            import numpy as np
            n = self.q - 1
            m = isqrt(n - 1) + 1  # ceil(sqrt(n))
            g = self.multiplicative_generator()
            baby, acc = [], self._one
            for _ in range(m):
                baby.append(acc.coeffs)
                acc = acc * g
            block = np.array(baby, dtype=np.int64).T
            giant = np.array(acc.coeffs, dtype=np.int64)[:, None]
            exps = np.arange(m, dtype=np.int32)
            table = np.full(self.q, -1, dtype=np.int32)
            for start in range(0, n, m):
                cnt = min(m, n - start)
                table[self._indices(block[:, :cnt])] = exps[:cnt] + start
                if start + m < n:
                    block = self._mul_digits(block, giant)
            self._log = table
        return self._log

    # Digit arrays: (k, N) int64 arrays whose column c holds the base-p
    # digits of one element, row j the coefficient of a^j (the order of
    # ``from_index``).

    def _digits(self, idx):
        """Digit array of an int64 array of canonical indices."""
        import numpy as np
        out = np.empty((self.k, len(idx)), dtype=np.int64)
        for j in range(self.k):
            idx, out[j] = np.divmod(idx, self.p)
        return out

    def _indices(self, digits):
        """Canonical indices of the columns of a digit array."""
        acc = digits[-1].copy()
        for row in digits[-2::-1]:
            acc *= self.p
            acc += row
        return acc

    def _mul_digits(self, a, b):
        """Column-wise product of digit arrays (b may be one (k, 1) column):
        schoolbook, then reduction by the modulus from the top down."""
        import numpy as np
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        res = np.zeros((2 * k - 1, max(a.shape[1], b.shape[1])),
                       dtype=np.int64)
        for i in range(k):
            res[i:i + k] += a[i] * b
        mod = np.array(self.modulus[:k], dtype=np.int64)[:, None]
        for i in range(2 * k - 2, k - 1, -1):
            res[i - k:i] -= res[i] % p * mod
        return res[:k] % p

    def nth_root(self, u, d):
        """Some x with x^d = u, or None.  Deterministic (smallest exponent)."""
        if u.is_zero():
            return self._zero
        a = self.dlog(u)
        g = self.multiplicative_generator()
        m = self.q - 1
        from math import gcd
        gg = gcd(d, m)
        if a % gg:
            return None
        # solve d*x = a (mod m)
        dd, mm, aa = d // gg, m // gg, a // gg
        x = aa * pow(dd, -1, mm) % mm
        return g**x

    def embedding(self, big):
        """Canonical embedding GF(p^k) -> GF(p^m) with k | m.

        Maps the generator to the smallest root of ``self.modulus`` in ``big``.
        Returns a function on elements.
        """
        key = (big.p, big.modulus)
        if key in self._embeddings:
            return self._embeddings[key]
        if big.p != self.p or big.k % self.k:
            raise ValueError("no embedding")
        if big == self:
            fn = lambda x: x  # noqa: E731
            self._embeddings[key] = fn
            return fn
        mod_poly = FqPoly(big, [big.from_int(c) for c in self.modulus])
        roots = mod_poly.roots()
        if len(roots) != self.k:
            raise ValueError("modulus does not split in the bigger field")
        img = roots[0]
        powers = [big.one()]
        for _ in range(self.k - 1):
            powers.append(powers[-1] * img)

        def fn(x, _powers=powers, _big=big):
            acc = _big.zero()
            for c, pw in zip(x.coeffs, _powers):
                if c:
                    acc = acc + pw * _big.from_int(c)
            return acc

        self._embeddings[key] = fn
        return fn


class FqElement:
    """Element of an FqField; immutable tuple of residues mod p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return f"({', '.join(map(str, self.coeffs))})"

    def __eq__(self, other):
        return (isinstance(other, FqElement) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.coeffs))

    def index(self):
        """Position in the canonical enumeration; also the sort key."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        p = self.field.p
        return FqElement(self.field, tuple((a + b) % p for a, b in
                                           zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        p = self.field.p
        return FqElement(self.field, tuple((a - b) % p for a, b in
                                           zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        F = self.field
        p, k = F.p, F.k
        if k == 1:
            return FqElement(F, (self.coeffs[0] * other.coeffs[0] % p,))
        res = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    res[i + j] = (res[i + j] + a * b) % p
        mod = F.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j in range(k):
                    res[i - k + j] = (res[i - k + j] - c * mod[j]) % p
        return FqElement(F, tuple(res[:k]))

    def __pow__(self, e):
        F = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result, base = F.one(), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def frobenius(self, j=1):
        """x -> x^(p^j)."""
        return self ** (self.field.p**j)


@lru_cache(maxsize=None)
def _field_cache(p, k, modulus):
    return FqField(p, k, modulus)


def fq_make(p, k=1, modulus=None):
    """Construct GF(p^k); deterministic modulus if none is supplied."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if modulus is None:
        modulus = _default_modulus(p, k)
    return _field_cache(p, k, tuple(c % p for c in modulus))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class FqPoly:
    """Dense univariate polynomial over an FqField (coeffs low-to-high)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = [field.zero()]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def constant(cls, c):
        return cls(c.field, [c])

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero() or self.degree() == 0:
                s = repr(c)
                terms.append(s if i == 0 else
                             (f"{s}*x^{i}" if i > 1 else f"{s}*x"))
        return " + ".join(terms) if terms else "0"

    def degree(self):
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero()

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one()

    def key(self):
        """Canonical sort key: (degree, coefficient indices high-to-low)."""
        return (self.degree(), tuple(c.index() for c in reversed(self.coeffs)))

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return FqPoly(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return FqPoly(self.field, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FqElement):
            return FqPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return FqPoly(self.field, [self.field.zero()])
        res = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    res[i + j] = res[i + j] + a * b
        return FqPoly(self.field, res)

    def __pow__(self, e):
        result = FqPoly(self.field, [self.field.one()])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero()] * max(1, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        inv_lead = other.coeffs[-1].inverse()
        do = other.degree()
        while len(r) - 1 >= do and not all(c.is_zero() for c in r):
            c = r[-1] * inv_lead
            if not c.is_zero():
                off = len(r) - 1 - do
                q[off] = c
                for j, b in enumerate(other.coeffs):
                    r[off + j] = r[off + j] - c * b
            r.pop()
            while len(r) > 1 and r[-1].is_zero():
                r.pop()
            if not r:
                r = [self.field.zero()]
        return FqPoly(self.field, q), FqPoly(self.field, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self * self.coeffs[-1].inverse()

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        F = self.field
        cs = [F.from_int(i) * c for i, c in enumerate(self.coeffs)][1:]
        return FqPoly(F, cs or [F.zero()])

    def evaluate(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        acc = FqPoly(self.field, [self.field.zero()])
        for c in reversed(self.coeffs):
            acc = acc * other + FqPoly.constant(c)
        return acc

    def shift(self, c):
        """self(x + c)."""
        return self.compose(FqPoly(self.field, [c, self.field.one()]))

    def map_coeffs(self, fn, new_field=None):
        F = new_field if new_field is not None else self.field
        return FqPoly(F, [fn(c) for c in self.coeffs])

    def powmod(self, e, mod):
        result = FqPoly(self.field, [self.field.one()])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def roots(self):
        """Roots in the base field, sorted by canonical element order."""
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has every root")
        F = self.field
        x = FqPoly.x(F)
        g = self.gcd(x.powmod(F.q, self) - x)
        out = []
        for fac, _ in factor_poly(F, g):
            if fac.degree() == 1:
                out.append(-fac.coeffs[0])
        return sorted(out, key=lambda r: r.index())

    def squarefree_decomposition(self):
        """Yields (squarefree factor, multiplicity), classical char-p algorithm."""
        F = self.field
        p = F.p
        f = self.monic()
        out = []
        e = 1
        while f.degree() > 0:
            d = f.derivative()
            if d.is_zero():
                # f is a p-th power: take p-th root of coefficients
                root_cs = []
                for i in range(0, f.degree() + 1, p):
                    c = f.coeffs[i] if i < len(f.coeffs) else F.zero()
                    root_cs.append(c ** (F.q // p))
                f = FqPoly(F, root_cs)
                e *= p
                continue
            g = f.gcd(d)
            w = f // g
            i = 1
            while w.degree() > 0:
                y = w.gcd(g)
                fac = w // y
                if fac.degree() > 0:
                    out.append((fac.monic(), e * i))
                w = y
                g = g // y
                i += 1
            f = g
        return out


def _cz_seed(F, g):
    data = (F.p, F.modulus, tuple(c.coeffs for c in g.coeffs))
    return hash(data) & 0x7FFFFFFF


def _equal_degree_split(F, g, d, rng):
    """Cantor-Zassenhaus split of g (product of degree-d irreducibles)."""
    if g.degree() == d:
        return [g]
    q, n = F.q, g.degree()
    while True:
        r = FqPoly(F, [F.from_index(rng.randrange(q)) for _ in range(n)])
        if r.degree() < 1:
            continue
        if F.p == 2:
            # trace map sum r^(2^i) for i < k*d
            acc = r % g
            t = acc
            for _ in range(F.k * d - 1):
                t = (t * t) % g
                acc = (acc + t) % g
            h = g.gcd(acc)
        else:
            h = g.gcd(r.powmod((q**d - 1) // 2, g) - FqPoly(F, [F.one()]))
        if 0 < h.degree() < g.degree():
            return (_equal_degree_split(F, h.monic(), d, rng)
                    + _equal_degree_split(F, (g // h).monic(), d, rng))


def factor_poly(F, g):
    """Full factorization of g over F.

    Returns a list of (monic irreducible, exponent) in deterministic order
    (degree, then coefficient-lex).  The product times the leading
    coefficient reproduces g.
    """
    if g.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if g.degree() == 0:
        return []
    rng = random.Random(_cz_seed(F, g))
    out = {}
    for sqfree, mult in g.squarefree_decomposition():
        # distinct degree
        f = sqfree
        x = FqPoly.x(F)
        h = x
        d = 0
        while f.degree() > 0:
            d += 1
            if 2 * d > f.degree():
                out[f.monic()] = out.get(f.monic(), 0) + mult
                break
            h = h.powmod(F.q, f)
            g_d = f.gcd(h - x)
            if g_d.degree() > 0:
                for irr in _equal_degree_split(F, g_d.monic(), d, rng):
                    out[irr.monic()] = out.get(irr.monic(), 0) + mult
                f = f // g_d
                h = h % f
        # degree-0 remainder contributes nothing
    return sorted(out.items(), key=lambda kv: kv[0].key())


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Reduced fraction of FqPoly's with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FqPoly(num.field, [num.field.one()])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lead = den.coeffs[-1]
        if lead != num.field.one():
            inv = lead.inverse()
            num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree() <= 0 and self.den.is_one()

    def __mul__(self, other):
        if isinstance(other, FqPoly):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, FqPoly):
            other = RationalFunction(other)
        if other.is_zero():
            raise ZeroDivisionError
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __pow__(self, e):
        if e < 0:
            return RationalFunction(self.den, self.num) ** (-e)
        return RationalFunction(self.num**e, self.den**e)

    def compose(self, other):
        """self(other) for a rational function ``other``."""
        F = self.field
        n = max(self.num.degree(), self.den.degree())
        num_h = FqPoly(F, [F.zero()])
        den_h = FqPoly(F, [F.zero()])
        on, od = other.num, other.den
        # homogenize: sum c_i * on^i * od^(n-i)
        pow_on = [FqPoly(F, [F.one()])]
        pow_od = [FqPoly(F, [F.one()])]
        for _ in range(n):
            pow_on.append(pow_on[-1] * on)
            pow_od.append(pow_od[-1] * od)
        for i in range(n + 1):
            ci = self.num.coeffs[i] if i < len(self.num.coeffs) else F.zero()
            di = self.den.coeffs[i] if i < len(self.den.coeffs) else F.zero()
            term = pow_on[i] * pow_od[n - i]
            if not ci.is_zero():
                num_h = num_h + term * ci
            if not di.is_zero():
                den_h = den_h + term * di
        return RationalFunction(num_h, den_h)

    def ord_at(self, pt):
        """Order of vanishing at a point of P^1 (pt = FqElement or INF)."""
        if self.is_zero():
            raise ZeroFunction("order of the zero function")
        if pt == INF:
            return self.den.degree() - self.num.degree()
        a = 0
        num = self.num
        while num.evaluate(pt).is_zero():
            num = num // FqPoly(self.field, [-pt, self.field.one()])
            a += 1
        b = 0
        den = self.den
        while den.evaluate(pt).is_zero():
            den = den // FqPoly(self.field, [-pt, self.field.one()])
            b += 1
        return a - b

    def unit_value_at(self, pt):
        """Value of self * t^(-ord) at pt, t the local parameter (x-pt or 1/x)."""
        if pt == INF:
            return self.num.coeffs[-1] / self.den.coeffs[-1]
        lin = FqPoly(self.field, [-pt, self.field.one()])
        num, den = self.num, self.den
        while num.evaluate(pt).is_zero():
            num = num // lin
        while den.evaluate(pt).is_zero():
            den = den // lin
        return num.evaluate(pt) / den.evaluate(pt)

    def evaluate(self, pt):
        """Value at pt in P^1; returns FqElement or INF."""
        if pt == INF:
            o = self.den.degree() - self.num.degree()
            if o > 0:
                return self.field.zero()
            if o < 0:
                return INF
            return self.num.coeffs[-1] / self.den.coeffs[-1]
        dv = self.den.evaluate(pt)
        nv = self.num.evaluate(pt)
        if dv.is_zero():
            if nv.is_zero():
                return self.unit_value_at(pt) if self.ord_at(pt) == 0 else (
                    self.field.zero() if self.ord_at(pt) > 0 else INF)
            return INF
        return nv / dv

    def factored(self):
        """[(irreducible, exponent)] over num and den (den with negative exps)."""
        out = {}
        if self.num.degree() > 0:
            for f, e in factor_poly(self.field, self.num):
                out[f] = out.get(f, 0) + e
        if self.den.degree() > 0:
            for f, e in factor_poly(self.field, self.den):
                out[f] = out.get(f, 0) - e
        return sorted(out.items(), key=lambda kv: kv[0].key())

    def leading_unit(self):
        return self.num.coeffs[-1]


# ---------------------------------------------------------------------------
# power classes
# ---------------------------------------------------------------------------

class PowerClassData:
    """Order data of h in F(x)^* / (F(x)^*)^n."""

    __slots__ = ("n", "d_max", "n_v", "witness")

    def __init__(self, n, d_max, n_v, witness):
        self.n = n
        self.d_max = d_max
        self.n_v = n_v
        self.witness = witness

    def __repr__(self):
        return f"PowerClassData(n={self.n}, d_max={self.d_max}, n_v={self.n_v})"


def power_class(F, h, n):
    """Largest d | n with h a d-th power in F(x)^*, plus a witness g, g^d = h."""
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    if h.is_zero():
        raise ZeroFunction("power class of zero")
    from math import gcd
    facs = h.factored()
    d1 = n
    for _, e in facs:
        d1 = gcd(d1, e)
    unit = h.leading_unit()
    divisors = sorted((d for d in range(1, d1 + 1) if d1 % d == 0),
                      reverse=True)
    for d in divisors:
        root = F.nth_root(unit, d)
        if root is not None:
            witness = RationalFunction(FqPoly.constant(root))
            for f, e in facs:
                witness = witness * RationalFunction(f) ** (e // d)
            if witness**d != h:
                raise WitnessMismatch("witness verification failed")
            return PowerClassData(n, d, n // d, witness)
    raise WitnessMismatch("unreachable: d = 1 always works")


def geometric_power_class(F, h, n):
    """Power class over the algebraic closure: units are always powers."""
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    if h.is_zero():
        raise ZeroFunction("power class of zero")
    from math import gcd
    d1 = n
    for _, e in h.factored():
        d1 = gcd(d1, e)
    return d1


# ---------------------------------------------------------------------------
# Kummer point counting and zeta numerators
# ---------------------------------------------------------------------------

def _extension_with_embedding(F, i):
    """(F_{q^i}, embedding F -> F_{q^i})."""
    big = fq_make(F.p, F.k * i)
    return big, F.embedding(big)


def kummer_solutions(Fbig, d, u0):
    """#{w in Fbig : w^d = u0} for a unit u0."""
    from math import gcd
    g = gcd(d, Fbig.q - 1)
    if u0 ** ((Fbig.q - 1) // g) == Fbig.one():
        return g
    return 0


def count_kummer_points(nbar, h, i=1, budget=DEFAULT_POINT_BUDGET):
    """Rational points over F_{q^i} on the normalization of z^nbar = h(w).

    The curve may be reducible; points on every component are counted.  Above
    a point x0 of P^1 with a = ord(h), d = gcd(nbar, a) and unit value u0,
    the fiber of the normalization has as many rational points as w^d = u0
    has solutions.

    The affine points are evaluated as digit arrays, ``_KUMMER_CHUNK`` at a
    time.  Where num and den are both nonzero, a = 0 and there are g =
    gcd(nbar, q^i - 1) points above x0 if num/den is a g-th power, i.e. if
    log(num) = log(den) mod g; the other points and infinity take the
    general rule above.
    """
    import numpy as np
    from math import gcd
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    if h.is_zero():
        raise ZeroFunction("cannot count points of z^n = 0")
    F = h.field
    if gcd(nbar, F.p) != 1:
        raise CharacteristicDividesExponent(
            f"exponent {nbar} not prime to characteristic {F.p}")
    if F.q**i > budget:
        raise EnumerationBudgetExceeded(
            f"q^i = {F.q ** i} exceeds budget {budget}")
    big, emb = _extension_with_embedding(F, i)
    hh = RationalFunction(h.num.map_coeffs(emb, big), h.den.map_coeffs(emb, big))
    g_full = gcd(nbar, big.q - 1)
    log = big._log_table() if g_full > 1 else None

    def values(poly, x):
        cols = [np.array(c.coeffs, dtype=np.int64)[:, None]
                for c in reversed(poly.coeffs)]
        acc = np.broadcast_to(cols[0], x.shape)
        for col in cols[1:]:
            acc = big._mul_digits(acc, x)
            acc += col
            acc %= big.p
        return big._indices(acc)

    total = 0
    special = []
    for start in range(0, big.q, _KUMMER_CHUNK):
        idx = np.arange(start, min(start + _KUMMER_CHUNK, big.q),
                        dtype=np.int64)
        x = big._digits(idx)
        nv, dv = values(hh.num, x), values(hh.den, x)
        ordinary = (nv != 0) & (dv != 0)
        special.extend(idx[~ordinary].tolist())
        if log is not None:
            ordinary &= (log[nv] - log[dv]) % g_full == 0
        total += g_full * int(np.count_nonzero(ordinary))
    for x0 in [big.from_index(j) for j in special] + [INF]:
        d = gcd(nbar, hh.ord_at(x0))
        total += kummer_solutions(big, d, hh.unit_value_at(x0))
    return total


def _weil_check(coeffs, q, genus, tol=1e-6):
    import numpy as np

    from .qpoly import QPoly
    if genus == 0:
        return
    # multiple roots ruin the conditioning of numpy.roots: strip them
    # exactly first (the root set is unchanged)
    sf = QPoly(list(coeffs)).squarefree_part()
    arr = np.array([float(c) for c in sf.coeffs][::-1], dtype=float)
    roots = np.roots(arr)  # roots of P as polynomial in T
    # reciprocal roots must have absolute value sqrt(q)
    recips = 1.0 / roots
    target = q**0.5
    if not all(abs(abs(r) - target) < tol * max(1.0, target) for r in recips):
        raise CountsInconsistent(
            f"Weil bound violated: |reciprocal roots| = "
            f"{sorted(abs(r) for r in recips)}, expected sqrt({q})")


def zeta_numerator(nbar, h, genus, budget=DEFAULT_POINT_BUDGET):
    """Numerator P(T) of the zeta function of the smooth irreducible curve
    z^nbar = h over F_q, from point counts N_1..N_genus and the functional
    equation.  The count N_{genus+1} is used as a consistency check.
    """
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    F = h.field
    q = F.q
    if genus == 0:
        n1 = count_kummer_points(nbar, h, 1, budget)
        if n1 != q + 1:
            raise CountsInconsistent(
                f"genus-0 curve has {n1} points over F_{q}, expected {q + 1}")
        return [1]
    if q ** (genus + 1) > budget:
        raise EnumerationBudgetExceeded(
            f"zeta numerator needs counts up to q^{genus + 1} = "
            f"{q ** (genus + 1)}, beyond the budget {budget}")
    counts = [count_kummer_points(nbar, h, i, budget)
              for i in range(1, genus + 2)]
    # log P = sum (N_i - 1 - q^i) T^i / i up to degree genus
    logp = [Fraction(0)] + [Fraction(counts[i - 1] - 1 - q**i, i)
                            for i in range(1, genus + 1)]
    # exponentiate the truncated series: P' = P * (log P)'
    pc = [Fraction(1)] + [Fraction(0)] * genus
    for m in range(1, genus + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += j * logp[j] * pc[m - j]
        pc[m] = acc / m
    coeffs = [Fraction(0)] * (2 * genus + 1)
    for i in range(genus + 1):
        coeffs[i] = pc[i]
    for j in range(genus):
        coeffs[2 * genus - j] = coeffs[j] * q ** (genus - j)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise CountsInconsistent(f"non-integral zeta coefficient {c}")
        out.append(int(c))
    # consistency: predicted N_{genus+1} from P must match the direct count
    # N_i = 1 + q^i - sum of alpha^i
    i = genus + 1
    predicted = 1 + q**i - power_sums(out, i)[i]
    if predicted != counts[genus]:
        raise CountsInconsistent(
            f"functional equation check failed: N_{i} = {counts[genus]}, "
            f"zeta predicts {predicted} (wrong genus upstream?)")
    _weil_check(out, q, genus)
    return out


def power_sums(poly, upto):
    """[0, s_1, ..., s_upto]: power sums of the reciprocal roots alpha of
    the integer polynomial prod (1 - alpha T), by Newton's identities."""
    e = [(-1) ** j * poly[j] if j < len(poly) else 0
         for j in range(upto + 1)]
    ps = [0] * (upto + 1)
    for m in range(1, upto + 1):
        acc = (-1) ** (m - 1) * m * e[m]
        for j in range(1, m):
            acc += (-1) ** (j - 1) * e[j] * ps[m - j]
        ps[m] = acc
    return ps


def normalize_kummer_equation(nbar, h):
    """Replace h by h * g^nbar so the result is a polynomial all of whose
    irreducible factors have exponent in [1, nbar-1].  The Kummer cover
    z^nbar = h is unchanged up to isomorphism.
    """
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    if h.is_zero():
        raise ZeroFunction("cannot normalize zero")
    F = h.field
    out = FqPoly.constant(h.leading_unit())
    for f, e in h.factored():
        r = e % nbar
        if r:
            out = out * f**r
    return out


def kummer_genus(n_c, h):
    """Geometric genus of one geometric component of z^n_c = h, by
    Riemann-Hurwitz over the algebraic closure.

    The input must not be a proper power over the base field (split off
    power classes with ``power_class`` first); if it is a proper power over
    the closure only, the component count n_c splits accordingly and the
    genus of a single component is returned.
    """
    from math import gcd
    if isinstance(h, FqPoly):
        h = RationalFunction(h)
    if h.is_zero():
        raise ZeroFunction("genus of z^n = 0")
    F = h.field
    if gcd(n_c, F.p) != 1:
        raise CharacteristicDividesExponent(
            f"{n_c} not prime to characteristic {F.p}")
    if power_class(F, h, n_c).d_max != 1:
        raise IsProperPower(f"h is a proper power modulo {n_c}-th powers")
    d = geometric_power_class(F, h, n_c)
    n_comp = n_c // d
    two_g = -2 * n_comp + 2
    for f, e in h.factored():
        e //= d
        if e % n_comp:
            two_g += f.degree() * (n_comp - gcd(n_comp, e))
    a_inf = -(h.num.degree() - h.den.degree()) // d
    if a_inf % n_comp:
        two_g += n_comp - gcd(n_comp, a_inf)
    if two_g % 2:
        raise GenusMismatch("Riemann-Hurwitz parity failure")
    return two_g // 2
