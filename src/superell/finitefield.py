"""Exact arithmetic in GF(p^k), polynomial algebra, and Kummer-curve counting.

Fields are represented as GF(p)[a]/(modulus).  When no modulus is supplied
the lexicographically smallest monic irreducible polynomial is chosen, so
field construction is deterministic.

An element is its canonical index i = c_0 + c_1 p + ... + c_{k-1} p^(k-1),
where c_j is the coefficient of a^j; ``coeffs`` gives the digit tuple and
``index()`` the number, which is also the sort order.  Arithmetic on
indices comes in three kinds:

* k = 1: plain integers mod p;
* q <= ``_TABLE_MAX`` = 10^6 (``DEFAULT_POINT_BUDGET``, so every field
  that point counting may enumerate): three ``array('i')`` tables per
  field, built on first use from the canonical generator g (the element of
  order q - 1 with the smallest index): exp[e] = g^e, log[i] (-1 at zero)
  and the Zech logarithms zech[e] = log(1 + g^e) (-1 where that sum
  vanishes; Huber, IEEE Trans. IT 36, 1990).  A product, inverse, power or
  Frobenius is one lookup, a sum is exp[la + zech[lb - la]] (exponents mod
  q - 1), and -x adds (q - 1)/2 to the log for odd p.  The tables take 12
  bytes per element: 1.4 MB for GF(7^6) = 117,649, the largest residue
  field the tree and descent meet, and at most 12 MB for a counting field.
  A small field (below) fills its tables one power g^e at a time; a larger
  one fills them with numpy, by baby-step/giant-step digit-array products
  written block by block into the table buffers;
* q > 10^6: schoolbook products of the base-p digits of the indices, and
  a discrete log by baby steps and giant steps.

``FqPoly`` keeps its coefficients as a tuple of indices, and its loops call
the field's scalar operations on ints without creating elements.

On top of the field arithmetic this module provides

* ``FqPoly``: dense univariate polynomials over a fixed field, also the one
  representation of a Kummer equation z^nbar = h: every h met is a
  polynomial, since the charts send the pole of f to infinity, and its
  order and unit value at a point of P^1 are ``ord_at`` and
  ``unit_value_at``;
* ``factor_poly``: squarefree + distinct-degree + Cantor-Zassenhaus equal
  degree splitting, derandomized by seeding the splitting PRNG from the
  input polynomial.  ``FqPoly.roots`` does not factor: gcd(h, x^q - x) is
  a product of distinct linear factors, and one equal-degree split at
  degree 1, seeded the same way, separates them;
* ``power_class``: the largest d | n such that a polynomial h is a d-th
  power, with an explicit polynomial witness, and, from the same
  ``factor_poly`` of h, the power class d_geo over the algebraic closure,
  the genus of one geometric component of z^n = h
  (``riemann_hurwitz_genus``, the one Riemann-Hurwitz formula of the
  package), the normal form of h (its n-th power factors stripped) and
  the normal forms of its sheets;
* ``count_kummer_points`` / ``zeta_numerator``: rational point counts on the
  normalization of z^nbar = h(w) and the numerator of its zeta function.

``count_kummer_points`` counts z^nbar = h over F_{q^i}.  When gcd(nbar,
q^i - 1) = 1, x -> x^nbar is a bijection of F_{q^i}, every fiber has one
rational point and the count is q^i + 1, read off without building
F_{q^i}.  Otherwise it evaluates h at every x = g^e by Horner on discrete
logs: multiplying by x adds e to the log of the running value, and adding
a coefficient is one Zech lookup.  An ordinary point is counted by its
log mod gcd(nbar, q^i - 1), and the roots of h, where the log becomes -1,
take the general rule at a zero.

numpy carries the bulk work on large fields only.  Importing it costs
about 70 ms, more than all the GF(q) work on a field of at most
``_PY_MAX`` = 2^12 elements, and every field that a curve of small genus
counts over is that small.  So ``_numpy_pays`` sends a field to numpy only
when it has more than 2^12 elements or numpy is loaded already; a fresh
process whose fields all stay small never imports it.  A small field
fills its tables and runs the Horner loop on logs in pure Python.  On a
large field the tables are filled block by block from digit arrays, (k,
N) int64 arrays holding N elements as columns of base-p digits, and
``count_kummer_points`` runs the Horner loop on ``_KUMMER_CHUNK``
exponents at a time through numpy views of the tables.  numpy is imported
inside the functions that use it, so importing the package does not load
it.  There is no floating point: the Weil check on a zeta numerator is a
Sturm count over Q (``_weil_check``).
"""

from __future__ import annotations

import random
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import (
    CharacteristicDividesExponent,
    CountsInconsistent,
    EnumerationBudgetExceeded,
    GenusMismatch,
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

#: fields with at most this many elements keep exp/log/Zech tables: every
#: field that point counting may enumerate
_TABLE_MAX = DEFAULT_POINT_BUDGET

#: largest field whose tables and point counts are made in pure Python
#: while numpy is not loaded.  Importing numpy costs about 70 ms; a pure
#: table fill costs about 5-7 us per element up to k = 4 (17 us in
#: GF(2^12)) and a pure count on discrete logs about 0.6-1 us per point
#: of an h of degree 4 to 8 (2-core x86-64, CPython 3.11), so the fields
#: of up to 2,401 elements that point counting meets stay well under the
#: import.
_PY_MAX = 1 << 12


def _numpy_pays(n):
    """Whether GF(q) work over n elements goes through numpy: n is too
    large for pure Python, or numpy is loaded already."""
    return n > _PY_MAX or "numpy" in sys.modules


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
# modulus selection: Rabin's test through FqPoly over GF(p)
# ---------------------------------------------------------------------------

def _is_irreducible(modulus, p):
    """Rabin's test (SIAM J. Comput. 9, 1980) for a monic modulus g of
    degree k >= 2 over GF(p): x^(p^k) = x mod g, and gcd(g, x^(p^(k/l)) - x)
    = 1 for every prime l dividing k."""
    F = fq_make(p)
    g = FqPoly.from_ints(F, modulus)
    k = g.degree()
    x = FqPoly.x(F)
    if x.powmod(p**k, g) != x:
        return False
    return all(g.gcd(x.powmod(p ** (k // ell), g) - x).is_one()
               for ell in _factorize_int(k))


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
        if _is_irreducible(g, p):
            return tuple(g)
    raise ReducibleModulus(f"no irreducible of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class FqField:
    """The finite field GF(p^k) presented as GF(p)[a]/(modulus).

    Scalar arithmetic works on canonical indices (see the module docstring);
    ``_mul``, ``_add``, ``_neg``, ``_inv`` and ``_pow`` take and return
    indices, and the exp/log/Zech tables are built by their first call.
    """

    def __init__(self, p, k, modulus):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if k < 1:
            raise ReducibleModulus("extension degree must be >= 1")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree k")
        if k > 1 and not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {modulus} reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._zero = FqElement(self, 0)
        self._one = FqElement(self, 1)
        self._t = None  # (exp, log, zech) once built
        self._bsgs = None  # (baby steps, giant step) of dlog above the tables
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
        return self._one if self.k == 1 else FqElement(self, self.p)

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError("coefficient vector has wrong length")
        return FqElement(self, self._from_digits(coeffs))

    def from_int(self, n):
        return FqElement(self, n % self.p)

    def from_index(self, idx):
        """Element number ``idx`` in the canonical enumeration (base-p digits)."""
        return FqElement(self, idx % self.q)

    def multiplicative_generator(self):
        """The element of order q - 1 with the smallest index."""
        if self._gen is None:
            fac = _factorize_int(self.q - 1) if self.q > 2 else {}
            for idx in range(1, self.q):
                if all(self._digit_pow(idx, (self.q - 1) // ell) != 1
                       for ell in fac):
                    self._gen = FqElement(self, idx)
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
        t = self._tables()
        if t is not None:
            if u.i:
                return t[1][u.i]
        elif u.i:
            # above _TABLE_MAX: baby steps g^j (j < m), giant steps u g^(-mt)
            baby, step = self._baby_steps()
            m, x = len(baby), u.i
            for t in range(m):
                if x in baby:
                    return t * m + baby[x]
                x = self._digit_mul(x, step)
        raise KeyError(f"discrete log of zero in {self!r}")

    def _baby_steps(self):
        """({index of g^j: j} for j < m = ceil(sqrt(q - 1)), index of
        g^(-m)), the baby-step table of ``dlog`` above ``_TABLE_MAX``,
        built by its first call."""
        if self._bsgs is None:
            n = self.q - 1
            g = self.multiplicative_generator().i
            baby, acc = {}, 1
            for j in range(isqrt(n - 1) + 1):
                baby[acc] = j
                acc = self._digit_mul(acc, g)
            self._bsgs = (baby, self._digit_pow(acc, n - 1))
        return self._bsgs

    # -- canonical indices: the base-p digits of element number i are its
    # coefficients of a^0, ..., a^(k-1) (the order of ``from_index``).

    def _to_digits(self, i):
        p, out = self.p, []
        for _ in range(self.k):
            i, d = divmod(i, p)
            out.append(d)
        return tuple(out)

    def _from_digits(self, digits):
        n = 0
        for c in reversed(digits):
            n = n * self.p + c
        return n

    def _digit_mul(self, a, b):
        """Product of two indices: schoolbook on their digits, then
        reduction by the modulus from the top down."""
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        res = [0] * (2 * k - 1)
        db = self._to_digits(b)
        for i, x in enumerate(self._to_digits(a)):
            if x:
                for j, y in enumerate(db):
                    res[i + j] += x * y
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = res[i] % p
            if c:
                for j in range(k):
                    res[i - k + j] -= c * mod[j]
        return self._from_digits([c % p for c in res[:k]])

    def _digit_pow(self, a, e):
        """a^e for e >= 0 by square-and-multiply on ``_digit_mul``."""
        result = 1
        while e:
            if e & 1:
                result = self._digit_mul(result, a)
            a = self._digit_mul(a, a)
            e >>= 1
        return result

    def _tables(self):
        """(exp, log, zech) as ``array('i')`` tables, or None for a field
        above ``_TABLE_MAX``.  exp[e] is the index of g^e, log[i] the log of
        element i (-1 at zero) and zech[e] the log of 1 + g^e (-1 where that
        sum is zero), for the canonical generator g and 0 <= e < q - 1.
        The buffers are filled one power at a time in a small field (see
        ``_numpy_pays``), else block by block through numpy views."""
        if self._t is None and self.q <= _TABLE_MAX:
            n, p = self.q - 1, self.p
            exp, zech = array("i", [0]) * n, array("i", [0]) * n
            log = array("i", [-1]) * self.q
            # both fills read zech[e] = log[1 + g^e]: 1 + x changes only
            # the lowest digit of x
            if not _numpy_pays(self.q):
                g, acc = self.multiplicative_generator().i, 1
                for e in range(n):
                    exp[e] = acc
                    log[acc] = e
                    acc = self._digit_mul(acc, g)
                for e, x in enumerate(exp):
                    zech[e] = log[x - x % p + (x + 1) % p]
            else:
                import numpy as np
                ev, lv, zv = (np.frombuffer(t, dtype=np.intc)
                              for t in (exp, log, zech))
                for start, idx in self._power_blocks():
                    ev[start:start + len(idx)] = idx
                    lv[idx] = np.arange(start, start + len(idx),
                                        dtype=np.intc)
                m = isqrt(n - 1) + 1
                for start in range(0, n, m):
                    x = ev[start:start + m]
                    zv[start:start + m] = lv[x - x % p + (x + 1) % p]
            self._t = (exp, log, zech)
        return self._t

    def _power_blocks(self):
        """Yield (e, idx) with idx[c] the index of g^(e + c), for blocks of
        m = ceil(sqrt(q - 1)) exponents.  Baby-step/giant-step: m scalar
        multiplies give the block g^0, ..., g^(m-1), and every giant step
        multiplies the whole block by g^m as one digit-array product."""
        import numpy as np
        n = self.q - 1
        m = isqrt(n - 1) + 1
        g = self.multiplicative_generator().i
        baby, acc = [], 1
        for _ in range(m):
            baby.append(self._to_digits(acc))
            acc = self._digit_mul(acc, g)
        block = np.array(baby, dtype=np.int64).T
        giant = np.array(self._to_digits(acc), dtype=np.int64)[:, None]
        for start in range(0, n, m):
            yield start, self._indices(block[:, :min(m, n - start)])
            if start + m < n:
                block = self._mul_digits(block, giant)

    # -- scalar arithmetic on indices: plain ``% p`` in a prime field,
    # table lookups up to _TABLE_MAX, digit arithmetic above it.

    def _mul(self, a, b):
        if not (a and b):
            return 0
        if self.k == 1:
            return a * b % self.p
        t = self._t or self._tables()
        if t is None:
            return self._digit_mul(a, b)
        log = t[1]
        return t[0][(log[a] + log[b]) % (self.q - 1)]

    def _add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        t = self._t or self._tables()
        if t is None:
            return self._from_digits([(x + y) % self.p for x, y in
                                      zip(self._to_digits(a),
                                          self._to_digits(b))])
        exp, log, zech = t
        la, n = log[a], self.q - 1
        z = zech[(log[b] - la) % n]
        return 0 if z < 0 else exp[(la + z) % n]

    def _neg(self, a):
        if not a or self.p == 2:
            return a
        if self.k == 1:
            return self.p - a
        t = self._t or self._tables()
        if t is None:
            return self._from_digits([-x % self.p for x in self._to_digits(a)])
        n = self.q - 1
        return t[0][(t[1][a] + n // 2) % n]

    def _pow(self, a, e):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        n = self.q - 1
        if self.k == 1:
            return pow(a, e % n, self.p)
        t = self._t or self._tables()
        if t is None:
            return self._digit_pow(a, e % n)
        return t[0][t[1][a] * e % n]

    def _inv(self, a):
        return self._pow(a, -1)

    # Digit arrays: (k, N) int64 arrays whose column c holds the base-p
    # digits of one element, row j the coefficient of a^j (the order of
    # ``from_index``).

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
        mod_poly = FqPoly.from_ints(big, self.modulus)
        roots = mod_poly.roots()
        if len(roots) != self.k:
            raise ValueError("modulus does not split in the bigger field")
        img = roots[0].i
        powers = [1]
        for _ in range(self.k - 1):
            powers.append(big._mul(powers[-1], img))

        def fn(x, _powers=powers, _big=big):
            acc = 0
            for c, pw in zip(x.coeffs, _powers):
                if c:
                    acc = _big._add(acc, _big._mul(pw, c))
            return FqElement(_big, acc)

        self._embeddings[key] = fn
        return fn


class FqElement:
    """Element of an FqField, stored as its canonical index ``i``."""

    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    @property
    def coeffs(self):
        """The residues mod p of the coefficients of a^0, ..., a^(k-1)."""
        return self.field._to_digits(self.i)

    def __repr__(self):
        if self.field.k == 1:
            return str(self.i)
        return f"({', '.join(map(str, self.coeffs))})"

    def __eq__(self, other):
        return (isinstance(other, FqElement) and self.i == other.i
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(self.i)

    def index(self):
        """Position in the canonical enumeration; also the sort key."""
        return self.i

    def is_zero(self):
        return self.i == 0

    def __add__(self, other):
        return FqElement(self.field, self.field._add(self.i, other.i))

    def __sub__(self, other):
        F = self.field
        return FqElement(F, F._add(self.i, F._neg(other.i)))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.i))

    def __mul__(self, other):
        return FqElement(self.field, self.field._mul(self.i, other.i))

    def __pow__(self, e):
        return FqElement(self.field, self.field._pow(self.i, e))

    def inverse(self):
        return FqElement(self.field, self.field._inv(self.i))

    def __truediv__(self, other):
        F = self.field
        return FqElement(F, F._mul(self.i, F._inv(other.i)))

    def frobenius(self, j=1):
        """x -> x^(p^j)."""
        F = self.field
        return FqElement(F, F._pow(self.i, F.p**j))


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
#
# Coefficient lists of canonical indices, low to high, combined by the
# field's scalar operations on indices, or by plain ``% p`` in a prime
# field, where the indices are the residues themselves.

def _trim(c):
    """c without its high zero coefficients, as a tuple (the zero
    polynomial is (0,))."""
    n = len(c)
    while n > 1 and not c[n - 1]:
        n -= 1
    return tuple(c[:n]) if n else (0,)


def _mul_ints(F, a, b):
    """Product of two coefficient lists."""
    res = [0] * (len(a) + len(b) - 1)
    if F.k == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] += x * y
        return [c % F.p for c in res]
    mul, add = F._mul, F._add
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = add(res[i + j], mul(x, y))
    return res


def _divmod_ints(F, a, b, inv_lead):
    """(quotient, remainder) of coefficient lists a by b, where b has a
    nonzero leading coefficient whose inverse is ``inv_lead``."""
    db = len(b) - 1
    if len(a) <= db:
        return [0], list(a)
    r, quo = list(a), [0] * (len(a) - db)
    if F.k == 1:
        p = F.p
        for off in range(len(a) - 1 - db, -1, -1):
            x = r[off + db] % p
            if x:
                quo[off] = c = x * inv_lead % p
                for j in range(db):
                    r[off + j] -= c * b[j]
        return quo, [c % p for c in r[:db]]
    mul, add, neg = F._mul, F._add, F._neg
    for off in range(len(a) - 1 - db, -1, -1):
        x = r[off + db]
        if x:
            quo[off] = c = mul(x, inv_lead)
            m = neg(c)
            for j in range(db):
                r[off + j] = add(r[off + j], mul(m, b[j]))
    return quo, r[:db]


def _scale_ints(F, a, c):
    """Coefficient list a times the scalar index c."""
    if F.k == 1:
        return [x * c % F.p for x in a]
    return [F._mul(x, c) for x in a]


def _add_ints(F, a, b):
    """Sum of two coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    if F.k == 1:
        return [(x + y) % F.p for x, y in zip(a, b)] + list(a[len(b):])
    add = F._add
    return [add(x, y) for x, y in zip(a, b)] + list(a[len(b):])


class FqPoly:
    """Dense univariate polynomial over an FqField (coeffs low-to-high).

    The coefficients are kept as canonical indices; ``coeffs`` returns them
    as ``FqElement``s.
    """

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs):
        self.field = field
        self._c = _trim([c.i for c in coeffs])

    @classmethod
    def _make(cls, field, ints):
        poly = cls.__new__(cls)
        poly.field = field
        poly._c = _trim(ints)
        return poly

    @property
    def coeffs(self):
        F = self.field
        return tuple(FqElement(F, c) for c in self._c)

    @classmethod
    def from_ints(cls, field, ints):
        return cls._make(field, [c % field.p for c in ints])

    @classmethod
    def x(cls, field):
        return cls._make(field, (0, 1))

    @classmethod
    def constant(cls, c):
        return cls._make(c.field, (c.i,))

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
        return len(self._c) - 1

    def is_zero(self):
        return self._c == (0,)

    def is_one(self):
        return self._c == (1,)

    def lead(self):
        """The leading coefficient."""
        return FqElement(self.field, self._c[-1])

    def key(self):
        """Canonical sort key: (degree, coefficient indices high-to-low)."""
        return (self.degree(), self._c[::-1])

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self._c == other._c
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field, self._c))

    def __add__(self, other):
        F = self.field
        return FqPoly._make(F, _add_ints(F, self._c, other._c))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field._neg
        return FqPoly._make(self.field, [neg(c) for c in self._c])

    def __mul__(self, other):
        F = self.field
        if isinstance(other, FqElement):
            return FqPoly._make(F, _scale_ints(F, self._c, other.i))
        return FqPoly._make(F, _mul_ints(F, self._c, other._c))

    def __pow__(self, e):
        result = FqPoly._make(self.field, (1,))
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
        F = self.field
        quo, rem = _divmod_ints(F, self._c, other._c, F._inv(other._c[-1]))
        return FqPoly._make(F, quo), FqPoly._make(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        F = self.field
        return FqPoly._make(F, _scale_ints(F, self._c, F._inv(self._c[-1])))

    def gcd(self, other):
        F = self.field
        a, b = self._c, other._c
        while b != (0,):
            a, b = b, _trim(_divmod_ints(F, a, b, F._inv(b[-1]))[1])
        return FqPoly._make(F, a).monic()

    def derivative(self):
        F = self.field
        mul, p = F._mul, F.p
        return FqPoly._make(F, [mul(i % p, c)
                                for i, c in enumerate(self._c)][1:])

    def evaluate(self, x):
        F = self.field
        mul, add, acc = F._mul, F._add, 0
        for c in reversed(self._c):
            acc = add(mul(acc, x.i), c)
        return FqElement(F, acc)

    def _divide_out(self, pt):
        """(ord at the finite point pt, self with every factor x - pt
        divided out)."""
        lin = FqPoly._make(self.field, (self.field._neg(pt.i), 1))
        k, poly = 0, self
        while poly.evaluate(pt).is_zero():
            poly = poly // lin
            k += 1
        return k, poly

    def ord_at(self, pt):
        """Order of vanishing at a point of P^1 (pt = FqElement or INF);
        -deg at infinity."""
        if self.is_zero():
            raise ZeroFunction("order of the zero function")
        if pt == INF:
            return -self.degree()
        return self._divide_out(pt)[0]

    def unit_value_at(self, pt):
        """Value of self * t^(-ord) at pt, t the local parameter (x - pt or
        1/x); the leading coefficient at infinity."""
        if self.is_zero():
            raise ZeroFunction("unit value of the zero function")
        if pt == INF:
            return self.lead()
        return self._divide_out(pt)[1].evaluate(pt)

    def compose(self, other):
        F = self.field
        acc = [0]
        for c in reversed(self._c):
            acc = _trim(_add_ints(F, _mul_ints(F, acc, other._c), (c,)))
        return FqPoly._make(F, acc)

    def shift(self, c):
        """self(x + c)."""
        return self.compose(FqPoly._make(self.field, (c.i, 1)))

    def map_coeffs(self, fn, new_field=None):
        F = new_field if new_field is not None else self.field
        return FqPoly(F, [fn(c) for c in self.coeffs])

    def powmod(self, e, mod):
        F = self.field
        m = mod._c
        inv = F._inv(m[-1])
        result = [1]
        base = _trim(_divmod_ints(F, self._c, m, inv)[1])
        while e:
            if e & 1:
                result = _trim(_divmod_ints(F, _mul_ints(F, result, base),
                                            m, inv)[1])
            base = _trim(_divmod_ints(F, _mul_ints(F, base, base), m, inv)[1])
            e >>= 1
        return FqPoly._make(F, result)

    def roots(self):
        """Roots in the base field, sorted by canonical element order."""
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has every root")
        F = self.field
        x = FqPoly.x(F)
        # g is the product of the distinct x - r: one equal-degree split
        g = self.gcd(x.powmod(F.q, self) - x)
        if g.degree() < 1:
            return []
        out = [F._neg(fac._c[0]) for fac in _equal_degree_split(
            g.monic(), 1, random.Random(_cz_seed(g)))]
        return [FqElement(F, r) for r in sorted(out)]

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
                f = FqPoly._make(F, [F._pow(c, F.q // p) for c in f._c[::p]])
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


def _cz_seed(g):
    F = g.field
    data = (F.p, F.modulus, tuple(F._to_digits(c) for c in g._c))
    return hash(data) & 0x7FFFFFFF


def _equal_degree_split(g, d, rng):
    """Cantor-Zassenhaus split of g (product of degree-d irreducibles)."""
    if g.degree() == d:
        return [g]
    F = g.field
    q, n = F.q, g.degree()
    one = FqPoly._make(F, (1,))
    while True:
        r = FqPoly._make(F, [rng.randrange(q) for _ in range(n)])
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
            h = g.gcd(r.powmod((q**d - 1) // 2, g) - one)
        if 0 < h.degree() < g.degree():
            return (_equal_degree_split(h.monic(), d, rng)
                    + _equal_degree_split((g // h).monic(), d, rng))


def factor_poly(g):
    """Full factorization of g over its field.

    Returns a list of (monic irreducible, exponent) in deterministic order
    (degree, then coefficient-lex).  The product times the leading
    coefficient reproduces g.
    """
    if g.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if g.degree() == 0:
        return []
    F = g.field
    rng = random.Random(_cz_seed(g))
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
                for irr in _equal_degree_split(g_d.monic(), d, rng):
                    out[irr.monic()] = out.get(irr.monic(), 0) + mult
                f = f // g_d
                h = h % f
        # degree-0 remainder contributes nothing
    return sorted(out.items(), key=lambda kv: kv[0].key())


# ---------------------------------------------------------------------------
# power classes
# ---------------------------------------------------------------------------

class PowerClassData:
    """Order data of h in F(x)^* / (F(x)^*)^n, read off one factorization.

    ``d_geo`` is the gcd of n and the exponents of h, its power class over
    the algebraic closure; ``genus`` is the genus of one geometric component
    of z^n = h; ``factors`` is ``factor_poly`` of h."""

    __slots__ = ("n", "d_max", "n_v", "witness", "d_geo", "genus", "factors")

    def __init__(self, n, d_max, n_v, witness, d_geo, genus, factors):
        self.n = n
        self.d_max = d_max
        self.n_v = n_v
        self.witness = witness
        self.d_geo = d_geo
        self.genus = genus
        self.factors = factors

    def __repr__(self):
        return f"PowerClassData(n={self.n}, d_max={self.d_max}, n_v={self.n_v})"

    def normal_form(self):
        """The normal form of h, lead(h) * prod f^(e mod n): h divided by
        an n-th power, so z^n = h keeps its function field."""
        return _normal_form(self.n, self.witness.lead() ** self.d_max,
                            self.factors)

    def sheet_equation(self, zeta):
        """The normal form of z^n_v = zeta * witness (zeta a unit), from the
        factors of h: const(zeta * lead(witness)) * prod f^((e/d_max) mod
        n_v)."""
        return _normal_form(self.n_v, zeta * self.witness.lead(),
                            [(f, e // self.d_max) for f, e in self.factors])


def riemann_hurwitz_genus(n, branch):
    """Genus of the cyclic degree-n cover of P^1 branched as ``branch``, a
    list of (degree of the point, multiplicity m) with ramification index
    n / gcd(n, m) above each point."""
    two_g = 2 - 2 * n
    for deg, m in branch:
        two_g += deg * (n - gcd(n, m))
    if two_g % 2:
        raise GenusMismatch("Riemann-Hurwitz parity failure")
    return two_g // 2


def power_class(h, n):
    """Largest d | n with the polynomial h a d-th power over its field,
    plus a witness g, g^d = h."""
    if h.is_zero():
        raise ZeroFunction("power class of zero")
    facs = factor_poly(h)
    d_geo = n
    for _, e in facs:
        d_geo = gcd(d_geo, e)
    a_inf = -h.degree()
    genus = riemann_hurwitz_genus(
        n // d_geo, [(f.degree(), e // d_geo) for f, e in facs]
        + [(1, a_inf // d_geo)])
    unit = h.lead()
    divisors = sorted((d for d in range(1, d_geo + 1) if d_geo % d == 0),
                      reverse=True)
    for d in divisors:
        root = h.field.nth_root(unit, d)
        if root is not None:
            witness = FqPoly.constant(root)
            for f, e in facs:
                witness = witness * f ** (e // d)
            if witness**d != h:
                raise WitnessMismatch("witness verification failed")
            return PowerClassData(n, d, n // d, witness, d_geo, genus, facs)
    raise WitnessMismatch("unreachable: d = 1 always works")


# ---------------------------------------------------------------------------
# Kummer point counting and zeta numerators
# ---------------------------------------------------------------------------

def kummer_solutions(d, u0):
    """#{w in F : w^d = u0} for a unit u0 of F."""
    q = u0.field.q
    g = gcd(d, q - 1)
    if u0 ** ((q - 1) // g) == u0.field.one():
        return g
    return 0


def count_kummer_points(nbar, h, i=1):
    """Rational points over F_{q^i} on the normalization of z^nbar = h(w).

    The curve may be reducible; points on every component are counted.  Above
    a point x0 of P^1 with a = ord(h), d = gcd(nbar, a) and unit value u0,
    the fiber of the normalization has as many rational points as w^d = u0
    has solutions.

    Where h(x0) is nonzero, a = 0 and there are g = gcd(nbar, q^i - 1)
    points above x0 if h(x0) is a g-th power, i.e. if log h(x0) = 0 mod g;
    the zeros of h and infinity take the general rule above.  When g = 1,
    every fiber has exactly one rational point, so the count is q^i + 1
    without building F_{q^i}.  Otherwise h is evaluated at every x = g^e
    by Horner on discrete logs (``_affine_logs_python`` on a small field,
    see ``_numpy_pays``, else ``_affine_logs_numpy``).
    """
    if h.is_zero():
        raise ZeroFunction("cannot count points of z^n = 0")
    F = h.field
    if gcd(nbar, F.p) != 1:
        raise CharacteristicDividesExponent(
            f"exponent {nbar} not prime to characteristic {F.p}")
    qi = F.q**i
    if qi > DEFAULT_POINT_BUDGET:
        raise EnumerationBudgetExceeded(
            f"q^i = {qi} exceeds budget {DEFAULT_POINT_BUDGET}")
    g_full = gcd(nbar, qi - 1)
    if g_full == 1:
        return qi + 1
    big = fq_make(F.p, F.k * i)
    hh = h.map_coeffs(F.embedding(big), big)
    exp, log, zech = big._tables()
    logs = [log[c] for c in reversed(hh._c)]  # high to low, -1 at zero
    kernel = (_affine_logs_numpy if _numpy_pays(big.q)
              else _affine_logs_python)
    total, special = kernel(logs, g_full, exp, zech)
    if logs[-1] < 0:
        special.append(0)
    elif logs[-1] % g_full == 0:
        total += g_full
    for x0 in [big.from_index(j) for j in special] + [INF]:
        d = gcd(nbar, hh.ord_at(x0))
        total += kummer_solutions(d, hh.unit_value_at(x0))
    return total


# Horner on discrete logs.  With x = g^e and the running value acc = h's
# partial Horner sum kept as its log L (-1 at zero), acc * x + c is
# c * (1 + acc * x / c), whose log is log c + zech[L + e - log c], one
# lookup; a zero acc gives c, a zero c adds e to L.  L stays unreduced:
# g_full divides q - 1, so L mod g_full needs no reduction mod q - 1.

def _affine_logs_python(logs, g_full, exp, zech):
    """(points above the x0 = g^e with h(x0) != 0, the indices of the x0 =
    g^e with h(x0) = 0) for the coefficient logs of h, high to low."""
    n = len(exp)
    lead, rest = logs[0], logs[1:]
    total, special = 0, []
    for e in range(n):
        L = lead
        for lc in rest:
            if L < 0:
                L = lc
            elif lc < 0:
                L += e
            else:
                L = zech[(L + e - lc) % n]
                if L >= 0:
                    L += lc
        if L < 0:
            special.append(exp[e])
        elif L % g_full == 0:
            total += g_full
    return total, special


def _affine_logs_numpy(logs, g_full, exp, zech):
    """``_affine_logs_python`` on ``_KUMMER_CHUNK`` exponents at a time,
    with the zeros of the running value kept as a (short) index array."""
    import numpy as np
    ev, zv = (np.frombuffer(t, dtype=np.intc) for t in (exp, zech))
    n = len(ev)
    total, special = 0, []
    for start in range(0, n, _KUMMER_CHUNK):
        e = np.arange(start, min(start + _KUMMER_CHUNK, n), dtype=np.int64)
        L = np.full(len(e), logs[0], dtype=np.int64)
        zero = np.empty(0, dtype=np.int64)
        for lc in logs[1:]:
            L += e
            if lc < 0:
                continue
            L -= lc
            z = np.take(zv, L, mode="wrap")
            z[zero] = 0
            np.add(z, lc, out=L)
            zero = np.flatnonzero(z < 0)
        ok = L % g_full == 0
        ok[zero] = False
        total += g_full * int(np.count_nonzero(ok))
        special.extend(ev[start + zero].tolist())
    return total, special


def _weil_check(coeffs, q, genus):
    """Check exactly that every reciprocal root of P has absolute value
    sqrt(q), for the coefficients of ``zeta_numerator`` (c_(2g-j) =
    q^(g-j) c_j).

    With y = x + q/x, x^(-g) x^(2g) P(1/x) = h(y) = c_g + sum c_(g-k) D_k(y)
    over k = 1..g, D_0 = 2, D_1 = y and D_k = y D_(k-1) - q D_(k-2).  The
    roots x and q/x of x^2 - y x + q both have absolute value sqrt(q) if
    and only if y is real in [-2 sqrt(q), 2 sqrt(q)].  So the squarefree
    part of h, with its factors vanishing at the ends divided out, must
    have all its roots inside; a Sturm chain counts them, its signs at
    +-2 sqrt(q) read off as A + B sqrt(q) with A, B rational."""
    from .qpoly import QPoly
    if genus == 0:
        return
    y = QPoly.x()
    d_prev, d = QPoly([2]), y
    h = QPoly([coeffs[genus]])
    for k in range(1, genus + 1):
        h = h + d * coeffs[genus - k]
        d_prev, d = d, y * d - d_prev * q
    sf = h.squarefree_part()
    r = isqrt(q)
    ends = ([QPoly([-2 * r, 1]), QPoly([2 * r, 1])] if r * r == q
            else [QPoly([-4 * q, 0, 1])])
    for end in ends:
        if (sf % end).is_zero():
            sf = sf // end
    chain = [sf, sf.derivative()]
    while chain[-1].degree() > 0:
        chain.append(-(chain[-2] % chain[-1]))

    def changes(eps):
        signs = [s for s in (_sign_at_edge(c, q, eps) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    outside = sf.degree() - (changes(-1) - changes(1))
    if outside:
        raise CountsInconsistent(
            f"Weil bound violated: {outside} of the {sf.degree()} distinct "
            f"pairs of reciprocal roots of {coeffs} have absolute value "
            f"other than sqrt({q})")


def _sign_at_edge(poly, q, eps):
    """Sign of the rational polynomial poly at eps * 2 sqrt(q), eps = +-1,
    from its value A + B sqrt(q): the even powers of y give A, the odd B."""
    a = b = 0
    for m, c in enumerate(poly.coeffs):
        t = c * (2 * eps) ** m * q ** (m // 2)
        if m % 2:
            b += t
        else:
            a += t
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > b * b * q) - (a * a < b * b * q))


def zeta_numerator(nbar, h, genus):
    """Numerator P(T) of the zeta function of the smooth irreducible curve
    z^nbar = h over F_q, from point counts N_1..N_genus and the functional
    equation.  The count N_{genus+1} is used as a consistency check.
    """
    F = h.field
    q = F.q
    if genus == 0:
        n1 = count_kummer_points(nbar, h, 1)
        if n1 != q + 1:
            raise CountsInconsistent(
                f"genus-0 curve has {n1} points over F_{q}, expected {q + 1}")
        return [1]
    if q ** (genus + 1) > DEFAULT_POINT_BUDGET:
        raise EnumerationBudgetExceeded(
            f"zeta numerator needs counts up to q^{genus + 1} = "
            f"{q ** (genus + 1)}, beyond the budget {DEFAULT_POINT_BUDGET}")
    counts = [count_kummer_points(nbar, h, i)
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


def _normal_form(nbar, unit, factors):
    """const(unit) * prod f^(e mod nbar) over the factors (f, e)."""
    out = FqPoly.constant(unit)
    for f, e in factors:
        r = e % nbar
        if r:
            out = out * f**r
    return out
