"""Capped-precision arithmetic in finite extensions L/Q_p.

Every field is stored in a normalized two-level shape: an unramified part
U = Q_p[a]/(m(a)) of degree f, followed by a single Eisenstein step
L = U[pi]/(E(pi)) of degree e.  Arbitrary towers are flattened into this
shape by ``flatten_step`` (see fieldsearch).  Elements are vectors of
length e over U, each U-coordinate a vector of f integers modulo p^N,
together with a power-of-p shift (so negative valuations are exact) and a
per-element precision counter.

Key consequences of the normalized shape:

* the valuation of sum(c_i pi^i) is min_i (e*v_U(c_i) + i), exactly, because
  the candidate valuations are pairwise distinct modulo e;
* the residue field of L is that of U, and reduction is the residue of the
  pi^0 coordinate;
* automorphisms are determined by a root of m in U and a root of E^sigma
  in L, which is how the Galois group is enumerated.

The hot paths avoid division in L, which costs a full-precision Newton
inversion:

* leading residues: ``unit_residue`` reads the residue of x / pi^v(x) off
  the coordinate realizing v(x), turning p-powers into pi-powers with the
  per-field constant wbar = residue(p / pi^e);
* pi^-1 is inverted once per field (``LocalField.pi_inverse``) and reused
  by the digit expansion and by every rescaling by a pi-power;
* Newton root refinement inverts f'(x_0) once and carries the inverse
  along, refining it by z <- z(2 - f'(x) z) at each step (Caruso,
  "Computations with p-adic numbers", arXiv:1701.06794, section 2).

Polynomials over L are coefficient lists, low to high, with one set of
helpers: ``poly_mul`` (skipping exact zeros only, so that an inexact zero
keeps its error term), ``poly_eval`` (Horner), ``poly_shift_scale`` (a
Taylor shift by synthetic division) and ``gauss_reduce``, which returns the
Gauss valuation m of a list and the residues of its entries over pi^m from
leading residues.  The root search, the branch-point linear forms of the
reduction and the chart comparisons of the tree all reduce through
``gauss_reduce``, so they share one rule for a coefficient that is zero to
working precision: it reduces to 0 when known one digit past pi^m, and
raises PrecisionExhausted otherwise.

The root search runs in two passes.  The residue pass walks the digit
recursion with no Newton step and counts the roots each node accounts for:
a simple residue root one, a multiple residue root of multiplicity k what
the polynomial one pi-digit deeper (whose reduction has degree k) accounts
for.  So a split test is decided on residues alone.  The lifting pass
refines the simple residue roots, the leaves, by Newton.  For a polynomial
over Q (``roots_of_qpoly``) the roots that reduce to simple roots mod p lie
in Q_p: they are lifted with integers mod p^N and deflated, and only the
cofactor is searched over L.  Given G = Gal(L/Q_p), which permutes the
roots of the Q_p-rational cofactor, one leaf is lifted and the images of
its root under the generators of G fill the leaves whose discs contain
them, until the orbit closes; only the leaves no image reaches are lifted.
G is asked for once the first root is lifted and checked, so a root known
to too few digits costs no group.  Without G every leaf is lifted.

Products in L sum the integer products unreduced and reduce each output
coordinate once: mod m(a), by the rows of the pi-table, then mod p^N.

Gal(L/Q_p) is built from generators (Holt-Eick-O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 4).  An automorphism is named by
the coordinate key of its images of a and pi (``KeyedImages``): their
coordinates mod p^k, at the least depth k < N - _MARGIN at which the |G|
pairs of images have distinct keys.  Then e k exceeds every pairwise
closeness, so a composed pair whose key is found is closer to that
automorphism than to any other.  Only generators are applied, each the
least element not yet reached, with 2|G| ``apply`` calls; every other row
of the table is composed from them, row(g o t) = row(g) o row(t).

The ramification filtration is read off the images of pi: inertia fixes
U and O_L = O_U[pi], so i(sigma) = v_L(sigma(pi) - pi) on inertia, and
Hilbert's formula, sum i(sigma) = v_L(E'(pi)), checks it.  It is computed
once per group and kept on it (``GaloisGroupData.filt``).

Valuations are integers in the v(pi_L) = 1 normalization unless stated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NegativeValuation,
    NotEisenstein,
    NotGalois,
    NotMonogenicWitness,
    PrecisionExhausted,
    PrecisionTooLow,
    ReducibleModulus,
)
from .finitefield import FqPoly, fq_make

INFINITE = "infinite"  # valuation of an exact zero

_MARGIN = 2  # digits of headroom required for equality/valuation decisions


# ---------------------------------------------------------------------------
# unramified level: Z_p[a]/(m(a)) with coefficients mod p^N
# ---------------------------------------------------------------------------

class Unramified:
    """Ring of integers of the unramified extension of degree f, mod p^N."""

    def __init__(self, p, f, prec, modulus_lift=None):
        self.p = p
        self.f = f
        self.N = prec
        self.pN = p**prec
        if modulus_lift is None:
            modulus_lift = fq_make(p, f).modulus
        self.modulus = tuple(int(c) % self.pN for c in modulus_lift)
        if len(self.modulus) != f + 1 or self.modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree f")
        # FqField rejects a modulus that is reducible mod p
        self.residue_field = fq_make(p, f, self.modulus)
        self.zero = (0,) * f
        self.one = (1,) + (0,) * (f - 1)

    def add(self, x, y):
        pN = self.pN
        return tuple((a + b) % pN for a, b in zip(x, y))

    def neg(self, x):
        pN = self.pN
        return tuple(-a % pN for a in x)

    def mul(self, x, y):
        if self.f == 1:
            return (x[0] * y[0] % self.pN,)
        res = [0] * (2 * self.f - 1)
        _poly_mul_into(res, x, y)
        return self.reduce(res)

    def reduce(self, res):
        """The U-coordinate of an unreduced integer polynomial in a of
        degree < 2f (a list, consumed): each coefficient is reduced mod
        p^N once, the top ones as they are cancelled by the monic m(a)."""
        f, pN, mod = self.f, self.pN, self.modulus
        for i in range(len(res) - 1, f - 1, -1):
            c = res[i] % pN
            if c:
                for j in range(f):
                    res[i - f + j] -= c * mod[j]
        return tuple(a % pN for a in res[:f])

    def val(self, x):
        """Largest k <= N with p^k dividing every coordinate."""
        best = self.N
        p = self.p
        for a in x:
            if a == 0:
                continue
            k = 0
            while a % p == 0:
                a //= p
                k += 1
            best = min(best, k)
            if best == 0:
                return 0
        return best

    def residue(self, x):
        p = self.p
        return self.residue_field.element(tuple(a % p for a in x))

    def lift(self, r):
        """Plain digit lift of a residue-field element."""
        return tuple(int(c) % self.pN for c in r.coeffs)

    def div_p(self, x, k):
        """Exact division by p^k."""
        pk = self.p**k
        if any(a % pk for a in x):
            raise PrecisionExhausted("inexact division by p^k: out of digits")
        return tuple(a // pk for a in x)

    def from_int(self, n):
        return (n % self.pN,) + (0,) * (self.f - 1)


def _poly_mul_into(acc, x, y):
    """acc += x * y for integer coefficient lists in a, unreduced."""
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    acc[i + j] += a * b


# ---------------------------------------------------------------------------
# the two-level local field and its elements
# ---------------------------------------------------------------------------

class LocalField:
    """L = U[pi]/(E(pi)) with U unramified of degree f, E Eisenstein of
    degree e.  Q_p itself is (f=1, E = x - p)."""

    def __init__(self, p, unramified_degree, eisenstein, prec,
                 unramified_modulus=None, label=None):
        if prec < 4:
            raise PrecisionTooLow(f"precision {prec} < 4 digits")
        self.p = p
        self.N = prec
        self.U = Unramified(p, unramified_degree, prec, unramified_modulus)
        self.f = unramified_degree
        E = [self._coerce_ucoeff(c) for c in eisenstein]
        self.e = len(E) - 1
        self.degree = self.e * self.f
        if E[-1] != self.U.one:
            raise NotEisenstein("Eisenstein polynomial must be monic")
        for c in E[:-1]:
            if self.U.val(c) < 1:
                raise NotEisenstein("non-leading coefficients must be in (p)")
        if self.U.val(E[0]) != 1:
            raise NotEisenstein("constant term must have valuation exactly 1")
        self.E = tuple(E)
        self.residue_field = self.U.residue_field
        self.label = label or f"Q_{p}(f={self.f},e={self.e})"
        self._pi_table = self._build_pi_table()
        self._zero_vec = tuple(self.U.zero for _ in range(self.e))
        self._pi_inv = None
        self._wbar = None

    def _coerce_ucoeff(self, c):
        if isinstance(c, tuple):
            return tuple(int(x) % self.U.pN for x in c)
        if isinstance(c, int):
            return self.U.from_int(c)
        raise TypeError(f"bad Eisenstein coefficient {c!r}")

    def _build_pi_table(self):
        """pi^(e+j) as vectors over U for j = 0..e-2."""
        U, e = self.U, self.e
        table = []
        cur = [U.neg(c) for c in self.E[:-1]]  # pi^e
        table.append(tuple(cur))
        for _ in range(e - 2):
            top = cur[-1]
            nxt = [U.zero] + cur[:-1]
            if any(top):
                pe = table[0]
                nxt = [U.add(a, U.mul(top, b)) for a, b in zip(nxt, pe)]
            cur = nxt
            table.append(tuple(cur))
        return table

    def __repr__(self):
        return self.label

    # -- element constructors ------------------------------------------

    def zero(self):
        return LocalFieldElement(self, self._zero_vec, 0, self.N, True)

    def one(self):
        vec = (self.U.one,) + (self.U.zero,) * (self.e - 1)
        return LocalFieldElement(self, vec, 0, self.N, False)

    def pi(self):
        if self.e == 1:
            # uniformizer is -E[0] (= p for the standard step x - p)
            vec = (self.U.neg(self.E[0]),)
            return LocalFieldElement(self, vec, 0, self.N, False)
        vec = (self.U.zero, self.U.one) + (self.U.zero,) * (self.e - 2)
        return LocalFieldElement(self, vec, 0, self.N, False)

    def pi_inverse(self):
        """pi^-1, inverted on first use and kept on the field."""
        if self._pi_inv is None:
            self._pi_inv = self.pi().invert()
        return self._pi_inv

    def wbar(self):
        """residue(p / pi^e) = -1 / residue(E_0 / p), computed on first use:
        p^k = pi^(e k) (p / pi^e)^k turns a p-power into a pi-power."""
        if self._wbar is None:
            U = self.U
            self._wbar = -U.residue(U.div_p(self.E[0], 1)).inverse()
        return self._wbar

    def gen_unramified(self):
        u = (0, 1) + (0,) * (self.f - 2) if self.f > 1 else (1,)
        vec = (u,) + (self.U.zero,) * (self.e - 1)
        return LocalFieldElement(self, vec, 0, self.N, False)

    def from_int(self, n):
        if n == 0:
            return self.zero()
        vec = (self.U.from_int(n),) + (self.U.zero,) * (self.e - 1)
        return LocalFieldElement(self, vec, 0, self.N, False)

    def from_fraction(self, q):
        q = Fraction(q)
        num, den = q.numerator, q.denominator
        k = 0
        while den % self.p == 0:
            den //= self.p
            k += 1
        # den is a unit: its inverse mod p^N is exact
        x = self.from_int(num * pow(den, -1, self.U.pN) if den != 1 else num)
        if k:
            x = LocalFieldElement(self, x.vec, x.shift - k, x.prec,
                                  x.exact_zero)
        return x

    def from_residue(self, r):
        """Digit lift of a residue-field element."""
        if r.is_zero():
            return self.zero()
        vec = (self.U.lift(r),) + (self.U.zero,) * (self.e - 1)
        return LocalFieldElement(self, vec, 0, self.N, False)

    def teichmueller(self, r):
        """Teichmueller lift: the root of x^(q-1) = 1 reducing to r != 0."""
        x = self.from_residue(r)
        # x <- x^q converges to the root of x^q = x that reduces to r
        for _ in range(self.N + 2):
            x = x.pow_int(self.p**self.f)
        return x

    # -- element vector helpers ------------------------------------------

    def _shift_pi(self, vec):
        """vec * pi as a vector over U."""
        U = self.U
        top = vec[-1]
        out = [U.zero] + list(vec[:-1])
        if any(top):
            pe = self._pi_table[0]
            out = [U.add(a, U.mul(top, b)) for a, b in zip(out, pe)]
        return tuple(out)

    def _vec_mul(self, v1, v2):
        """The product of two vectors over U.  The integer products are
        summed unreduced; each output coordinate is reduced once: mod m(a),
        then by the rows of the pi-table, then mod p^N."""
        U, e, f = self.U, self.e, self.f
        if e == 1:
            return (U.mul(v1[0], v2[0]),)
        pN = U.pN
        if f == 1:
            res = [0] * (2 * e - 1)
            for i, (a,) in enumerate(v1):
                if a:
                    for j, (b,) in enumerate(v2):
                        if b:
                            res[i + j] += a * b
            out = res[:e]
            for j in range(e, 2 * e - 1):
                c = res[j] % pN
                if c:
                    for t, (b,) in enumerate(self._pi_table[j - e]):
                        out[t] += c * b
            return tuple((a % pN,) for a in out)
        res = [None] * (2 * e - 1)
        for i, a in enumerate(v1):
            if any(a):
                for j, b in enumerate(v2):
                    if any(b):
                        if res[i + j] is None:
                            res[i + j] = [0] * (2 * f - 1)
                        _poly_mul_into(res[i + j], a, b)
        for j in range(e, 2 * e - 1):
            if res[j] is not None:
                c = U.reduce(res[j])
                if any(c):
                    for t, b in enumerate(self._pi_table[j - e]):
                        if any(b):
                            if res[t] is None:
                                res[t] = [0] * (2 * f - 1)
                            _poly_mul_into(res[t], c, b)
        return tuple(U.zero if r is None else U.reduce(r) for r in res[:e])

    def _vec_val(self, vec):
        """Valuation (pi-units) of an integral vector; None if indist. from 0."""
        best = None
        for i, c in enumerate(vec):
            vU = self.U.val(c)
            if vU >= self.N:
                continue
            v = self.e * vU + i
            if best is None or v < best:
                best = v
        return best

    # -- conversions -------------------------------------------------------

    def element_from_coords(self, coords, shift=0):
        """coords: list of e tuples (each a U-coordinate)."""
        vec = tuple(tuple(int(x) % self.U.pN for x in c) for c in coords)
        return LocalFieldElement(self, vec, shift, self.N, False)


class LocalFieldElement:
    __slots__ = ("K", "vec", "shift", "prec", "exact_zero")

    def __init__(self, K, vec, shift, prec, exact_zero):
        self.K = K
        self.vec = vec
        self.shift = shift
        self.prec = min(prec, K.N)
        self.exact_zero = exact_zero

    def __repr__(self):
        v = self.valuation_or_none()
        if self.exact_zero:
            return "0"
        if v is None:
            return "O(pi^?)"
        return f"elt(v={Fraction(v, self.K.e)})"

    # -- normalized access --------------------------------------------------

    def _aligned(self, other):
        s = min(self.shift, other.shift)
        K = self.K
        pN = K.U.pN

        def scale(el):
            j = el.shift - s
            if j == 0:
                return el.vec, el.prec
            pj = K.p**j
            vec = tuple(tuple(a * pj % pN for a in c) for c in el.vec)
            return vec, min(el.prec + j, K.N)

        v1, p1 = scale(self)
        v2, p2 = scale(other)
        return s, v1, p1, v2, p2

    def _absorb(self):
        """Move p-content of the vector into the shift (no information loss
        in absolute terms); only applied while shift < 0."""
        if self.shift >= 0:
            return self
        K = self.K
        j = min(self.K.U.val(c) for c in self.vec)
        if j == 0:
            return self
        j = min(j, -self.shift)
        if j >= K.N:
            # vector is zero to full precision
            return LocalFieldElement(K, K._zero_vec, 0,
                                     max(self.prec - j, 0) if not self.exact_zero else K.N,
                                     self.exact_zero)
        vec = tuple(K.U.div_p(c, j) for c in self.vec)
        return LocalFieldElement(K, vec, self.shift + j, self.prec - j,
                                 self.exact_zero)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        K = self.K
        s, v1, p1, v2, p2 = self._aligned(other)
        pN = K.U.pN
        vec = tuple(tuple((x + y) % pN for x, y in zip(a, b))
                    for a, b in zip(v1, v2))
        out = LocalFieldElement(K, vec, s, min(p1, p2),
                                self.exact_zero and other.exact_zero)
        return out._absorb()

    def __sub__(self, other):
        K = self.K
        s, v1, p1, v2, p2 = self._aligned(other)
        pN = K.U.pN
        vec = tuple(tuple((x - y) % pN for x, y in zip(a, b))
                    for a, b in zip(v1, v2))
        out = LocalFieldElement(K, vec, s, min(p1, p2),
                                self.exact_zero and other.exact_zero)
        return out._absorb()

    def __neg__(self):
        K = self.K
        return LocalFieldElement(K, tuple(K.U.neg(c) for c in self.vec),
                                 self.shift, self.prec, self.exact_zero)

    def __mul__(self, other):
        K = self.K
        if self.exact_zero or other.exact_zero:
            return K.zero()
        vec = K._vec_mul(self.vec, other.vec)
        out = LocalFieldElement(K, vec, self.shift + other.shift,
                                min(self.prec, other.prec), False)
        return out._absorb()

    def pow_int(self, n):
        K = self.K
        if n == 0:
            return K.one()
        if n < 0:
            return self.invert().pow_int(-n)
        result, base = K.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_pi_power(self, j):
        """self * pi^j for j >= 0."""
        K = self.K
        vec = self.vec
        for _ in range(j):
            vec = K._shift_pi(vec)
        return LocalFieldElement(K, vec, self.shift, self.prec,
                                 self.exact_zero)

    def invert(self):
        K = self.K
        if self.exact_zero:
            raise ZeroDivisionError("inverse of exact zero")
        w = K._vec_val(self.vec)
        if w is None:
            raise PrecisionExhausted("inverting an element indistinguishable "
                                     "from zero")
        e = K.e
        k = -(-w // e)  # ceil(w / e)
        y = self.mul_pi_power(e * k - w)
        # y.vec is divisible by p^k; the quotient is a unit vector
        uvec = tuple(K.U.div_p(c, k) for c in y.vec)
        # Newton inversion of the unit u: z <- z(2 - u z)
        r0 = K.U.residue(uvec[0]).inverse()
        z = LocalFieldElement(K, (K.U.lift(r0),) + (K.U.zero,) * (e - 1),
                              0, K.N, False)
        u = LocalFieldElement(K, uvec, 0, self.prec, False)
        two = K.from_int(2)
        steps = max(1, (K.N * e - 1).bit_length() + 1)
        for _ in range(steps):
            z = z * (two - u * z)
        out = z.mul_pi_power(e * k - w)
        return LocalFieldElement(K, out.vec, out.shift - k - self.shift,
                                 min(self.prec, z.prec), False)._absorb()

    def __truediv__(self, other):
        return self * other.invert()

    # -- valuation, residue, comparison ----------------------------------

    def valuation_or_none(self):
        """Valuation in pi-units, INFINITE for exact zero, None if unknown."""
        if self.exact_zero:
            return INFINITE
        v = self.K._vec_val(self.vec)
        if v is None:
            return None
        return v + self.K.e * self.shift

    def valuation(self):
        """Exact valuation in pi-units; PrecisionExhausted when the element
        is zero to working precision but not provably zero."""
        v = self.valuation_or_none()
        if v is None:
            raise PrecisionExhausted(
                "element is zero to working precision; raise the precision")
        if v == INFINITE:
            return INFINITE
        # the deciding digit must be well inside the known precision
        K = self.K
        if v - K.e * self.shift >= K.e * (self.prec - _MARGIN):
            raise PrecisionExhausted("valuation decision lacks headroom")
        return v

    def residue(self):
        K = self.K
        v = self.valuation_or_none()
        if v == INFINITE:
            return K.residue_field.zero()
        if v is None:
            raise PrecisionExhausted("residue of an element indist. from 0")
        if v < 0:
            raise NegativeValuation("residue of a non-integral element")
        x = self
        if x.shift < 0:
            # v >= 0 forces divisibility; absorb completely
            vec = tuple(K.U.div_p(c, -x.shift) for c in x.vec)
            x = LocalFieldElement(K, vec, 0, x.prec + x.shift, False)
        elif x.shift > 0:
            pj = K.p**x.shift
            vec = tuple(tuple(a * pj % K.U.pN for a in c) for c in x.vec)
            x = LocalFieldElement(K, vec, 0, min(x.prec + x.shift, K.N), False)
        if x.prec < 1:
            raise PrecisionExhausted("no digits left for residue")
        return K.U.residue(x.vec[0])

    def unit_residue(self):
        """Residue of self / pi^v, v = v(self), read off the coordinate c_i
        realizing v = e*k + i: residue(c_i / p^k) * wbar^(k + shift).  The
        other coordinates lie in pi^(v+1), so no division in L is needed."""
        K = self.K
        v = None if self.exact_zero else K._vec_val(self.vec)
        if v is None:
            raise PrecisionExhausted("unit residue of an element "
                                     "indistinguishable from zero")
        k, i = divmod(v, K.e)
        if k >= self.prec:
            raise PrecisionExhausted("no digits left for the unit residue")
        unit = K.U.residue(K.U.div_p(self.vec[i], k))
        return unit * K.wbar() ** (k + self.shift) if k + self.shift else unit

    def is_zero_to_precision(self):
        return self.exact_zero or self.K._vec_val(self.vec) is None

    def digits(self, count):
        """First `count` pi-adic digits (residue-field elements) of the unit
        part, preceded by the valuation: used for canonical ordering.
        Digits beyond the working precision are padded with zeros."""
        v = self.valuation_or_none()
        if v in (INFINITE, None):
            return (INFINITE,)
        K, U, p = self.K, self.K.U, self.K.p
        piinv = K.pi_inverse()
        y = self * piinv.pow_int(v)
        out = [v]
        while len(out) <= count:
            if y.is_zero_to_precision() or y.prec + y.shift < 1:
                out.extend([0] * (count - len(out) + 1))
                break
            r = y.residue()
            out.append(r.index())
            # y pi^-1 = (c_0 w + p (c_1, ..., c_(e-1), 0)) / p, where
            # pi^-1 = w / p: e products in U instead of e^2
            y = y - K.from_residue(r)
            c = y.vec
            vec = tuple(U.add(U.mul(c[0], wj), tuple(p * a for a in cj))
                        for wj, cj in zip(piinv.vec, c[1:] + (U.zero,)))
            y = LocalFieldElement(K, vec, y.shift - 1,
                                  min(y.prec, piinv.prec), False)._absorb()
        return tuple(out)


def sort_key(x):
    """The canonical order of elements of L: by the first 12 digits, with
    zero last."""
    d = x.digits(12)
    if d[0] == INFINITE:
        return (1,)
    return (0,) + d


# ---------------------------------------------------------------------------
# polynomials over L and root finding
# ---------------------------------------------------------------------------

def poly_eval(coeffs, x):
    acc = x.K.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs, K):
    out = []
    for i, c in enumerate(coeffs):
        if i:
            out.append(c * K.from_int(i))
    return out or [K.zero()]


def poly_mul(u, v, K):
    """Product of two coefficient lists over K, low to high.  Only exact
    zeros are skipped: a factor that is zero to working precision still
    carries its error term into the product."""
    res = [K.zero() for _ in range(len(u) + len(v) - 1)]
    for i, x in enumerate(u):
        if x.exact_zero:
            continue
        for j, y in enumerate(v):
            if not y.exact_zero:
                res[i + j] = res[i + j] + x * y
    return res


def poly_shift_scale(coeffs, K, center, pi_power):
    """g(center + pi^j * s) as a polynomial in s: the Taylor shift by
    ``center`` is n rounds of synthetic division, then coefficient i is
    multiplied by pi^(j i)."""
    out = list(coeffs)
    n = len(out) - 1
    if not center.exact_zero:
        for k in range(n):
            for i in range(n - 1, k - 1, -1):
                if not out[i + 1].exact_zero:
                    out[i] = out[i] + center * out[i + 1]
    pij = K.pi().pow_int(pi_power)
    scale = K.one()
    for i in range(1, n + 1):
        scale = scale * pij
        if not out[i].exact_zero:
            out[i] = out[i] * scale
    return out


def gauss_reduce(coeffs, K):
    """(m, residues) of a list of elements of K: m is the least known
    valuation (pi-units), and residues[i] is the residue of
    coeffs[i] / pi^m, read off leading residues without a division.

    A coefficient that is zero to working precision reduces to 0 when its
    precision reaches one digit past pi^m, and raises PrecisionExhausted
    otherwise; so does a list in which no valuation is known.
    """
    vals = [c.valuation_or_none() for c in coeffs]
    known = [v for v in vals if v is not None and v != INFINITE]
    if not known:
        raise PrecisionExhausted("Gauss reduction of a list that is zero "
                                 "to working precision")
    m = min(known)
    zero = K.residue_field.zero()
    out = []
    for c, v in zip(coeffs, vals):
        if v == m:
            out.append(c.unit_residue())
            continue
        if v is None and K.e * (c.prec + c.shift) < m + K.e:
            raise PrecisionExhausted("coefficient known to too few digits "
                                     "for the Gauss reduction")
        out.append(zero)
    return m, out


def _newton_refine(coeffs, K, x, dcoeffs):
    """Quadratically convergent refinement of a simple root.

    The inverse z of f'(x) is carried along: f'(x_0) is inverted once, and
    each later step refines z by z <- z(2 - f'(x) z) for the new x."""
    target = K.e * (K.N - _MARGIN)
    two = K.from_int(2)
    z = None
    for _ in range(K.N * K.e + 8):
        fx = poly_eval(coeffs, x)
        v = fx.valuation_or_none()
        if v is None or v == INFINITE or v >= target:
            return x
        dfx = poly_eval(dcoeffs, x)
        z = dfx.invert() if z is None else z * (two - dfx * z)
        x = x - fx * z
    raise PrecisionExhausted("Newton iteration did not converge")


def _residue_pass(coeffs, K, path, leaves, depth=0):
    """The number of roots in O_K that the digit recursion accounts for,
    with no Newton step.  A simple residue root of the Gauss reduction
    accounts for one root: it is appended to ``leaves`` as (node, lift,
    path), node = [coefficients over pi^m, their derivative once taken].
    A multiple residue root accounts for what the polynomial one pi-digit
    deeper accounts for, whose reduction has the root's multiplicity as
    degree (Newton polygon)."""
    if depth > 6 * K.N:
        raise PrecisionExhausted("root search recursion exceeded the "
                                 "precision budget")
    m, residues = gauss_reduce(coeffs, K)
    red = FqPoly(K.residue_field, residues)
    if red.degree() < 1:
        return 0
    if m:
        piinv_m = K.pi_inverse().pow_int(m)
        coeffs = [c * piinv_m for c in coeffs]
    node = [coeffs, None]
    dred = red.derivative()
    count = 0
    for rbar in red.roots():
        lift = K.from_residue(rbar)
        if not dred.evaluate(rbar).is_zero():
            leaves.append((node, lift, path))
            count += 1
        else:
            count += _residue_pass(poly_shift_scale(coeffs, K, lift, 1), K,
                                   path + (lift,), leaves, depth + 1)
    return count


def _unwind(x, path, K):
    """c_0 + pi (c_1 + ... + pi (c_(k-1) + pi x)) for path (c_0, ...)."""
    pi = K.pi()
    for c in reversed(path):
        x = c + pi * x
    return x


class RootSearch:
    """The roots in O_K of a polynomial with integral coefficients, in two
    passes.  The residue pass runs on construction: ``count`` is the number
    of roots it accounts for, and no Newton step has been taken.  ``lift``
    is the lifting pass."""

    def __init__(self, coeffs, K):
        self.K, self.leaves = K, []
        self.count = _residue_pass(coeffs, K, (), self.leaves)

    def lift(self, group=None):
        """Every root the residue pass found, in the order of the residue
        roots, each passed through ``check``.  The first leaf is lifted by
        Newton and checked; only then is ``group`` called for G =
        Gal(K/Q_p), so a precision shortfall costs no group.  Each image of
        a lifted root under the generators of G is placed in the leaf whose
        disc contains it, until the orbit closes, and Newton lifts only the
        leaves that no image reaches.  G must permute the roots, so the
        coefficients must lie in Q_p; without ``group`` every leaf is
        lifted."""
        K, leaves = self.K, self.leaves
        gens = discs = None
        roots = [None] * len(leaves)
        for i, (node, lift, path) in enumerate(leaves):
            if roots[i] is not None:
                continue
            if node[1] is None:
                node[1] = poly_derivative(node[0], K)
            roots[i] = _unwind(_newton_refine(node[0], K, lift, node[1]),
                               path, K)
            self.check(roots[i])
            if gens is None:
                G = group() if group is not None else None
                gens = [G.autos[g] for g in G.generators] if G else []
            if not gens:
                continue
            if discs is None:
                # (c, d): the leaf's one root is congruent to c mod pi^d
                discs = [(_unwind(lift, path, K), len(path) + 1)
                         for _, lift, path in leaves]
            orbit = [roots[i]]
            while orbit and None in roots:
                x = orbit.pop()
                for sigma in gens:
                    y = sigma.apply(x)
                    for j, (c, d) in enumerate(discs):
                        if roots[j] is None and _in_disc(y - c, d):
                            self.check(y)
                            roots[j] = y
                            orbit.append(y)
                            break
        return roots

    def check(self, root):
        """Raise PrecisionExhausted for a root known too roughly; a search
        over Q (``QpolyRootSearch``) checks its residual."""


def _in_disc(x, d):
    """v(x) >= d, also for x zero to working precision."""
    v = x.valuation_or_none()
    return v is None or v == INFINITE or v >= d


def roots_integral(coeffs, K):
    """All roots in O_L of a separable polynomial with integral
    coefficients, also when it does not split: a residue pass, then Newton
    on every leaf.  The roots come in the order of the residue roots;
    callers that need the canonical order sort by ``sort_key``."""
    return RootSearch(coeffs, K).lift()


def _hensel_roots(monic, p, N):
    """The roots mod p^N of a monic integer polynomial (low to high) that
    reduce to simple roots mod p, each lifted by Newton on integers."""
    red = FqPoly.from_ints(fq_make(p), monic)
    dred = red.derivative()
    pN = p**N
    dmonic = [i * c for i, c in enumerate(monic)][1:]
    out = []
    for rbar in red.roots():
        if dred.evaluate(rbar).is_zero():
            continue
        r = rbar.i
        fr = _int_eval(monic, r, pN)
        while fr:  # f'(r) is a unit: quadratic convergence mod p^N
            r = (r - fr * pow(_int_eval(dmonic, r, pN), -1, pN)) % pN
            fr = _int_eval(monic, r, pN)
        out.append(r)
    return out


def _int_eval(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _deflate(monic, r, m):
    """The quotient of a monic integer polynomial by (y - r), mod m."""
    out, acc = [0] * (len(monic) - 1), 0
    for i in range(len(monic) - 1, 0, -1):
        acc = (monic[i] + r * acc) % m
        out[i - 1] = acc
    return out


class QpolyRootSearch(RootSearch):
    """The root search of a squarefree polynomial over Q, on the monic
    integral polynomial in y = lead * x.  Its roots that reduce to simple
    roots mod p lie in Q_p: they are lifted with integers mod p^N and
    deflated, so only the cofactor is searched over L.  The cofactor is
    Q_p-rational, so Gal(L/Q_p) permutes its roots."""

    def __init__(self, K, qp):
        ints, _ = qp.content_clear()
        cs = [int(c) for c in ints.coeffs]
        lead, n = cs[-1], len(cs) - 1
        # y = lead * x turns it monic integral: y^n + sum c_i lead^(n-1-i) y^i
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(cs[:-1])]
        monic.append(1)
        in_qp = _hensel_roots(monic, K.p, K.N)
        for r in in_qp:
            monic = _deflate(monic, r, K.U.pN)
        # once deflated, the coefficients are known mod p^N: 0 is inexact
        fuzzy = LocalFieldElement(K, K._zero_vec, 0, K.N, False)
        cofactor = [K.from_int(c) if c or not in_qp else fuzzy
                    for c in monic]
        super().__init__(cofactor, K)
        self.count += len(in_qp)
        self.in_qp = [K.from_int(r) for r in in_qp]
        self.lead_inv = (K.from_fraction(Fraction(1, lead)) if lead != 1
                         else None)
        self.fcoeffs = [K.from_fraction(c) for c in qp.coeffs]

    def lift(self, group=None):
        """The roots in x, residual-checked, in ``sort_key`` order."""
        for y in self.in_qp:
            self.check(y)
        roots = self.in_qp + super().lift(group)
        if self.lead_inv is not None:
            roots = [y * self.lead_inv for y in roots]
        return sorted(roots, key=sort_key)

    def check(self, y):
        """The residual check: f(y / lead) must vanish to high precision."""
        K = self.K
        x = y * self.lead_inv if self.lead_inv is not None else y
        val = poly_eval(self.fcoeffs, x).valuation_or_none()
        if val not in (None, INFINITE) and val < K.e * (K.N // 2):
            raise PrecisionExhausted("root residual too large")


def roots_of_qpoly(K, qp):
    """The root search in L of a squarefree polynomial over Q (integral or
    not) after its residue pass: ``count`` roots are accounted for, and
    ``lift(G)`` returns them in ``sort_key`` order."""
    return QpolyRootSearch(K, qp)


# ---------------------------------------------------------------------------
# Galois groups
# ---------------------------------------------------------------------------

class Automorphism:
    """Field automorphism of L/Q_p given by images of the two generators."""

    __slots__ = ("K", "a_img", "pi_img", "basis_img", "res_power")

    def __init__(self, K, a_img, pi_img):
        self.K = K
        self.a_img = a_img
        self.pi_img = pi_img
        self.basis_img = None  # built by the first ``apply``
        # residue action: res(sigma(a)) = res(a)^(p^j)
        ra = a_img.residue()
        base = K.residue_field.gen() if K.f > 1 else K.residue_field.one()
        self.res_power = 0
        for j in range(K.f):
            if base ** (K.p**j) == ra:
                self.res_power = j
                break
        else:
            raise NotGalois("residue image of the unramified generator is "
                            "not a conjugate")

    def apply(self, x):
        K = self.K
        if self.basis_img is None:  # basis images: a^j * pi^i
            a_pows, pi_pows = [K.one()], [K.one()]
            for _ in range(K.f - 1):
                a_pows.append(a_pows[-1] * self.a_img)
            for _ in range(K.e - 1):
                pi_pows.append(pi_pows[-1] * self.pi_img)
            self.basis_img = [[a * b for a in a_pows] for b in pi_pows]
        acc = K.zero()
        for i, c in enumerate(x.vec):
            for j, d in enumerate(c):
                if d:
                    acc = acc + self.basis_img[i][j] * K.from_int(d)
        if x.shift:
            acc = LocalFieldElement(K, acc.vec, acc.shift + x.shift,
                                    acc.prec, acc.exact_zero)
        return LocalFieldElement(K, acc.vec, acc.shift,
                                 min(acc.prec, x.prec), x.exact_zero)

    def residue_action(self, r):
        """Induced map on the residue field (and its extensions)."""
        return r.frobenius(self.res_power)


class KeyedImages:
    """Tuples of elements of L found by their coordinate keys.

    The key of x at depth d is the tuple of its coordinates at shift
    ``base``, reduced mod p^(d - base); equal keys at depth d mean
    v(x - y) >= e d.  The depth is the least d < ``limit`` at which the
    given tuples have pairwise distinct keys, so every pairwise closeness
    is below e d: a tuple whose key hits is closer to its hit than to
    any other, by the ultrametric inequality.  A miss, an element known to
    fewer than d digits and a depth that reaches ``limit`` raise
    PrecisionExhausted.
    """

    def __init__(self, tuples, limit, what, base=0):
        self.base, self.what = base, what
        for depth in range(base + 1, limit):
            self.depth, self.index = depth, {}
            for i, xs in enumerate(tuples):
                self.index.setdefault(self.key(xs), i)
            if len(self.index) == len(tuples):
                return
        raise PrecisionExhausted(f"cannot separate {what}")

    def key(self, xs):
        out = []
        for x in xs:
            if x.prec + x.shift < self.depth:
                raise PrecisionExhausted(f"too few digits of {self.what}")
            K, j = x.K, x.shift - self.base
            vec = x.vec if j >= 0 else [K.U.div_p(c, -j) for c in x.vec]
            m, pj = K.p ** (self.depth - self.base), K.p ** max(j, 0)
            out.extend(a * pj % m for c in vec for a in c)
        return tuple(out)

    def find(self, xs):
        hit = self.index.get(self.key(xs))
        if hit is None:
            raise PrecisionExhausted(f"cannot separate {self.what}")
        return hit


class GaloisGroupData:
    """Gal(L/Q_p): automorphism list, multiplication table, inertia,
    Frobenius coset representative and ramification filtration ``filt``,
    computed with the group (``ramification_filtration``).

    ``generators`` lists the elements whose table rows were computed by
    applying them; ``words`` maps every other element y != 1 to a pair
    (g, x) with autos[y] = autos[g] o autos[x], g a generator and x
    reached before y, so an action known on the generators extends to
    the group (``extend``)."""

    def __init__(self, K, autos, rows, words, identity_index, inertia,
                 frobenius_index):
        self.K = K
        self.autos = autos
        self.generators = list(rows)
        self.words = words
        self.identity_index = identity_index
        self.table = self.extend(rows, len(autos))  # [i][j]: i o j
        self.inertia = inertia      # sorted list of indices
        self.frobenius_index = frobenius_index
        self.filt = ramification_filtration(self)

    def extend(self, perms, size):
        """The permutation of every element, given those of the generators
        (``perms``, by generator): the one of g o x is perms[g] o that of
        x."""
        out = [None] * self.order()
        out[self.identity_index] = list(range(size))
        for y, (g, x) in self.words.items():
            out[y] = [perms[g][j] for j in out[x]]
        return out

    def order(self):
        return len(self.autos)

    def compose(self, i, j):
        return self.table[i][j]


def galois_group(L):
    """Enumerate Gal(L/Q_p) by sending the generators to conjugate roots,
    and build its table from generators.

    Raises NotGalois when fewer than [L:Q_p] automorphisms exist.
    """
    K = L
    # roots of the unramified modulus inside U (they are Hensel-liftable)
    mcoeffs = [K.from_int(c) for c in K.U.modulus]
    a_roots = (sorted(roots_integral(mcoeffs, K), key=sort_key)
               if K.f > 1 else [K.gen_unramified()])
    if len(a_roots) != K.f:
        raise NotGalois(f"unramified modulus has {len(a_roots)} roots, "
                        f"expected {K.f}")
    autos = []
    for a_img in a_roots:
        # sigma|U determined by a -> a_img; transport E's coefficients
        sigmaU = coeff_transport(K, a_img, K.f)
        E_sigma = [sigmaU(c) for c in K.E]
        for pi_img in sorted(roots_integral(E_sigma, K), key=sort_key):
            autos.append(Automorphism(K, a_img, pi_img))
    if len(autos) != K.degree:
        raise NotGalois(f"found {len(autos)} automorphisms, "
                        f"need {K.degree}: L/Q_p is not Galois")
    keyed = KeyedImages([(s.a_img, s.pi_img) for s in autos],
                        K.N - _MARGIN, "Galois images")
    ident = keyed.find((K.gen_unramified(), K.pi()))
    # a generator: the least element not reached by those before it
    rows, words, reached = {}, {}, [ident]
    while len(reached) < K.degree:
        g = min(set(range(K.degree)).difference(reached))
        s = autos[g]
        rows[g] = [keyed.find((s.apply(t.a_img), s.apply(t.pi_img)))
                   for t in autos]
        if len(set(rows[g])) != K.degree or rows[g][ident] != g:
            raise NotGalois("a generator does not permute the automorphisms")
        for x in reached:
            for h, row in rows.items():
                if row[x] not in words and row[x] != ident:
                    words[row[x]] = (h, x)
                    reached.append(row[x])
    inertia = sorted(i for i, s in enumerate(autos) if s.res_power == 0)
    if len(inertia) != K.e:
        raise NotGalois(f"inertia has order {len(inertia)}, expected {K.e}")
    frob_target = 1 % K.f
    frob = min(i for i, s in enumerate(autos) if s.res_power == frob_target)
    return GaloisGroupData(K, autos, rows, words, ident, inertia, frob)


def coeff_transport(K, a_img, f):
    """The map sending sum_(j<f) d_j a^j, a U-coordinate of a field of
    residue degree f, to sum d_j a_img^j in K."""
    pows = [K.one()]
    for _ in range(f - 1):
        pows.append(pows[-1] * a_img)

    def fn(ucoeff):
        acc = K.zero()
        for j, d in enumerate(ucoeff):
            if d:
                acc = acc + pows[j] * K.from_int(d)
        return acc

    return fn


# ---------------------------------------------------------------------------
# ramification filtration
# ---------------------------------------------------------------------------

class RamificationFiltration:
    """Lower-numbering groups Gamma_0 >= Gamma_1 >= ... as index lists."""

    def __init__(self, groups, jumps):
        self.groups = groups  # groups[i] = sorted list of automorphism indices
        self.last_jump = jumps

    def gamma(self, i):
        if i < len(self.groups):
            return self.groups[i]
        return self.groups[-1]


def ramification_filtration(G):
    """Gamma_i read off i(sigma) = v_L(sigma(pi) - pi) for sigma in the
    inertia group I, sigma != 1: inertia fixes U, and O_L = O_U[pi]
    (Serre, *Local Fields*, IV section 1).

    Hilbert's formula is the check: sum_(sigma in I, sigma != 1) i(sigma)
    equals v_L(E'(pi)), the different of L/Q_p, since U/Q_p is unramified.
    """
    K = G.K
    dE = poly_derivative([LocalFieldElement(K, (c,) + (K.U.zero,) * (K.e - 1),
                                            0, K.N, False) for c in K.E], K)
    pi = K.pi()
    diff_val = poly_eval(dE, pi).valuation()
    ivals = {s: (G.autos[s].pi_img - pi).valuation_or_none()
             for s in G.inertia if s != G.identity_index}
    known = all(v not in (None, INFINITE) for v in ivals.values())
    if not known or sum(ivals.values()) != diff_val:
        raise NotMonogenicWitness(
            "Hilbert's formula fails for the images of pi at this "
            f"precision; different = {diff_val}")
    # Gamma_i = {sigma : i(sigma) >= i + 1} for i >= 1
    wild = [sorted([G.identity_index] + [s for s, v in ivals.items() if v > i])
            for i in range(1, max(ivals.values(), default=1))]
    groups = [sorted(G.inertia)] + wild + [[G.identity_index]]
    return RamificationFiltration(groups, len(groups) - 2)
