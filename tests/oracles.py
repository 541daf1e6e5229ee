"""Independent oracles used only by the test suite.

``count_points_by_places`` counts rational points of the normalization of
z^nbar = h(w) by enumerating the places of the function field above every
point of P^1: the local factorization of z^nbar - h(x0 + t) is explored with
a Newton polygon / rational Puiseux recursion, and every branch whose
residue field stays the base field contributes one point.  It shares no
code with the gcd-based counting rule of the package.

``DigitField`` is GF(p^k) on tuples of base-p digits: schoolbook
multiplication modulo the field's modulus, Fermat inversion and digit-wise
addition.  It reads only p, k and the modulus of a package field, and is the
reference for the package's table arithmetic.

``is_irreducible_by_trial_division`` decides irreducibility of a monic
polynomial over GF(p) by dividing it by every monic polynomial of degree at
most half its own, on plain int lists: the reference for the package's
Rabin test on ``FqPoly``.

``count_affine_brute`` is plain exhaustive enumeration of affine solutions
in ``DigitField`` arithmetic, used for good-reduction cross-checks where the
affine model is smooth.

``count_kummer_points_scalar`` is the package's counting rule evaluated one
point at a time with ``FqElement`` arithmetic: the reference for the
vectorized ``count_kummer_points``.  ``count_kummer_points_by_digit_arrays``
enumerates every field, also where gcd(nbar, q^i - 1) = 1, and evaluates
h as numpy digit arrays, a chunk of points at a time, by column-wise digit
products (``FqField._mul_digits``), reading the discrete logs of the values
from the log table: the reference for the Horner on discrete logs of
``count_kummer_points``.

These counting oracles, ``gauss_valuation_by_expansion`` and the genus
oracles below take a rational function as an explicit (num, den) pair.
The package carries every Kummer equation as a polynomial; a rational
case z^nbar = num/den is compared with the package's count of the
isomorphic z^nbar = num * den^(nbar - 1).

``moebius_eval_by_division`` is the value of a Moebius chart in P^1(F_L)
computed as residue(num / den), with a p-adic division: the reference for
``tree.moebius_eval``, which reads the value off leading residues.

``gauss_reduce_by_division`` takes the least coefficient valuation mu
and the residues after multiplying by pi^-mu;
``gauss_valuation_by_expansion`` expands every term of f on a chart,
O(m^3) products, and reduces both sides that way; and
``taylor_shift_by_binomials`` shifts a polynomial over L by the binomial
expansion.  They are the references for ``localfield.gauss_reduce``,
``reduction.gauss_valuation_f``, which reads N_v and fbar_v off the linear
forms of the branch points on the chart, and the synthetic-division
``localfield.poly_shift_scale``.

``galois_table_by_scan`` fills the composition table of Gal(L/Q_p) by
applying every automorphism to the generator images of every other, 2|G|^2
``apply`` calls, and matching each composed pair by a scan of p-adic
subtractions against all |G| candidates, with a clear winner required.
``tree_action_by_scan`` applies every element to every branch point and
keeps the one point within half precision of the image.  They are the
references for ``localfield.galois_group`` and ``tree.TreeGaloisAction``,
which apply only generators, look images up by coordinate keys and
compose permutations for the rest.

``chart_matrix_by_application`` applies an element to the four entries of
a vertex chart and Gauss-reduces sigma(A_v) . adj(A_{g v})
(``scale_matrix_integral``); ``gamma_by_division`` takes the residue of
pi^k / g(pi^k) by a p-adic division.  They are the references for
``TreeGaloisAction.matrix``, which applies nothing to a chart and reads
the map off the chart values of three marked points and of their images,
and for ``ActionContext.gamma``, which reads the y-scaling off g(pi).

``node_labels_by_edge_search`` searches, edge by edge, the least
extension F_(q^m) of F_L in which the node labels root * mu_d of the edge
lie, building and embedding one field per try, and embeds every edge's
labels into the compositum of those fields.
``node_orbit_data_by_label_field`` moves those labels by the Galois
action in that field and counts the inertia classes of the nodes, the
Frobenius orbits on them and the node orbits under each Gamma_i.  They
are the references for ``ActionContext.nodes`` and
``ActionContext.node_action``, which take the labels as points of Q/Z
and build no field.

``quotient_genus_by_wild_subgroup`` computes the genus of Ybar/H for a
wild subgroup H on the special fiber: the orbits of H on the sheets
(``sheet_image``) and nodes, and per sheet orbit the Kummer genus of the
sheet equation rewritten in the invariant of the stabilizer's
translations.  It is the reference for ``lzeta.conductor_exponent``,
which reads the genus drop D off the permutation of the branch points.

``filtration_by_witness_search`` finds a generator theta of O_L over Z_p
among pi, pi + a and pi plus a Teichmueller lift, applies every
automorphism to it and accepts it by Hilbert's formula.  It is the
reference for ``localfield.ramification_filtration``, which reads
i(sigma) off the images of pi on inertia.

``build_tree_by_triples`` builds the stably marked tree from the chart
classes of all ordered triples of marked points, each class recorded by
the disc it determines and compared with the known discs by p-adic
subtraction; edges are disc inclusion.  Every repeated triple is
cross-checked against the partition of its chart-reduction fibers, on the
chart up to a scalar, and the chart values ``Vertex.red`` are evaluated
on the final charts.  It is the reference for ``tree.build_tree``, which
reads the vertices off the pairwise valuations and moves the chart values
along with the charts on residues.

``semistable_field_by_two_scans`` is the two-scan field search: it scans
the catalog for L0, the smallest field over which f splits
(``fieldsearch.splitting_field``), and again for the Galois fields that
contain zeta_n, p^(1/n) and a copy of L0 (``contains_field``, which embeds
the generator a and the uniformizer of L0 by root search), and returns the
first over which the model is semistable.  It is the reference for the one
scan of ``fieldsearch.semistabilizing_candidates``, which tests "f splits
over L" directly.

``digits_by_field_products`` expands x / pi^v(x) digit by digit, dividing
by pi with a full product in L, e^2 products in U per digit: the reference
for ``LocalFieldElement.digits``, which divides by pi with e products in U
and so for ``sort_key``.

``roots_by_digit_search`` is the one-pass root search: the digit
recursion refines every simple residue root by Newton in L as it meets
it, and counts the roots afterwards.  It is the reference for
``localfield.roots_of_qpoly`` and ``roots_integral``, which decide the
count on residues first, lift the Q_p roots with integers and take
Galois conjugates as images of a lifted root.

``vec_mul_reduced_per_product`` multiplies two elements of L on their
vectors over U, reducing mod p^N after every integer product and every
U-product: the reference for ``LocalField._vec_mul``, which sums the
products unreduced and reduces each output coordinate once.

``weil_check_by_roots`` finds the roots of the zeta numerator P(T) in
floating point (``numpy.roots`` on its exact squarefree part) and compares
the absolute values of their reciprocals with sqrt(q) to a relative 1e-6.
It is the reference for ``finitefield._weil_check``, which decides the
same exactly with a Sturm chain over Q.

``geometric_power_class`` and ``kummer_genus_by_factorizations`` factor
the equation anew for each invariant: the gcd of n and the exponents, and
Riemann-Hurwitz after a power class check, three factorizations in all.
They are the references for ``PowerClassData.d_geo`` and ``.genus``, read
off the one factorization of ``power_class``.
"""

import itertools
from fractions import Fraction
from math import comb, gcd, lcm

from superell.curve import branch_divisor
from superell.descent import _constant_ratio, _translation_quotient, orbits
from superell.errors import (
    AdmissibilityViolation,
    GenusMismatch,
    MatrixNotIntegral,
    NoRationalFixedPoint,
    NotGalois,
    NotInvariant,
    NotMonogenicWitness,
    NotSplit,
    PrecisionExhausted,
)
from superell.fieldsearch import (
    _SkipCandidate,
    catalog_entries,
    construct_candidate,
    splits_in,
    splitting_field,
)
from superell.finitefield import (
    INF,
    FqPoly,
    factor_poly,
    fq_make,
    kummer_solutions,
    power_class,
)
from superell.localfield import (
    INFINITE,
    LocalFieldElement,
    _newton_refine,
    coeff_transport,
    galois_group,
    gauss_reduce,
    poly_derivative,
    poly_eval,
    poly_shift_scale,
    roots_integral,
    sort_key,
)
from superell.qpoly import QPoly
from superell.reduction import raw_gauss_values, semistable_check
from superell.tree import (
    INF_POINT,
    MarkedTree,
    Vertex,
    _big,
    _phi_partition,
    build_tree,
    matrix_mul,
    moebius_eval,
    normalize_pgl2,
    triple_chart,
)

_MAX_DEPTH = 80


def _ord_t(poly):
    if poly.is_zero():
        return None
    for i, c in enumerate(poly.coeffs):
        if not c.is_zero():
            return i
    return None


def _coeff_t(poly, m):
    if 0 <= m < len(poly.coeffs):
        return poly.coeffs[m]
    return poly.field.zero()


def _lower_hull(points):
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _strip_t_content(G):
    orders = [o for o in (_ord_t(c) for c in G) if o is not None]
    m = min(orders)
    if m == 0:
        return G
    F = G[0].field
    out = []
    for c in G:
        if c.is_zero():
            out.append(c)
        else:
            out.append(FqPoly(F, list(c.coeffs[m:]) or [F.zero()]))
    return out


def _t_power(F, e):
    return FqPoly.from_ints(F, [0] * e + [1])


def _subst_linear(G, a, y0):
    """G(t^a * (y0 + z')) as a polynomial in z', content-stripped."""
    F = G[0].field
    n = len(G) - 1
    out = [FqPoly(F, [F.zero()]) for _ in range(n + 1)]
    for j, cj in enumerate(G):
        if cj.is_zero():
            continue
        base = cj * _t_power(F, a * j)
        for i in range(j + 1):
            coef = F.from_int(comb(j, i)) * y0 ** (j - i)
            if not coef.is_zero():
                out[i] = out[i] + base * coef
    return _strip_t_content(out)


def _subst_duval(G, a, b, y0, u, w):
    """G(z = y0^w tau^a (1 + z'), t = y0^u tau^b) with u*b - w*a = 1."""
    F = G[0].field
    n = len(G) - 1
    out = [FqPoly(F, [F.zero()]) for _ in range(n + 1)]
    for j, cj in enumerate(G):
        if cj.is_zero():
            continue
        for m, cm in enumerate(cj.coeffs):
            if cm.is_zero():
                continue
            base = cm * y0 ** (u * m + w * j)
            tau = _t_power(F, b * m + a * j)
            for i in range(j + 1):
                coef = base * F.from_int(comb(j, i))
                if not coef.is_zero():
                    out[i] = out[i] + tau * coef
    return _strip_t_content(out)


def _bezout(b, a):
    """(u, w) with u*b - w*a = 1, for gcd(a, b) = 1."""
    old_r, r = b, a
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    assert old_r == 1
    return old_s, -old_t


def _count_segment(G, lam, depth):
    """Degree-1 places among branches with v(z) = lam (lam >= 0)."""
    F = G[0].field
    a, b = lam.numerator, lam.denominator
    pts = [(j, _ord_t(c)) for j, c in enumerate(G)]
    pts = [(j, v) for j, v in pts if v is not None]
    c0 = min(Fraction(v) + lam * j for j, v in pts)
    support = [j for j, v in pts if Fraction(v) + lam * j == c0]
    j0, jmax = min(support), max(support)
    if jmax == j0:
        return 0
    R = []
    for i in range((jmax - j0) // b + 1):
        j = j0 + i * b
        v_needed = c0 - lam * j
        if v_needed.denominator != 1 or j >= len(G):
            R.append(F.zero())
        else:
            R.append(_coeff_t(G[j], int(v_needed)))
    Rpoly = FqPoly(F, R)
    assert Rpoly.degree() == (jmax - j0) // b
    total = 0
    deriv = Rpoly.derivative()
    if not deriv.is_zero() and Rpoly.gcd(deriv).degree() == 0:
        # separable residual: every root is simple, count them by gcd
        x = FqPoly.x(F)
        lin = Rpoly.gcd(x.powmod(F.q, Rpoly) - x)
        total = lin.degree()
        if lin.evaluate(F.zero()).is_zero():
            total -= 1  # y0 = 0 handled by the z-peeling branch
        return total
    for fac, mult in factor_poly(Rpoly):
        if fac.degree() != 1:
            continue  # residue field grows; not a degree-1 place
        y0 = -fac.coeffs[0]
        if y0.is_zero():
            continue
        if mult == 1:
            total += 1
        elif b == 1:
            total += _count_places(_subst_linear(G, a, y0), True, depth + 1)
        else:
            u, w = _bezout(b, a)
            total += _count_places(_subst_duval(G, a, b, y0, u, w), True,
                                   depth + 1)
    return total


def _count_places(G, positive_only, depth):
    """Degree-1 places of the branches of G(z, t) = 0.

    ``positive_only`` restricts to branches with v(z) > 0 (used after a
    substitution step); otherwise all branches, poles of z included.
    """
    if depth > _MAX_DEPTH:
        raise RuntimeError("place recursion did not terminate")
    total = 0
    if G[0].is_zero():
        total += 1  # the branch z = 0 exactly
        G = G[1:]
        if not G:
            return total
        if G[0].is_zero():
            raise RuntimeError("input polynomial not separable")
    if len(G) <= 1:
        return total
    pts = [(j, _ord_t(c)) for j, c in enumerate(G)]
    pts = [(j, v) for j, v in pts if v is not None]
    hull = _lower_hull(pts)
    slopes = set()
    for (j1, v1), (j2, v2) in zip(hull, hull[1:]):
        slopes.add(Fraction(v1 - v2, j2 - j1))
    for lam in sorted(slopes):
        if lam > 0 or (lam == 0 and not positive_only):
            total += _count_segment(G, lam, depth)
    if not positive_only:
        # branches where z has a pole: reverse in z and count v > 0
        rev = _strip_t_content(list(reversed(G)))
        total += _count_places(rev, True, depth + 1)
    return total


def _fraction(h):
    """(num, den) of h, a polynomial or an explicit (num, den) pair of a
    rational function, reduced by their gcd with a monic denominator."""
    if isinstance(h, FqPoly):
        return h, FqPoly.constant(h.field.one())
    num, den = h
    g = num.gcd(den)
    c = den.lead().inverse()
    return num // g * c, den // g * c


def _fraction_over(h, i):
    """``_fraction(h)`` with its coefficients embedded in F_{q^i}."""
    num, den = _fraction(h)
    F = num.field
    big = fq_make(F.p, F.k * i)
    emb = F.embedding(big)
    return big, num.map_coeffs(emb, big), den.map_coeffs(emb, big)


def _places_over(nbar, num, den, x0):
    F = num.field
    if x0 == INF:
        dn, dd = num.degree(), den.degree()
        hn = FqPoly(F, list(reversed(num.coeffs)))
        hd = FqPoly(F, list(reversed(den.coeffs)))
        shift = dd - dn
        if shift > 0:
            hn = hn * _t_power(F, shift)
        elif shift < 0:
            hd = hd * _t_power(F, -shift)
    else:
        hn = num.shift(x0)
        hd = den.shift(x0)
    G = [FqPoly(F, [F.zero()]) for _ in range(nbar + 1)]
    G[0] = -hn
    G[nbar] = hd
    return _count_places(_strip_t_content(G), False, 0)


def count_points_by_places(nbar, h, i=1):
    """Points over F_{q^i} on the normalization of z^nbar = h, place by
    place; h is a polynomial or a (num, den) pair."""
    big, num, den = _fraction_over(h, i)
    total = 0
    for idx in range(big.q):
        total += _places_over(nbar, num, den, big.from_index(idx))
    total += _places_over(nbar, num, den, INF)
    return total


class DigitField:
    """GF(p^k) = GF(p)[a]/(modulus) on digit tuples (coefficient of a^j at
    index j, the order of ``FqElement.coeffs``)."""

    def __init__(self, F):
        self.p, self.k, self.q = F.p, F.k, F.q
        self.modulus = tuple(F.modulus)

    def from_index(self, idx):
        out = []
        for _ in range(self.k):
            idx, d = divmod(idx, self.p)
            out.append(d)
        return tuple(out)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, k = self.p, self.k
        res = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                res[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = res[i] % p
            for j in range(k):
                res[i - k + j] -= c * self.modulus[j]
        return tuple(c % p for c in res[:k])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inverse(a), -e)
        result, base = self.from_index(1), a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)


def monic_polys(p, k):
    """Every monic polynomial of degree k over GF(p) as an int list, low to
    high, the lower coefficients running through base-p digits in order."""
    for idx in range(p**k):
        coeffs = []
        for _ in range(k):
            idx, d = divmod(idx, p)
            coeffs.append(d)
        yield coeffs + [1]


def _divides(b, a, p):
    """Does the monic int list b divide the int list a over GF(p)?"""
    r, db = list(a), len(b) - 1
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top] % p
        for j in range(db + 1):
            r[top - db + j] -= c * b[j]
    return all(c % p == 0 for c in r)


def is_irreducible_by_trial_division(g, p):
    """Is the monic int list g of degree >= 1 irreducible over GF(p)?"""
    k = len(g) - 1
    return not any(_divides(b, g, p) for d in range(1, k // 2 + 1)
                   for b in monic_polys(p, d))


def count_affine_brute(n, fbar):
    """#{(x, y) in F^2 : y^n = fbar(x)} by exhaustive enumeration in
    ``DigitField`` arithmetic (one pass building the table of n-th powers,
    one pass over x)."""
    R = DigitField(fbar.field)
    table = {}
    for iy in range(R.q):
        v = R.pow(R.from_index(iy), n)
        table[v] = table.get(v, 0) + 1
    coeffs = [c.coeffs for c in fbar.coeffs]
    total = 0
    for ix in range(R.q):
        x = R.from_index(ix)
        acc = R.from_index(0)
        for c in reversed(coeffs):
            acc = R.add(R.mul(acc, x), c)
        total += table.get(acc, 0)
    return total


def places_at_infinity(nbar, h):
    """Degree-1 places of z^nbar = h above x = infinity (Puiseux oracle);
    h is a polynomial or a (num, den) pair."""
    return _places_over(nbar, *_fraction(h), INF)


def count_kummer_points_scalar(nbar, h, i=1):
    """``count_kummer_points`` by a Horner evaluation and a power per point,
    for h a polynomial or a (num, den) pair."""
    big, num, den = _fraction_over(h, i)
    total = 0
    g_full = gcd(nbar, big.q - 1)
    e_full = (big.q - 1) // g_full
    one = big.one()
    for idx in range(big.q):
        x0 = big.from_index(idx)
        nv = num.evaluate(x0)
        dv = den.evaluate(x0)
        if not nv.is_zero() and not dv.is_zero():
            # ordinary point: a = 0, d = nbar; u0 is an nbar-th power iff
            # (nv * dv^(g-1))^((q-1)/g) = 1 (multiplying u0 by dv^g)
            probe = nv * dv ** (g_full - 1) if g_full > 1 else one
            if g_full == 1 or probe**e_full == one:
                total += g_full
            continue
        total += _fiber_points(big, nbar, num, den, x0)
    return total + _fiber_points(big, nbar, num, den, INF)


def count_kummer_points_by_digit_arrays(nbar, h, i=1, chunk=8192):
    """``count_kummer_points`` of the polynomial h, with the affine points
    evaluated by Horner on (k, N) numpy arrays of base-p digits."""
    import numpy as np
    F = h.field
    big = fq_make(F.p, F.k * i)
    hh = h.map_coeffs(F.embedding(big), big)
    g_full = gcd(nbar, big.q - 1)
    log = np.frombuffer(big._tables()[1], dtype=np.intc)
    cols = [np.array(c.coeffs, dtype=np.int64)[:, None]
            for c in reversed(hh.coeffs)]
    total, special = 0, []
    for start in range(0, big.q, chunk):
        idx = np.arange(start, min(start + chunk, big.q), dtype=np.int64)
        x = np.empty((big.k, len(idx)), dtype=np.int64)
        rest = idx
        for j in range(big.k):
            rest, x[j] = np.divmod(rest, big.p)
        acc = np.broadcast_to(cols[0], x.shape)
        for col in cols[1:]:
            acc = big._mul_digits(acc, x)
            acc += col
            acc %= big.p
        hv = big._indices(acc)
        ordinary = hv != 0
        special.extend(idx[~ordinary].tolist())
        ordinary &= log[hv] % g_full == 0
        total += g_full * int(np.count_nonzero(ordinary))
    for x0 in [big.from_index(j) for j in special] + [INF]:
        d = gcd(nbar, hh.ord_at(x0))
        total += kummer_solutions(d, hh.unit_value_at(x0))
    return total


def _fiber_points(big, nbar, num, den, x0):
    """Rational points above x0 of the normalization of z^nbar = num/den,
    by the general rule of ``count_kummer_points``."""
    d = gcd(nbar, num.ord_at(x0) - den.ord_at(x0))
    return kummer_solutions(d, num.unit_value_at(x0)
                            / den.unit_value_at(x0))


def moebius_eval_by_division(m, x, L):
    """``tree.moebius_eval`` with the residue of num / den taken by dividing
    in L."""
    a, b, c, d = m
    if x == INF_POINT:
        num, den = a, c
    else:
        num, den = a * x + b, c * x + d
    vn = num.valuation_or_none()
    vd = den.valuation_or_none()
    if vn is None and vd is None:
        raise PrecisionExhausted("Moebius value indeterminate")
    if vd in (None, INFINITE):
        return INF_POINT
    if vn in (None, INFINITE):
        return L.residue_field.zero()
    if vn < vd:
        return INF_POINT
    return (num / den).residue()


def gauss_reduce_by_division(L, poly):
    """(mu, residues): mu the least known coefficient valuation, and the
    residues of the coefficients after multiplying by pi^-mu; coefficients
    that are zero to working precision reduce to 0.  The reference for
    ``localfield.gauss_reduce``, which reads leading residues instead."""
    vals = [c.valuation_or_none() for c in poly]
    known = [v for v in vals if v not in (None, INFINITE)]
    if not known:
        raise PrecisionExhausted("Gauss valuation of a fuzzy polynomial")
    mu = min(known)
    scale = L.pi_inverse().pow_int(mu) if mu else L.one()
    red = []
    for c in poly:
        x = c * scale
        red.append(x.residue() if x.valuation_or_none() == 0
                   else L.residue_field.zero())
    return mu, red


def gauss_valuation_by_expansion(f, L, chart):
    """``reduction.gauss_valuation_f`` for the polynomial f (a QPoly):
    every (d x - b)^i (-c x + a)^(m-i) is expanded and scaled by its own
    coefficient, O(m^3) products, and both sides are reduced by
    ``gauss_reduce_by_division``."""
    a, b, c, d = chart
    m = f.degree()

    def mul(u, v):
        res = [L.zero() for _ in range(len(u) + len(v) - 1)]
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                res[i + j] = res[i + j] + x * y
        return res

    pow1, pow2 = [[L.one()]], [[L.one()]]
    for _ in range(m):
        pow1.append(mul(pow1[-1], [-b, d]))
        pow2.append(mul(pow2[-1], [a, -c]))
    num = [L.zero() for _ in range(m + 1)]
    for i, q in enumerate(f.coeffs):
        if q:
            qi = L.from_fraction(q)
            for j, x in enumerate(mul(pow1[i], pow2[m - i])):
                num[j] = num[j] + x * qi
    mu_n, red_n = gauss_reduce_by_division(L, num)
    mu_d, red_d = gauss_reduce_by_division(L, pow2[m])
    F = L.residue_field
    return mu_n - mu_d, (FqPoly(F, red_n), FqPoly(F, red_d))


def taylor_shift_by_binomials(coeffs, K, center, pi_power):
    """``localfield.poly_shift_scale``, g(center + pi^j s), by expanding
    every (center + pi^j s)^i with binomial coefficients."""
    n = len(coeffs) - 1
    pij = K.pi().pow_int(pi_power)
    out = [K.zero() for _ in range(n + 1)]
    for i, ci in enumerate(coeffs):
        for j in range(i + 1):
            out[j] = out[j] + (ci * center.pow_int(i - j) * pij.pow_int(j)
                               * K.from_int(comb(i, j)))
    return out


def _chart_up_to_scalar(L, points, t):
    """A matrix of the same Moebius map as ``triple_chart``, with no
    division: for three finite points it is (b - a) times that chart."""
    a, b, g = (points[i] for i in t)
    if INF_POINT in (a, b, g):
        return triple_chart(L, points, t)
    bg, ba = b - g, b - a
    return (bg, -(bg * a), ba, -(ba * g))


def _disc_of_triple(points, t):
    """(center, radius) of the chart class of t: the largest pairwise
    valuation among finite entries, at a point realizing it."""
    finite = [points[i] for i in t if points[i] != INF_POINT]
    best = None
    center = None
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            v = (finite[i] - finite[j]).valuation_or_none()
            if v in (INFINITE, None):
                raise NotSplit("two marked points coincide (to precision)")
            if best is None or v > best:
                best, center = v, finite[i]
    return center, best


def _in_disc(x, center, radius):
    v = (x - center).valuation_or_none()
    return v in (INFINITE, None) or v >= radius


def _same_disc(c1, r1, c2, r2):
    return r1 == r2 and _in_disc(c1, c2, r2)


def build_tree_by_triples(divisor, L):
    """``tree.build_tree`` by a scan of all ordered triples; the members of
    a vertex are the finite points in its disc."""
    points = [bp.value if not bp.is_infinity else INF_POINT
              for bp in divisor.points]
    m = len(points)
    if m < 3:
        raise NotSplit("need at least three marked points")
    classes = []  # (center, radius, partition, chart)
    for t in itertools.permutations(range(m), 3):
        center, radius = _disc_of_triple(points, t)
        hit = next((idx for idx, (c0, r0, _, _) in enumerate(classes)
                    if _same_disc(c0, r0, center, radius)), None)
        if hit is None:
            chart = triple_chart(L, points, t)
            classes.append((center, radius,
                            _phi_partition(_chart_values(L, points, chart)),
                            chart))
        elif _phi_partition(_chart_values(
                L, points, _chart_up_to_scalar(L, points, t))) \
                != classes[hit][2]:
            raise NotInvariant("disc model and chart-fiber model disagree")
    classes.sort(key=lambda c: (c[1],) + sort_key(c[0]))
    vertices = [
        Vertex(idx, chart, center, radius, part,
               frozenset(j for j in range(m) if points[j] != INF_POINT
                         and _in_disc(points[j], center, radius)), None)
        for idx, (center, radius, part, chart) in enumerate(classes)]

    psi = []
    for j in range(m):
        hits = [v.index for v in vertices if frozenset([j]) in v.partition]
        if len(hits) != 1:
            raise NotInvariant(
                f"marked point {j} isolated on {len(hits)} vertices")
        psi.append(hits[0])
        vertices[hits[0]].marked.append(j)

    # edges: covering relations of disc inclusion
    edges = []
    root = None
    for v in vertices:
        parents = [u for u in vertices if u.index != v.index
                   and u.disc_radius <= v.disc_radius
                   and _in_disc(v.disc_center, u.disc_center, u.disc_radius)]
        if not parents:
            if root is not None:
                raise NotInvariant("disconnected disc family")
            root = v.index
            continue
        best = max(parents, key=lambda u: u.disc_radius)
        v.parent = best.index
        vertices[best.index].children.append(v.index)
        edges.append((best.index, v.index))
    if root is None:
        raise NotInvariant("no maximal disc")
    if len(edges) != len(vertices) - 1:
        raise NotInvariant("edge relation is not a tree")
    for v in vertices:
        deg = len(v.children) + (0 if v.parent is None else 1)
        if len(v.marked) + deg < 3:
            raise NotInvariant(f"vertex {v.index} has valence < 3")
    for v in vertices:
        p1 = moebius_eval(v.chart, INF_POINT, L)
        if p1 != INF_POINT:
            lift = L.from_residue(p1)
            v.chart = matrix_mul((L.zero(), L.one(), L.one(), -lift), v.chart)
            if moebius_eval(v.chart, INF_POINT, L) != INF_POINT:
                raise NoRationalFixedPoint("chart normalization failed")
        v.red = _chart_values(L, points, v.chart)
    return MarkedTree(L, points, [bp.multiplicity for bp in divisor.points],
                      vertices, psi, root, sorted(edges))


def _chart_values(L, points, chart):
    return [moebius_eval(chart, x, L) for x in points]


def scale_matrix_integral(m, L):
    """Gauss reduction of a matrix over L: its entries divided by pi^mu,
    mu the least entry valuation, then reduced; raises MatrixNotIntegral
    if the reduction is singular."""
    _, red = gauss_reduce(m, L)
    det = red[0] * red[3] - red[1] * red[2]
    if det.is_zero():
        raise MatrixNotIntegral("reduced chart-comparison matrix is singular")
    return tuple(red)


def chart_matrix_by_application(act, g, v):
    """M(g, v) of the tree action ``act``: the Gauss reduction of
    sigma(A_v) . adj(A_{g v}), normalized in PGL_2(F_L)."""
    tree = act.tree
    sigma = act.G.autos[g]
    gA = tuple(sigma.apply(x) for x in tree.vertices[v].chart)
    a, b, c, d = tree.vertices[act.vertex_perm[g][v]].chart
    return normalize_pgl2(scale_matrix_integral(
        matrix_mul(gA, (d, -b, -c, a)), tree.L))


def gamma_by_division(ctx, g, v):
    """The y-scaling of g at v: residue of pi^k / g(pi^k), with
    varpi_v = pi^k."""
    pik = ctx.L.pi().pow_int(ctx.fiber.reductions[v].scaling_exponent)
    return (pik / ctx.G.autos[g].apply(pik)).residue()


def node_labels_by_edge_search(ctx):
    """(label field, nodes) of ``ctx``: the labels of each edge in the
    least extension of F_L that contains them, found by trying F_(q^m) for
    m = 1, 2, ..., then embedded into the compositum of those fields,
    which contains F_L even when there are no edges."""
    F = ctx.L.residue_field
    per_edge, k_lcm = {}, F.k
    for en in ctx.fiber.edge_nodes:
        m = 1
        while True:
            big = fq_make(F.p, F.k * m)
            if (big.q - 1) % en.d == 0:
                root = big.nth_root(F.embedding(big)(en.u0), en.d)
                if root is not None:
                    break
            m += 1
            if m > 4 * en.d * F.k + 4:
                raise AdmissibilityViolation("node labels not found")
        per_edge[(en.parent, en.child)] = (
            big, [root * z for z in big.roots_of_unity(en.d)])
        k_lcm = lcm(k_lcm, big.k)
    field = fq_make(F.p, k_lcm)
    nodes = []
    for e in sorted(per_edge):
        big, labels = per_edge[e]
        emb = big.embedding(field)
        nodes.extend((e, w) for w in sorted((emb(w) for w in labels),
                                            key=lambda x: x.index()))
    return field, nodes


def node_orbit_data_by_label_field(ctx):
    """(number of inertia classes, sorted Frobenius orbit sizes on them,
    node orbit count under each group of ``ctx.G.filt``) of the nodes of
    ``ctx``, with the labels of ``node_labels_by_edge_search``: g moves a
    label w of the edge e by w -> w^(p^j) * gamma^n' * a^a' into the labels
    of g(e), in the label field, j = 0 for inertia and j = 1 for
    Frobenius."""
    field, nodes = node_labels_by_edge_search(ctx)
    emb = ctx.L.residue_field.embedding(field)
    edges = {(en.parent, en.child): en for en in ctx.fiber.edge_nodes}
    G = ctx.G

    def act(g, node, j):
        (pu, cv), w = node
        perm = ctx.act.vertex_perm[g]
        e2 = (perm[pu], perm[cv])
        en, en2 = edges[(pu, cv)], edges[e2]
        a, _ = ctx.act.affine(g, cv)
        if en.a_prime < 0:
            a = a.inverse()
        w2 = w.frobenius(j) * emb(ctx.gamma(g, cv) ** en.n_prime
                                  * a ** abs(en.a_prime))
        if w2 ** en2.d != emb(en2.u0):
            raise AssertionError("node label image is not a label")
        return (e2, w2)

    def orbits_under(group):
        out, seen = [], set()
        for x in nodes:
            if x not in seen:
                orb = {act(g, x, 0) for g in group}
                seen |= orb
                out.append(orb)
        return out

    classes = orbits_under(G.inertia)
    class_of = {x: i for i, orb in enumerate(classes) for x in orb}
    sizes, done = [], set()
    for i, orb in enumerate(classes):
        size, c = 0, i
        while c not in done:
            done.add(c)
            size += 1
            c = class_of[act(G.frobenius_index, next(iter(classes[c])), 1)]
        if size:
            sizes.append(size)
    return (len(classes), sorted(sizes),
            [len(orbits_under(H)) for H in G.filt.groups])


def sheet_image(ctx, g, v, zeta):
    """The image (g v, zeta') of the sheet (v, zeta) of Ybar under g: the
    component labels of Ybar_v are mu_(d_max), and zeta' is sigma_g(zeta)
    times the ratio of the transported witness of v to that of g v, over
    the y-scaling to the power n_v."""
    red_v = ctx.fiber.reductions[v]
    w = ctx.act.vertex_perm[g][v]
    red_w = ctx.fiber.reductions[w]
    a, b = ctx.act.affine(g, v)
    F = ctx.L.residue_field
    sigma = ctx.G.autos[g]
    moved = red_v.witness.map_coeffs(sigma.residue_action).compose(
        FqPoly(F, [b, a]))
    const = _constant_ratio(moved, red_w.witness)
    zeta_new = sigma.residue_action(zeta) * const \
        * (ctx.gamma(g, v).inverse() ** red_v.n_v)
    if zeta_new ** red_w.d_max != F.one():
        raise NotInvariant("sheet image is not a component label")
    return (w, zeta_new)


def quotient_genus_by_wild_subgroup(ctx, subgroup):
    """Arithmetic genus of Ybar / H for a subgroup H of the wild inertia:
    H acts by translations on every sheet it stabilizes (trivially on y),
    so each sheet orbit contributes the genus of its sheet equation
    rewritten in the invariant polynomial of the stabilizer's
    translations, and the dual graph its H-orbits of sheets and nodes."""
    sheets = [(v, zeta) for v in sorted(ctx.fiber.reductions)
              for zeta in ctx.L.residue_field.roots_of_unity(
                  ctx.fiber.reductions[v].d_max)]
    sheet_orbits = orbits(sheets, subgroup,
                          lambda g, s: sheet_image(ctx, g, *s))
    total_genus = 0
    for orb in sheet_orbits:
        v, zeta = orb[0]
        red = ctx.fiber.reductions[v]
        stab = [g for g in subgroup
                if sheet_image(ctx, g, v, zeta) == (v, zeta)]
        sheet_eq = red.power_class.sheet_equation(zeta)
        _, _, quotient_eq = _translation_quotient(ctx, stab, v, sheet_eq)
        total_genus += power_class(quotient_eq, red.n_v).genus
    node_orbs = orbits(ctx.nodes(), subgroup,
                       lambda g, x: ctx.node_action(g, x, 0))
    return total_genus + len(node_orbs) - len(sheet_orbits) + 1


def filtration_by_witness_search(G):
    """The lower-numbering groups Gamma_0, ..., [1] of G, from
    i(sigma) = v_L(sigma(theta) - theta) over every sigma != 1 for a
    generator theta of O_L over Z_p: candidates pi, then pi + a, then
    pi plus the Teichmueller lift of the residue generator, each applied
    by every automorphism, the first whose values sum to v_L(E'(pi))
    (Hilbert's formula) accepted."""
    K = G.K
    dE = poly_derivative([LocalFieldElement(K, (c,) + (K.U.zero,) * (K.e - 1),
                                            0, K.N, False) for c in K.E], K)
    diff_val = poly_eval(dE, K.pi()).valuation()
    thetas = [K.pi(), K.pi() + K.gen_unramified()]
    if K.f > 1:
        thetas.append(K.pi() + K.teichmueller(K.residue_field.gen()))
    for theta in thetas:
        ivals = {i: (s.apply(theta) - theta).valuation_or_none()
                 for i, s in enumerate(G.autos) if i != G.identity_index}
        if any(v in (None, INFINITE) for v in ivals.values()) \
                or sum(ivals.values()) != diff_val:
            continue
        groups = [sorted(G.inertia)]
        while True:
            g_i = sorted([G.identity_index] + [
                s for s in G.inertia
                if s != G.identity_index and ivals[s] >= len(groups) + 1])
            if len(g_i) == 1:
                return groups + [[G.identity_index]]
            groups.append(g_i)
    raise NotMonogenicWitness("no verified monogenic generator")


def _closeness(x, y):
    v = (x - y).valuation_or_none()
    if v is None or v == INFINITE:
        return 10**9
    return v


def _match_pair(a, pi, a_imgs, pi_imgs):
    """Index of the automorphism whose generator images are closest to
    (a, pi); requires a clear winner."""
    best, best_v, second = None, -1, -1
    for i in range(len(a_imgs)):
        v = min(_closeness(a, a_imgs[i]), _closeness(pi, pi_imgs[i]))
        if v > best_v:
            second = best_v
            best, best_v = i, v
        elif v > second:
            second = v
    if best_v <= second:
        raise PrecisionExhausted("cannot separate Galois images")
    return best


def galois_table_by_scan(autos):
    """(table, inertia, frobenius_index, identity_index) of the group with
    automorphism list ``autos``: table[i][j] is the index of
    autos[i] o autos[j], found by a scan for every pair."""
    K = autos[0].K
    a_imgs = [s.a_img for s in autos]
    pi_imgs = [s.pi_img for s in autos]
    table = [[_match_pair(s.apply(t.a_img), s.apply(t.pi_img), a_imgs,
                          pi_imgs) for t in autos] for s in autos]
    inertia = sorted(i for i, s in enumerate(autos) if s.res_power == 0)
    frob = min(i for i, s in enumerate(autos) if s.res_power == 1 % K.f)
    identity = _match_pair(K.gen_unramified(), K.pi(), a_imgs, pi_imgs)
    return table, inertia, frob, identity


def tree_action_by_scan(G, tree):
    """(point_perm, vertex_perm) of every element of G on the marked tree:
    each element applied to each finite point, whose image must lie within
    half precision of exactly one point; a vertex goes to the vertex of
    the image of its member set."""
    points = tree.points
    by_members = {v.members: v.index for v in tree.vertices}
    point_perm, vertex_perm = [], []
    for sigma in G.autos:
        pp = []
        for j, x in enumerate(points):
            if x == INF_POINT:
                pp.append(j)
                continue
            img = sigma.apply(x)
            hits = [i for i, y in enumerate(points)
                    if y != INF_POINT and _big(y - img, tree.L)]
            if len(hits) != 1:
                raise PrecisionExhausted("cannot identify a point image")
            pp.append(hits[0])
        point_perm.append(pp)
        vertex_perm.append([by_members[frozenset(pp[j] for j in v.members)]
                            for v in tree.vertices])
    return point_perm, vertex_perm


def contains_field(M, L0):
    """Does the catalog field M contain a copy of the two-level field L0?"""
    if L0.f > 1:
        if M.f % L0.f:
            return False
        a_roots = roots_integral([M.from_int(c) for c in L0.U.modulus], M)
        if not a_roots:
            return False
    else:
        a_roots = [M.one()]
    for a_img in a_roots:
        transport = coeff_transport(M, a_img, L0.f)
        if roots_integral([transport(c) for c in L0.E], M):
            return True
    return False


def _digit_search(coeffs, K, depth=0):
    if depth > 6 * K.N:
        raise PrecisionExhausted("root search recursion exceeded the "
                                 "precision budget")
    m, residues = gauss_reduce(coeffs, K)
    red = FqPoly(K.residue_field, residues)
    if red.degree() < 1:
        return []
    if m:
        piinv_m = K.pi_inverse().pow_int(m)
        coeffs = [c * piinv_m for c in coeffs]
    dred = red.derivative()
    dcoeffs = poly_derivative(coeffs, K)
    out = []
    for rbar in red.roots():
        lift = K.from_residue(rbar)
        if not dred.evaluate(rbar).is_zero():
            out.append(_newton_refine(coeffs, K, lift, dcoeffs))
            continue
        shifted = poly_shift_scale(coeffs, K, lift, 1)
        for s in _digit_search(shifted, K, depth + 1):
            out.append(lift + K.pi() * s)
    return out


def roots_by_digit_search(K, qp):
    """The roots in K of a squarefree polynomial over Q, in ``sort_key``
    order: every simple residue root of the monic integral polynomial in
    y = lead * x is refined by Newton in K as the recursion meets it, also
    when qp does not split over K."""
    ints, _ = qp.content_clear()
    cs = [int(c) for c in ints.coeffs]
    lead, n = cs[-1], len(cs) - 1
    monic = [K.from_int(c * lead ** (n - 1 - i))
             for i, c in enumerate(cs[:-1])] + [K.one()]
    lead_inv = K.from_int(lead).invert()
    roots = [y * lead_inv for y in _digit_search(monic, K)]
    for r in roots:
        val = poly_eval([K.from_fraction(c) for c in qp.coeffs], r) \
            .valuation_or_none()
        if val not in (None, INFINITE) and val < K.e * (K.N // 2):
            raise PrecisionExhausted("root residual too large")
    return sorted(roots, key=sort_key)


def vec_mul_reduced_per_product(K, v1, v2):
    """The product of two vectors over U of the field K, reduced mod p^N
    after every integer product and every U-product."""
    U, e, f, pN = K.U, K.e, K.f, K.U.pN

    def umul(x, y):
        res = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                res[i + j] = (res[i + j] + a * b) % pN
        for i in range(2 * f - 2, f - 1, -1):
            c, res[i] = res[i], 0
            for j in range(f):
                res[i - f + j] = (res[i - f + j] - c * U.modulus[j]) % pN
        return tuple(res[:f])

    def uadd(x, y):
        return tuple((a + b) % pN for a, b in zip(x, y))

    res = [U.zero] * (2 * e - 1)
    for i, a in enumerate(v1):
        for j, b in enumerate(v2):
            res[i + j] = uadd(res[i + j], umul(a, b))
    out = list(res[:e])
    for j in range(e, 2 * e - 1):
        out = [uadd(a, umul(res[j], b))
               for a, b in zip(out, K._pi_table[j - e])]
    return tuple(out)


def has_nth_root_of_p(L, n):
    coeffs = [L.from_int(-L.p)] + [L.zero()] * (n - 1) + [L.one()]
    return bool(roots_integral(coeffs, L))


def digits_by_field_products(x, count):
    """The valuation of x and the first ``count`` pi-adic digits of
    x / pi^v(x), each digit step a product by pi^-1 in L."""
    v = x.valuation_or_none()
    if v in (INFINITE, None):
        return (INFINITE,)
    K = x.K
    piinv = K.pi_inverse()
    y = x * piinv.pow_int(v)
    out = [v]
    while len(out) <= count:
        if y.is_zero_to_precision() or y.prec + y.shift < 1:
            out.extend([0] * (count - len(out) + 1))
            break
        r = y.residue()
        out.append(r.index())
        y = (y - K.from_residue(r)) * piinv
    return tuple(out)


def semistable_field_by_two_scans(curve, config):
    """The first Galois catalog field containing zeta_n, p^(1/n) and a copy
    of the smallest catalog field over which f splits, over which the
    model is semistable; None when there is none."""
    n, p = curve.n, curve.p
    L0, _ = splitting_field(curve.f, p, config)
    factors = [g for g, _ in curve.f.squarefree_decomposition()]
    for deg, f0, s, e, u_idx in catalog_entries(p, config):
        if deg % L0.degree or f0 % L0.f or (deg // f0) % n \
                or (p**f0 - 1) % n:
            continue
        try:
            L = construct_candidate(p, f0, s, e, u_idx, config.precision)
        except _SkipCandidate:
            continue
        try:
            if not (contains_field(L, L0) and has_nth_root_of_p(L, n)):
                continue
            galois_group(L)
        except (PrecisionExhausted, NotGalois):
            continue
        tree = build_tree(branch_divisor(curve, splits_in(L, factors)), L)
        if not semistable_check(raw_gauss_values(curve, tree), n):
            return L
    return None


def _factored(h):
    """[(irreducible, exponent)] of h, a polynomial or a (num, den) pair,
    over num and den (den with negative exponents)."""
    num, den = _fraction(h)
    out = dict(factor_poly(num))
    for f, e in factor_poly(den):
        out[f] = out.get(f, 0) - e
    return sorted(out.items(), key=lambda kv: kv[0].key())


def geometric_power_class(h, n):
    """Power class over the algebraic closure: units are always powers."""
    d1 = n
    for _, e in _factored(h):
        d1 = gcd(d1, e)
    return d1


def kummer_genus_by_factorizations(n_c, h):
    """Genus of one geometric component of z^n_c = h, h (a polynomial or a
    (num, den) pair) not a proper power modulo n_c-th powers over its
    field, by Riemann-Hurwitz over the algebraic closure."""
    num, den = _fraction(h)
    if power_class(num * den ** (n_c - 1), n_c).d_max != 1:
        raise ValueError(f"h is a proper power modulo {n_c}-th powers")
    d = geometric_power_class(h, n_c)
    n_comp = n_c // d
    two_g = -2 * n_comp + 2
    for f, e in _factored(h):
        e //= d
        if e % n_comp:
            two_g += f.degree() * (n_comp - gcd(n_comp, e))
    a_inf = -(num.degree() - den.degree()) // d
    if a_inf % n_comp:
        two_g += n_comp - gcd(n_comp, a_inf)
    if two_g % 2:
        raise GenusMismatch("Riemann-Hurwitz parity failure")
    return two_g // 2


def weil_check_by_roots(coeffs, q, tol=1e-6):
    """Whether every reciprocal root of the integer polynomial P(T) (low
    to high) has absolute value sqrt(q) to a relative ``tol``, by
    ``numpy.roots`` on the exact squarefree part of P (multiple roots ruin
    its conditioning; the root set is unchanged)."""
    import numpy as np
    sf = QPoly(list(coeffs)).squarefree_part()
    if sf.degree() < 1:
        return True
    roots = np.roots(np.array([float(c) for c in sf.coeffs][::-1]))
    target = q**0.5
    return all(abs(abs(1.0 / r) - target) < tol * max(1.0, target)
               for r in roots)
