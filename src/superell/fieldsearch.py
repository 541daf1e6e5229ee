"""Catalog search for splitting and semistabilizing fields.

Candidate fields are the composites Q_p(zeta_m, (u p)^(1/e)) where the
prime-to-p part of m contributes an unramified piece of degree f0, the
p-part contributes the wild cyclotomic Eisenstein step Phi_{p^s}(x+1), and
u runs over Teichmueller representatives modulo e-th powers.  Every
candidate is flattened into the normalized two-level shape of
:mod:`localfield`: when both a wild cyclotomic step and a radical step are
present, a uniformizer of the composite is written as xi^A y^B / p^k and
its minimal polynomial over the unramified part is recovered by linear
algebra.

The pipeline makes one scan, ``semistabilizing_candidates``, in increasing
degree: a field qualifies when it contains zeta_n and p^(1/n), f splits
over it and it is Galois over Q_p; the roots of the split test are the
branch divisor.  Four tests skip an entry before it is built: n | e(L)
(for p^(1/n)), n | p^f0 - 1 (zeta_n, as f(L) = f0 and p does not divide
n), r | f0, with r the lcm of the degrees of the irreducible factors of f
mod p (each is the reduction of a root in L), and, without a wild step
(s = 0), n | u_idx.  The last decides p^(1/n): L = U(w) with w^e = u p, u
the Teichmueller lift of g^u_idx, so w^(e/n) is an n-th root of u p, and
u^(1/n) is unramified over U while L/U is totally ramified.  Wild entries
keep the root test of x^n - p: Q_7(zeta_7) = Q_7((-7)^(1/6)) has no
7^(1/2).  A catalog entry keeps its field and, once asked for, Gal(L/Q_p)
or the error computing it raised; the precision is part of the key.

On an entry that is built, the order is: the split test on residues (the
residue pass of ``localfield``, x^n - p first on wild entries, no Newton
step); the skip of an entry whose group is known to be an error; the
lifting of the roots of f, by orbits of the group.  The group is computed
into the entry once one root is lifted and passes its residual check, so
that a field whose roots are known to too few digits costs no group.

Results are the smallest-degree catalog members with the requested
properties.  Fields the catalog cannot express (for instance wild
composites with gcd(e, phi(p^s)) > 1, which are skipped during flattening)
surface as CatalogExhausted.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import (
    CatalogExhausted,
    NotDivisible,
    NotEisenstein,
    NotGalois,
    PrecisionExhausted,
    ValidationError,
)
from .finitefield import FqPoly, factor_poly, fq_make
from .localfield import (
    INFINITE,
    LocalField,
    LocalFieldElement,
    galois_group,
    poly_mul,
    roots_of_qpoly,
)
from .qpoly import QPoly


#: catalog bound on the unramified degree f0
MAX_UNRAMIFIED = 8
#: catalog bound on the p-power cyclotomic part p^s
MAX_CYCLOTOMIC = 64


class SearchConfig:
    """Bounds of the catalog: max total degree, working precision."""

    def __init__(self, precision=50, max_degree=64):
        self.precision = precision
        self.max_degree = max_degree

    def scaled(self, factor):
        return SearchConfig(self.precision * factor, self.max_degree)


class _SkipCandidate(Exception):
    """Internal: this catalog entry cannot be constructed, or is not
    Galois; move on."""


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def _qp_unramified(p, f0, prec, modulus=None):
    """The unramified field of degree f0 in two-level shape (E = x - p)."""
    return LocalField(p, f0, [-p, 1], prec, unramified_modulus=modulus,
                      label=f"Q_{p}^(f{f0})")


def build_tower(p, unramified_degree, eisenstein_steps, precision,
                unramified_modulus=None):
    """Build Q_p -> unramified(f) -> successive Eisenstein steps, flattening
    into the normalized two-level shape after each step.

    Step coefficients may be integers or element encodings of the field
    built so far (lists of length-f integer vectors, low-to-high in pi).
    """
    L = _qp_unramified(p, unramified_degree, precision, unramified_modulus)
    for step in eisenstein_steps:
        coeffs = [_coerce_step_coefficient(L, c) for c in step]
        try:
            L = adjoin_eisenstein(L, coeffs)
        except _SkipCandidate as exc:
            raise NotEisenstein(f"cannot flatten tower step: {exc}")
    return L


def _coerce_step_coefficient(L, c):
    if isinstance(c, int):
        return L.from_int(c)
    if isinstance(c, list):
        coords = []
        for v in c:
            if isinstance(v, int):
                coords.append((v,) + (0,) * (L.f - 1))
            elif isinstance(v, list) and all(isinstance(a, int) for a in v):
                coords.append(tuple(v))
            else:
                raise ValidationError(f"bad tower coefficient {c!r}")
        while len(coords) < L.e:
            coords.append((0,) * L.f)
        return L.element_from_coords(coords)
    raise ValidationError(f"bad tower coefficient {c!r}")


def _solve_linear(K, cols, rhs):
    """Solve sum_j x_j cols[j] = rhs over the field K (entries K-elements).

    Gaussian elimination with minimal-valuation pivoting; raises
    _SkipCandidate when the matrix is singular to working precision.
    """
    n = len(rhs)
    m = len(cols)
    A = [[cols[j][i] for j in range(m)] + [rhs[i]] for i in range(n)]
    pivots = []
    used = set()
    for col in range(m):
        best, best_v = None, None
        for r in range(n):
            if r in used:
                continue
            v = A[r][col].valuation_or_none()
            if v is None or v == INFINITE:
                continue
            if best_v is None or v < best_v:
                best, best_v = r, v
        if best is None:
            raise _SkipCandidate("singular system while flattening")
        used.add(best)
        inv = A[best][col].invert()
        pivots.append((best, col, inv))
        for r in range(n):
            if r == best:
                continue
            factor = A[r][col] * inv
            if factor.is_zero_to_precision():
                continue
            for c in range(col, m + 1):
                A[r][c] = A[r][c] - factor * A[best][c]
    xs = [None] * m
    for r, col, inv in pivots:
        xs[col] = A[r][m] * inv
    # consistency: rows without pivots must have zero rhs
    for r in range(n):
        if r not in used and not A[r][m].is_zero_to_precision():
            raise _SkipCandidate("inconsistent system while flattening")
    return xs


def _as_u_tuple(K_U, x):
    """Convert an element of the 1-step field K_U into an integral U-tuple."""
    v = x.valuation_or_none()
    if v is None or v == INFINITE:
        # zero to precision counts as zero (guarded by Eisenstein checks)
        return K_U.U.zero
    if v < 0:
        raise _SkipCandidate("non-integral minimal polynomial coefficient")
    vec = x.vec[0]
    if x.shift > 0:
        pj = K_U.p**x.shift
        vec = tuple(a * pj % K_U.U.pN for a in vec)
    elif x.shift < 0:
        vec = K_U.U.div_p(vec, -x.shift)
    return vec


def flatten_extension(L1, g_coeffs, z_exponents, label=None):
    """Replace the tower L1[y]/(g) by a two-level field.

    ``g_coeffs``: coefficients of the monic polynomial g over L1 (length
    d+1); ``z_exponents`` = (A, B, k) defines the uniformizer candidate
    z = pi_L1^A * y^B / p^k.  The minimal polynomial of z over the
    unramified part is computed by linear algebra and must come out
    Eisenstein of degree e(L1)*d, otherwise the candidate is skipped.
    """
    d = len(g_coeffs) - 1
    e_tot = L1.e * d
    A, B, k = z_exponents

    zero1 = L1.zero()

    def t2_mul(u, v):
        res = poly_mul(u, v, L1)
        # reduce by monic g
        for top in range(2 * d - 2, d - 1, -1):
            c = res[top]
            if c.is_zero_to_precision():
                continue
            res[top] = zero1
            for j in range(d):
                res[top - d + j] = res[top - d + j] - c * g_coeffs[j]
        return res[:d]

    z = [zero1 for _ in range(d)]
    scale = L1.pi().pow_int(A)
    if k:
        scale = LocalFieldElement(L1, scale.vec, scale.shift - k, scale.prec,
                                  False)
    if B >= d:
        raise _SkipCandidate("bad uniformizer exponent")
    z[B] = scale

    one_t2 = [zero1 for _ in range(d)]
    one_t2[0] = L1.one()
    z_pows = [one_t2]
    for _ in range(e_tot):
        z_pows.append(t2_mul(z_pows[-1], z))

    # flatten T2 coordinates to vectors over the 1-step unramified field
    K_U = _qp_unramified(L1.p, L1.f, L1.N, L1.U.modulus)

    def flat(vecT2):
        out = []
        for l in range(d):
            el = vecT2[l]
            for i in range(L1.e):
                out.append(LocalFieldElement(K_U, (el.vec[i],), el.shift,
                                             el.prec, el.exact_zero))
        return out

    cols = [flat(z_pows[j]) for j in range(e_tot)]
    rhs = [x for x in flat(z_pows[e_tot])]
    xs = _solve_linear(K_U, cols, rhs)
    E_flat = [_as_u_tuple(K_U, -x) for x in xs] + [K_U.U.one]
    try:
        return LocalField(L1.p, L1.f, E_flat, L1.N,
                          unramified_modulus=L1.U.modulus, label=label)
    except NotEisenstein as exc:
        raise _SkipCandidate(str(exc))


def adjoin_radical(L1, d, c_elt, label=None):
    """L1(y) with y^d = c_elt, flattened.  Requires the valuation of c_elt
    to make y a 'new' uniformizer direction: v_p(c_elt) * (1/d) must have
    exact denominator e(L1)*d."""
    e1 = L1.e
    w = c_elt.valuation()  # pi_L1-units
    if w == INFINITE:
        raise _SkipCandidate("radical of zero")
    g = [-c_elt] + [L1.zero()] * (d - 1) + [L1.one()]
    if e1 == 1 and w == 1:
        # already Eisenstein over U: y^d - c
        return adjoin_eisenstein(L1, g, label=label)
    # z = pi^A y^B / p^k with A*d + B*e1 = 1 + k*e1*d  (only for w = e1)
    if w != e1:
        raise _SkipCandidate("unsupported radical valuation")
    if gcd(d, e1) != 1:
        raise _SkipCandidate("wild composite with gcd(e, phi) > 1")
    A = pow(d, -1, e1) if e1 > 1 else 0
    B = pow(e1, -1, d) if d > 1 else 0
    V = A * d + B * e1
    if V % (e1 * d) != 1 % (e1 * d):
        raise NotDivisible(f"{V} - 1 is not divisible by e*d = {e1 * d}")
    k = (V - 1) // (e1 * d)
    return flatten_extension(L1, g, (A, B, k), label=label)


def adjoin_eisenstein(L1, g_coeffs, label=None):
    """L1[y]/(g) for g Eisenstein over L1, flattened (z = y)."""
    for c in g_coeffs[:-1]:
        v = c.valuation_or_none()
        if v in (None,):
            raise PrecisionExhausted("Eisenstein check needs more digits")
        if v != INFINITE and v < 1:
            raise NotEisenstein("step polynomial is not Eisenstein")
    v0 = g_coeffs[0].valuation()
    if v0 != 1:
        raise NotEisenstein("constant term must be a uniformizer")
    if L1.e == 1:
        K_U = _qp_unramified(L1.p, L1.f, L1.N, L1.U.modulus)
        E = [_as_u_tuple(K_U, LocalFieldElement(K_U, (c.vec[0],), c.shift,
                                                c.prec, c.exact_zero))
             for c in g_coeffs]
        return LocalField(L1.p, L1.f, E, L1.N,
                          unramified_modulus=L1.U.modulus, label=label)
    return flatten_extension(L1, list(g_coeffs), (0, 1, 0), label=label)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _cyclotomic_pk_shifted(p, s):
    """Phi_{p^s}(x + 1) as integer coefficients (Eisenstein at p)."""
    # Phi_{p^s}(x) = sum_{i<p} x^(i p^(s-1))
    coeffs = [0] * ((p - 1) * p ** (s - 1) + 1)
    for i in range(p):
        coeffs[i * p ** (s - 1)] = 1
    cyc = QPoly(coeffs)
    xp1 = QPoly([1, 1])
    acc = QPoly([0])
    for c in reversed(cyc.coeffs):
        acc = acc * xp1 + QPoly([c])
    return [int(c) for c in acc.coeffs]


#: key -> [field or _SkipCandidate, None, then Gal(L/Q_p) or its error]
_CANDIDATE_CACHE = {}


def construct_candidate(p, f0, s, e, u_idx, prec):
    """Build the catalog field Q_p(unram f0, zeta_{p^s}, (u p)^(1/e)).

    Returns a LocalField or raises _SkipCandidate.
    """
    key = (p, f0, s, e, u_idx, prec)
    if key not in _CANDIDATE_CACHE:
        try:
            _CANDIDATE_CACHE[key] = [_construct_candidate(*key), None]
        except _SkipCandidate as exc:
            _CANDIDATE_CACHE[key] = [exc, None]
    val = _CANDIDATE_CACHE[key][0]
    if isinstance(val, Exception):
        raise val
    return val


def _teich_unit(L, u_idx):
    """Teichmueller lift of the canonical coset representative (u_idx is 0
    when e-th powers exhaust the units: ``catalog_entries``)."""
    if u_idx == 0:
        return L.one()
    return L.teichmueller(L.residue_field.multiplicative_generator() ** u_idx)


def _construct_candidate(p, f0, s, e, u_idx, prec):
    label = f"Q_{p}(f{f0};zeta_{p ** s};e{e};u{u_idx})"
    base = _qp_unramified(p, f0, prec)
    if s > 0 and (p ** (s - 1)) * (p - 1) == 1:
        s = 0  # zeta_2 over Q_2 etc. is trivial
    if s == 0:
        if e == 1:
            return base
        c = _teich_unit(base, u_idx) * base.from_int(p)
        return adjoin_radical(base, e, c, label=label)
    eis = _cyclotomic_pk_shifted(p, s)
    L1 = LocalField(p, f0, eis, prec, label=f"Q_{p}(f{f0};zeta_{p ** s})")
    if e == 1:
        return L1
    c = _teich_unit(L1, u_idx) * L1.from_int(p)
    return adjoin_radical(L1, e, c, label=label)


def catalog_entries(p, config):
    """All (degree, f0, s, e, u_idx) within bounds, sorted by degree then
    lexicographically: the deterministic search order."""
    out = []
    s_max = 0
    while p ** (s_max + 1) <= MAX_CYCLOTOMIC:
        s_max += 1
    for f0 in range(1, MAX_UNRAMIFIED + 1):
        q0 = p**f0
        for s in range(0, s_max + 1):
            phi = 1 if s == 0 else (p ** (s - 1)) * (p - 1)
            if phi == 1 and s > 0:
                continue  # duplicate of s = 0
            for e in range(1, config.max_degree + 1):
                deg = f0 * phi * e
                if deg > config.max_degree:
                    break
                if s > 0 and e > 1 and gcd(e, phi) != 1:
                    continue
                n_classes = gcd(e, q0 - 1) if e > 1 else 1
                for u_idx in range(n_classes):
                    out.append((deg, f0, s, e, u_idx))
    out.sort()
    return out


def _residue_tests(L, polys):
    """The root searches of the squarefree Q-polynomials ``polys`` over L
    after their residue passes, or None as soon as one accounts for fewer
    roots than its degree: no Newton step has been taken."""
    searches = []
    for g in polys:
        search = roots_of_qpoly(L, g)
        if search.count < g.degree():
            return None
        searches.append(search)
    return searches


def splits_in(L, factors):
    """Do all the given squarefree Q-polynomials split into linear factors
    over L?  Returns the roots per factor, or None.  Every factor passes
    the residue test before any is lifted."""
    searches = _residue_tests(L, factors)
    return None if searches is None else [s.lift() for s in searches]


def residue_degree_bound(factors, p):
    """r, the lcm of the degrees of the irreducible factors over F_p of the
    reductions of the primitive integral ``factors``: every such factor is
    the reduction of an integral root, so r divides f(L) whenever the
    factors split over L."""
    F = fq_make(p)
    r = 1
    for g in factors:
        ints, _ = g.content_clear()
        red = FqPoly.from_ints(F, [int(c) for c in ints.coeffs])
        for irr, _ in factor_poly(red):
            r = lcm(r, irr.degree())
    return r


def _entry_group(key):
    """Gal(L/Q_p) of the catalog entry ``key``, computed into the entry on
    first use.  If computing it raised NotGalois or PrecisionExhausted, the
    entry keeps the error and _SkipCandidate is raised."""
    entry = _CANDIDATE_CACHE[key]
    if entry[1] is None:
        try:
            entry[1] = galois_group(entry[0])
        except (PrecisionExhausted, NotGalois) as exc:
            entry[1] = exc
    if isinstance(entry[1], Exception):
        raise _SkipCandidate(str(entry[1]))
    return entry[1]


def _split_fields(factors, n, p, config, shortfall, with_group):
    """Yield (L, G, roots) for the catalog fields L, in increasing degree,
    that contain zeta_n and p^(1/n) and over which the squarefree
    ``factors`` split, with the roots per factor.  Entries that fail a skip
    test of the module docstring are not built.  The residue tests of all
    polynomials come first.  Then, ``with_group``, an entry whose group is
    an error is skipped, and the roots are lifted by orbits of the group G,
    which is asked for once one root is lifted and checked (G is None
    without the group: every root is lifted).  A root test that runs out
    of precision sets shortfall[0]."""
    r = residue_degree_bound(factors, p)
    # with zeta_n in L, p^(1/n) is in L exactly when x^n - p splits
    # (tested on wild entries; the u_idx test decides the others)
    radical = QPoly([-p] + [0] * (n - 1) + [1])
    for deg, f0, s, e, u_idx in catalog_entries(p, config):
        if (deg // f0) % n or (p**f0 - 1) % n or f0 % r \
                or (s == 0 and u_idx % n):
            continue
        key = (p, f0, s, e, u_idx, config.precision)
        try:
            L = construct_candidate(*key)
        except _SkipCandidate:
            continue
        try:
            searches = _residue_tests(L, [radical] + factors if s
                                      else factors)
        except PrecisionExhausted:
            shortfall[0] = True
            continue
        if searches is None:
            continue
        if with_group and isinstance(_CANDIDATE_CACHE[key][1], Exception):
            continue  # not Galois, known before any Newton step
        group = (lambda key=key: _entry_group(key)) if with_group else None
        try:
            roots = [search.lift(group)
                     for search in searches[1 if s else 0:]]
            G = group() if with_group else None
        except _SkipCandidate:
            continue
        except PrecisionExhausted:
            shortfall[0] = True
            continue
        yield L, G, roots


def splitting_field(f, p, config=None):
    """Smallest catalog field over which the squarefree factors of f split.

    Returns (LocalField, roots of the squarefree part in deterministic
    order).  Raises CatalogExhausted when no candidate splits f.
    """
    config = config or SearchConfig()
    factors = [g for g, _ in f.squarefree_decomposition()]
    for L, _, roots in _split_fields(factors, 1, p, config, [False], False):
        return L, [r for rs in roots for r in rs]
    raise CatalogExhausted(
        f"no catalog field of degree <= {config.max_degree} splits f; "
        "supply an explicit field tower")


def semistabilizing_candidates(f, n, p, config=None):
    """Yield (L, G, roots) for the catalog fields L, in increasing degree,
    that contain zeta_n and p^(1/n), over which f splits and which are
    Galois over Q_p with group G.  ``roots`` has one list per squarefree
    factor of f, in ``f.squarefree_decomposition()`` order.

    When no field qualifies, raises PrecisionExhausted if a root test ran
    out of precision on some field (a retry at higher precision may find
    one), else CatalogExhausted.
    """
    config = config or SearchConfig()
    factors = [g for g, _ in f.squarefree_decomposition()]
    shortfall = [False]
    found = False
    for candidate in _split_fields(factors, n, p, config, shortfall, True):
        found = True
        yield candidate
    if found:
        return
    if shortfall[0]:
        raise PrecisionExhausted(
            "a root test ran out of precision on a catalog field")
    raise CatalogExhausted(
        f"no Galois catalog field of degree <= {config.max_degree} splits "
        f"f and contains zeta_{n} and p^(1/{n}); supply an explicit field "
        "tower")


def semistabilizing_field(f, n, p, config=None):
    """First (smallest) semistabilizing candidate (L, G, roots)."""
    return next(semistabilizing_candidates(f, n, p, config))
