"""Per-vertex Kummer reduction data and the special fiber of the model.

For each vertex v of the marked tree, substituting the inverse chart into f
and taking the Gauss valuation gives N_v = eta_v(f) (stored in pi-units,
where divisibility by n is the semistability criterion) and the reduced
equation fbar_v.  The vertex scaling is the deterministic pi^(N_v/n); any
unit change of that scaling twists fbar_v by an n-th-power-compatible unit
and is checked (in the tests) to leave all derived data unchanged.

Nodes above an edge are computed on the child side, where the node sits at
x = infinity of the normalized chart: with a = ord_infinity(fbar_child) and
d = gcd(n, a), the fiber consists of the d solutions of omega^d = u0, and
those labels carry the Galois action used later for the dual graph.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    AdmissibilityViolation,
    GenusMismatch,
    NotDivisible,
    PrecisionExhausted,
)
from .finitefield import (
    INF as FINF,
    FqPoly,
    RationalFunction,
    fq_make,
    kummer_genus,
    power_class,
)
from .localfield import INFINITE
from .tree import INF_POINT


def _chart_inverse_substitution(curve, L, chart):
    """f((d x - b)/(-c x + a)) as (numerator, denominator) polys over L."""
    a, b, c, d = chart
    m = curve.f.degree()
    P1 = [-b, d]        # d*x - b
    P2 = [a, -c]        # -c*x + a

    def poly_mul(u, v):
        res = [L.zero() for _ in range(len(u) + len(v) - 1)]
        for i, x in enumerate(u):
            if not x.exact_zero:
                for j, y in enumerate(v):
                    res[i + j] = res[i + j] + x * y
        return res

    pow1 = [[L.one()]]
    pow2 = [[L.one()]]
    for _ in range(m):
        pow1.append(poly_mul(pow1[-1], P1))
        pow2.append(poly_mul(pow2[-1], P2))
    num = [L.zero() for _ in range(m + 1)]
    for i, q in enumerate(curve.f.coeffs):
        if q == 0:
            continue
        qi = L.from_fraction(q)
        term = poly_mul(pow1[i], pow2[m - i])
        for j, x in enumerate(term):
            num[j] = num[j] + x * qi
    den = pow2[m]
    return num, den


def _gauss_data(L, poly):
    """(min coefficient valuation, reduced polynomial over F_L)."""
    vals = []
    for c in poly:
        v = c.valuation_or_none()
        if v not in (None, INFINITE):
            vals.append(v)
    if not vals:
        raise PrecisionExhausted("Gauss valuation of a fuzzy polynomial")
    mu = min(vals)
    piinv = L.pi_inverse().pow_int(mu) if mu else None
    red = []
    for c in poly:
        x = c * piinv if piinv is not None else c
        v = x.valuation_or_none()
        if v in (None, INFINITE):
            red.append(L.residue_field.zero())
        else:
            red.append(x.residue() if v == 0 else L.residue_field.zero())
    return mu, FqPoly(L.residue_field, red)


def gauss_valuation_f(curve, L, chart):
    """N_v (pi-units) and fbar_v for the chart of one vertex."""
    num, den = _chart_inverse_substitution(curve, L, chart)
    mu_n, red_n = _gauss_data(L, num)
    mu_d, red_d = _gauss_data(L, den)
    N_v = mu_n - mu_d
    fbar = RationalFunction(red_n, red_d)
    return N_v, fbar


class VertexReduction:
    """Kummer data of the curve above one component of the tree."""

    __slots__ = ("vertex", "N_v", "eta_vp1", "fbar", "n_v", "d_max",
                 "witness", "component_genus", "scaling_exponent")

    def __init__(self, vertex, N_v, fbar, n, L):
        self.vertex = vertex
        self.N_v = N_v
        self.eta_vp1 = Fraction(N_v, L.e)
        self.fbar = fbar
        if N_v % n:
            raise NotDivisible(
                f"n = {n} does not divide N_v = {N_v} at vertex {vertex}")
        self.scaling_exponent = N_v // n  # varpi_v = pi^(N_v/n)
        pc = power_class(L.residue_field, fbar, n)
        self.d_max = pc.d_max
        self.n_v = pc.n_v
        self.witness = pc.witness  # gbar with gbar^(d_max) = fbar
        self.component_genus = kummer_genus(self.n_v, self.witness)

    def component_count(self):
        return self.d_max

    def __repr__(self):
        return (f"VertexReduction(v={self.vertex}, N_v={self.N_v}, "
                f"n_v={self.n_v}, comps={self.d_max}, "
                f"g={self.component_genus})")


def semistable_check(raw_values, n):
    """raw_values: {vertex: N_v}; returns the failing vertices with N_v mod n."""
    return {v: N % n for v, N in raw_values.items() if N % n}


class EdgeNodes:
    """The fiber of nodes above one edge of the tree.

    Labels live on the child side where the node is at x = infinity; the
    label of a point is the value of ybar^(n/d) * x^(a'/...) normalized so
    that label^d = u0.  They may generate an extension of F_L.
    """

    __slots__ = ("parent", "child", "pos_on_parent", "a_parent", "a_child",
                 "d", "u0", "label_field", "labels", "n_prime", "a_prime")

    def __init__(self, parent, child, pos_on_parent, a_parent, a_child,
                 n, u0, Fq):
        self.parent = parent
        self.child = child
        self.pos_on_parent = pos_on_parent
        self.a_parent = a_parent
        self.a_child = a_child
        if (a_parent + a_child) % n:
            raise AdmissibilityViolation(
                f"orders {a_parent} + {a_child} not divisible by {n} on edge "
                f"({parent},{child})")
        self.d = gcd(n, a_child)
        self.u0 = u0
        self.n_prime = n // self.d
        self.a_prime = a_child // self.d
        # find the smallest extension containing all d labels
        m = 1
        while True:
            big = fq_make(Fq.p, Fq.k * m)
            if (big.q - 1) % self.d == 0:
                emb = Fq.embedding(big)
                u = emb(u0)
                root = big.nth_root(u, self.d)
                if root is not None:
                    self.label_field = big
                    self.labels = sorted((root * z for z in
                                          big.roots_of_unity(self.d)),
                                         key=lambda x: x.index())
                    break
            m += 1
            if m > 4 * self.d * Fq.k + 4:
                raise AdmissibilityViolation("node labels not found in any "
                                             "reasonable extension")

    def node_count(self):
        return self.d

    def __repr__(self):
        return (f"EdgeNodes(({self.parent},{self.child}), d={self.d}, "
                f"a={self.a_child})")


class SpecialFiber:
    """All per-vertex reductions and node fibers of Ybar, plus the genus
    bookkeeping of its dual graph."""

    def __init__(self, curve, L, tree, reductions, edge_nodes):
        self.curve = curve
        self.L = L
        self.tree = tree
        self.reductions = reductions      # vertex index -> VertexReduction
        self.edge_nodes = edge_nodes      # list of EdgeNodes
        self.n_components = sum(r.component_count()
                                for r in reductions.values())
        self.n_nodes = sum(en.node_count() for en in edge_nodes)
        self.b1 = self.n_nodes - self.n_components + 1
        self.arithmetic_genus = (sum(
            r.component_count() * r.component_genus
            for r in reductions.values()) + self.b1)

    def check_genus(self):
        g = self.curve.genus()
        if self.arithmetic_genus != g:
            raise GenusMismatch(
                f"arithmetic genus {self.arithmetic_genus} of the special "
                f"fiber differs from the curve genus {g}")


def reduce_special_fiber(curve, L, tree):
    """Compute all vertex reductions and node fibers; semistability must
    hold (call ``raw_gauss_values`` + ``semistable_check`` first to decide
    whether to enlarge L)."""
    n = curve.n
    reductions = {}
    for v in tree.vertices:
        N_v, fbar = gauss_valuation_f(curve, L, v.chart)
        reductions[v.index] = VertexReduction(v.index, N_v, fbar, n, L)
    edge_nodes = []
    for (pu, cv) in tree.edges:
        pos = tree.direction_of_vertex(pu, cv)
        if pos == INF_POINT:
            raise AdmissibilityViolation("child direction at infinity")
        fb_parent = reductions[pu].fbar
        fb_child = reductions[cv].fbar
        a_parent = fb_parent.ord_at(pos)
        a_child = fb_child.ord_at(FINF)
        u0 = fb_child.unit_value_at(FINF)
        edge_nodes.append(EdgeNodes(pu, cv, pos, a_parent, a_child, n, u0,
                                    L.residue_field))
    fiber = SpecialFiber(curve, L, tree, reductions, edge_nodes)
    fiber.check_genus()
    return fiber


def raw_gauss_values(curve, L, tree):
    """{vertex: N_v} without assuming divisibility (for semistable_check)."""
    return {v.index: gauss_valuation_f(curve, L, v.chart)[0]
            for v in tree.vertices}
