"""Per-vertex Kummer reduction data and the special fiber of the model.

For each vertex v of the marked tree, the Gauss valuation of f on the chart
of v is N_v = eta_v(f) (in pi-units, where divisibility by n is the
semistability criterion), and its reduction is the equation fbar_v of the
component above v.  Both are read off one linear form per finite branch
point (``gauss_valuation_f``): fbar_v is a constant times
prod (t - rbar)^(a_r) over the points r that reduce to a finite point rbar
of the chart (``Vertex.red``), and the chart sends the pole of f to
infinity, so a pole form that does not reduce to a constant raises
``NotInvariant``.  raw_gauss_values(curve, tree) reduces each chart once,
after ``tree`` has fixed it, and semistable_check(raw, n) and
reduce_special_fiber(curve, tree, raw) both read its values.  The vertex
scaling is the deterministic pi^(N_v/n); a unit change of it twists fbar_v
by an n-th-power-compatible unit, which the tests check leaves all derived
data unchanged.  One factorization of fbar_v (``power_class``) gives the
number of components above v, the witness and the genus of each component.

Nodes above an edge are computed on the child side, where the node sits at
x = infinity of the normalized chart: with a = ord_infinity(fbar_child) and
d = gcd(n, a), the fiber consists of the d solutions of omega^d = u0.
``descent`` builds those labels, in one field for all edges, together with
the Galois action on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    AdmissibilityViolation,
    GenusMismatch,
    NotDivisible,
    NotInvariant,
)
from .finitefield import INF, FqPoly, power_class
from .localfield import gauss_reduce


def gauss_valuation_f(curve, tree, chart):
    """N_v (pi-units) and fbar_v for the chart (a, b, c, d) of one vertex.

    With f = lead * prod (x - r)^(a_r) over the finite marked points r of
    the tree and m = deg f, f((d t - b)/(a - c t)) is
    lead * prod l_r^(a_r) / (a - c t)^m with l_r = (d + c r) t - (b + a r).
    The Gauss valuation and the reduction by leading residues are
    multiplicative, so N_v = v(lead) + sum a_r mu(l_r) - m mu(a - c t),
    and fbar_v is the product of the reduced factors.  The reduction of
    a - c t must be a nonzero constant."""
    L = tree.L
    a, b, c, d = chart
    m = curve.f.degree()
    mu_d, (a_bar, c_bar) = gauss_reduce([a, -c], L)
    if not c_bar.is_zero():
        raise NotInvariant("reduced equation has an unexpected pole")
    N, (lead,) = gauss_reduce([L.from_fraction(curve.f.coeffs[-1])], L)
    fbar = FqPoly(L.residue_field, [lead * a_bar.inverse() ** m])
    for r, mult in zip(tree.points, tree.multiplicities):
        if mult is None:  # infinity
            continue
        mu, ell = gauss_reduce([-(b + a * r), d + c * r], L)
        N += mult * mu
        fbar = fbar * FqPoly(L.residue_field, ell) ** mult
    return N - m * mu_d, fbar


class VertexReduction:
    """Kummer data of the curve above one component of the tree."""

    __slots__ = ("vertex", "N_v", "eta_vp1", "fbar", "n_v", "d_max",
                 "witness", "component_genus", "scaling_exponent",
                 "power_class")

    def __init__(self, vertex, N_v, fbar, n, L):
        self.vertex = vertex
        self.N_v = N_v
        self.eta_vp1 = Fraction(N_v, L.e)
        self.fbar = fbar
        if N_v % n:
            raise NotDivisible(
                f"n = {n} does not divide N_v = {N_v} at vertex {vertex}")
        self.scaling_exponent = N_v // n  # varpi_v = pi^(N_v/n)
        self.power_class = pc = power_class(fbar, n)
        self.d_max = pc.d_max
        self.n_v = pc.n_v
        self.witness = pc.witness  # gbar with gbar^(d_max) = fbar
        self.component_genus = pc.genus

    def component_count(self):
        return self.d_max

    def __repr__(self):
        return (f"VertexReduction(v={self.vertex}, N_v={self.N_v}, "
                f"n_v={self.n_v}, comps={self.d_max}, "
                f"g={self.component_genus})")


def semistable_check(raw_values, n):
    """raw_values: {vertex: (N_v, fbar_v)}; returns the failing vertices
    with N_v mod n."""
    return {v: N % n for v, (N, _) in raw_values.items() if N % n}


class EdgeNodes:
    """The fiber of nodes above one edge of the tree.

    The orders a_parent and a_child of the two reduced equations at the
    node must add up to a multiple of n (admissibility).  The nodes sit on
    the child side at x = infinity: they are the d solutions of
    omega^d = u0, d = gcd(n, a_child), with u0 the unit value of
    fbar_child there.  Their labels, which may lie outside F_L, are points
    of Q/Z (``descent.ActionContext.nodes``).
    """

    __slots__ = ("parent", "child", "a_parent", "a_child", "d", "u0",
                 "n_prime", "a_prime")

    def __init__(self, parent, child, pos_on_parent, fbar_parent, fbar_child,
                 n):
        self.parent = parent
        self.child = child
        self.a_parent = a_parent = fbar_parent.ord_at(pos_on_parent)
        self.a_child = a_child = fbar_child.ord_at(INF)
        if (a_parent + a_child) % n:
            raise AdmissibilityViolation(
                f"orders {a_parent} + {a_child} not divisible by {n} on edge "
                f"({parent},{child})")
        self.d = gcd(n, a_child)
        self.u0 = fbar_child.unit_value_at(INF)
        self.n_prime = n // self.d
        self.a_prime = a_child // self.d

    def node_count(self):
        return self.d

    def __repr__(self):
        return (f"EdgeNodes(({self.parent},{self.child}), d={self.d}, "
                f"a={self.a_child})")


class SpecialFiber:
    """All per-vertex reductions and node fibers of Ybar, plus the genus
    bookkeeping of its dual graph."""

    def __init__(self, curve, tree, reductions, edge_nodes):
        self.curve = curve
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


def reduce_special_fiber(curve, tree, raw):
    """All vertex reductions and node fibers from ``raw``, the
    ``raw_gauss_values`` of the tree; semistability must hold (call
    ``semistable_check`` first to decide whether to enlarge L)."""
    n = curve.n
    reductions = {v: VertexReduction(v, N_v, fbar, n, tree.L)
                  for v, (N_v, fbar) in raw.items()}
    edge_nodes = []
    for (pu, cv) in tree.edges:
        pos = tree.direction_of_vertex(pu, cv)
        if pos == INF:
            raise AdmissibilityViolation("child direction at infinity")
        edge_nodes.append(EdgeNodes(pu, cv, pos, reductions[pu].fbar,
                                    reductions[cv].fbar, n))
    fiber = SpecialFiber(curve, tree, reductions, edge_nodes)
    fiber.check_genus()
    return fiber


def raw_gauss_values(curve, tree):
    """{vertex: (N_v, fbar_v)} in the final charts of the tree, over its
    field L, without assuming divisibility (for ``semistable_check``)."""
    return {v.index: gauss_valuation_f(curve, tree, v.chart)
            for v in tree.vertices}
