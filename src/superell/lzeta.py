"""Local L-factor and conductor exponent from the inertial reduction.

P1(T) is the product of a graph factor (the characteristic polynomial of
Frobenius on H^1 of the dual graph, assembled from node and component
orbit data via the virtual character 1 + chi_sing - chi_comp) and one zeta
numerator per irreducible component block, with T -> T^(d_j) for blocks
whose field of definition has degree d_j over F_p.

The conductor exponent is f = epsilon + delta with
epsilon = 2 g(Y) - dim H^1 of the inertial reduction, and delta the Swan
conductor sum_(i >= 1) |Gamma_i|/|Gamma_0| D_i over the higher
ramification groups, with D_i = sum (n - gcd(n, a_O)) (|O| - 1) over the
Gamma_i-orbits O of the roots of f, a_O their multiplicity in f.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    DegreeMismatch,
    NonIntegralFactor,
    NonIntegralSwan,
)
from .finitefield import zeta_numerator
from .qpoly import QPoly

# polynomials in T are multiplied and divided as QPoly; P1 and its factors
# leave the module as plain integer coefficient lists, low to high


def _integer_coeffs(poly):
    """The coefficients of a QPoly as ints; NonIntegralFactor otherwise."""
    if any(c.denominator != 1 for c in poly.coeffs):
        raise NonIntegralFactor("graph factor assembly is not integral")
    return [int(c) for c in poly.coeffs]


def graph_h1_charpoly(component_orbit_sizes, node_orbit_data):
    """det(1 - Frob T | H^1(graph)) from orbit data.

    The virtual character 1 + chi_sing - chi_comp gives
    (1 - T) * prod over node orbits of (1 -+ T^r) / prod over component
    orbits of (1 - T^d); a node orbit of size r contributes (1 - T^r) for
    trivial epsilon and (1 + T^r) for the order-2 character.
    """
    num = QPoly([1, -1])  # (1 - T)
    for size, eps in node_orbit_data:
        num = num * QPoly([1] + [0] * (size - 1) + [-1 if eps == 1 else 1])
    den = QPoly([1])
    for d in component_orbit_sizes:
        den = den * QPoly([1] + [0] * (d - 1) + [-1])
    quo, rem = num.divmod(den)
    if not rem.is_zero():
        raise NonIntegralFactor("graph factor assembly is not integral")
    return _integer_coeffs(quo)


def component_l_factor(piece):
    """Zeta numerator of one component block, in the variable T^(d_j)."""
    if piece["genus"] == 0:
        return [1]
    P = zeta_numerator(piece["n_geo"], piece["equation"], piece["genus"])
    # P(T) -> P(T^d)
    d = piece["d_j"]
    out = [0] * ((len(P) - 1) * d + 1)
    out[::d] = P
    return out


class LFactorResult:
    def __init__(self, p1, graph_factor, component_factors):
        self.p1 = p1
        self.graph_factor = graph_factor
        self.component_factors = component_factors

    def degree(self):
        return len(self.p1) - 1


def local_l_factor(inertial):
    """P1(T) of the inertial reduction, with the degree identity checked
    against dim H^1."""
    graph = graph_h1_charpoly(inertial.component_orbit_sizes(),
                              inertial.node_orbit_data())
    comp_factors = []
    p1 = QPoly(graph)
    for piece in inertial.geometric_components:
        # one zeta factor per Frobenius orbit of geometric components
        pf = component_l_factor(piece)
        comp_factors.append(pf)
        p1 = p1 * QPoly(pf)
    p1 = _integer_coeffs(p1)
    result = LFactorResult(p1, graph, comp_factors)
    if result.degree() != inertial.dim_h1:
        raise DegreeMismatch(
            f"deg P1 = {result.degree()} but dim H^1 = {inertial.dim_h1}")
    if p1[0] != 1:
        raise DegreeMismatch("P1(0) != 1")
    return result


class ConductorResult:
    """f = epsilon + delta; quotient_genera[i] = g - D_i/2 is the genus of
    Ybar/Gamma_i for each i >= 1 with Gamma_i != 1."""

    def __init__(self, epsilon, delta, quotient_genera, bound):
        self.epsilon = epsilon
        self.delta = delta
        self.conductor = epsilon + delta
        self.quotient_genera = quotient_genera
        self.bound = bound


def conductor_exponent(inertial):
    """f = epsilon + delta.

    epsilon = 2 g(Y) - dim H^1(inertial reduction).  As p does not divide
    n, Gamma_i (i >= 1) acts on H^1 through the roots it permutes, and
    dim H^1 - dim H^1^(Gamma_i) is D_i = sum (n - gcd(n, a_O)) (|O| - 1)
    over the Gamma_i-orbits O of the finite branch points, a_O the
    multiplicity of f at O; delta = sum |Gamma_i|/|Gamma_0| D_i (Serre,
    Local Fields, ch. VI), summed exactly before the integrality check.
    The curve is that of ``inertial.ctx``, the filtration that of its group.
    """
    ctx, filt = inertial.ctx, inertial.ctx.G.filt
    n, perm, mults = ctx.curve.n, ctx.act.point_perm, ctx.tree.multiplicities
    g = ctx.curve.genus()
    epsilon = 2 * g - inertial.dim_h1
    gamma0 = filt.gamma(0)
    genera_by_jump = {}
    delta = Fraction(0)
    i = 1
    while len(filt.gamma(i)) > 1:
        subgroup = filt.gamma(i)
        orbits = {frozenset(perm[h][j] for h in subgroup)
                  for j, a in enumerate(mults) if a is not None}
        drop = sum((n - gcd(n, mults[min(o)])) * (len(o) - 1)
                   for o in orbits)
        if drop % 2:
            raise NonIntegralSwan(f"odd genus drop {drop} at jump {i}")
        genera_by_jump[i] = g - drop // 2
        delta += Fraction(len(subgroup), len(gamma0)) * drop
        i += 1
    if delta.denominator != 1:
        raise NonIntegralSwan(f"Swan conductor {delta} is not an integer")
    delta = int(delta)
    # trivial upper bound from the filtration
    h = filt.last_jump
    wild = len(filt.gamma(1))
    bound = 2 * g * (1 + Fraction(h * wild, len(gamma0))) \
        if len(gamma0) > 1 else Fraction(2 * g)
    result = ConductorResult(epsilon, delta, genera_by_jump, bound)
    if result.conductor > bound:
        raise NonIntegralSwan(
            f"conductor {result.conductor} exceeds the trivial bound {bound}")
    return result
