"""Quotients of the special fiber: wild part, tame part, Frobenius descent.

The flow per inertia orbit of tree vertices, at a representative v:

1. wild quotient: the wild stabilizer acts by translations x -> x + b with
   trivial action on y; the invariant coordinate is u = prod (x + b) and
   fbar is rewritten as a polynomial in u (verified by resubstitution);
2. tame quotient: the designated tame generator acts by (u, y) ->
   (c u, gamma y); with m = ord(c), mu = lcm(m, ord(gamma)), s solving
   c^s = gamma^(mu/m), the invariants are w = u^m and z = y^(mu/m) u^(-s),
   giving z^nbar = h(w) with nbar = n m / mu;
3. Frobenius descent: a stabilizing semilinear generator acts on w by an
   affine map; Hilbert-90 systems (solved by F_p-linear algebra, never by
   randomized search) produce an invariant coordinate, and a final unit
   twist makes the equation's coefficients Frobenius-fixed, i.e. the
   component is presented over its true field of definition.  One
   factorization of that equation (``power_class``) gives its splitting
   d_geo over the algebraic closure, the genus of a geometric piece and
   the equation of every piece.

Each Kummer equation is factored once, by the stage that makes it.  The
inertia quotient keeps the vertex's ``VertexReduction.power_class`` when
it leaves (n, fbar_v) as it was, factors h_raw otherwise, and reads its
normal form h_norm off that power class.  A component defined over F_L
(r_v = 1) keeps the quotient's power class; only for r_v > 1, where the
coordinate change and the twist make a new h', is h' factored.

build_inertial_curve(act, fiber) reads G, its filtration and the tree off
the action ``act`` (a ``tree.TreeGaloisAction``) and the curve and L off
the special fiber; the y-scaling of g at v is read off g(pi).  The node
labels of an edge, the solutions omega of omega^d = u0, lie in the unit
group of the algebraic closure of F_p, which is (Q/Z)_(p') by an
isomorphism extending lambda(x) = dlog(x)/(q - 1) on F_L^*; the p-th power
is multiplication by p there.  So the labels are the points
t = (lambda(u0) + k)/d of Q/Z, k < d, kept as the integers D t mod D for
D = (q - 1) lcm(d), and no extension of F_L is built.
On labels, inertia acts with the p^0-power and Frobenius with the p-th
power, t -> p^j t plus lambda of an F_L-scalar, also when f(L) = 1 and
its index in G is an inertia element.  Checked here: wild elements act by
translations fixing y and the equation; every rewrite resubstitutes; the
tame generator scales u; nodes map to nodes; the descent's stabilizer,
Hilbert-90 solutions and Frobenius-fixed coefficients hold.  ``tree``
checks each generator's chart transport at every direction of a vertex.
Failures raise NotInvariant/CocycleInconsistent rather than risking a
wrong L-factor.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import (
    CocycleInconsistent,
    NormNotOne,
    NotInvariant,
)
from .finitefield import (
    FqPoly,
    fq_make,
    power_class,
)


# ---------------------------------------------------------------------------
# rewriting helpers
# ---------------------------------------------------------------------------

def rewrite_in_subalgebra(poly, u_poly):
    """Write poly = sum c_j * u_poly^j with constant c_j, or raise.

    Uniqueness comes from the u-adic expansion with remainders of degree
    < deg(u); invariance of poly forces the remainders to be constants.
    """
    F = poly.field
    rest = poly
    coeffs = []
    while True:
        q, r = rest.divmod(u_poly)
        if r.degree() > 0:
            raise NotInvariant("polynomial does not lie in the subalgebra")
        coeffs.append(r.coeffs[0])
        if q.is_zero():
            break
        rest = q
    out = FqPoly(F, coeffs)
    if out.compose(u_poly) != poly:
        raise NotInvariant("subalgebra rewrite failed resubstitution")
    return out


def rewrite_in_power(poly, m):
    """Rewrite a polynomial in u whose exponents are all divisible by m as
    a polynomial in w = u^m."""
    c = poly.coeffs
    if any(not x.is_zero() for i, x in enumerate(c) if i % m):
        raise NotInvariant(
            "function is not invariant under the scaling action")
    return FqPoly(poly.field, c[::m])


def _constant_ratio(a, b):
    """The constant c with a = c * b, for nonzero polynomials a and b;
    NotInvariant when there is none."""
    c = a.lead() / b.lead()
    if a != b * c:
        raise NotInvariant("witness transport ratio is not constant")
    return c


def _mult_order(x):
    """The multiplicative order (q - 1)/gcd(log x, q - 1) of a unit x."""
    q = x.field.q
    return (q - 1) // gcd(x.field.dlog(x), q - 1)


# ---------------------------------------------------------------------------
# the ambient action context
# ---------------------------------------------------------------------------

class ActionContext:
    """Bundles tree, Galois action and reduction data, and provides the
    induced actions on y-scalings and node labels."""

    def __init__(self, act, fiber):
        self.act = act
        self.fiber = fiber
        self.G, self.tree = act.G, act.tree
        self.curve, self.L = fiber.curve, fiber.tree.L
        self.edge_data = {(en.parent, en.child): en
                          for en in fiber.edge_nodes}
        # a point t of Q/Z with denominator dividing D is kept as D t mod D
        self.D = (self.L.residue_field.q - 1) \
            * lcm(*(en.d for en in fiber.edge_nodes))

    # -- scalars -----------------------------------------------------------

    def gamma(self, g, v):
        """Residue of varpi_(g v) / g(varpi_v): the y-scaling of g at v.
        With varpi_v = pi^k and g(pi) = pi * unit it is the residue of
        unit^-k."""
        k = self.fiber.reductions[v].scaling_exponent
        return self.G.autos[g].pi_img.unit_residue() ** -k

    # -- nodes ---------------------------------------------------------------

    def label(self, x):
        """lambda(x) = dlog(x)/(q - 1) in Q/Z, for x in F_L^*, kept as
        D lambda(x)."""
        return x.field.dlog(x) * (self.D // (x.field.q - 1))

    def nodes(self):
        """All geometric nodes as ((parent, child), D t) pairs, t in Q/Z
        running over the solutions of d t = lambda(u0)."""
        return [(e, (self.label(en.u0) + k * self.D) // en.d)
                for e, en in sorted(self.edge_data.items())
                for k in range(en.d)]

    def node_action(self, g, node, j):
        """Image of a geometric node under g, acting on labels by the
        p^j-power: j = 0 for inertia and j = 1 for Frobenius.  On the
        points of Q/Z that is t -> p^j t + n' lambda(gamma) + a' lambda(a)."""
        (pu, cv), t = node
        perm = self.act.vertex_perm[g]
        e2 = (perm[pu], perm[cv])
        if e2 not in self.edge_data:
            raise CocycleInconsistent("edge image is not an edge")
        en = self.edge_data[(pu, cv)]
        en2 = self.edge_data[e2]
        a, _b = self.act.affine(g, cv)
        t2 = (self.L.p**j * t + en.n_prime * self.label(self.gamma(g, cv))
              + en.a_prime * self.label(a)) % self.D
        if (en2.d * t2 - self.label(en2.u0)) % self.D:
            raise CocycleInconsistent("node label image inconsistent")
        return (e2, t2)


# ---------------------------------------------------------------------------
# orbit machinery
# ---------------------------------------------------------------------------

def orbits(elements, generators, action):
    """Orbit partition of `elements` under action(g, x) for g in generators
    (hashable elements; deterministic order)."""
    index = {x: i for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for g in generators:
        for x in elements:
            y = action(g, x)
            if y not in index:
                raise CocycleInconsistent("image outside the acted-on set")
            union(index[x], index[y])
    groups = {}
    for i, x in enumerate(elements):
        groups.setdefault(find(i), []).append(x)
    return [groups[k] for k in sorted(groups)]


def _frobenius_orbits(elements, G, action):
    """The inertia orbits of `elements` under action(g, x, 0), and on
    those the orbits of Frobenius, action(frob, x, 1), as lists of
    inertia-orbit representatives (first elements), deterministically."""
    i_orbits = orbits(elements, G.inertia, lambda g, x: action(g, x, 0))
    rep_of = {x: cls[0] for cls in i_orbits for x in cls}
    f_orbits = orbits([cls[0] for cls in i_orbits], [G.frobenius_index],
                      lambda g, c: rep_of[action(g, c, 1)])
    return i_orbits, f_orbits


# ---------------------------------------------------------------------------
# inertia quotient at one vertex
# ---------------------------------------------------------------------------

class InertiaQuotient:
    """Invariant data of Ybar_v / I_v in the coordinates (w, z)."""

    __slots__ = ("vertex", "translations", "u_poly", "g_wild", "gamma", "m",
                 "mu", "s", "nbar", "h_raw", "pc", "h_norm", "flagged")

    def __init__(self, ctx, v):
        self.vertex = v
        F = ctx.L.residue_field
        n = ctx.curve.n
        red = ctx.fiber.reductions[v]

        # wild part
        self.translations, self.u_poly, self.g_wild = _translation_quotient(
            ctx, ctx.act.wild_stabilizer(v), v, red.fbar)

        # tame part
        sg = ctx.act.tame_generator(v)
        c_u, b_u = _u_action(ctx, self.u_poly, sg, v)
        if not b_u.is_zero():
            raise NotInvariant("tame generator translates the quotient "
                               "coordinate")
        if c_u.is_zero():
            raise NotInvariant("degenerate tame action on u")
        gam = ctx.gamma(sg, v)
        self.gamma = gam
        m = _mult_order(c_u)
        mu = lcm(m, _mult_order(gam))
        self.m, self.mu = m, mu
        if n % (mu // m):
            raise NotInvariant("mu/m does not divide n")
        self.nbar = n // (mu // m)
        target = gam ** (mu // m)
        s, acc = None, F.one()
        for k in range(m):
            if acc == target:
                s = k
                break
            acc = acc * c_u
        if s is None:
            raise NotInvariant("gamma^(mu/m) is not a power of c")
        self.s = s
        # z^nbar = g_wild / u^(s nbar) = (g_wild / u^j0) w^k with j0 the
        # lowest exponent of g_wild and w^k = u^(j0 - s nbar); h_raw keeps
        # w^(k mod nbar), an nbar-th power away from w^k
        c = self.g_wild.coeffs
        j0 = next(j for j, x in enumerate(c) if not x.is_zero())
        k, r = divmod(j0 - s * self.nbar, m)
        if r:
            raise NotInvariant(
                "function is not invariant under the scaling action")
        self.h_raw = rewrite_in_power(FqPoly(F, c[j0:]), m) \
            * FqPoly.x(F) ** (k % self.nbar)
        # the vertex's power class when the quotient left fbar as it was
        self.pc = red.power_class if (self.nbar, self.h_raw) == (n, red.fbar) \
            else power_class(self.h_raw, self.nbar)
        self.h_norm = self.pc.normal_form()
        self.flagged = (mu // m) == n


def _translation_quotient(ctx, elements, v, poly):
    """(translations, u, poly in u) for elements of the wild stabilizer of
    v: each acts by x -> x + b with trivial action on y, u is the product
    of the x + b, and poly, invariant under every b, is rewritten in u."""
    F = ctx.L.residue_field
    translations = set()
    for g in elements:
        a, b = ctx.act.affine(g, v)
        if a != F.one() or ctx.gamma(g, v) != F.one():
            raise NotInvariant("wild element acts beyond a translation")
        translations.add(b)
    translations = sorted(translations, key=lambda x: x.index())
    x = FqPoly.x(F)
    u = FqPoly(F, [F.one()])
    for b in translations:
        u = u * (x + FqPoly.constant(b))
        if poly.shift(b) != poly:
            raise NotInvariant("equation not invariant under the wild "
                               "translations")
    return translations, u, rewrite_in_subalgebra(poly, u)


def _u_action(ctx, u_poly, g, v):
    """(c, b) with psi_g(u) = c*u + b for a vertex-stabilizing g."""
    F = ctx.L.residue_field
    a, b = ctx.act.affine(g, v)
    lin = FqPoly(F, [b, a])
    moved = u_poly.map_coeffs(ctx.G.autos[g].residue_action).compose(lin)
    if moved.degree() < u_poly.degree():
        raise NotInvariant("u transport dropped degree")
    lin_u = rewrite_in_subalgebra(moved, u_poly)
    if lin_u.degree() > 1:
        raise NotInvariant("image of u is not linear in u")
    c = lin_u.coeffs[1] if lin_u.degree() == 1 else F.zero()
    b_u = lin_u.coeffs[0]
    return c, b_u


def _w_action(ctx, iq, g):
    """Affine action (abar, bbar) of a stabilizing semilinear g on w = u^m."""
    at, bt = _u_action(ctx, iq.u_poly, g, iq.vertex)
    if iq.m == 1:
        return at, bt
    if not bt.is_zero():
        raise NotInvariant("semilinear element translates u although m > 1")
    return at**iq.m, bt


# ---------------------------------------------------------------------------
# Hilbert 90 by F_p-linear algebra
# ---------------------------------------------------------------------------

def _fp_row_reduce(A, m, p):
    """Gauss-Jordan elimination over F_p on the first m columns of A, in
    place; returns the pivot columns, the i-th pivot sitting in row i."""
    pivots = []
    for c in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(A)) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] % p:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return pivots


def _fp_kernel(rows, p):
    m = len(rows[0])
    A = [row[:] for row in rows]
    pivots = _fp_row_reduce(A, m, p)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [0] * m
        vec[fc] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-A[r][fc]) % p
        basis.append(vec)
    return basis


def _fp_solve(rows, rhs, p):
    m = len(rows[0])
    A = [row[:] + [b % p] for row, b in zip(rows, rhs)]
    pivots = _fp_row_reduce(A, m, p)
    if any(A[i][m] % p for i in range(len(pivots), len(A))):
        return None
    sol = [0] * m
    for i, c in enumerate(pivots):
        sol[c] = A[i][m]
    return sol


def _semilinear_matrix(abar, power):
    """Rows of the F_p-linear map x -> x^(p^power) - abar * x."""
    F = abar.field
    cols = []
    for j in range(F.k):
        e = F.from_index(F.p**j)
        cols.append(e.frobenius(power) - abar * e)
    return [[cols[j].coeffs[i] for j in range(F.k)] for i in range(F.k)]


def solve_mult_h90(abar, power):
    """alpha != 0 with alpha^(p^power) = abar * alpha."""
    rows = _semilinear_matrix(abar, power)
    for vec in _fp_kernel(rows, abar.field.p):
        cand = abar.field.element(tuple(vec))
        if not cand.is_zero():
            return cand
    raise NormNotOne("multiplicative Hilbert 90 has no solution "
                     "(norm of the cocycle is not 1)")


def solve_add_h90(abar, bbar, power):
    """beta with beta^(p^power) - abar * beta = bbar."""
    rows = _semilinear_matrix(abar, power)
    sol = _fp_solve(rows, list(bbar.coeffs), abar.field.p)
    if sol is None:
        raise NormNotOne("additive Hilbert 90 has no solution")
    return abar.field.element(tuple(sol))


def _fix_coefficients(eq, nbar, power):
    """Twist eq by delta^nbar so all coefficients are fixed by
    x -> x^(p^power); exhaustive deterministic search."""
    F = eq.field
    def fixed(poly):
        return all(c.frobenius(power) == c for c in poly.coeffs)

    if fixed(eq):
        return eq
    for idx in range(1, F.q):
        delta = F.from_index(idx)
        if delta.is_zero():
            continue
        cand = eq * (delta**nbar)
        if fixed(cand):
            return cand
    raise NormNotOne("no unit twist makes the equation Frobenius-fixed")


def _subfield_poly(Fsub, eq):
    """Rewrite a polynomial with Frobenius-fixed coefficients over Fsub."""
    emb = Fsub.embedding(eq.field)
    table = {}
    for idx in range(Fsub.q):
        x = Fsub.from_index(idx)
        table[emb(x).coeffs] = x
    out = []
    for c in eq.coeffs:
        if c.coeffs not in table:
            raise NotInvariant("coefficient not in the expected subfield")
        out.append(table[c.coeffs])
    return FqPoly(Fsub, out)


# ---------------------------------------------------------------------------
# Frobenius descent of one vertex orbit
# ---------------------------------------------------------------------------

class DescendedComponent:
    """One irreducible component block of the inertial reduction: an orbit
    of tree vertices with a Kummer equation over its field of definition,
    split into geometric pieces with their Frobenius orbit sizes d_j."""

    __slots__ = ("rep", "orbit_classes", "d_v", "nbar", "flagged", "h_prime",
                 "d_geo", "genus_geometric", "geometric_pieces", "quotient")

    def __init__(self, ctx, iq, d_v, stab_generator):
        F = ctx.L.residue_field
        self.rep = iq.vertex
        self.d_v = d_v
        self.nbar = iq.nbar
        self.flagged = iq.flagged
        self.quotient = iq
        r_v = F.k // d_v if d_v and F.k % d_v == 0 else None
        if r_v is None:
            raise CocycleInconsistent("orbit size does not divide [F_L:F_p]")
        if r_v > 1:
            g = stab_generator
            if ctx.G.autos[g].res_power != d_v % F.k:
                raise CocycleInconsistent(
                    "stabilizer generator has the wrong residue power")
            abar, bbar = _w_action(ctx, iq, g)
            power = d_v
            alpha = solve_mult_h90(abar, power)
            beta = solve_add_h90(abar, bbar, power)
            # w = alpha w' + beta is the invariant coordinate change; it
            # maps the factors of h to factors with the same exponents, so
            # h2 stays in normal form
            h2 = iq.h_norm.compose(FqPoly(F, [beta, alpha]))
            self.h_prime = _fix_coefficients(h2, self.nbar, power)
            pcL = power_class(self.h_prime, self.nbar)
        else:
            # h' = h_norm, whose power class is that of h_raw: the sheet
            # equations reduce exponents mod n_v, and the p^(d_v)-power is
            # the identity on F_L
            self.h_prime = iq.h_norm
            pcL = iq.pc
        # geometric splitting over F_L
        if pcL.d_max != pcL.d_geo:
            raise NotInvariant("component does not split over F_L as the "
                               "theory requires")
        self.d_geo = pcL.d_geo
        n_geo = pcL.n_v
        witness = pcL.witness
        self.genus_geometric = 0 if self.flagged else pcL.genus
        # Frobenius (p^(d_v)-power) action on the component labels
        omega = _constant_ratio(
            witness.map_coeffs(lambda c: c.frobenius(d_v)), witness)
        pieces = []
        for orb in orbits(F.roots_of_unity(self.d_geo), [d_v],
                          lambda k, z: z.frobenius(k) * omega):
            zeta0 = orb[0]
            d_j = d_v * len(orb)
            eq = pcL.sheet_equation(zeta0)
            eq = _fix_coefficients(eq, n_geo, d_j)
            Fj = fq_make(F.p, d_j)
            pieces.append({
                "d_j": d_j,
                "field": Fj,
                "equation": _subfield_poly(Fj, eq),
                "n_geo": n_geo,
                "genus": self.genus_geometric,
            })
        self.geometric_pieces = pieces

    def geometric_count(self):
        return self.d_geo * self.d_v


class InertialCurve:
    """The inertial reduction with everything the L-factor needs."""

    def __init__(self, ctx):
        self.ctx = ctx
        G = ctx.G
        frob = G.frobenius_index
        i_orbits, f_orbits = _frobenius_orbits(
            [v.index for v in ctx.tree.vertices], G,
            lambda g, v, j: ctx.act.vertex_perm[g][v])
        # inertia quotients at orbit representatives
        self.iq = {cls[0]: InertiaQuotient(ctx, cls[0]) for cls in i_orbits}
        self.components = []
        for orbit_cls in f_orbits:
            c0 = orbit_cls[0]
            d_v = len(orbit_cls)
            # stabilizing generator: rho o frob^(d_v) fixing c0's vertex
            g = G.identity_index
            for _ in range(d_v):
                g = G.compose(frob, g)
            w = ctx.act.vertex_perm[g][c0]
            rho = None
            for i in G.inertia:
                if ctx.act.vertex_perm[i][w] == c0:
                    rho = i
                    break
            if rho is None:
                raise CocycleInconsistent("no inertia correction for the "
                                          "Frobenius power")
            g = G.compose(rho, g)
            if ctx.act.vertex_perm[g][c0] != c0:
                raise CocycleInconsistent("stabilizer generator fails")
            comp = DescendedComponent(ctx, self.iq[c0], d_v, g)
            comp.orbit_classes = orbit_cls
            self.components.append(comp)

        # geometric components over k and their Frobenius orbit sizes
        self.geometric_components = [piece for comp in self.components
                                     for piece in comp.geometric_pieces]

        # nodes; epsilon is structurally trivial here: Galois elements
        # preserve disc radii, so an edge can never map to itself with its
        # endpoints (parent/child) exchanged
        node_i_orbits, node_f_orbits = _frobenius_orbits(
            ctx.nodes(), G, ctx.node_action)
        self.node_orbits = [{"size": len(orb), "epsilon": 1}
                            for orb in node_f_orbits]
        self.n_geometric_nodes = len(node_i_orbits)
        self.n_geometric_components = sum(c.geometric_count()
                                          for c in self.components)
        self.b1_k = self.n_geometric_nodes - self.n_geometric_components + 1
        self.dim_h1 = 2 * sum(p["genus"] for p in self.geometric_components) \
            + self.b1_k

    def component_orbit_sizes(self):
        return sorted(p["d_j"] for p in self.geometric_components)

    def node_orbit_data(self):
        return sorted((o["size"], o["epsilon"]) for o in self.node_orbits)


def build_inertial_curve(act, fiber):
    return InertialCurve(ActionContext(act, fiber))

