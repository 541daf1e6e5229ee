"""The stably marked tree of (P^1, branch divisor) over L.

Vertices are the clusters of the marked points (Dokchitser-Dokchitser-
Maistret-Morgan, arXiv:1808.02936): the discs D(a_i, v(a_i - a_j)) cut out
by the pairwise valuations of the finite points, kept when they have at
least three directions.  The directions of a disc are the residue classes
of the finite points in it, plus "outside" for the points not in it and
for infinity.  The pairwise valuations are the only p-adic subtractions,
and a vertex is identified by its member set, the finite points in its
disc.

The chart of a vertex sends the lexicographically first ordered triple of
marked points in three distinct directions to (0, 1, oo).  Once per
vertex, the partition of the marked points by direction is cross-checked
against their partition into chart-reduction fibers, and the reductions
are kept (``Vertex.red``); every later move of the chart is applied to
them on residues.  Chart values in P^1(F_L) are ratios of leading
residues, so no evaluation divides in L.

Edges are cluster inclusion: the parent of a vertex is the smallest vertex
whose member set strictly contains its own.  Every Galois element permutes
the marked points isometrically, so it maps a vertex to the vertex whose
members are the images of its members, and it never inverts an edge.
Only the generators of Gal(L/Q_p) are applied, and only to the branch
points; the permutations of the other elements are composed along the
words of the group, and the chart transports are read off the residues
of three marked points and of their images.  ``galois_on_tree(G, tree)``
reads the wild inertia Gamma_1 off the filtration that G carries
(``G.filt``).
"""

from __future__ import annotations

from .errors import (
    MatrixNotIntegral,
    NoRationalFixedPoint,
    NotInvariant,
    NotSplit,
    PrecisionExhausted,
)
from .finitefield import INF as INF_POINT  # the marked point at infinity
from .localfield import INFINITE, KeyedImages, sort_key


class Vertex:
    __slots__ = ("index", "chart", "red", "disc_center", "disc_radius",
                 "partition", "members", "marked", "parent", "children")

    def __init__(self, index, chart, disc_center, disc_radius, partition,
                 members, red):
        self.index = index
        self.chart = chart              # 2x2 matrix (tuple of 4 L-elements)
        self.red = red                  # point id -> chart value in P^1(F_L)
        self.disc_center = disc_center
        self.disc_radius = disc_radius  # pi-units
        self.partition = partition      # frozenset of frozensets of point ids
        self.members = members          # frozenset: finite points in the disc
        self.marked = []
        self.parent = None
        self.children = []

    def __repr__(self):
        return f"v{self.index}(r={self.disc_radius})"


class MarkedTree:
    def __init__(self, L, points, multiplicities, vertices, psi, root, edges):
        self.L = L
        self.points = points        # list: LocalFieldElement or INF_POINT
        self.multiplicities = multiplicities  # in f; None for infinity
        self.vertices = vertices
        self.psi = psi              # point index -> vertex index
        self.root = root
        self.edges = edges          # list of (parent_index, child_index)

    def vertex_count(self):
        return len(self.vertices)

    def direction_of_vertex(self, v, w):
        """Residue direction of the (smaller) disc of w on the component
        of v: the chart value of any of its members."""
        return self.vertices[v].red[min(self.vertices[w].members)]


# ---------------------------------------------------------------------------
# Moebius charts
# ---------------------------------------------------------------------------

def triple_chart(L, points, t):
    """Matrix of the chart sending t = (alpha, beta, gamma) to (0, 1, oo)."""
    a, b, g = (points[i] for i in t)
    one = L.one()
    if a == INF_POINT:
        return (L.zero(), b - g, one, -g)
    if b == INF_POINT:
        return (one, -a, one, -g)
    if g == INF_POINT:
        d = b - a
        return (one, -a, L.zero(), d)
    u = (b - g) / (b - a)
    return (u, -(u * a), one, -g)


def matrix_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def moebius_eval(m, x, L):
    """Value of the Moebius map in P^1(F_L): FqElement or INF_POINT."""
    a, b, c, d = m
    if x == INF_POINT:
        num, den = a, c
    else:
        num, den = a * x + b, c * x + d
    vn = num.valuation_or_none()
    vd = den.valuation_or_none()
    if vn in (None,) and vd in (None,):
        raise PrecisionExhausted("Moebius value indeterminate")
    if vd in (None, INFINITE):
        return INF_POINT
    if vn in (None, INFINITE) or vn > vd:
        return L.residue_field.zero()
    if vn < vd:
        return INF_POINT
    return num.unit_residue() / den.unit_residue()


def residue_eval(m, x):
    """Value at x in P^1(F_L) of the Moebius map of an invertible matrix
    over F_L."""
    a, b, c, d = m
    num, den = (a, c) if x == INF_POINT else (a * x + b, c * x + d)
    return INF_POINT if den.is_zero() else num / den


def normalize_pgl2(red):
    """Canonical representative of a PGL_2(F) class: first nonzero entry 1."""
    for x in red:
        if not x.is_zero():
            inv = x.inverse()
            return tuple(y * inv for y in red)
    raise MatrixNotIntegral("zero matrix")


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------

OUTSIDE = -1  # direction of the points outside a disc, and of infinity


def _pairwise_valuations(points):
    """val[i][j] = v(a_i - a_j) for distinct finite points i, j (None when
    either is infinity); NotSplit when two points coincide."""
    m = len(points)
    val = [[None] * m for _ in range(m)]
    finite = [i for i in range(m) if points[i] != INF_POINT]
    for x, i in enumerate(finite):
        for j in finite[x + 1:]:
            v = (points[i] - points[j]).valuation_or_none()
            if v in (INFINITE, None):
                raise NotSplit("two marked points coincide (to precision)")
            val[i][j] = val[j][i] = v
    return finite, val


def _phi_partition(red):
    """Partition of the marked points by their chart reductions ``red``."""
    fibers = {}
    for j, val in enumerate(red):
        fibers.setdefault(val, []).append(j)
    return frozenset(frozenset(f) for f in fibers.values())


def _cluster_vertices(L, points, finite, val):
    """The clusters with at least three directions, as vertices ordered by
    radius, then by the digits of the center, then by first triple."""
    m = len(points)
    seen = set()
    classes = []  # (triple, center, radius, partition, chart, members, red)
    for x, i in enumerate(finite):
        for j in finite[x + 1:]:
            r = val[i][j]
            members = frozenset(k for k in finite
                                if k == i or val[i][k] >= r)
            if members in seen:
                continue
            seen.add(members)
            # a direction is named by the smallest point in it
            d = [next(l for l in finite if l == k or val[k][l] > r)
                 if k in members else OUTSIDE for k in range(m)]
            blocks = {}
            for k, dk in enumerate(d):
                blocks.setdefault(dk, []).append(k)
            if len(blocks) < 3:
                continue
            b = next(k for k in range(m) if d[k] != d[0])
            g = next(k for k in range(m) if d[k] not in (d[0], d[b]))
            t = (0, b, g)
            # the center is the first of the first pair at distance r
            fin = [k for k in t if points[k] != INF_POINT]
            c = next(k for y, k in enumerate(fin)
                     if any(val[k][l] == r for l in fin[y + 1:]))
            partition = frozenset(frozenset(f) for f in blocks.values())
            chart = triple_chart(L, points, t)
            red = [moebius_eval(chart, x, L) for x in points]
            if _phi_partition(red) != partition:
                raise NotInvariant("disc model and chart-fiber model disagree")
            classes.append((t, points[c], r, partition, chart, members, red))
    classes.sort(key=lambda c: c[0])
    classes.sort(key=lambda c: (c[2],) + sort_key(c[1]))
    return [Vertex(idx, chart, center, r, partition, members, red)
            for idx, (_, center, r, partition, chart, members, red)
            in enumerate(classes)]


def build_tree(divisor, L):
    """Stably marked tree of (P^1, D_L).  D_L must split over L and have at
    least three points."""
    points = [bp.value if not bp.is_infinity else INF_POINT
              for bp in divisor.points]
    m = len(points)
    if m < 3:
        raise NotSplit("need at least three marked points")
    finite, val = _pairwise_valuations(points)
    vertices = _cluster_vertices(L, points, finite, val)

    # specialization: delta goes to the unique vertex isolating it
    psi = []
    for j in range(m):
        hits = [v.index for v in vertices
                if frozenset([j]) in v.partition]
        if len(hits) != 1:
            raise NotInvariant(
                f"marked point {j} isolated on {len(hits)} vertices")
        psi.append(hits[0])
        vertices[hits[0]].marked.append(j)

    # edges: covering relations of cluster inclusion
    edges = []
    root = None
    for v in vertices:
        parents = [u for u in vertices if u.members > v.members]
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
    tree = MarkedTree(L, points, [bp.multiplicity for bp in divisor.points],
                      vertices, psi, root, sorted(edges))

    # valence >= 3 for a stably marked tree
    for v in vertices:
        deg = len(v.children) + (0 if v.parent is None else 1)
        if len(v.marked) + deg < 3:
            raise NotInvariant(f"vertex {v.index} has valence < 3")

    # normalize every chart so the direction toward infinity is at x = oo,
    # and move the chart values along by x -> 1 / (x - p1)
    F = L.residue_field
    for v in vertices:
        p1 = moebius_eval(v.chart, INF_POINT, L)
        if p1 != INF_POINT:
            v.chart = matrix_mul((L.zero(), L.one(), L.one(),
                                  -L.from_residue(p1)), v.chart)
            if moebius_eval(v.chart, INF_POINT, L) != INF_POINT:
                raise NoRationalFixedPoint("chart normalization failed")
            mat = (F.zero(), F.one(), F.one(), -p1)
            v.red = [residue_eval(mat, x) for x in v.red]
    return tree


# ---------------------------------------------------------------------------
# Galois action on the tree
# ---------------------------------------------------------------------------

class TreeGaloisAction:
    """Vertex/point permutations for every Galois element, stabilizers,
    and reduced chart-comparison matrices.

    Only the generators of G are applied, and only to the branch points.
    A point image is found by its coordinate key (``localfield.
    KeyedImages``) at the least depth k <= N//2 that separates the finite
    points, and the hit is confirmed by one subtraction, so exactly one
    point lies within half precision of the image.  The permutations of
    another element are composed along the words of G: pp[g o t] =
    pp[g] o pp[t].  The chart transport M(g, v), with psi_g(x_v) =
    M(x_{g(v)}) on reductions, sends red_{g v}(g P) to sigma_g(red_v(P))
    for every marked point P, sigma_g acting on F_L by its Frobenius
    power: it is read off the least points P of the first three
    directions of v (``frames``) and checked, for each generator, at the
    least point of every further direction.  The cocycle rule then holds
    because the permutations compose and Frobenius powers add."""

    def __init__(self, G, tree):
        self.G = G
        self.tree = tree
        L, points, vertices = tree.L, tree.points, tree.vertices
        finite = [j for j, x in enumerate(points) if x != INF_POINT]
        what = "Galois image of a branch point"
        keyed = KeyedImages([(points[j],) for j in finite], L.N // 2 + 1,
                            what, min([0] + [points[j].shift for j in finite]))
        by_members = {v.members: v.index for v in vertices}
        edge_set = set(tree.edges)
        gen_pp, gen_vp = {}, {}
        for g in G.generators:
            pp = gen_pp[g] = list(range(len(points)))
            for j in finite:
                img = G.autos[g].apply(points[j])
                pp[j] = finite[keyed.find((img,))]
                if not _big(points[pp[j]] - img, L):
                    raise PrecisionExhausted(f"cannot identify {what}")
            vp = gen_vp[g] = [by_members.get(frozenset(pp[j]
                                                       for j in v.members))
                              for v in vertices]
            if None in vp:
                raise PrecisionExhausted(
                    "cannot identify Galois image of a vertex")
            # member-set sizes are preserved, so no edge is inverted; the
            # composed permutations are graph automorphisms too
            if any((vp[a], vp[b]) not in edge_set for a, b in tree.edges):
                raise NotInvariant("Galois image of an edge is not an edge")
        self.point_perm = G.extend(gen_pp, len(points))
        self.vertex_perm = G.extend(gen_vp, len(vertices))
        V = range(len(vertices))
        self.stabilizer = [[g for g in range(G.order())
                            if self.vertex_perm[g][v] == v] for v in V]
        # the least point of each direction of v, in increasing order
        self.frames = [sorted(min(b) for b in v.partition) for v in vertices]
        self._normalize_tame_charts()
        self._matrices = [[self._transport(g, v) for v in V]
                          for g in range(G.order())]
        for g in G.generators:
            for v in V:
                src, dst = self._images(g, v, self.frames[v][3:])
                if [residue_eval(self._matrices[g][v], x) for x in src] != dst:
                    raise NotInvariant("chart transport disagrees with the "
                                       "Galois image of a point")

    # -- chart transport ---------------------------------------------------

    def _images(self, g, v, points):
        """The lists red_{g v}(g P) and sigma_g(red_v(P)) over the marked
        points P given."""
        pp, sigma = self.point_perm[g], self.G.autos[g]
        red_v = self.tree.vertices[v].red
        red_gv = self.tree.vertices[self.vertex_perm[g][v]].red
        return ([red_gv[pp[j]] for j in points],
                [red_v[j] if red_v[j] == INF_POINT
                 else sigma.residue_action(red_v[j]) for j in points])

    def _transport(self, g, v):
        """The normalized map of P^1(F_L) sending the first list of
        ``_images`` to the second on the first three frame points of v."""
        F = self.tree.L.residue_field
        src, dst = self._images(g, v, self.frames[v][:3])
        a, b, c, d = triple_chart(F, dst, (0, 1, 2))
        return normalize_pgl2(matrix_mul((d, -b, -c, a),
                                         triple_chart(F, src, (0, 1, 2))))

    def matrix(self, g, v):
        """Reduced matrix M with psi_g(x_v) = M(x_{g(v)}) on reductions."""
        return self._matrices[g][v]

    def affine(self, g, v):
        """(a, b) with M(g, v) the affine map x -> a x + b; raises
        NoRationalFixedPoint when M(g, v) moves infinity."""
        return _affine(self.matrix(g, v))

    def wild_stabilizer(self, v):
        return sorted(set(self.stabilizer[v]) & set(self.G.filt.gamma(1)))

    def tame_generator(self, v):
        """Smallest element of I_v whose image generates I_v / P_v."""
        I_v = sorted(set(self.stabilizer[v]) & set(self.G.inertia))
        P_v = set(self.wild_stabilizer(v))
        quot = len(I_v) // len(P_v)
        for g in I_v:
            k, h = 1, g
            while h not in P_v:
                h = self.G.compose(h, g)
                k += 1
            if k == quot:
                return g
        raise NotInvariant("inertia stabilizer has no tame generator")

    def _normalize_tame_charts(self):
        """Move the second fixed point of the designated tame generator to
        x = 0 whenever it acts with multiplier != 1 (after this, every
        stabilizer element acts affinely and sigma-hat acts x -> a x)."""
        L, F = self.tree.L, self.tree.L.residue_field
        for v in self.tree.vertices:
            # M(g, v) for g in stab(v) reads only v.red; this raises unless
            # every element of stab(v) acts affinely
            maps = {g: _affine(self._transport(g, v.index))
                    for g in self.stabilizer[v.index]}
            a, b = maps[self.tame_generator(v.index)]
            if a != F.one() and not b.is_zero():
                c = b / (F.one() - a)
                v.chart = matrix_mul((L.one(), -L.from_residue(c), L.zero(),
                                      L.one()), v.chart)
                v.red = [residue_eval((F.one(), -c, F.zero(), F.one()), x)
                         for x in v.red]


def _affine(red):
    """(a, b) with the reduced matrix ``red`` the affine map x -> a x + b;
    raises NoRationalFixedPoint when it moves infinity."""
    if not red[2].is_zero():
        raise NoRationalFixedPoint("non-affine chart transport")
    d_inv = red[3].inverse()
    return red[0] * d_inv, red[1] * d_inv


def _big(x, L):
    v = x.valuation_or_none()
    return v in (None, INFINITE) or v >= L.e * (L.N // 2)


def galois_on_tree(G, tree):
    return TreeGaloisAction(G, tree)
