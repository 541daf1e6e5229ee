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
against their partition into chart-reduction fibers.  Chart values in
P^1(F_L) are ratios of leading residues, so no evaluation divides in L.

Edges are cluster inclusion: the parent of a vertex is the smallest vertex
whose member set strictly contains its own.  Every Galois element permutes
the marked points isometrically, so it maps a vertex to the vertex whose
members are the images of its members, and it never inverts an edge.
Only the generators of Gal(L/Q_p) are applied, to the branch points and
to the charts; the permutations and chart matrices of the other elements
are composed along the words of the group.  ``galois_on_tree(G, tree)``
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
from .localfield import INFINITE, KeyedImages, gauss_reduce, sort_key


class Vertex:
    __slots__ = ("index", "chart", "disc_center", "disc_radius",
                 "partition", "members", "marked", "parent", "children")

    def __init__(self, index, chart, disc_center, disc_radius, partition,
                 members):
        self.index = index
        self.chart = chart              # 2x2 matrix (tuple of 4 L-elements)
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
    def __init__(self, L, points, vertices, psi, root, edges):
        self.L = L
        self.points = points        # list: LocalFieldElement or INF_POINT
        self.vertices = vertices
        self.psi = psi              # point index -> vertex index
        self.root = root
        self.edges = edges          # list of (parent_index, child_index)

    def vertex_count(self):
        return len(self.vertices)

    def direction_of_vertex(self, v, w):
        """Residue direction of the (smaller) disc of w on the component
        of v."""
        return moebius_eval(self.vertices[v].chart,
                            self.vertices[w].disc_center, self.L)


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


def _scale_matrix_integral(m, L):
    """Gauss reduction of a matrix over L: its entries divided by pi^mu,
    mu the least entry valuation, then reduced; raises MatrixNotIntegral
    if the reduction is singular."""
    _, red = gauss_reduce(m, L)
    det = red[0] * red[3] - red[1] * red[2]
    if det.is_zero():
        raise MatrixNotIntegral("reduced chart-comparison matrix is singular")
    return tuple(red)


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


def _phi_partition(L, points, chart):
    """Partition of the marked points by their chart-reduction fibers."""
    fibers = {}
    for j in range(len(points)):
        val = moebius_eval(chart, points[j], L)
        key = val if val == INF_POINT else ("pt", val.coeffs)
        fibers.setdefault(key, []).append(j)
    return frozenset(frozenset(f) for f in fibers.values())


def _cluster_vertices(L, points, finite, val):
    """The clusters with at least three directions, as vertices ordered by
    radius, then by the digits of the center, then by first triple."""
    m = len(points)
    seen = set()
    classes = []  # (first triple, center, radius, partition, chart, members)
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
            if _phi_partition(L, points, chart) != partition:
                raise NotInvariant("disc model and chart-fiber model disagree")
            classes.append((t, points[c], r, partition, chart, members))
    classes.sort(key=lambda c: c[0])
    classes.sort(key=lambda c: (c[2],) + sort_key(c[1]))
    return [Vertex(idx, chart, center, r, partition, members)
            for idx, (_, center, r, partition, chart, members)
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
    tree = MarkedTree(L, points, vertices, psi, root, sorted(edges))

    # valence >= 3 for a stably marked tree
    for v in vertices:
        deg = len(v.children) + (0 if v.parent is None else 1)
        if len(v.marked) + deg < 3:
            raise NotInvariant(f"vertex {v.index} has valence < 3")

    # normalize every chart so the direction toward infinity is at x = oo
    for v in vertices:
        p1 = moebius_eval(v.chart, INF_POINT, L)
        if p1 != INF_POINT:
            lift = L.from_residue(p1)
            mat = (L.zero(), L.one(), L.one(), -lift)
            v.chart = matrix_mul(mat, v.chart)
            if moebius_eval(v.chart, INF_POINT, L) != INF_POINT:
                raise NoRationalFixedPoint("chart normalization failed")
    return tree


# ---------------------------------------------------------------------------
# Galois action on the tree
# ---------------------------------------------------------------------------

class TreeGaloisAction:
    """Vertex/point permutations for every Galois element, stabilizers,
    and reduced chart-comparison matrices.

    Only the generators of G are applied: to the branch points, and to the
    four entries of a chart.  A point image is found by its coordinate key
    (``localfield.KeyedImages``) at the least depth k <= N//2 that
    separates the finite points, and the hit is confirmed by one
    subtraction, so exactly one point lies within half precision of the
    image.  Everything for another element is composed along the words of
    G: pp[g o t] = pp[g] o pp[t] for points and vertices, and the cocycle
    rule M(g o t, v) = g(M(t, v)) . M(g, t(v)) in PGL_2(F_L) for chart
    matrices, g acting on residues by its Frobenius power."""

    def __init__(self, G, tree):
        self.G = G
        self.tree = tree
        L, points = tree.L, tree.points
        finite = [j for j, x in enumerate(points) if x != INF_POINT]
        what = "Galois image of a branch point"
        keyed = KeyedImages([(points[j],) for j in finite], L.N // 2 + 1,
                            what, min([0] + [points[j].shift for j in finite]))
        by_members = {v.members: v.index for v in tree.vertices}
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
                              for v in tree.vertices]
            if None in vp:
                raise PrecisionExhausted(
                    "cannot identify Galois image of a vertex")
            # member-set sizes are preserved, so no edge is inverted; the
            # composed permutations are graph automorphisms too
            if any((vp[a], vp[b]) not in edge_set for a, b in tree.edges):
                raise NotInvariant("Galois image of an edge is not an edge")
        self.point_perm = G.extend(gen_pp, len(points))
        self.vertex_perm = G.extend(gen_vp, len(tree.vertices))
        self.stabilizer = []
        for v in tree.vertices:
            self.stabilizer.append(sorted(
                g for g in range(G.order())
                if self.vertex_perm[g][v.index] == v.index))
        self._matrix_cache = {}
        self._normalize_tame_charts()

    # -- chart transport ---------------------------------------------------

    def matrix(self, g, v):
        """Reduced matrix M with psi_g(x_v) = M(x_{g(v)}) on reductions."""
        key = (g, v)
        if key in self._matrix_cache:
            return self._matrix_cache[key]
        G, tree = self.G, self.tree
        F = tree.L.residue_field
        if g == G.identity_index:
            red = (F.one(), F.zero(), F.zero(), F.one())
        elif g in G.generators:  # before words, which hold (g, 1) too
            # sigma(A_v) . adj(A_{g v}), Gauss-reduced
            sigma = G.autos[g]
            gA = tuple(sigma.apply(x) for x in tree.vertices[v].chart)
            a, b, c, d = tree.vertices[self.vertex_perm[g][v]].chart
            red = normalize_pgl2(_scale_matrix_integral(
                matrix_mul(gA, (d, -b, -c, a)), tree.L))
        else:
            h, x = G.words[g]
            red = self._cocycle(h, x, v)
        self._matrix_cache[key] = red
        return red

    def _cocycle(self, s, t, v):
        """M(s o t, v) = s(M(t, v)) . M(s, t(v)), normalized."""
        sigma = self.G.autos[s]
        sM_t = tuple(sigma.residue_action(x) for x in self.matrix(t, v))
        return normalize_pgl2(matrix_mul(
            sM_t, self.matrix(s, self.vertex_perm[t][v])))

    def affine(self, g, v):
        """(a, b) with M(g, v) the affine map x -> a x + b; raises
        NoRationalFixedPoint when M(g, v) moves infinity."""
        red = self.matrix(g, v)
        if not red[2].is_zero():
            raise NoRationalFixedPoint("non-affine chart transport")
        d_inv = red[3].inverse()
        return red[0] * d_inv, red[1] * d_inv

    def inertia_stabilizer(self, v):
        return sorted(set(self.stabilizer[v]) & set(self.G.inertia))

    def wild_stabilizer(self, v):
        return sorted(set(self.stabilizer[v]) & set(self.G.filt.gamma(1)))

    def tame_generator(self, v):
        """Smallest element of I_v whose image generates I_v / P_v."""
        I_v = self.inertia_stabilizer(v)
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
        tree = self.tree
        L = tree.L
        one = L.residue_field.one()
        # M(g, v) for g in stab(v) depends only on the chart of v, so every
        # translation is read off the original charts before any chart moves
        moves = {}
        for v in tree.vertices:
            for g in self.stabilizer[v.index]:
                self.affine(g, v.index)  # raises unless affine
            a, b = self.affine(self.tame_generator(v.index), v.index)
            if a != one and not b.is_zero():
                moves[v.index] = L.from_residue(b / (one - a))
        for i, c in moves.items():
            v = tree.vertices[i]
            v.chart = matrix_mul((L.one(), -c, L.zero(), L.one()), v.chart)
        self._matrix_cache = {
            (g, w): m for (g, w), m in self._matrix_cache.items()
            if w not in moves and self.vertex_perm[g][w] not in moves}
        # cocycle check on stab(v) x (generators of stab(v)): the composed
        # M(s o t, v) follows the word of s o t, so it tests the generators'
        # matrices, and by induction on word length the rule then holds for
        # all pairs of stab(v)
        for v in tree.vertices:
            stab = self.stabilizer[v.index]
            for t in self._generating_set(stab):
                for s in stab:
                    if self.matrix(self.G.compose(s, t), v.index) != \
                            self._cocycle(s, t, v.index):
                        raise NotInvariant("cocycle rule violated")

    def _generating_set(self, subgroup):
        """Generators of ``subgroup``, taken greedily in index order: each
        is the first element not in the span of those before it."""
        mul, gens, span = self.G.compose, [], {self.G.identity_index}
        for t in subgroup:
            if t not in span:
                gens.append(t)
                while new := {mul(x, g) for x in span for g in gens} - span:
                    span |= new
        return gens


def _big(x, L):
    v = x.valuation_or_none()
    return v in (None, INFINITE) or v >= L.e * (L.N // 2)


def galois_on_tree(G, tree):
    return TreeGaloisAction(G, tree)
