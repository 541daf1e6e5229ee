"""Seeded curve sets of the three benchmark workloads.

A workload is a list of shapes, each a curve y^n = f(x) at a prime p.  One
pass runs every shape once, in the listed order.  In a pass a shape is
replaced by an isomorphic copy y^n = f(s*x + c) with s = +-1 and c an
integer, both drawn from the seed.  The substitution is defined over Z and
invertible over Z_p, so it changes the equation but not the curve: P1,
epsilon, delta and f are those of the shape for every seed, and the p-adic
distances between branch points, hence the field L, the tree and the cost,
stay those of the shape.  Every pass and the warm-up get distinct copies,
so a warm workload never times a curve it has already seen.

Fixed specs (``Shape.fixed``) are run exactly as written in every pass;
``cold_cli`` uses them for the sample curves, since no state survives
between its processes.

This module imports nothing from the package under test or its tests, so
that neither can move the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("padic_tree", "point_count", "cold_cli")

# Most passes a run makes; references are pinned for all of them.
MAX_PASSES = {"padic_tree": 8, "point_count": 3, "cold_cli": 4}

_SHIFT = 20  # c is drawn from [-_SHIFT, _SHIFT]


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    p: int
    f: tuple  # integer coefficients, low to high
    fixed: dict | None = None  # exact spec, run unchanged in every pass
    warm: bool = True  # run a distinct copy in the warm-up
    repeat: int = 1  # distinct copies per pass
    smoke: bool = False  # part of the minimal smoke run


@dataclass(frozen=True)
class Case:
    workload: str
    shape: str
    slot: str  # "warm", or the pass number and, for repeats, the copy
    spec: dict

    @property
    def key(self):
        """Canonical spec text; references are pinned under it."""
        return json.dumps(self.spec, sort_keys=True, separators=(",", ":"))


def _S(name, n, p, f, **kw):
    return Shape(name, n, p, tuple(f), **kw)


def _prod(*factors):
    """Product of integer polynomials given low to high."""
    out = [1]
    for g in factors:
        nxt = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                nxt[i + j] += a * b
        out = nxt
    return out


# ex1 = (x^2-3)(x^2+3)(x^2-6x-3), ex2 = x^4-x^2+1 and good_reduction =
# x^5-x+1 are the three files in sample_curves/.
_EX1 = _prod((-3, 0, 1), (3, 0, 1), (-3, -6, 1))
_EX2 = (1, 0, -1, 0, 1)
_GOOD = (1, -1, 0, 0, 0, 1)
_EX1_SPEC = {"n": 4, "f": [["x^2-3", 1], ["x^2+3", 1], ["x^2-6*x-3", 1]],
             "p": 3}
_EX2_SPEC = {"n": 3, "f": list(_EX2), "p": 2}
_GOOD_SPEC = {"n": 2, "f": list(_GOOD), "p": 7}

SHAPES = {
    # Roots that collide p-adically: factors x^2 - p*b and (x-a)(x-a-p) at
    # p in {3, 5, 7}; multi-vertex trees, [L:Q_p] from 4 to 12, genus <= 3.
    "padic_tree": (
        _S("ex1", 4, 3, _EX1),
        _S("ex2", 3, 2, _EX2),
        _S("p3_sq6", 2, 3, _prod((-6, 0, 1), (-2, 1), (-5, 1), (-11, 1))),
        _S("p3_sqm3", 2, 3, _prod((3, 0, 1), (-1, 1), (-4, 1), (-7, 1))),
        _S("p5_sq10", 2, 5, _prod((-10, 0, 1), (-2, 1), (-7, 1), (-27, 1))),
        _S("p5_cube", 3, 5, _prod((-10, 0, 1), (-2, 1), (-7, 1))),
        _S("p5_sq5x", 2, 5, _prod((-5, 0, 1), (-1, 1), (-6, 1), (0, 1))),
        _S("p7_cube", 3, 7, _prod((-14, 0, 1), (-2, 1), (-9, 1)),
           smoke=True),
        _S("p7_cbrt7", 2, 7, _prod((-7, 0, 0, 1), (-1, 1), (-8, 1))),
        _S("p5_cbrt5", 3, 5, _prod((-5, 0, 0, 1), (-1, 1))),
    ),
    # Good reduction and large genus at p in {5, 7, 11, 13}: the L-factor
    # comes from Kummer point counts over F_{q^i}.  The three large-genus
    # anchors are not warmed: they cost 4-14 s each, and their first run
    # fills under 5 ms of cache.  Five copies of one counting-bound curve,
    # with four cheaper and four dearer curves around them, put the median
    # of a pass on the middle copy of one shape, not in the gap between two
    # shapes of unlike cost; other good-reduction shapes whose time goes
    # mostly to the field search, as the good_reduction sample's does, are
    # left out, so that counting keeps most of the workload's time.
    "point_count": (
        _S("good_reduction", 2, 7, _GOOD),
        _S("p5_n4", 4, 5, (1, 1, 0, 1), smoke=True),
        _S("p13_g2", 3, 13, (-2, 3, 1, -3, 1), repeat=3),
        _S("p7_g3", 4, 7, (2, -5, 2, 4, -4, 1), repeat=5),
        _S("p11_g4", 3, 11, (0, -6, 0, -1, 0, 1), warm=False),
        _S("p13_g3", 3, 13, (3, 0, -4, 0, 1), warm=False),
        _S("p5_g5", 4, 5, (6, -9, -5, 12, -2, -3, 1), warm=False),
    ),
    # One fresh CLI process per curve: the sample files as written, corpus
    # curves, a degree-40 field and one invalid spec (p | n, exit code 2).
    # Three corpus curves of about 1 s cold (p5, p5_n2, p7_n4) have four
    # cheaper curves below them and four dearer ones above, so that the
    # median of a run falls inside that group, not in the gap between two
    # shapes of unlike cost.
    "cold_cli": (
        _S("ex1", 4, 3, _EX1, fixed=_EX1_SPEC),
        _S("ex2", 3, 2, _EX2, fixed=_EX2_SPEC, smoke=True),
        _S("good_reduction", 2, 7, _GOOD, fixed=_GOOD_SPEC),
        _S("corpus_p3", 4, 3, (8, 16, 18, 18, 10, 2), warm=False),
        _S("corpus_p5", 3, 5, (30, 5, -11, -1, 1), warm=False),
        _S("corpus_p5_n2", 2, 5, (-30, 0, -11, 0, 4, 0, 1), warm=False),
        _S("corpus_p13", 3, 13, (-2, 3, 1, -3, 1), warm=False),
        _S("corpus_p3_n2", 2, 3, (-18, -18, -3, -3, 1, 1), warm=False),
        _S("corpus_p7_n4", 4, 7, (2, -5, 2, 4, -4, 1), warm=False),
        _S("deg40", 5, 3, (-12, -12, 1, 4, 1),
           fixed={"n": 5, "f": [-12, -12, 1, 4, 1], "p": 3}),
        _S("p_divides_n", 3, 3, (1, 1, 0, 1),
           fixed={"n": 3, "f": [1, 1, 0, 1], "p": 3}, smoke=True),
    ),
}


def substitute(f, s, c):
    """Coefficients of f(s*x + c), low to high (Horner in Z[x])."""
    out = [0]
    for a in reversed(f):
        nxt = [0] * (len(out) + 1)
        for i, b in enumerate(out):
            nxt[i] += b * c
            nxt[i + 1] += b * s
        nxt[0] += a
        out = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _copies(workload, shape, seed, count):
    """``count`` distinct coefficient lists f(s*x + c), fixed by the seed.

    Draws that repeat an earlier copy are skipped: a shape with a symmetry
    (ex2 is even) maps two substitutions to one curve."""
    rng = random.Random(f"{seed}:{workload}:{shape.name}")
    pool = [(s, c) for s in (1, -1) for c in range(-_SHIFT, _SHIFT + 1)]
    rng.shuffle(pool)
    out = []
    for s, c in pool:
        g = substitute(shape.f, s, c)
        if g not in out:
            out.append(g)
            if len(out) == count:
                return out
    raise ValueError(f"{shape.name} has fewer than {count} distinct copies")


def build(workload, seed, smoke=False):
    """(warm-up cases, list of passes) of a workload for a seed.

    A smoke build keeps only the shapes marked ``smoke``, two passes (a
    traced run needs both) and no warm-up; its cases are the same curves as
    in passes 0 and 1 of the full build.
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    shapes = [s for s in SHAPES[workload] if s.smoke or not smoke]
    npass = 2 if smoke else MAX_PASSES[workload]
    warm, passes = [], [[] for _ in range(npass)]
    for sh in shapes:
        if sh.fixed is not None:
            for k in range(npass):
                passes[k].append(Case(workload, sh.name, str(k),
                                      dict(sh.fixed)))
            continue
        # the warm-up copy is drawn last, so a smoke build (two passes)
        # draws the same pass-0 and pass-1 copies as the full build
        copies = _copies(workload, sh, seed,
                         MAX_PASSES[workload] * sh.repeat + 1)
        for k in range(npass):
            for j in range(sh.repeat):
                slot = str(k) if sh.repeat == 1 else f"{k}.{j}"
                passes[k].append(Case(workload, sh.name, slot, {
                    "n": sh.n, "f": copies[k * sh.repeat + j], "p": sh.p}))
        if sh.warm and not smoke:
            warm.append(Case(workload, sh.name, "warm", {
                "n": sh.n, "f": copies[-1], "p": sh.p}))
    return warm, passes


def shape_of(workload, name):
    for sh in SHAPES[workload]:
        if sh.name == name:
            return sh
    raise KeyError(name)
