"""End-to-end driver: curve -> fields -> tree -> reduction -> descent ->
L-factor and conductor, with hard consistency cross-checks at every joint.

The fields come from one catalog scan, ``semistabilizing_candidates``; the
roots of f that its split test finds are the branch divisor, and the first
candidate L, G over which the model is semistable is used; G carries its
ramification filtration, computed once per catalog field.  Per candidate:
branch_divisor(curve, roots), build_tree(div, L), galois_on_tree(G, tree),
raw_gauss_values(curve, tree), semistable_check(raw, n),
reduce_special_fiber(curve, tree, raw).  ``galois_on_tree`` applies G's
generators to branch points only and reads chart transports off residues.
Both chart normalizations (``build_tree``'s and the tame one of
``galois_on_tree``) come before the Gauss values of the charts, read once
per vertex.  Then build_inertial_curve(act, fiber), local_l_factor(inertial),
conductor_exponent(inertial) and verify_point_counts(inertial, p1).  Each
stage reads its data off the objects it takes: the tree carries L, G
carries the filtration, the action ``act`` carries G and the tree, the
fiber carries the curve, and the inertial curve its ``ctx``.

``compute`` returns PipelineResult(divisor, inertial, lfactor, conductor),
which reads the curve, L, G, the filtration, the tree and the fiber off
``inertial.ctx``; ``compute_with_retry`` retries once at fourfold
precision when the p-adic precision runs out.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import branch_divisor
from .descent import build_inertial_curve
from .errors import (
    CatalogExhausted,
    CountsInconsistent,
    PrecisionExhausted,
    ValidationError,
)
from .fieldsearch import SearchConfig, semistabilizing_candidates, splits_in
from .finitefield import count_kummer_points, power_sums
from .localfield import galois_group
from .lzeta import conductor_exponent, local_l_factor
from .reduction import raw_gauss_values, reduce_special_fiber, semistable_check
from .tree import build_tree, galois_on_tree


class PipelineResult:
    def __init__(self, divisor, inertial, lfactor, conductor):
        ctx = inertial.ctx
        self.divisor, self.inertial = divisor, inertial
        self.lfactor, self.conductor = lfactor, conductor
        self.curve, self.L, self.fiber = ctx.curve, ctx.L, ctx.fiber
        self.G, self.filt, self.tree = ctx.G, ctx.G.filt, ctx.tree

    def to_json_dict(self):
        curve, tree, L = self.curve, self.tree, self.L
        red, ic = self.fiber, self.inertial
        verts = []
        # fbar is a polynomial (``gauss_valuation_f`` rejects a reduced
        # pole form that is not constant), so the report's denominator is 1
        fbar_den = [list(L.residue_field.one().coeffs)]
        for v in tree.vertices:
            r = red.reductions[v.index]
            verts.append({
                "index": v.index,
                "radius": str(Fraction(v.disc_radius, L.e)),
                "parent": v.parent,
                "marked_points": sorted(v.marked),
                "N_v": r.N_v,
                "eta": str(r.eta_vp1),
                "fbar_num": _poly_json(r.fbar),
                "fbar_den": fbar_den,
                "n_v": r.n_v,
                "component_count": r.component_count(),
                "component_genus": r.component_genus,
            })
        comps = []
        for comp in ic.components:
            iq = comp.quotient
            entry = {
                "vertex_orbit": sorted(comp.orbit_classes),
                "d_v": comp.d_v,
                "nbar": comp.nbar,
                "m": iq.m,
                "mu": iq.mu,
                "s": iq.s,
                "flagged_genus_zero": comp.flagged,
                "equation": _poly_json(comp.h_prime),
                "pieces": [{
                    "d_j": p["d_j"],
                    "field_degree": p["field"].k,
                    "equation": _poly_json(p["equation"]),
                    "genus": p["genus"],
                } for p in comp.geometric_pieces],
            }
            comps.append(entry)
        return {
            "p": curve.p,
            "n": curve.n,
            "f": [str(c) for c in curve.f.coeffs],
            "P1": list(self.lfactor.p1),
            "epsilon": self.conductor.epsilon,
            "delta": self.conductor.delta,
            "conductor_exponent": self.conductor.conductor,
            "dimH1": ic.dim_h1,
            "report": {
                "field": {
                    "label": L.label,
                    "p": L.p,
                    "residue_degree": L.f,
                    "ramification_index": L.e,
                    "degree": L.degree,
                    "precision": L.N,
                },
                "galois": {
                    "order": self.G.order(),
                    "inertia_order": len(self.G.inertia),
                    "filtration_sizes": [len(g) for g in self.filt.groups],
                },
                "tree": {
                    "vertices": verts,
                    "edges": [list(e) for e in tree.edges],
                    "psi": list(tree.psi),
                    "branch_points": [
                        {"infinity": True} if bp.is_infinity else
                        {"infinity": False, "multiplicity": bp.multiplicity}
                        for bp in self.divisor.points],
                },
                "inertial": {
                    "components": comps,
                    "node_orbits": [{"size": s, "epsilon": e}
                                    for s, e in ic.node_orbit_data()],
                    "graph_factor": list(self.lfactor.graph_factor),
                    "b1": ic.b1_k,
                },
                "conductor": {
                    "quotient_genera": {str(i): g for i, g in
                                        self.conductor.quotient_genera.items()},
                    "trivial_bound": str(self.conductor.bound),
                },
            },
        }


def _poly_json(poly):
    return [list(c.coeffs) for c in poly.coeffs]


def verify_point_counts(inertial, p1):
    """End-to-end oracle: |Zbar(F_{p^i})| for i = 1, 2 computed from the
    components + node corrections must match the zeta prediction from P1."""
    p = inertial.ctx.curve.p
    for i in (1, 2):
        direct = 0
        for piece in inertial.geometric_components:
            d_j = piece["d_j"]
            if i % d_j:
                continue
            cnt = count_kummer_points(piece["n_geo"], piece["equation"],
                                      i // d_j)
            direct += d_j * cnt
        for orb in inertial.node_orbits:
            if i % orb["size"] == 0:
                direct -= orb["size"]
        # prediction: N_i = 1 - (power sum of P1 reciprocal roots) + p^i * m_i
        ps = power_sums(p1, i)
        m_i = sum(d for d in inertial.component_orbit_sizes() if i % d == 0)
        predicted = 1 - ps[i] + p**i * m_i
        if direct != predicted:
            raise CountsInconsistent(
                f"|Z(F_p^{i})| = {direct} but the zeta function predicts "
                f"{predicted}")


def compute(curve, config=None, explicit_field=None, trace=None):
    """Run the full pipeline for a validated curve."""
    if config is None:
        config = SearchConfig()

    def say(msg):
        if trace:
            print(msg, file=trace)

    violations = curve.validate()
    if violations:
        raise ValidationError("; ".join(violations))
    say(f"curve y^{curve.n} = f, deg f = {curve.degree()}, p = {curve.p}, "
        f"genus {curve.genus()}")

    if explicit_field is not None:
        roots = splits_in(explicit_field,
                          [g for g, _ in curve.f.squarefree_decomposition()])
        if roots is None:
            raise ValidationError("f does not split over the tower field "
                                  f"{explicit_field.label}")
        candidates = [(explicit_field, galois_group(explicit_field), roots)]
    else:
        candidates = semistabilizing_candidates(curve.f, curve.n, curve.p,
                                                config)

    last_failure = None
    for L, G, roots in candidates:
        say(f"candidate field: {L.label} (e={L.e}, f={L.f})")
        div = branch_divisor(curve, roots)
        tree = build_tree(div, L)
        act = galois_on_tree(G, tree)
        raw = raw_gauss_values(curve, tree)
        fails = semistable_check(raw, curve.n)
        if fails:
            say(f"  not semistable over this field: N_v mod n = {fails}")
            last_failure = fails
            continue
        fiber = reduce_special_fiber(curve, tree, raw)
        say(f"  semistable: {tree.vertex_count()} vertices, "
            f"{fiber.n_nodes} nodes, genera "
            f"{[r.component_genus for r in fiber.reductions.values()]}")
        inertial = build_inertial_curve(act, fiber)
        lfactor = local_l_factor(inertial)
        conductor = conductor_exponent(inertial)
        verify_point_counts(inertial, lfactor.p1)
        say(f"  P1 = {lfactor.p1}, f = {conductor.conductor}")
        return PipelineResult(div, inertial, lfactor, conductor)
    raise CatalogExhausted(
        "no catalog field yields a semistable model"
        + (f" (last failure: N_v mod n = {last_failure})"
           if last_failure else ""))


def compute_with_retry(curve, config=None, explicit_field=None, trace=None):
    try:
        return compute(curve, config, explicit_field, trace)
    except PrecisionExhausted:
        if explicit_field is not None:
            raise  # the field keeps its own precision: a retry would repeat
        if trace:
            print("precision exhausted; retrying at fourfold precision",
                  file=trace)
        return compute(curve, (config or SearchConfig()).scaled(4),
                       explicit_field, trace)
