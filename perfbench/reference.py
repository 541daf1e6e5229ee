"""Outcomes of a curve and their check against the pinned references.

The outcome of a curve is ``P1``, epsilon, delta, the conductor exponent f
and the exit code, all read from the canonical ``--json`` report, plus the
sha256 of the report bytes.  ``references.json`` pins, per workload shape,
the outcome (the same for every isomorphic copy of the shape, so for every
seed), and per spec of the default seed, the report digest.  Every outcome
is further checked against the invariants of the acceptance suite.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import workloads

REFERENCES = Path(__file__).resolve().parent / "references.json"
DEFAULT_SEED = 0
OUTCOME_KEYS = ("P1", "epsilon", "delta", "f", "exit")


def canonical(report):
    """The report bytes as ``superell --json`` prints them (no newline)."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def error_report(exc):
    """The ``--json`` diagnostic the CLI prints for a typed abort."""
    return json.dumps({"error": type(exc).__name__, "message": str(exc),
                       "exit_code": exc.exit_code}, sort_keys=True)


def outcome(text, exit_code):
    """Outcome dict of one curve from its report text and exit code."""
    out = {"exit": exit_code,
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if exit_code == 0:
        rep = json.loads(text)
        out.update(P1=rep["P1"], epsilon=rep["epsilon"],
                   delta=rep["delta"], f=rep["conductor_exponent"],
                   bound=rep["report"]["conductor"]["trivial_bound"],
                   filtration=rep["report"]["galois"]["filtration_sizes"])
    return out


def load():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _squarefree_mod_p(f, p):
    """Is f mod p squarefree of the same degree?  (Euclid over GF(p).)"""
    def trim(a):
        a = [c % p for c in a]
        while a and a[-1] == 0:
            a.pop()
        return a

    def rem(a, b):
        a = a[:]
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            a = trim(a)
        return a

    a = trim(f)
    if len(a) != len(f):
        return False
    b = trim([i * c for i, c in enumerate(f)][1:])
    while b:
        a, b = b, rem(a, b)
    return len(a) == 1


def invariant_errors(n, f, p, genus, out):
    """Broken invariants of a successful outcome, as strings.

    deg P1 = 2g - epsilon; P1(0) = 1; f <= the trivial bound; delta = 0
    when wild inertia is trivial; f = 0 when f mod p is squarefree of the
    same degree (good reduction, since p does not divide n).
    """
    errs = []
    if len(out["P1"]) - 1 != 2 * genus - out["epsilon"]:
        errs.append("deg P1 != 2g - epsilon")
    if out["P1"][0] != 1:
        errs.append("P1(0) != 1")
    if out["f"] != out["epsilon"] + out["delta"]:
        errs.append("f != epsilon + delta")
    if out["f"] > Fraction(out["bound"]):
        errs.append("f above the trivial bound")
    if out["filtration"][1:2] == [1] and out["delta"] != 0:
        errs.append("delta != 0 with tame inertia")
    if n % p and _squarefree_mod_p(list(f), p) and out["f"] != 0:
        errs.append("f != 0 with good reduction")
    return errs


class Checker:
    """Tallies wrong outcomes and report drift over a run."""

    def __init__(self, refs, workload):
        self.workload = workload
        self.shapes = refs["shapes"][workload]
        self.reports = refs["reports"]
        self.checked = 0
        self.wrong = 0
        self.pinned = 0
        self.drift = 0
        self.notes = []

    def check(self, case, out):
        """Record one outcome; return True when it is right."""
        self.checked += 1
        ref = self.shapes[case.shape]
        errs = [k for k in OUTCOME_KEYS if out.get(k) != ref.get(k)]
        if out["exit"] == 0 and not errs:
            shape = workloads.shape_of(self.workload, case.shape)
            errs = invariant_errors(shape.n, shape.f, shape.p, ref["genus"],
                                    out)
        if errs:
            self.wrong += 1
            self.notes.append(f"{case.shape}/{case.slot}: {errs}")
        digest = self.reports.get(case.key)
        if digest is not None:
            self.pinned += 1
            if digest != out["sha256"]:
                self.drift += 1
                self.notes.append(f"{case.shape}/{case.slot}: report drift")
        return not errs

    @property
    def wrong_frac(self):
        return self.wrong / self.checked if self.checked else 0.0

    @property
    def drift_frac(self):
        return self.drift / self.pinned if self.pinned else 0.0
