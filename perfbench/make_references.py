"""Regenerate references.json from the package as it is now.

    python3 perfbench/make_references.py

Runs every curve of every workload for the default seed, warm-up and all
passes, in one process through the public API.  Pins per shape the outcome
(P1, epsilon, delta, f, exit code) and the genus, and per spec the sha256
of the canonical ``--json`` report.  Refuses to pin an untyped failure or a
shape whose isomorphic copies disagree.
"""

import json
import sys

import reference
import workloads
from run import SRC, InProcess

sys.path.insert(0, str(SRC))


def main():
    from superell import QPoly, SuperellipticCurve
    runner = InProcess()
    refs = {"seed": reference.DEFAULT_SEED, "shapes": {}, "reports": {}}
    for w in workloads.WORKLOADS:
        warm, passes = workloads.build(w, reference.DEFAULT_SEED)
        shapes = refs["shapes"][w] = {}
        for case in warm + [c for cases in passes for c in cases]:
            if case.key in refs["reports"]:
                continue
            seconds, text, code = runner.run(case)
            if code == 1:
                sys.exit(f"{w} {case.shape}/{case.slot} failed:\n{text}")
            out = reference.outcome(text, code)
            got = {k: out.get(k) for k in reference.OUTCOME_KEYS}
            sh = workloads.shape_of(w, case.shape)
            if case.shape not in shapes:
                got["genus"] = SuperellipticCurve(
                    sh.n, QPoly(list(sh.f)), sh.p).genus()
                shapes[case.shape] = got
            elif any(shapes[case.shape][k] != got[k] for k in got):
                sys.exit(f"{w} {case.shape}/{case.slot}: {got} differs "
                         f"from {shapes[case.shape]}")
            refs["reports"][case.key] = out["sha256"]
            print(f"{w:12s} {case.shape:15s} {case.slot:5s} {seconds:6.2f}s "
                  f"{got}", flush=True)
    with open(reference.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
