"""Benchmark of superell: three closed-loop workloads, one curve at a time.

    python3 perfbench/run.py --workload padic_tree --seed 0 --seconds 35 \
        --trace 0

Workloads (see workloads.py and README.md):
  padic_tree   in-process, warm: p-adic root finding, trees, Galois groups
  point_count  in-process, warm: Kummer point counts over F_{q^i}
  cold_cli     one fresh ``superell <spec> --json`` process per curve

A run measures its set-up time, warms the caches on curves distinct from
the timed ones (in-process workloads), then runs whole passes over the
workload's curves while the next pass is expected to end within
``--seconds`` (at least one pass).  Every outcome is
checked against references.json.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run times pass 0 without the tracer and pass 1, distinct copies of the same
shapes, with it (spans.py), and reports per-layer metrics of the traced
pass, writing every span to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = 30  # set-up probes per run; setup_s is their median
CLI = "import sys; from superell.cli import main; sys.exit(main())"


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload, seed, probes):
    """Median seconds from spawning a fresh interpreter until superell is
    imported and the workload's inputs are built.  One untimed probe runs
    first, so that every timed probe finds the bytecode cache written."""
    times = []
    for k in range(probes + 1):
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        if k:
            times.append(float(res.stdout.split()[-1]) - t0)
    return statistics.median(times)


class InProcess:
    """Runs curves through the public API in this process."""

    def __init__(self):
        from superell import SuperellipticCurve, compute_with_retry
        from superell.errors import SuperellError
        self._curve = SuperellipticCurve.from_json_dict
        self._compute = compute_with_retry
        self._error = SuperellError
        self.tracer = None

    def run(self, case):
        """(seconds, report text, exit code) of one curve."""
        if self.tracer is not None:
            self.tracer.curve = f"{case.shape}/{case.slot}"
        t0 = time.perf_counter()
        try:
            result = self._compute(self._curve(case.spec))
            text, code = reference.canonical(result.to_json_dict()), 0
        except self._error as exc:
            text, code = reference.error_report(exc), exc.exit_code
        except Exception:  # an untyped failure is a wrong outcome
            text, code = traceback.format_exc(), 1
        return time.perf_counter() - t0, text, code

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def start_trace(self):
        self.tracer = spans.Tracer().install()

    def stop_trace(self):
        self.tracer.uninstall()
        tracer, self.tracer = self.tracer, None
        return tracer.dump(), {}


class ColdCli:
    """Runs each curve in a fresh CLI process with an empty cwd and HOME."""

    def __init__(self):
        self.rss_mb = 0.0
        self.trace_dumps = None
        self.extra = {}
        self._tmp = OUT / "tmp"
        self._tmp.mkdir(parents=True, exist_ok=True)

    def run(self, case):
        d = Path(tempfile.mkdtemp(dir=self._tmp))
        try:
            return self._run_in(case, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _run_in(self, case, d):
        for sub in ("cwd", "home"):
            (d / sub).mkdir()
        if self.trace_dumps is None:
            cmd = [sys.executable, "-c", CLI, "-", "--json"]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"),
                   str(d / "trace.json"), "-", "--json"]
        env = _env(HOME=str(d / "home"), TMPDIR=str(d / "home"))
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=d / "cwd", env=env,
                                    stdin=subprocess.PIPE, stdout=out,
                                    stderr=err)
            proc.stdin.write(json.dumps(case.spec).encode())
            proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024)
        text = (d / "stdout").read_text().rstrip("\n")
        if self.trace_dumps is not None and (d / "trace.json").exists():
            dump = json.loads((d / "trace.json").read_text())
            for s in dump["spans"]:
                s[5] = f"{case.shape}/{case.slot}"
            self.trace_dumps.append(dump)
            self.extra["cli.process_startup_s"] += dump["t_ready"] - t0
            self.extra["cli.process_exit_s"] += t1 - dump["t_end"]
        return t1 - t0, text, code

    def peak_rss_mb(self):
        return self.rss_mb

    def start_trace(self):
        self.trace_dumps = []
        self.extra = {"cli.process_startup_s": 0.0,
                      "cli.process_exit_s": 0.0}

    def stop_trace(self):
        merged = spans.merge(self.trace_dumps)
        self.trace_dumps = None
        return merged, self.extra


def run_pass(runner, cases, checker, samples):
    for case in cases:
        seconds, text, code = runner.run(case)
        checker.check(case, reference.outcome(text, code))
        samples.append(seconds)


def layer_metrics(dump, extra, traced_s, untraced_s, checker):
    """Per-layer metrics of a traced pass."""
    self_s = spans.self_times(dump["spans"])
    calls = {}
    for name, parent, c in dump["calls"]:
        calls[name, parent] = calls.get((name, parent), 0) + c

    def total_calls(name):
        return sum(c for (n, _), c in calls.items() if n == name)

    counts = dump["counts"]
    computes = [s[5] for s in dump["spans"] if s[1] == "pipeline.compute"]
    yielded = counts.get("fieldsearch.candidates.yielded", 0)
    built = calls.get(("fieldsearch.construct_candidate",
                       "fieldsearch.candidates"), 0)
    m = {}
    for name in sorted({s[2] for s in spans.SPANS + spans.GENERATOR_SPANS}):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m.update({
        "localfield.roots.calls": (
            total_calls("localfield.roots")
            - calls.get(("localfield.roots", "localfield.roots"), 0),
            "count"),
        "finitefield.count_kummer_points.calls": (
            total_calls("finitefield.count_kummer_points"), "count"),
        "fieldsearch.construct_candidate.calls": (
            total_calls("fieldsearch.construct_candidate"), "count"),
        "fieldsearch.candidates_yielded": (yielded, "count"),
        "fieldsearch.candidates_rejected": (
            built - yielded
            + counts.get("fieldsearch.candidates_not_semistable", 0),
            "count"),
        # compute spans beyond the first of each curve
        "pipeline.retries": (len(computes) - len(set(computes)), "count"),
    })
    for name in ("localfield.mul_count", "localfield.invert_count",
                 "finitefield.mul_count", "finitefield.inverse_count",
                 "finitefield.points_enumerated", "tree.vertices"):
        m[name] = (counts.get(name, 0), "count")
    for name in ("cli.process_startup_s", "cli.process_exit_s"):
        m[name] = (extra.get(name, 0.0), "s")
    covered = sum(self_s.values()) + sum(extra.values())
    m["trace.coverage_frac"] = (covered / traced_s, "frac")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    m["wrong_frac"] = (checker.wrong_frac, "frac")
    m["report_drift_frac"] = (checker.drift_frac, "frac")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two passes of the smoke shapes, no warm-up, one "
                         "set-up probe")
    args = ap.parse_args(argv)

    if not (SRC / "superell" / "__init__.py").is_file():
        print(f"error: no superell package under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup(args.workload, args.seed,
                            1 if args.smoke else PROBES)
    sys.path.insert(0, str(SRC))
    import superell
    if Path(superell.__file__).resolve().parent != SRC / "superell":
        print(f"error: superell imported from {superell.__file__}",
              file=sys.stderr)
        return 2

    warm, passes = workloads.build(args.workload, args.seed, args.smoke)
    checker = reference.Checker(reference.load(), args.workload)
    runner = ColdCli() if args.workload == "cold_cli" else InProcess()
    run_pass(runner, warm, checker, [])

    samples = []
    if args.trace:
        run_pass(runner, passes[0], checker, samples)
        untraced_s = sum(samples)
        # trace fresh copies, so that no traced curve has been seen before
        runner.start_trace()
        traced = []
        run_pass(runner, passes[1], checker, traced)
        dump, extra = runner.stop_trace()
        metrics = layer_metrics(dump, extra, sum(traced), untraced_s,
                                checker)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans written to {path}", file=sys.stderr)
        samples += traced
    else:
        start = last = time.perf_counter()
        for k, cases in enumerate(passes):
            now = time.perf_counter()
            # start a pass only if it is expected to end within the run
            if k and now + (now - last) - start > args.seconds:
                break
            last = now
            run_pass(runner, cases, checker, samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "curves_per_s": (len(samples) / sum(samples), "1/s"),
            "latency_p50_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
        }

    for note in checker.notes:
        print(f"wrong: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(samples)} timed curves, "
          f"wrong_frac {checker.wrong_frac:.4f}, report_drift_frac "
          f"{checker.drift_frac:.4f} over {checker.pinned} pinned reports")
    print(json.dumps({
        "correct": checker.wrong == 0 and checker.drift == 0,
        "attempted": checker.checked,
        "failed": checker.wrong,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
