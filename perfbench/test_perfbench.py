"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import spans
import workloads
from run import SRC, InProcess, layer_metrics

sys.path.insert(0, str(SRC))
HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_build_is_deterministic(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    warm, passes = workloads.build(workload, 7)
    seeded = [c.key for c in warm + sum(passes, [])
              if workloads.shape_of(workload, c.shape).fixed is None]
    assert len(seeded) == len(set(seeded))  # no curve is seen twice
    other = workloads.build(workload, 8)[1][0]
    assert [c.key for c in passes[0]] != [c.key for c in other]


def test_smoke_passes_are_full_passes():
    for w in workloads.WORKLOADS:
        full = workloads.build(w, 0)[1]
        _, smoke = workloads.build(w, 0, smoke=True)
        assert len(smoke) == 2
        for k, cases in enumerate(smoke):
            keys = {(c.slot, c.key) for c in full[k]}
            assert cases and {(c.slot, c.key) for c in cases} <= keys


def test_substitution_is_invertible():
    f = workloads.SHAPES["padic_tree"][0].f
    for s in (1, -1):
        for c in (-7, 0, 5):
            g = workloads.substitute(f, s, c)
            assert workloads.substitute(g, s, -s * c) == list(f)


def test_self_times_of_nested_trace():
    trace = [  # (id, name, start, end, parent, curve)
        (2, "a", 1.0, 4.0, 1, "c"),
        (4, "b", 6.0, 7.0, 3, "c"),  # b inside b: recursion
        (3, "b", 5.0, 9.0, 1, "c"),
        (1, "root", 0.0, 10.0, None, "c"),
        (5, "root", 20.0, 21.5, None, "d"),
    ]
    got = spans.self_times(trace)
    assert got == pytest.approx({"root": 3.0 + 1.5, "a": 3.0, "b": 4.0})
    assert sum(got.values()) == pytest.approx(10.0 + 1.5)


def test_retries_are_compute_spans_beyond_one_per_curve():
    trace = [  # (id, name, start, end, parent, curve)
        (1, "pipeline.compute", 0.0, 1.0, None, "a/0"),
        (2, "pipeline.compute", 1.0, 3.0, None, "a/0"),  # a retry of a/0
        (3, "pipeline.compute", 3.0, 4.0, None, "b/0"),
    ]
    dump = {"spans": trace, "calls": [], "counts": {}}
    checker = reference.Checker(reference.load(), "padic_tree")
    m = layer_metrics(dump, {}, 4.0, 4.0, checker)
    assert m["pipeline.retries"] == (1, "count")
    assert m["trace.coverage_frac"][0] == pytest.approx(1.0)


def test_generator_span_per_next():
    tracer = spans.Tracer()

    def gen():
        yield 1
        yield 2

    wrapped = tracer._wrap_generator("g", gen)
    it = wrapped()
    assert tracer.spans == []  # creating the generator runs nothing
    assert list(it) == [1, 2]
    assert len(tracer.spans) == 3  # two items and the final StopIteration
    assert tracer.counts["g.yielded"] == 2


def test_install_patches_every_binding_and_uninstall_restores():
    import superell
    import superell.fieldsearch
    import superell.localfield
    import superell.pipeline
    original = superell.localfield.galois_group
    tracer = spans.Tracer().install()
    try:
        wrapper = superell.pipeline.galois_group
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert superell.fieldsearch.galois_group is wrapper
        assert superell.galois_group is wrapper
        assert superell.localfield.galois_group is wrapper
    finally:
        tracer.uninstall()
    assert superell.pipeline.galois_group is original
    assert superell.fieldsearch.galois_group is original


def test_checker_accepts_the_pinned_outcome_and_flags_perturbations():
    refs = reference.load()
    case = workloads.build("padic_tree", reference.DEFAULT_SEED,
                           smoke=True)[1][0][0]
    _, text, code = InProcess().run(case)
    good = reference.outcome(text, code)

    checker = reference.Checker(refs, "padic_tree")
    assert checker.check(case, good) and checker.drift == 0

    p1 = dict(good, P1=[good["P1"][0]] + [c + 1 for c in good["P1"][1:]])
    checker = reference.Checker(refs, "padic_tree")
    assert not checker.check(case, p1)

    flipped = text.replace('"P1"', '"P1" ', 1)
    checker = reference.Checker(refs, "padic_tree")
    assert checker.check(case, reference.outcome(flipped, code))
    assert checker.drift == 1 and checker.drift_frac == 1.0

    checker = reference.Checker(refs, "padic_tree")
    assert not checker.check(case, reference.outcome(
        reference.error_report(_Abort()), 3))
    assert checker.wrong_frac == 1.0


class _Abort(Exception):
    exit_code = 3


def test_invariants_flag_a_wrong_degree():
    out = {"P1": [1, 2], "epsilon": 3, "delta": 0, "f": 3, "bound": "8",
           "filtration": [2, 1]}
    f = (6, -1, -6, 1)  # (x-1)(x-6)(x+1): a double root mod 5
    assert reference.invariant_errors(2, f, 5, 2, out) == []
    bad = dict(out, P1=[1, 2, 3])
    assert "deg P1 != 2g - epsilon" in reference.invariant_errors(
        2, f, 5, 2, bad)
    good_red = dict(out, P1=[1, 0, 0, 0, 5], epsilon=0, f=0)
    assert reference.invariant_errors(2, (1, 1, 0, 0, 0, 1), 7, 2,
                                      good_red) == []
    assert reference.invariant_errors(2, (1, 1, 0, 0, 0, 1), 7, 2,
                                      dict(good_red, f=1, delta=1))


def _run(*args):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    out = _run("--workload", workload, "--smoke", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_repeats_its_counts(workload):
    runs = [_run("--workload", workload, "--smoke", "--trace", "1")
            for _ in range(2)]
    for out in runs:
        assert out["correct"]
        assert set(out["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [{k: m["value"] for k, m in out["metrics"].items()
               if m["unit"] == "count"} for out in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
