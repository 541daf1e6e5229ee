import ast
import hashlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given

from superell import (
    SuperellipticCurve,
    compute_with_retry,
    fieldsearch,
    finitefield,
)
from superell.cli import MAX_DEGREE, MAX_PRECISION, main
from superell.errors import SuperellError

from test_curve import _CHECKED, _SPECS

REPO = Path(__file__).resolve().parents[1]

# sha256 of the --json stdout of sample_curves/<name>.json; a refactor must
# leave these bytes unchanged
REPORT_SHA256 = {
    "ex1": "5361cba8afc49c9a80fe4b44fff97778a26fc0ff452096a76e8dc8d81157d79b",
    "ex2": "b06781250250e23fc6066f3f4e42ab643085d71a45fba24924de9bb4224d3ccf",
    "good_reduction":
        "20b54a6a547a2c5cb7486b54c6e28b701c6a5dde527a2e1e2e473185f5a0742b",
}


def run_cli(tmp_path, spec, *args, timeout=600):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "superell.cli", str(path), *args],
        capture_output=True, text=True, timeout=timeout)
    return proc


def run_tower(tmp_path, tower, *args):
    """Run EX1 with ``--field-tower`` given by the JSON value ``tower``."""
    tpath = tmp_path / "tower.json"
    tpath.write_text(json.dumps(tower))
    return run_cli(tmp_path, EX1, "--field-tower", str(tpath), *args)


def main_tower(tmp_path, tower, *args):
    """``main`` in this process on EX1 with ``--field-tower`` given by
    the JSON value ``tower``."""
    (tmp_path / "curve.json").write_text(json.dumps(EX1))
    (tmp_path / "tower.json").write_text(json.dumps(tower))
    return main([str(tmp_path / "curve.json"), "--field-tower",
                 str(tmp_path / "tower.json"), *args])


def sample_report_sha256(name, *python_flags):
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "superell.cli",
         str(REPO / "sample_curves" / f"{name}.json"), "--json"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


EX1 = {"n": 4, "f": [["x^2-3", 1], ["x^2+3", 1], ["x^2-6*x-3", 1]], "p": 3}
EX2 = {"n": 3, "f": [1, 0, -1, 0, 1], "p": 2}
# 300 dense powers, as a sum and as a product with zero
DENSE_SUM = "+".join(["(x+1)^256"] * 300)
ZEROED_PRODUCT = "*".join(["(x+1)^256*0"] * 300)


class TestCli:
    def test_example1_text(self, tmp_path):
        proc = run_cli(tmp_path, EX1)
        assert proc.returncode == 0
        assert "P1(T) = 1 + T + 3*T^2 + 3*T^3" in proc.stdout
        assert "11 + 0 = 11" in proc.stdout

    def test_example2_json(self, tmp_path):
        proc = run_cli(tmp_path, EX2, "--json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["P1"] == [1, 0, 2]
        assert data["epsilon"] == 4
        assert data["delta"] == 4
        assert data["conductor_exponent"] == 8
        assert data["report"]["galois"]["filtration_sizes"] == [6, 2, 2, 2, 1]

    def test_validation_exit_code(self, tmp_path):
        proc = run_cli(tmp_path, {"n": 3, "f": [1, 0, -1, 0, 1], "p": 3})
        assert proc.returncode == 2

    def test_catalog_exhausted_exit_code(self, tmp_path):
        proc = run_cli(tmp_path, EX1, "--max-degree", "2")
        assert proc.returncode == 3

    def test_deterministic_json(self, tmp_path):
        out1 = run_cli(tmp_path, EX1, "--json").stdout
        out2 = run_cli(tmp_path, EX1, "--json").stdout
        assert out1 == out2
        assert hashlib.sha256(out1.encode()).hexdigest() == \
            REPORT_SHA256["ex1"]
        for name in ("ex2", "good_reduction"):
            assert sample_report_sha256(name) == REPORT_SHA256[name]

    @pytest.mark.parametrize("spec", [
        {"n": 3, "f": 5, "p": 7},
        [1, 2],
        {"n": 3.7, "f": [1, 0, -1, 0, 1], "p": 2},
        {"n": 3, "f": [1, 0, -1, 0, 1], "p": 7.9},
        {"n": 3, "f": [["x^2+1", 1], 3], "p": 7},
        {"n": 3, "f": [1, None, 1], "p": 7},
        {"n": 2, "f": ["1/0", 1], "p": 3},
        {"n": 2, "f": [["1/0", 1]], "p": 3},
        {"n": 2, "f": [["x^3+1", -1]], "p": 3},
        {"n": 2, "f": [["x^5+1", 1], ["x-2", 0]], "p": 3},
        {"n": 2, "p": 5, "f": [0.1, 2, 3, 4, 5, 6]},
        {"n": 2, "p": 5, "f": [1, 2, 3, 4, 5, True]},
        {"n": 2, "p": 5, "f": [[[1, 0.5, 1], 1], ["x^3+2", 1]]},
        {"n": 2, "p": 5, "f": [[[False, 1], 1], ["x^4+2", 1]]},
        {"n": 2, "p": 5, "f": [["x^99999999999", 1]]},
        {"n": 2, "p": 5, "f": [["(x+1)^100000", 1]]},
        {"n": 2, "p": 5, "f": [["x^1000000", 1]]},
        {"n": 2, "p": 5, "f": [["3^99999999999", 1], ["x^5+1", 1]]},
    ])
    def test_malformed_spec_exit_code(self, tmp_path, spec):
        proc = run_cli(tmp_path, spec, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec, message", [
        ({"n": 2, "p": 5, "f": [["x^99999999999", 1]]},
         "bad polynomial 'x^99999999999': power of degree 99999999999 "
         "exceeds 256"),
        ({"n": 2, "p": 5, "f": [["(x+1)^100000", 1]]},
         "bad polynomial '(x+1)^100000': power of degree 100000 exceeds 256"),
        ({"n": 2, "p": 5, "f": [["3^99999999999", 1], ["x^5+1", 1]]},
         "bad polynomial '3^99999999999': exponent 99999999999 of a "
         "constant exceeds 1024"),
        ({"n": 1, "f": [1, 0, 1], "p": 3},
         "exponent n = 1 must be at least 2"),
        ({"n": 1, "p": 5, "f": [["3", 10**30], ["x^3-2", 1]]},
         "exponent n = 1 must be at least 2"),
        ({"n": 0, "p": 5, "f": [["x^3-2", 2], ["x+1", 4]]},
         "exponent n = 0 must be at least 2"),
        ({"n": 1000003, "p": 5, "f": [["x^2+1", 1000000]]},
         "f has degree 2000000, above 256"),
        ({"n": 1000000007, "p": 5,
          "f": [["3", 1000000000], ["x^3-2", 1]]},
         "exponent 1000000000 of a constant exceeds 1024"),
        ({"n": 2, "p": 5, "f": [[DENSE_SUM, 1]]},
         f"bad polynomial {DENSE_SUM!r}: factors with 4144 nonzero "
         f"coefficients exceed 4096"),
        ({"n": 2, "p": 5, "f": [[ZEROED_PRODUCT, 1]]},
         f"bad polynomial {ZEROED_PRODUCT!r}: factors with 4144 nonzero "
         f"coefficients exceed 4096"),
    ], ids=["x_power", "binomial_power", "constant_power", "n1", "n1_huge",
            "n0", "factor_multiplicity", "constant_multiplicity",
            "dense_sum", "zeroed_dense_product"])
    def test_refused_before_expanding(self, tmp_path, spec, message):
        """A large power is refused before it is expanded, whether written
        in a factor or as its multiplicity below n, and an exponent n < 2
        before f is read; either would not end.  Dense powers are refused
        once their expansions hold too many coefficients, whether summed
        or multiplied by zero; each costs milliseconds."""
        proc = run_cli(tmp_path, spec, "--json", timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout) == {
            "error": "ValidationError", "exit_code": 2, "message": message}

    @pytest.mark.parametrize("spec, args", [
        ({"f": [1, 2], "p": 3}, ()),
        ({"n": 2, "f": [1, 0, 1]}, ()),
        ({"n": 2, "p": 3, "f": [["1/0", 1]]}, ()),
        (EX2, ("--precision", "3")),
        (EX2, ("--precision", "abc")),
        ({"n": 2, "p": 5, "f": [0.1, 2, 3, 4, 5, 6]}, ()),
    ])
    def test_json_input_errors_are_json(self, tmp_path, spec, args):
        proc = run_cli(tmp_path, spec, "--json", *args)
        assert proc.returncode == 2
        diag = json.loads(proc.stdout)
        assert set(diag) == {"error", "exit_code", "message"}
        assert (diag["error"], diag["exit_code"]) == ("ValidationError", 2)
        assert diag["message"] and proc.stderr == ""

    def test_huge_multiplicity_refused_before_expanding(self, tmp_path):
        """A nonconstant factor of multiplicity >= n is an n-th-power factor
        of f, refused before the power is expanded (which would not end)."""
        spec = {"n": 3, "p": 5, "f": [["x^2-3", 10**30], 3, "x^"]}
        proc = run_cli(tmp_path, spec, "--json", timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {
            "error": "ValidationError", "exit_code": 2,
            "message": "f has a factor which is an 3-th power over Q"}

    def test_huge_constant_multiplicity_enters_mod_n(self, tmp_path):
        """A constant c^m enters as c^(m mod n), since y -> c^(m // n) y
        removes the rest: with n = 3, 3^(10^20) enters as 3^1."""
        reports = []
        for mult in (10**20, 1):
            spec = {"n": 3, "p": 5,
                    "f": [["3", mult], ["x^3-2", 1], ["x^2+1", 1]]}
            proc = run_cli(tmp_path, spec, "--json", timeout=60)
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("spec, message", [
        ({"n": 3, "p": 5, "f": [1] * 5000}, "f has degree 4999, above 256"),
        ({"n": 3, "p": 5, "f": [["*".join(["(x+1)"] * 3000), 1]]},
         "product of degree 257 exceeds 256"),
        ({"n": 3, "p": 5, "f": [["(" * 5000 + "x^3+1" + ")" * 5000, 1]]},
         "parentheses nested too deeply"),
        ({"n": 3, "p": 5, "f": [["+".join(["x^200"] * 2000), 1]]},
         "f has a factor which is an 3-th power over Q"),
        ({"n": 3, "p": 5, "f": ["1e10000000", 0, 0, 1]},
         "bad coefficient '1e10000000': coefficients are integers or "
         "\"a/b\" strings"),
        ({"n": 10**8, "p": 3, "f": ["1/2", 0, 0, 1]},
         "clearing the denominator 2 of f takes 2^100000000, above 65536 "
         "bits"),
    ], ids=["long_list", "long_product", "deep_nesting", "long_sum",
            "exponent_coefficient", "huge_denominator_power"])
    def test_large_inputs_refused_at_once(self, tmp_path, capsys, spec,
                                          message):
        """A long coefficient list, a long product, deep parentheses, a
        long sum of large powers and a coefficient with a huge decimal
        exponent exit 2 within a second."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        assert main([str(path), "--json"]) == 2
        assert time.perf_counter() - start < 1
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"] == "ValidationError"
        assert diag["message"].endswith(message)

    def test_bad_option_text_is_argparse_usage(self, tmp_path):
        proc = run_cli(tmp_path, EX2, "--precision", "abc")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: superell ")
        assert proc.stderr.endswith("superell: error: argument --precision: "
                                    "invalid int value: 'abc'\n")

    def test_no_unused_imports(self):
        """Every name a module of the package imports is used in it, or
        re-exported through ``__all__``."""
        for path in sorted((REPO / "src" / "superell").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        imported[name] = node.lineno
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
                    used |= {elt.value for elt in node.value.elts}
            unused = sorted(f"{name} (line {line})"
                            for name, line in imported.items()
                            if name not in used)
            assert not unused, f"unused imports in {path.name}: {unused}"

    def test_every_definition_is_used(self):
        """Every function, class and method the package defines is
        referenced in the package or exported through ``__all__``
        (dunders exempt)."""
        trees = {path.name: ast.parse(path.read_text(), filename=str(path))
                 for path in sorted((REPO / "src" / "superell").glob("*.py"))}
        used = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        used |= set(importlib.import_module("superell").__all__)
        unused = sorted(
            f"{name}: {node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in used)
        assert not unused, f"unreferenced definitions: {unused}"

    def test_no_assert_statements(self):
        """Every internal check raises a typed error, so it also holds
        under python -O."""
        for path in sorted((REPO / "src" / "superell").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not lines, f"assert statements in {path.name}: {lines}"

    def test_optimized_report_is_the_same(self):
        """python -O prints the same --json bytes as plain python."""
        assert sample_report_sha256("ex2", "-O") == \
            sample_report_sha256("ex2") == REPORT_SHA256["ex2"]

    def test_trace_goes_to_stderr(self, tmp_path):
        proc = run_cli(tmp_path, EX2, "--trace")
        assert proc.returncode == 0
        assert "candidate field" in proc.stderr

    def test_field_tower_flag(self, tmp_path):
        # the default x^2 + 1, and x^2 + x + 2, also irreducible over GF(3)
        for modulus in ([1, 0, 1], [2, 1, 1]):
            tower = {"p": 3, "unramified_modulus": modulus,
                     "eisenstein": [[-3, 0, 0, 0, 1]], "precision": 40}
            proc = run_tower(tmp_path, tower, "--json")
            assert proc.returncode == 0, proc.stderr
            data = json.loads(proc.stdout)
            assert data["conductor_exponent"] == 11
            assert data["P1"] == [1, 1, 3, 3]

    @pytest.mark.parametrize("precision", [8, 10])
    def test_field_tower_precision_exhausted_is_final(
            self, tmp_path, monkeypatch, capsys, precision):
        """An explicit field keeps its own precision, so running the
        pipeline again would repeat the failure: no retry."""
        from superell import pipeline
        calls = [0]
        compute = pipeline.compute

        def counted(*args, **kwargs):
            calls[0] += 1
            return compute(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute", counted)
        tower = {"p": 3, "unramified_modulus": [1, 0, 1],
                 "eisenstein": [[-3, 0, 0, 0, 1]], "precision": precision}
        (tmp_path / "curve.json").write_text(json.dumps(EX1))
        (tmp_path / "tower.json").write_text(json.dumps(tower))
        code = main([str(tmp_path / "curve.json"), "--field-tower",
                     str(tmp_path / "tower.json"), "--trace"])
        err = capsys.readouterr().err
        assert code == 4 and calls[0] == 1
        assert "PrecisionExhausted" in err and "retrying" not in err

    def test_field_tower_precision_12_completes(self, tmp_path, capsys):
        """At precision 12 the tower's digits suffice: the report is the
        one at precision 50 apart from ``report.field.precision``."""
        reports = {}
        for precision in (12, 50):
            tower = {"p": 3, "unramified_modulus": [1, 0, 1],
                     "eisenstein": [[-3, 0, 0, 0, 1]], "precision": precision}
            assert main_tower(tmp_path, tower, "--json") == 0
            reports[precision] = json.loads(capsys.readouterr().out)
        assert reports[12]["report"]["field"].pop("precision") == 12
        assert reports[50]["report"]["field"].pop("precision") == 50
        assert reports[12] == reports[50]

    @pytest.mark.parametrize("precision", [2, 5, 7, 8])
    def test_field_tower_precision_floor(self, tmp_path, capsys, precision):
        """A tower's precision has the floor of ``--precision``: below 8 it
        is refused, at 8 the pipeline runs (and runs out of precision)."""
        tower = {"p": 3, "unramified_modulus": [1, 0, 1],
                 "eisenstein": [[-3, 0, 0, 0, 1]], "precision": precision}
        code = main_tower(tmp_path, tower, "--json")
        out = json.loads(capsys.readouterr().out)
        if precision < 8:
            assert code == 2
            assert out == {"error": "ValidationError", "exit_code": 2,
                           "message": "precision must be at least 8"}
        else:
            assert code == 4 and out["error"] == "PrecisionExhausted"

    def test_field_tower_root_search_once(self, tmp_path, capsys,
                                          monkeypatch):
        """f is root-searched over the tower field once per squarefree
        factor: the split test's roots are the branch divisor."""
        from superell import fieldsearch, localfield, pipeline
        from superell.curve import SuperellipticCurve
        factors = [g for g, _ in SuperellipticCurve.from_json_dict(
            EX1).f.squarefree_decomposition()]
        calls = [0]
        original = localfield.roots_of_qpoly

        def counted(K, g):
            calls[0] += g in factors
            return original(K, g)

        for mod in (localfield, fieldsearch, pipeline):
            if getattr(mod, "roots_of_qpoly", None) is original:
                monkeypatch.setattr(mod, "roots_of_qpoly", counted)
        tower = {"p": 3, "unramified_modulus": [1, 0, 1],
                 "eisenstein": [[-3, 0, 0, 0, 1]], "precision": 40}
        code = main_tower(tmp_path, tower, "--json")
        assert code == 0, capsys.readouterr().out
        assert calls[0] == len(factors)

    def test_field_tower_not_split_is_invalid(self, tmp_path, capsys):
        tower = {"p": 3, "unramified_modulus": [1, 0, 1], "precision": 40}
        code = main_tower(tmp_path, tower, "--json")
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["error"] == "ValidationError"
        assert out["message"].startswith(
            "f does not split over the tower field")

    def test_field_tower_non_monic_modulus(self, tmp_path):
        tower = {"p": 3, "unramified_modulus": [1, 0, 2],
                 "eisenstein": [[-3, 0, 0, 0, 1]]}
        proc = run_tower(tmp_path, tower)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_field_tower_reducible_modulus(self, tmp_path):
        # x^2 + 2 = (x + 1)(x + 2) over GF(3)
        tower = {"p": 3, "unramified_modulus": [2, 0, 1],
                 "eisenstein": [[-3, 0, 0, 0, 1]], "precision": 40}
        proc = run_tower(tmp_path, tower, "--json")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "ReducibleModulus"

    def test_field_tower_bad_coefficient(self, tmp_path):
        for step in (["a", 0, 1], [[None], 0, 1]):
            proc = run_tower(tmp_path, {"p": 3, "eisenstein": [step]})
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tower", [
        {"p": "3", "eisenstein": []},
        {"p": 3, "unramified_modulus": 5},
        {"p": 3, "unramified_modulus": [1, None, 1]},
        {"p": 3, "eisenstein": 5},
        [1],
        {"p": 3, "precision": "x"},
        {"p": 3, "eisenstein": [[]]},
        {"p": 5, "eisenstein": [[-5, 0, 0, 0, 1]]},
        {"p": 3, "precision": 5},
    ])
    def test_field_tower_bad_field_types(self, tmp_path, tower):
        proc = run_tower(tmp_path, tower, "--json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"] == "ValidationError"

    def test_import_loads_no_numpy(self):
        """numpy is imported where it is used, so start-up does not pay
        for it."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, superell, superell.cli; "
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_small_fields_load_no_numpy(self, tmp_path):
        """Curves whose GF(q) tables and point counts stay within 2^12
        elements (here up to 2,197 and 2,401) run without numpy."""
        specs = [REPO / "sample_curves" / "ex1.json",
                 REPO / "sample_curves" / "ex2.json"]
        for name, spec in (
                ("corpus_p13", {"n": 3, "p": 13, "f": [-2, 3, 1, -3, 1]}),
                ("corpus_p7_n4",
                 {"n": 4, "p": 7, "f": [2, -5, 2, 4, -4, 1]})):
            specs.append(tmp_path / f"{name}.json")
            specs[-1].write_text(json.dumps(spec))
        script = ("import sys; from superell.cli import main; "
                  f"codes = [main([path, '--json']) for path in "
                  f"{[str(s) for s in specs]!r}]; "
                  "print(codes, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"

    def test_in_process_main(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(EX2))
        rc = main([str(path), "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conductor_exponent"] == 8

    def test_bad_precision(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(EX2))
        assert main([str(path), "--precision", "4"]) == 2

    def test_bad_max_degree(self, tmp_path, capsys):
        """A catalog bound below 1 is invalid input, not an exhausted
        catalog."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(EX2))
        for bound in ("-3", "0"):
            assert main([str(path), "--json", "--max-degree", bound]) == 2
            assert json.loads(capsys.readouterr().out) == {
                "error": "ValidationError", "exit_code": 2,
                "message": "max-degree must be at least 1"}
        assert main([str(path), "--max-degree", "-3"]) == 2
        assert capsys.readouterr().err == \
            "error: max-degree must be at least 1\n"

    @pytest.mark.parametrize("option", ("--max-degree", "--precision",
                                        "tower"))
    def test_upper_bounds_refused_at_once(self, tmp_path, capsys, option):
        """A --max-degree, --precision or tower precision above its bound
        exits 2 before any work; at 10^8 each ran for more than 20 s."""
        name, high = (("max-degree", MAX_DEGREE) if option == "--max-degree"
                      else ("precision", MAX_PRECISION))
        for value in (high + 1, 10**8):
            t0 = time.perf_counter()
            if option == "tower":
                code = main_tower(tmp_path, {
                    "p": 3, "unramified_modulus": [1, 0, 1],
                    "eisenstein": [[-3, 0, 0, 0, 1]], "precision": value},
                    "--json")
            else:
                path = tmp_path / "c.json"
                path.write_text(json.dumps(EX1))
                code = main([str(path), "--json", option, str(value)])
            assert time.perf_counter() - t0 < 1
            assert code == 2
            assert json.loads(capsys.readouterr().out) == {
                "error": "ValidationError", "exit_code": 2,
                "message": f"{name} must be at most {high}"}


class TestMalformedSpecsOverCli:
    """The specs of ``test_curve.TestMalformedSpecs`` through ``main``.
    With --max-degree 1 the only catalog entry has e = 1, which no n >= 2
    divides, so a valid curve exits 3 at once: every spec exits 2 to 5
    with a JSON diagnostic and no traceback, within the deadline."""

    @_CHECKED
    @given(_SPECS)
    @example(EX1)
    @example(EX2)
    @example({"n": 7, "p": 10**12 + 39, "f": [["x^2-3", 3], [[1, 1], 1]]})
    def test_any_spec(self, spec):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "curve.json"
            path.write_text(json.dumps(spec))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([str(path), "--json", "--max-degree", "1"])
        assert code in (2, 3, 4, 5)
        report = json.loads(out.getvalue())
        assert report["exit_code"] == code and report["error"]
        assert "Traceback" not in err.getvalue()


def test_perfbench_spans_resolve():
    """Every function and method that the benchmark's traced runs wrap
    (perfbench/spans.py, loaded by path) exists under its listed name."""
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans.SPANS + spans.GENERATOR_SPANS + spans.COUNTED_METHODS
    assert table
    for modname, attr, _ in table:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{modname}.{attr} is gone"
        assert callable(obj), f"{modname}.{attr} is not callable"


@pytest.mark.parametrize("workload", ("padic_tree", "point_count",
                                      "cold_cli"))
def test_pass0_reports_pinned(perfbench, workload_pass0, workload):
    """The ``--json`` reports of pass 0 of each benchmark workload at the
    default seed, recomputed in process, have the sha256 pinned in
    perfbench/references.json; for ``cold_cli`` these include the curve
    with a degree-40 field and the spec refused with exit code 2."""
    reference = perfbench.reference
    pinned = reference.load()["reports"]
    outcomes = workload_pass0(workload)
    assert outcomes
    for case, outcome in outcomes:
        if isinstance(outcome, Exception):
            text = reference.error_report(outcome)
        else:
            text = reference.canonical(outcome.to_json_dict())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == pinned[case.key], f"{case.shape}: report drift"


@pytest.mark.parametrize("workload", ("padic_tree", "cold_cli"))
def test_pass0_reports_pinned_pure(perfbench, monkeypatch, workload):
    """Pass 0 of ``padic_tree`` and ``cold_cli`` gives the pinned reports
    with every GF(q) table fill and point count in pure Python, the path a
    fresh process takes on small fields while numpy is not loaded:
    ``_numpy_pays`` is forced false on every field that keeps tables, and
    fresh field and candidate caches make every table anew."""
    monkeypatch.setattr(finitefield, "_numpy_pays",
                        lambda n: n > finitefield._TABLE_MAX)
    monkeypatch.setattr(finitefield, "_field_cache",
                        lru_cache(maxsize=None)(finitefield.FqField))
    monkeypatch.setattr(fieldsearch, "_CANDIDATE_CACHE", {})
    reference = perfbench.reference
    pinned = reference.load()["reports"]
    _, passes = perfbench.workloads.build(workload, reference.DEFAULT_SEED)
    for case in passes[0]:
        try:
            text = reference.canonical(compute_with_retry(
                SuperellipticCurve.from_json_dict(case.spec)).to_json_dict())
        except SuperellError as exc:
            text = reference.error_report(exc)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == pinned[case.key], f"{case.shape}: report drift"


def test_all_pinned_reports(perfbench, workload_pass0):
    """Every spec pinned in perfbench/references.json (the warm-up and the
    isomorphic copies of every pass of each workload at the default seed),
    recomputed in process, gives the pinned ``--json`` report.  The pass-0
    specs take their outcomes from the session's ``workload_pass0``."""
    reference = perfbench.reference
    pinned = reference.load()["reports"]
    assert pinned
    known = {case.key: outcome
             for workload in perfbench.workloads.WORKLOADS
             for case, outcome in workload_pass0(workload)}
    assert known.keys() <= pinned.keys()
    drift = []
    for key, digest in pinned.items():
        outcome = known.get(key)
        if outcome is None:
            try:
                outcome = compute_with_retry(
                    SuperellipticCurve.from_json_dict(json.loads(key)))
            except SuperellError as exc:
                outcome = exc
        if isinstance(outcome, SuperellError):
            text = reference.error_report(outcome)
        else:
            text = reference.canonical(outcome.to_json_dict())
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            drift.append(key)
    assert not drift, f"report drift on {drift}"
