"""Command-line driver.

Reads a curve spec (JSON: {"n": 4, "f": [...] or [["x^2-3", 1], ...],
"p": 3}), runs the pipeline and prints either a human-readable derivation
trail or canonical JSON.  Exit codes: 0 success, 2 validation failure,
3 catalog exhausted, 4 precision exhausted, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .curve import SuperellipticCurve, _is_int
from .errors import SuperellError, ValidationError
from .fieldsearch import SearchConfig, build_tower
from .pipeline import compute_with_retry

# the largest --max-degree and --precision (or tower "precision") accepted:
# the catalog is listed up to the degree bound before its first entry is
# tried, and a precision retry works at four times the precision
MAX_DEGREE = 1024
MAX_PRECISION = 1000


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ``ValidationError`` where argparse would print its usage and
    exit, so that ``main`` reports a bad option like any other input."""

    def error(self, message):
        raise ValidationError(message)


def _parser():
    ap = _ArgumentParser(
        prog="superell",
        description="Local L-factor and conductor exponent of a "
                    "superelliptic curve y^n = f(x) over Q at a prime p "
                    "(p not dividing n), via semistable reduction.")
    ap.add_argument("input", help="path to the curve spec JSON "
                                  "('-' for stdin)")
    ap.add_argument("--precision", type=int, default=50,
                    help="p-adic working precision in digits (default 50, "
                         f"minimum 8, maximum {MAX_PRECISION})")
    ap.add_argument("--max-degree", type=int, default=64,
                    help="catalog bound on the field degree (default 64, "
                         f"minimum 1, maximum {MAX_DEGREE})")
    ap.add_argument("--field-tower", metavar="PATH", default=None,
                    help="JSON spec of an explicit field tower to use "
                         "instead of the catalog search")
    ap.add_argument("--json", action="store_true",
                    help="print the full result as canonical JSON")
    ap.add_argument("--trace", action="store_true",
                    help="print pipeline stages to stderr")
    return ap


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _out_of_range(name, value, low, high):
    """The refusal of an option value outside [low, high], else None."""
    if value < low:
        return f"{name} must be at least {low}"
    if value > high:
        return f"{name} must be at most {high}"
    return None


def _explicit_field(tower, curve, precision):
    """The field of a ``--field-tower`` spec, {"p": 3,
    "unramified_modulus": [1, 0, 1], "eisenstein": [[-3, 0, 1]],
    "precision": 40}, after checking its fields against their types, its
    precision against the bounds of ``--precision`` and its p against the
    curve's (``pipeline.compute`` checks that f splits over it)."""
    if not isinstance(tower, dict):
        raise ValidationError("field tower must be a JSON object")
    p, modulus = tower["p"], tower.get("unramified_modulus")
    steps = tower.get("eisenstein", [])
    precision = tower.get("precision", precision)
    for key, val in (("p", p), ("precision", precision)):
        if not _is_int(val):
            raise ValidationError(f"tower {key} must be an integer, "
                                  f"not {val!r}")
    refusal = _out_of_range("precision", precision, 8, MAX_PRECISION)
    if refusal:
        raise ValidationError(refusal)
    if p != curve.p:
        raise ValidationError(f"tower p = {p} differs from the curve's "
                              f"p = {curve.p}")
    if modulus is not None and not (isinstance(modulus, list)
                                    and all(map(_is_int, modulus))):
        raise ValidationError("unramified_modulus must be a list of "
                              f"integers, not {modulus!r}")
    if not (isinstance(steps, list)
            and all(isinstance(step, list) and step for step in steps)):
        raise ValidationError("eisenstein must be a list of non-empty "
                              f"coefficient lists, not {steps!r}")
    f0 = len(modulus) - 1 if modulus else 1
    return build_tower(p, f0, steps, precision, unramified_modulus=modulus)


def _ascii_tree(tree, result):
    lines = []
    red = result.fiber.reductions

    def walk(v, prefix):
        r = red[v]
        marked = tree.vertices[v].marked
        lines.append(
            f"{prefix}v{v}  radius {tree.vertices[v].disc_radius}/"
            f"{result.L.e}  eta(f) = {r.eta_vp1}  n_v = {r.n_v}  "
            f"genus {r.component_genus}  marked {marked}")
        for c in tree.vertices[v].children:
            walk(c, prefix + "    ")

    walk(tree.root, "")
    return "\n".join(lines)


def _poly_str(coeffs, var="T"):
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(terms) if terms else "0"


def _print_text(result):
    curve = result.curve
    cond = result.conductor
    print(f"curve: y^{curve.n} = f(x), deg f = {curve.degree()}, "
          f"p = {curve.p}, genus = {curve.genus()}")
    print(f"field: {result.L.label}  [L:Q_p] = {result.L.degree}, "
          f"e = {result.L.e}, f = {result.L.f}")
    print(f"Galois group: order {result.G.order()}, inertia "
          f"{len(result.G.inertia)}, ramification filtration sizes "
          f"{[len(g) for g in result.filt.groups]}")
    print("marked tree (specialization and reduction data):")
    print(_ascii_tree(result.tree, result))
    print("inertial reduction components:")
    for piece in result.inertial.geometric_components:
        eq = piece["equation"]
        print(f"  z^{piece['n_geo']} = {eq!r} over GF({eq.field.q}) "
              f"(orbit size {piece['d_j']}, genus {piece['genus']})")
    print("node orbits (size, epsilon):",
          result.inertial.node_orbit_data())
    print(f"dim H^1 = {result.inertial.dim_h1}")
    print(f"P1(T) = {_poly_str(result.lfactor.p1)}")
    print(f"conductor exponent: f = epsilon + delta = {cond.epsilon} + "
          f"{cond.delta} = {cond.conductor}")


def _fail(args, error, message, exit_code, text):
    """Report an abort: the JSON diagnostic under ``--json``, else ``text``
    on stderr.  Returns the exit code."""
    if args.json:
        print(json.dumps({"error": error, "message": message,
                          "exit_code": exit_code}, sort_keys=True))
    else:
        print(text, file=sys.stderr)
    return exit_code


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except ValidationError as exc:
        # parsing stopped before it read --json (which may be abbreviated)
        words = sys.argv[1:] if argv is None else argv
        args = argparse.Namespace(json=any(
            w.startswith("--j") and "--json".startswith(w) for w in words))
        return _fail(args, "ValidationError", str(exc), 2,
                     f"{parser.format_usage()}{parser.prog}: error: {exc}")
    refusal = (_out_of_range("precision", args.precision, 8, MAX_PRECISION)
               or _out_of_range("max-degree", args.max_degree, 1, MAX_DEGREE))
    if refusal:
        return _fail(args, "ValidationError", refusal, 2, f"error: {refusal}")
    config = SearchConfig(precision=args.precision,
                          max_degree=args.max_degree)
    trace = sys.stderr if args.trace else None
    try:
        spec = _load_json(args.input)
        curve = SuperellipticCurve.from_json_dict(spec)
        explicit = None
        if args.field_tower:
            explicit = _explicit_field(_load_json(args.field_tower),
                                       curve, args.precision)
        result = compute_with_retry(curve, config, explicit_field=explicit,
                                    trace=trace)
    except SuperellError as exc:
        name = type(exc).__name__
        return _fail(args, name, str(exc), exc.exit_code,
                     f"error [{name}]: {exc}")
    except (OSError, ValueError, KeyError) as exc:
        return _fail(args, type(exc).__name__, str(exc), 2,
                     f"error reading input: {exc}")
    if args.json:
        print(json.dumps(result.to_json_dict(), sort_keys=True,
                         separators=(",", ":")))
    else:
        _print_text(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
