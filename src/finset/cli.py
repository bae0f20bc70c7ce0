"""Command-line front end: space generators, retraction and certification
commands, JSON/CSV reports, reproducible seeded runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import analysis, generators, line, transforms, ultra
from .metric import (
    DEFAULT_ENUMERATION_CAP,
    FSet,
    RealLineSpace,
    as_finite_space,
    get_tolerance,
    hausdorff,
    min_separation,
)


# grid points per interval when an interval union is searched as a domain
_PER_INTERVAL = 4

_MAPS = ("line", "median", "delete-min", "interval-union", "generic", "snowflake")


def _load_spec(text):
    """A JSON spec given inline, or the path of a file holding one."""
    text = text.strip()
    if text.startswith(("{", "[")):
        spec = json.loads(text)
    else:
        with open(text) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("a spec must be a JSON object, got %s" % (json.dumps(spec),))
    return spec


def _load_space(text):
    return generators.generate(_load_spec(text))


def _parse_set(text, space):
    """A JSON list of points as an FSet.  Given a space, each point must lie in
    it: within ``get_tolerance()`` in an interval union, exactly in listed points."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("a set must be a JSON list of points")
    A = FSet(tuple(p) if isinstance(p, list) else p for p in data)
    for p in A if space is not None else ():
        if not (space.contains(p, get_tolerance()) if isinstance(space, line.IntervalUnion)
                else p in space.points):
            raise ValueError("point %r is not in the space" % (p,))
    return A


def _jsonable(obj):
    # the exact types of a report's bulk first, which no dataclass is: a full
    # chain holds thousands of sets of Fractions
    kind = type(obj)
    if kind is tuple or kind is FSet:
        return [_jsonable(v) for v in obj]
    if kind is Fraction:
        return "%d/%d" % (obj.numerator, obj.denominator)
    if kind is int:
        return obj
    if kind is not float:
        if dataclasses.is_dataclass(obj):
            obj = vars(obj)
        if isinstance(obj, dict):
            return {str(k): _jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_jsonable(v) for v in obj]
        if isinstance(obj, Fraction):
            return "%d/%d" % (obj.numerator, obj.denominator)
        if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
            return obj
    x = float(obj)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _write_text(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report, out):
    data = _jsonable(report)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if json.loads(text) != data:
        raise RuntimeError("report failed its serialization round-trip")
    _write_text(text, out)


def _emit_csv(header, rows, out):
    """Write rows as CSV, floats as ``%.17g`` so that they read back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, (str, int)) else "%.17g" % float(v) for v in row]
                     for row in rows)
    text = buf.getvalue()
    for row, back in zip(rows, list(csv.reader(io.StringIO(text)))[1:]):
        if any(not isinstance(v, str) and float(b) != float(v) for v, b in zip(row, back)):
            raise RuntimeError("CSV report failed its round-trip")
    _write_text(text, out)


def _space_summary(space):
    """An interval union's JSON form; for a space of listed points, its kind,
    points, size and diameter, without reading its distance matrix out."""
    if isinstance(space, line.IntervalUnion):
        return space.to_json()
    points = space.to_json()["points"] if isinstance(space, RealLineSpace) else space.points
    return {"kind": space.kind, "points": points, "size": len(space.points),
            "diameter": space.diameter()}


def _retraction(name, space, n, m, target_l):
    if name == "line":
        return lambda A: line.line_retract(A, n)
    if name == "median":
        return lambda A: line.median_retract(A, n)
    if name == "delete-min":
        return lambda A: line.delete_min_retract(A, n)
    if name == "interval-union":
        if not isinstance(space, line.IntervalUnion):
            raise ValueError("interval-union retraction needs an interval_union space")
        expansion = line.build_gap_expansion(space, n)
        return lambda A: line.interval_union_retract(space, A, n, expansion=expansion)
    if name in ("generic", "snowflake") and space is None:
        raise ValueError("%s retraction needs a --space" % name)
    if name == "generic":
        family = ultra.build_centers(space)
        return lambda A: ultra.generic_retract(family, A, n, m)
    if name == "snowflake":
        plan = ultra.build_snowflake_plan(space, target_l)
        return lambda A: ultra.generic_retract(plan.family, A, n, m)
    raise ValueError("unknown retraction %r; accepted: %s" % (name, ", ".join(_MAPS)))


def _domain_space(space):
    if isinstance(space, line.IntervalUnion):
        return RealLineSpace(space.discretize(_PER_INTERVAL))
    return space


def _cmd_validate(args):
    space = _load_space(args.space)
    report = {"space": _space_summary(space), "valid": True}
    if not isinstance(space, line.IntervalUnion):
        check = ultra.validate_ultrametric(space)
        report.update(is_ultrametric=check.is_ultrametric,
                      ultrametric_slack=check.violation,
                      min_positive_distance=space.min_positive_distance()
                      if len(space) > 1 else None)
    return report


def _cmd_hausdorff(args):
    space = _load_space(args.space) if args.space else None
    A, B = _parse_set(args.a, space), _parse_set(args.b, space)
    return {"a": A, "b": B, "distance": hausdorff(A, B, _domain_space(space))}


def _cmd_retract(args):
    space = _load_space(args.space) if args.space else None
    A = _parse_set(args.set, space)
    n = args.n
    m = args.m if args.m is not None else n - 1
    f = _retraction(args.map, space, n, m, args.target_l)
    out = f(A)
    dom = _domain_space(space)
    return {
        "map": args.map,
        "n": n,
        "m": m,
        "input": A,
        "output": out,
        "displacement": hausdorff(A, out, dom),
        "min_separation": min_separation(A, n, dom),
    }


def _cmd_estimate_lip(args):
    space = _load_space(args.space)
    n = args.n
    m = args.m if args.m is not None else n - 1
    f = _retraction(args.map, space, n, m, args.target_l)
    dom_space = _domain_space(space)
    domain = analysis.SubsetDomain.build(dom_space, n, cap=args.cap)
    report = analysis.estimate_constant(
        f, domain, hoelder_exponent=args.exponent,
        seed=args.seed, pair_budget=args.budget)
    if not (args.out and args.out.endswith(".csv")):
        return report
    row = [report.kind, report.constant, report.exponent,
           json.dumps(_jsonable(report.witness[0])),
           json.dumps(_jsonable(report.witness[1])),
           report.pairs_examined, report.mode]
    _emit_csv(["kind", "constant", "exponent", "witness_a", "witness_b",
               "pairs_examined", "mode"], [row], args.out)


def _cmd_witness(args):
    w = analysis.lipschitz_obstruction_witness(Fraction(args.L))
    analysis.validate_obstruction_witness(w)
    report = {
        "L": w.L, "k": w.k, "x": w.x, "y": w.y, "z": w.z,
        "A": w.A, "B": w.B,
        "chain_length": len(w.chain),
        "max_step": w.max_step,
        "max_step_float": float(w.max_step),
        "validated": True,
    }
    if args.full_chain:
        report["chain"] = w.chain
    return report


def _cmd_quasiconvexity(args):
    return analysis.quasiconvexity_constant(_load_space(args.space), args.eps)


def _cmd_transform(args):
    space = as_finite_space(_load_space(args.space))
    T = transforms.MetricTransform.from_json(_load_spec(args.transform))
    out_space = transforms.apply_transform(space, T)
    upper = np.triu_indices(len(space.points), 1)
    base = space.dist[upper]
    return {
        "transform": T.to_json(),
        "space": _space_summary(out_space),
        "doubling_ratio": transforms.transport_constant(T, 2, base),
        "transport_constant": transforms.transport_constant(T, args.L, base),
        "distances": sorted(set(round(float(d), 12) for d in out_space.dist[upper])),
    }


def _cmd_ultra_build(args):
    space = as_finite_space(_load_space(args.space))
    check = ultra.validate_ultrametric(space)
    report = {"is_ultrametric": check.is_ultrametric, "generic_bound": ultra.GENERIC_BOUND}
    base = space
    if not check.is_ultrametric:
        base = ultra.subdominant_ultrametric(space)
        disc = ultra.disconnection_constant(space)
        report["disconnection_constant"] = disc.constant
        report["disconnection_witness"] = disc.witness
    family = ultra.build_centers(base)
    report["levels"] = family.levels
    report["scales"] = [family.scale(k) for k in family.levels]
    report["centers_per_level"] = [
        len(set(family.maps[k].values())) for k in family.levels]
    return report


@functools.cache  # argparse keeps no state between parses
def build_parser():
    parser = argparse.ArgumentParser(
        prog="finset",
        description="Retractions of finite subset spaces and their constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, space=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if space:
            p.add_argument("--space", required=space == "required",
                           help="generator spec: inline JSON or a path to a JSON file")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    def retraction(p):
        p.add_argument("--map", required=True, help="retraction: " + ", ".join(_MAPS))
        p.add_argument("--n", type=int, required=True,
                       help="the map's domain is X(n), the sets of at most n points")
        p.add_argument("--m", type=int,
                       help="the generic and snowflake maps land in X(m), default n - 1")
        p.add_argument("--target-l", type=float, default=1.25,
                       help="Lipschitz target of the snowflake map")

    command("validate", _cmd_validate, "check metric and ultrametric axioms",
            space="required")

    p = command("hausdorff", _cmd_hausdorff, "Hausdorff distance between two sets",
                space="optional")
    p.add_argument("--a", required=True, help="first set as a JSON list")
    p.add_argument("--b", required=True, help="second set as a JSON list")

    p = command("retract", _cmd_retract, "apply a named retraction to one set",
                space="optional")
    retraction(p)
    p.add_argument("--set", required=True, help="input set as a JSON list")

    p = command("estimate-lip", _cmd_estimate_lip,
                "estimate a Lipschitz or Hoelder constant", space="required")
    retraction(p)
    p.add_argument("--exponent", type=float, default=1.0,
                   help="Hoelder exponent in (0, 1]; 1 gives a Lipschitz constant")
    p.add_argument("--budget", type=int, default=analysis._PAIR_BUDGET,
                   help="pairs a sampled search may score")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest X(n) searched exhaustively; above it the "
                        "search is sampled")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled search")

    p = command("witness", _cmd_witness, "exact chain witness against Lipschitz deletion")
    p.add_argument("--L", required=True, help="Lipschitz bound to defeat, e.g. 1 or 3/2")
    p.add_argument("--full-chain", action="store_true",
                   help="list every set of the chain in the report")

    p = command("quasiconvexity", _cmd_quasiconvexity, "shortest-path to distance ratio",
                space="required")
    p.add_argument("--eps", type=float, required=True,
                   help="neighbor radius: the graph joins points at most eps apart")

    p = command("transform", _cmd_transform, "rewrite distances through a transform",
                space="required")
    p.add_argument("--transform", required=True,
                   help="transform spec: inline JSON or a path")
    p.add_argument("--L", type=float, default=1.0,
                   help="Lipschitz constant to transport through the transform")

    command("ultra-build", _cmd_ultra_build, "center family of an ultrametric space",
            space="required")
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        if report is not None:
            _emit_json(report, args.out)
        return 0
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


def entry():
    sys.exit(run())


if __name__ == "__main__":
    entry()
