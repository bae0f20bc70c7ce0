"""Command-line front end: space generators, retraction and certification
commands, JSON/CSV reports, reproducible seeded runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, generators, line, transforms, ultra
from .metric import (
    DEFAULT_ENUMERATION_CAP,
    FSet,
    FiniteMetricSpace,
    RealLineSpace,
    as_finite_space,
    hausdorff,
    min_separation,
)


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run; identical configs give identical reports.

    ``seed`` and ``cap`` come from ``estimate-lip``; other commands keep the
    defaults."""

    seed: int = 0
    cap: int = DEFAULT_ENUMERATION_CAP
    out: str | None = None


def _load_spec(text):
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _load_space(text):
    return generators.generate(_load_spec(text))


def _parse_set(text):
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("a set must be a JSON list of points")
    return FSet(tuple(p) if isinstance(p, list) else p for p in data)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, FSet):
        return [_jsonable(p) for p in obj]
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


def _fmt(x):
    return "%.17g" % float(x)


def _emit_csv(header, rows, out):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append('"%s"' % v.replace('"', '""'))
            elif isinstance(v, int):
                cells.append(str(v))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    for row, parsed in zip(rows, text.splitlines()[1:]):
        back = next_csv_row(parsed)
        for v, b in zip(row, back):
            if not isinstance(v, str) and float(b.strip('"')) != float(v):
                raise RuntimeError("CSV report failed its round-trip")
    _write_text(text, out)


def next_csv_row(line_text):
    """Split one CSV line produced by _emit_csv, unquoting string cells."""
    out = []
    field = []
    quoted = False
    i = 0
    while i < len(line_text):
        c = line_text[i]
        if quoted:
            if c == '"' and i + 1 < len(line_text) and line_text[i + 1] == '"':
                field.append('"')
                i += 1
            elif c == '"':
                quoted = False
            else:
                field.append(c)
        elif c == '"':
            quoted = True
        elif c == ",":
            out.append("".join(field))
            field = []
        else:
            field.append(c)
        i += 1
    out.append("".join(field))
    return out


def _space_summary(space):
    if isinstance(space, line.IntervalUnion):
        return {"kind": "interval_union",
                "intervals": [list(iv) for iv in space.intervals]}
    data = space.to_json()
    data["size"] = len(space.points)
    data.pop("dist", None)
    data["diameter"] = space.diameter()
    return data


def _retraction(name, space, n, m, target_l):
    if name == "line":
        return lambda A: line.line_retract(A, n)
    if name == "median":
        return lambda A: line.median_retract(A, n)
    if name in ("delete-min", "delete_min"):
        return lambda A: line.delete_min_retract(A, n)
    if name in ("interval-union", "interval_union"):
        if not isinstance(space, line.IntervalUnion):
            raise ValueError("interval-union retraction needs an interval_union space")
        expansion = line.build_gap_expansion(space, n)
        return lambda A: line.interval_union_retract(space, A, n, expansion=expansion)
    if name in ("ultra", "generic"):
        family = ultra.build_centers(space)
        return lambda A: ultra.generic_retract(family, A, n, m)
    if name == "snowflake":
        plan = ultra.build_snowflake_plan(space, target_l)
        return lambda A: ultra.generic_retract(plan.family, A, n, m)
    raise ValueError("unknown retraction %r" % (name,))


def _domain_space(space, per_interval=4):
    if isinstance(space, line.IntervalUnion):
        return RealLineSpace(space.discretize(per_interval))
    return space


def _cmd_validate(args, config):
    space = _load_space(args.space)
    if isinstance(space, line.IntervalUnion):
        report = {"space": _space_summary(space), "valid": True}
        _emit_json(report, config.out)
        return 0
    # line spaces are valid by construction; explicit matrices get rechecked
    if isinstance(space, FiniteMetricSpace):
        space.validate()
    check = ultra.validate_ultrametric(space)
    report = {
        "space": _space_summary(space),
        "valid": True,
        "is_ultrametric": check.is_ultrametric,
        "ultrametric_slack": check.violation,
        "min_positive_distance": space.min_positive_distance(),
    }
    _emit_json(report, config.out)
    return 0


def _cmd_hausdorff(args, config):
    space = _load_space(args.space) if args.space else None
    A, B = _parse_set(args.a), _parse_set(args.b)
    report = {"a": A, "b": B, "distance": hausdorff(A, B, space)}
    _emit_json(report, config.out)
    return 0


def _cmd_retract(args, config):
    space = _load_space(args.space) if args.space else None
    A = _parse_set(args.set)
    n = args.n
    m = args.m if args.m is not None else n - 1
    f = _retraction(args.map, space, n, m, args.target_l)
    out = f(A)
    dom = _domain_space(space) if space is not None else None
    report = {
        "map": args.map,
        "n": n,
        "m": m,
        "input": A,
        "output": out,
        "displacement": hausdorff(A, out, dom),
        "min_separation": min_separation(A, n, dom),
    }
    _emit_json(report, config.out)
    return 0


def _cmd_estimate_lip(args, config):
    space = _load_space(args.space)
    n = args.n
    m = args.m if args.m is not None else n - 1
    f = _retraction(args.map, space, n, m, args.target_l)
    dom_space = _domain_space(space)
    domain = analysis.SubsetDomain.build(dom_space, n, cap=config.cap)
    report = analysis.estimate_constant(
        f, domain, hoelder_exponent=args.exponent,
        seed=config.seed, pair_budget=args.budget)
    row = [report.kind, report.constant, report.exponent,
           json.dumps(_jsonable(report.witness[0])),
           json.dumps(_jsonable(report.witness[1])),
           report.pairs_examined, report.mode]
    if config.out and config.out.endswith(".csv"):
        _emit_csv(["kind", "constant", "exponent", "witness_a", "witness_b",
                   "pairs_examined", "mode"], [row], config.out)
    else:
        _emit_json({
            "kind": report.kind, "constant": report.constant,
            "exponent": report.exponent,
            "witness": [report.witness[0], report.witness[1]],
            "pairs_examined": report.pairs_examined, "mode": report.mode,
            "stop_reason": report.stop_reason,
        }, config.out)
    return 0


def _cmd_witness(args, config):
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
        report["chain"] = [list(S) for S in w.chain]
    _emit_json(report, config.out)
    return 0


def _cmd_quasiconvexity(args, config):
    space = _load_space(args.space)
    report = analysis.quasiconvexity_constant(space, args.eps)
    _emit_json({
        "constant": report.constant,
        "connected": report.connected,
        "eps": report.eps,
        "witness": list(report.witness) if report.witness else None,
    }, config.out)
    return 0


def _cmd_transform(args, config):
    space = as_finite_space(_load_space(args.space), validate=False)
    T = transforms.MetricTransform.from_json(_load_spec(args.transform))
    out_space = transforms.apply_transform(space, T)
    dists = [out_space.dist[i, j]
             for i in range(len(out_space.points))
             for j in range(i + 1, len(out_space.points))]
    base = _as_positive([space.dist[i, j]
                         for i in range(len(space.points))
                         for j in range(i + 1, len(space.points))])
    report = {
        "transform": T.to_json(),
        "space": _space_summary(out_space),
        "doubling_ratio": transforms.doubling_ratio(T, base),
        "transport_constant": transforms.transport_constant(T, args.L, base),
        "distances": sorted(set(round(float(d), 12) for d in dists)),
    }
    _emit_json(report, config.out)
    return 0


def _as_positive(values):
    return [v for v in values if v > 0]


def _cmd_ultra_build(args, config):
    space = as_finite_space(_load_space(args.space))
    check = ultra.validate_ultrametric(space)
    report = {"is_ultrametric": check.is_ultrametric}
    base = space
    if not check.is_ultrametric:
        sub = ultra.subdominant_ultrametric(space)
        # sub is validated already; build_centers still checks ultrametricity
        disc = ultra.disconnection_constant(space, validate=False)
        report["disconnection_constant"] = disc.constant
        report["disconnection_witness"] = list(disc.witness) if disc.witness else None
        base = sub
    family = ultra.build_centers(base)
    report["levels"] = list(family.levels)
    report["scales"] = [family.scale(k) for k in family.levels]
    report["centers_per_level"] = [
        len(set(family.maps[k].values())) for k in family.levels]
    report["generic_bound"] = ultra.generic_retract_bound()
    _emit_json(report, config.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "hausdorff": _cmd_hausdorff,
    "retract": _cmd_retract,
    "estimate-lip": _cmd_estimate_lip,
    "witness": _cmd_witness,
    "quasiconvexity": _cmd_quasiconvexity,
    "transform": _cmd_transform,
    "ultra-build": _cmd_ultra_build,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finset",
        description="Retractions of finite subset spaces and their constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space_required=True):
        p.add_argument("--space", required=space_required,
                       help="generator spec: inline JSON or a path to a JSON file")
        p.add_argument("--out", help="write the report here instead of stdout")

    common(sub.add_parser("validate", help="check metric and ultrametric axioms"))

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two sets")
    common(p, space_required=False)
    p.add_argument("--a", required=True, help="first set as a JSON list")
    p.add_argument("--b", required=True, help="second set as a JSON list")

    p = sub.add_parser("retract", help="apply a named retraction to one set")
    common(p, space_required=False)
    p.add_argument("--map", required=True)
    p.add_argument("--set", required=True, help="input set as a JSON list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--target-l", type=float, default=1.25)

    p = sub.add_parser("estimate-lip", help="estimate a Lipschitz or Hoelder constant")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--target-l", type=float, default=1.25)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest X(n) searched exhaustively; above it the "
                        "search is sampled")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled search")

    p = sub.add_parser("witness", help="exact chain witness against Lipschitz deletion")
    common(p, space_required=False)
    p.add_argument("--L", required=True, help="Lipschitz bound to defeat, e.g. 1 or 3/2")
    p.add_argument("--full-chain", action="store_true")

    p = sub.add_parser("quasiconvexity", help="shortest-path to distance ratio")
    common(p)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("transform", help="rewrite distances through a transform")
    common(p)
    p.add_argument("--transform", required=True,
                   help="transform spec: inline JSON or a path")
    p.add_argument("--L", type=float, default=1.0)

    common(sub.add_parser("ultra-build",
                          help="center family of an ultrametric space"))
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(seed=getattr(args, "seed", 0),
                       cap=getattr(args, "cap", DEFAULT_ENUMERATION_CAP),
                       out=getattr(args, "out", None))
    try:
        return _COMMANDS[args.command](args, config)
    except Exception as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


def entry():
    sys.exit(run())


if __name__ == "__main__":
    entry()
