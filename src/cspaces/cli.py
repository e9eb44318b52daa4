"""Command-line interface: queries and transforms over JSON documents.

Exit codes: 0 success, 2 input error, 3 unsupported construction.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct, corpus
from .classify import classify_point
from .jsonio import (dumps, path_from_json, path_to_json, point_from_str,
                     point_to_str, space_from_json, space_to_json)
from .membership import parse_controlled
from .model import ModelError, RigidTrace, UnsupportedConstruction, rat, rat_str
from .presentation import validate
from .reach import c_reachable, d_reachable, unavoidable_point


def _emit(doc: dict, out_file: str = None) -> int:
    text = dumps(doc)
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_space(path: str):
    return space_from_json(_load_json(path))


def _param_value(text: str):
    try:
        return int(text)
    except ValueError:
        return rat(text)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_build(args) -> int:
    params = {}
    for kv in args.param or ():
        if "=" not in kv:
            raise ModelError(f"--param expects k=v, got {kv!r}")
        k, _, v = kv.partition("=")
        params[k] = _param_value(v)
    space = corpus.build(args.corpus, **params)
    return _emit(space_to_json(space), args.output)


def _cmd_validate(args) -> int:
    space = _load_space(args.space)
    report = validate(space)
    return _emit({"valid": not report, "violations": list(report)})


def _instance_json(desc) -> dict:
    kind = desc[0]
    if kind == "rigid":
        tr: RigidTrace = desc[1]
        return {"kind": "rigid",
                "steps": [{"edge": s.edge, "from": rat_str(s.a),
                           "to": rat_str(s.b)} for s in tr.steps]}
    if kind == "fragment":
        _, edge, a, b = desc
        return {"kind": kind, "edge": edge,
                "from": rat_str(a), "to": rat_str(b)}
    return {"kind": str(kind)}


def _cmd_check_path(args) -> int:
    space = _load_space(args.space)
    path = path_from_json(_load_json(args.path), space)
    outcome = parse_controlled(space, path)
    doc = {"controlled": outcome.controlled,
           "instances": outcome.count if outcome.controlled else None,
           "decomposition": [_instance_json(d) for d in outcome.instances],
           "fail_at": (point_to_str(outcome.fail_at)
                       if outcome.fail_at is not None else None)}
    return _emit(doc)


def _cmd_classify(args) -> int:
    space = _load_space(args.space)
    point = point_from_str(args.point, space)
    c = classify_point(space, point)
    return _emit({
        "flexible": c.flexible, "critical": c.critical,
        "future_critical": c.future_critical,
        "past_critical": c.past_critical,
        "has_nontrivial_path_through": c.has_nontrivial_path_through,
        "has_nontrivial_path_starting": c.has_nontrivial_path_starting,
        "has_nontrivial_path_ending": c.has_nontrivial_path_ending})


def _cmd_reach(args) -> int:
    space = _load_space(args.space)
    src = point_from_str(args.src, space)
    dst = point_from_str(args.dst, space)
    fn = d_reachable if args.mode == "d" else c_reachable
    res = fn(space, src, dst)
    doc = {"reachable": res.ok,
           "witness": path_to_json(res.witness) if res.witness else None}
    if args.via is not None:
        via = point_from_str(args.via, space)
        doc["via_unavoidable"] = (
            unavoidable_point(space, src, dst, via, mode=args.mode)
            if res.ok else None)
    return _emit(doc)


_TRANSFORMS = {
    "hat": construct.hat,
    "flexible-part": construct.flexible_part,
    "opposite": construct.opposite,
    "reversible-closure": construct.reversible_closure,
    "reversible-part": construct.reversible_part,
    "D": construct.functor_D,
    "Dprime": construct.functor_Dprime,
    "Dc": construct.functor_Dc,
}


def _cmd_transform(args) -> int:
    space = _load_space(args.space)
    op = args.op
    if op.startswith("exclude:"):
        pts = frozenset(point_from_str(p, space)
                        for p in op[len("exclude:"):].split(",") if p)
        result = construct.exclude_endpoints(space, pts)
    else:
        fn = _TRANSFORMS.get(op)
        if fn is None:
            raise ModelError(
                f"unknown transform {op!r}; known: "
                f"{', '.join(sorted(_TRANSFORMS))}, exclude:P,...")
        result = fn(space)
    return _emit(space_to_json(result), args.output)


def _cmd_product(args) -> int:
    a = _load_space(args.left)
    b = _load_space(args.right)
    return _emit(space_to_json(construct.product(a, b)), args.output)


def _cmd_quotient(args) -> int:
    space = _load_space(args.space)
    classes = []
    for cls in args.identify.split(";"):
        cls = cls.strip()
        if not cls:
            continue
        classes.append(frozenset(point_from_str(p, space)
                                 for p in cls.split("=")))
    result = construct.quotient_identify(space, classes)
    return _emit(space_to_json(result), args.output)


# ---------------------------------------------------------------------------
# Argument parsing

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cspaces",
        description="Queries and transforms for controlled-space models.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a catalogue model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--param", action="append", metavar="k=v")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("validate", help="check a space document")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("check-path", help="controlled-path membership")
    p.add_argument("--space", required=True)
    p.add_argument("--path", required=True)
    p.set_defaults(fn=_cmd_check_path)

    p = sub.add_parser("classify", help="classify a point")
    p.add_argument("--space", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reach", help="reachability queries")
    p.add_argument("--space", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--mode", choices=("c", "d"), default="c")
    p.add_argument("--via")
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("transform", help="apply a space construction")
    p.add_argument("--space", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("product", help="product of two space documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("quotient", help="identify points of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--identify", required=True, metavar='"P=P;P=P"')
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_quotient)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedConstruction as exc:
        sys.stdout.write(dumps(
            {"error": {"type": "unsupported", "message": str(exc)}}))
        return 3
    except ModelError as exc:
        sys.stdout.write(dumps(
            {"error": {"type": "input", "message": str(exc)}}))
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(dumps(
            {"error": {"type": "input", "message": f"{type(exc).__name__}: {exc}"}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
