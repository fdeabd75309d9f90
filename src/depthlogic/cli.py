"""Command-line front end: checking, updates, satisfiability, the muddy
experiments, axiom suites, benchmarks and DOT export.

Exit codes: 0 ok, 1 property-suite violation, 2 formula/flag parse error,
3 model validation error or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import functools
import operator
import random
import sys
import time

from . import dot as dotmod
from . import muddy as muddymod
from . import props
# validate is unused here, but the traced benchmark wraps cli.validate by name
from .model import (Model, ModelError, canonical_json, load_model, model_size,
                    save_model, validate)
from .sat import sat_bruteforce
from .semantics import (FragmentError, ModeError, SemanticsKind, check,
                        update)
from .syntax import (Announce, Formula, ParseError, agents_of, parse, size,
                     to_text, walk)

EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _semantics(name: str) -> SemanticsKind:
    return SemanticsKind[name.upper()]


def _read_formula(args: argparse.Namespace) -> Formula:
    text = args.formula
    if args.formula_file:
        with open(args.formula_file) as fh:
            text = fh.read()
    if text is None:
        raise ParseError("no formula given (use --formula or --formula-file)",
                         line=1, column=1)
    return parse(text)


def _check_agents(m: Model, formulas: list[Formula]) -> None:
    unknown = set().union(*map(agents_of, formulas)) - set(range(m.agents))
    if unknown:
        raise ModelError(f"formula names unknown agent {min(unknown)}")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return int(text)
    return integer


def _add_formula_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", help="file containing the formula")


def _add_semantics_flag(p: argparse.ArgumentParser,
                        default: str | None = "DPAL") -> None:
    p.add_argument("--semantics", default=default,
                   choices=["DBEL", "DPAL", "EDPAL", "ADPAL"])


def cmd_check(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    f = _read_formula(args)
    _check_agents(m, [f])
    result = check(m, args.state, f, _semantics(args.semantics))
    print("true" if result else "false")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    f = _read_formula(args)
    _check_agents(m, [f])
    upd = update(m, f, _semantics(args.semantics))
    if args.out:
        save_model(upd, args.out)
    else:
        sys.stdout.write(canonical_json(upd))
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    found = sat_bruteforce(f, _semantics(args.semantics),
                           max_states=args.max_states,
                           max_depth=args.max_depth)
    if found is None:
        print("none-within-bounds")
        return 0
    print(f"state: {found.state}")
    sys.stdout.write(canonical_json(found.model))
    return 0


_DEPTH_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.FloorDiv: operator.floordiv,
              ast.Mod: operator.mod}


def _depth_value(node: ast.expr, env: dict[str, int]) -> int:
    """A whitelisted integer expression's value; ``ParseError`` otherwise."""
    match node:
        case ast.Constant(value=value) if type(value) is int:
            return value
        case ast.Name(id=name) if name in env:
            return env[name]
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return -_depth_value(operand, env)
        case ast.BinOp(left=x, op=op, right=y) if type(op) in _DEPTH_OPS:
            values = _depth_value(x, env), _depth_value(y, env)
            with contextlib.suppress(ZeroDivisionError):  # reported below
                return _DEPTH_OPS[type(op)](*values)
        case ast.Call(func=ast.Name(id="min" | "max" as fn), args=[_, *_],
                      keywords=[]):
            return (min if fn == "min" else max)(
                _depth_value(arg, env) for arg in node.args)
    raise ParseError(f"--depths cannot evaluate {ast.unparse(node)!r}",
                     line=node.lineno, column=node.col_offset + 1)


def _depth_fn(spec_text: str, k: int, n: int) -> muddymod.DepthFn:
    """``--depths``: one expression in i (the child), k and n, evaluated for
    each of the n children, or a comma list of n such expressions."""
    try:
        tree = ast.parse(spec_text, mode="eval").body
    except SyntaxError as exc:
        raise ParseError(f"--depths: {exc.msg}", line=exc.lineno or 1,
                         column=exc.offset or 1) from None
    exprs = tree.elts if isinstance(tree, ast.Tuple) else [tree] * n
    if len(exprs) != n:
        # point at the first surplus value, or past the end
        column = (exprs[n].col_offset + 1 if len(exprs) > n
                  else len(spec_text) + 1)
        raise ParseError(f"--depths needs {n} values, got {len(exprs)}",
                         line=1, column=column)
    return muddymod.constant_depths([_depth_value(e, {"i": i, "k": k, "n": n})
                                     for i, e in enumerate(exprs)])


_MUDDY_FORMULAS = ["phi_k", "upper", "lower", "amnesia", "leakage"]


def cmd_muddy(args: argparse.Namespace) -> int:
    k = args.k
    n = args.n or k
    depth_fn = (muddymod.canonical_depths(k) if args.depths is None
                else _depth_fn(args.depths, k, n))
    inst = muddymod.build_muddy(n, k, depth_fn)
    kind = _semantics(args.semantics)
    if args.which == "phi_k":
        f = muddymod.phi_k(k)
    elif args.which == "upper":
        f = muddymod.implies(muddymod.upper_bound_hypothesis(k),
                             muddymod.phi_k(k))
    elif args.which == "lower":
        f = muddymod.implies(muddymod.phi_k(k),
                             muddymod.lower_bound_conclusion(k))
    elif args.which == "amnesia":
        f = muddymod.amnesia_formula()
    else:
        f = muddymod.leakage_formula()
    result = check(inst.model, inst.initial, f, kind)
    print(f"{to_text(f)}")
    print("true" if result else "false")
    if args.dot:
        # their announcements form one chain (phi_k's for upper and lower)
        announcements = [g.announced for g in walk(f)
                         if isinstance(g, Announce)]
        text = dotmod.sequence_to_dot(inst.model, announcements, kind,
                                      state=inst.initial)
        with open(args.dot, "w") as fh:
            fh.write(text)
    return 0


def cmd_axioms(args: argparse.Namespace) -> int:
    spec = props.RandomSpec(agents=2, max_depth=3, max_states=args.max_states,
                            seed=args.seed)
    # omitted --semantics: DPAL for --property, else the table's own
    kind = (_semantics(args.semantics) if args.semantics
            else SemanticsKind.DPAL if args.property
            else props._TABLE_KIND[args.table])
    if args.property:
        report = props.kp_ta_suite(kind, args.property, spec,
                                   cases=args.cases,
                                   direction=args.direction)
    else:
        report = props.soundness_suite(args.table, kind, spec,
                                       cases=args.cases, models=args.models,
                                       unambiguous=args.unambiguous)
    print(f"{report.name}: {report.cases} cases, {report.checks} checks, "
          f"{len(report.violations)} violations")
    for v in report.violations:
        print(f"  {v.describe()}")
    return EXIT_VIOLATION if report.violations else 0


def cmd_bench(args: argparse.Namespace) -> int:
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(out)
    w.writerow(["family", "case", "formula_size", "model_size",
                "wall_time_s", "updated_size"])
    if args.family in ("blowup", "all"):
        rng = random.Random(args.seed)
        spec = props.RandomSpec(seed=args.seed)
        for i in range(args.cases):
            m = props.random_model(rng, spec)
            f = props.random_formula(rng, spec, announce=True)
            t0 = time.perf_counter()
            upd = update(m, f, SemanticsKind.DPAL)
            dt = time.perf_counter() - t0
            w.writerow(["blowup", i, size(f), model_size(m),
                        f"{dt:.6f}", model_size(upd)])
    if args.family in ("3sat", "all"):
        for n in range(1, args.max_vars + 1):
            inst = muddymod.ThreeSatInstance(
                n, tuple((min(v + 1, n), min(v + 1, n), -min(v + 1, n))
                         for v in range(min(n, 3))))
            m, f = muddymod.reduce_3sat(inst)
            t0 = time.perf_counter()
            check(m, "s", f, SemanticsKind.DPAL)
            dt = time.perf_counter() - t0
            *_, final = muddymod.reduction_steps(inst)
            w.writerow(["3sat", n, size(f), model_size(m),
                        f"{dt:.6f}", model_size(final)])
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    kind = _semantics(args.semantics)
    announcements = [parse(a) for a in args.announce or []]
    _check_agents(m, announcements)
    if args.state is not None and not m.has_state(args.state):
        raise ModelError(f"unknown state {args.state!r}")
    if announcements:
        text = dotmod.sequence_to_dot(m, announcements, kind,
                                      state=args.state)
    else:
        text = dotmod.model_to_dot(m, designated=args.state)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache   # built once per process; each parse makes a new namespace
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="depthlogic",
        description="Model checking for depth-bounded epistemic logics")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a formula at a state")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    _add_formula_flags(p)
    _add_semantics_flag(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("update", help="apply an announcement to a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    _add_formula_flags(p)
    _add_semantics_flag(p)
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("sat", help="bounded satisfiability search")
    _add_formula_flags(p)
    _add_semantics_flag(p)
    p.add_argument("--max-states", type=_at_least(1), default=3)
    p.add_argument("--max-depth", type=_at_least(0), default=None)
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("muddy", help="muddy children experiments")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depths", default=None,
                   help="comma list per child, or expression in i/k/n")
    p.add_argument("--formula", dest="which", default="phi_k",
                   choices=_MUDDY_FORMULAS)
    p.add_argument("--dot", default=None)
    _add_semantics_flag(p)
    p.set_defaults(fn=cmd_muddy)

    p = sub.add_parser("axioms", help="randomized soundness suites")
    p.add_argument("--table", default=props.TABLE_T1,
                   choices=list(props.TABLE_ROWS))
    p.add_argument("--property", default=None,
                   choices=["KP", "TA", "KPp", "TAp"])
    p.add_argument("--direction", default="both",
                   choices=["both", "forward", "reverse"])
    p.add_argument("--cases", type=_at_least(1), default=300)
    p.add_argument("--models", type=_at_least(1), default=50)
    p.add_argument("--max-states", type=_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unambiguous", action="store_true",
                   help="draw only models with unambiguous depths")
    _add_semantics_flag(p, default=None)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("bench", help="CSV benchmarks")
    p.add_argument("--family", default="all",
                   choices=["blowup", "3sat", "all"])
    p.add_argument("--cases", type=_at_least(1), default=100)
    p.add_argument("--max-vars", type=_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("export-dot", help="Graphviz export")
    p.add_argument("--model", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--announce", action="append",
                   help="announcement formula; repeat for a sequence")
    p.add_argument("--out")
    _add_semantics_flag(p)
    p.set_defaults(fn=cmd_export_dot)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("parse error: formula nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except (ModelError, ModeError, FragmentError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
