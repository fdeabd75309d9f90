"""Command-line front end: checking, updates, satisfiability, the muddy
experiments, axiom suites and DOT export.

Exit codes: 0 ok, 1 property-suite violation, 2 formula/flag parse error,
3 model validation error or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dot as dotmod
from . import muddy as muddymod
from . import props
# validate is unused here, but the traced benchmark wraps cli.validate by name
from .model import (ModelError, canonical_json, load_model, save_model,
                    validate)
from .sat import sat_bruteforce
from .semantics import FragmentError, ModeError, SemanticsKind, check, update
from .syntax import Formula, ParseError, announcement_chain, parse, to_text

EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _semantics(name: str) -> SemanticsKind:
    return SemanticsKind[name.upper()]


def _read_formula(args: argparse.Namespace) -> Formula:
    text = args.formula
    if args.formula_file:
        with open(args.formula_file, encoding="utf-8") as fh:
            text = fh.read()
    if text is None:
        raise ParseError("no formula given (use --formula or --formula-file)",
                         line=1, column=1)
    return parse(text)


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
    result = check(m, args.state, f, _semantics(args.semantics))
    print("true" if result else "false")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    f = _read_formula(args)
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


def _depth_fn(text: str, n: int) -> muddymod.DepthFn:
    """``--depths``: one depth for every child, or a comma list of n."""
    fields, start = [], 1   # (value, column of its first character)
    for field in text.split(","):
        value = field.strip(" \t")
        fields.append((value, start + len(field) - len(field.lstrip(" \t"))))
        start += len(field) + 1
    if len(fields) not in (1, n):
        # point at the first surplus value, or past the end
        column = fields[n][1] if len(fields) > n else len(text) + 1
        raise ParseError(f"--depths needs {n} values, got {len(fields)}",
                         line=1, column=column)
    values = []
    for value, column in fields:
        if not (value.isascii() and value.isdigit()):
            raise ParseError("--depths takes non-negative integers (digits "
                             "0-9)", line=1, column=column)
        try:
            values.append(int(value))
        except ValueError:   # longer than int()'s digit limit
            raise ParseError(f"--depths value of {len(value)} digits is too "
                             "long", line=1, column=column) from None
    return muddymod.constant_depths(values if len(values) == n else values * n)


def cmd_muddy(args: argparse.Namespace) -> int:
    k = args.k
    n = k if args.n is None else args.n
    depth_fn = (muddymod.canonical_depths(k) if args.depths is None
                else _depth_fn(args.depths, n))
    inst = muddymod.build_muddy(n, k, depth_fn)
    kind = _semantics(args.semantics)
    f = muddymod.FORMULAS[args.which](k)
    result = check(inst.model, inst.initial, f, kind)
    print(f"{to_text(f)}")
    print("true" if result else "false")
    if args.dot:
        text = dotmod.sequence_to_dot(inst.model, announcement_chain(f),
                                      kind, state=inst.initial)
        with open(args.dot, "w", encoding="utf-8") as fh:
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


def cmd_export_dot(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    kind = _semantics(args.semantics)
    announcements = [parse(a) for a in args.announce or []]
    if args.state is not None:
        m.state_index(args.state)   # refuses an unknown state
    if announcements:
        text = dotmod.sequence_to_dot(m, announcements, kind,
                                      state=args.state)
    else:
        text = dotmod.model_to_dot(m, designated=args.state)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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
    p.add_argument("--n", type=_at_least(1), default=None)
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--depths", default=None,
                   help="a depth for all children, or a comma list of n")
    p.add_argument("--formula", dest="which", default="phi_k",
                   choices=muddymod.FORMULAS)
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
    except (OSError, UnicodeDecodeError) as exc:   # before its ValueError base
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ModelError, ModeError, FragmentError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
