"""Workload definitions: the inputs each workload feeds the program, the ops
that call into its public API, and an independent reference for every op.

Every call goes through a module attribute (``semantics.check``,
``props.holds_everywhere``, ``cli.main``...) looked up at call time, so the
traced run's wrappers in ``spans.py`` see it.  References are plain
callables that the worker runs only after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from depthlogic import cli, model, muddy, props, semantics, syntax
from depthlogic.semantics import SemanticsKind

DPAL = SemanticsKind.DPAL
EDPAL = SemanticsKind.EDPAL
ADPAL = SemanticsKind.ADPAL

# Size of the seeded reduction draw; tiny sizes are for the self-test.
REDUCTION_DRAWS = 10_000
TINY_REDUCTION_DRAWS = 60


@dataclass(slots=True)
class Op:
    """One timed call into the public API and how to judge it."""

    call: Callable[..., object]
    args: tuple
    reference: Callable[..., object]
    ref_args: tuple
    label: tuple
    # what the op checks, for the syntax counters: formulas, formula text,
    # or a 3-SAT instance (its reduction formula is built only when counted)
    formulas: tuple = ()


def const(value: object) -> object:
    return value


# -- op calls (each makes exactly one public-API call) --

def check_op(m, state, f, kind) -> bool:
    return semantics.check(m, state, f, kind)


def holds_op(m, f, kind) -> tuple:
    return props.holds_everywhere(m, f, kind)


def labeling_op(m, f, kind) -> dict:
    lab = semantics.check_labeling(m, f, kind)
    return lab.table[lab.root]


def decide_op(inst) -> bool:
    return muddy.reduction_decide(inst)


def cli_op(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def usage_error_op(argv: list[str]) -> tuple[str, str]:
    """Malformed input must end in exit 2 (parse) or 3 (validation)."""
    rc, out = cli_op(argv)
    return ("usage error" if rc in (2, 3) else f"exit {rc}"), out


# -- references (independent of the code path each op times) --

def naive_table(m, f, kind) -> dict:
    return {s: semantics.check_naive(m, s, f, kind) for s in m.states}


def truth_table(inst) -> bool:
    return muddy.truth_table_sat(inst)


# -- muddy --

# Truth of the amnesia/leakage formulas on M_3 (acceptance criterion 4).
MATRIX = {"DPAL": {"amnesia": False, "leakage": False},
          "EDPAL": {"amnesia": True, "leakage": False},
          "ADPAL": {"amnesia": False, "leakage": True}}


# Largest k of the DPAL ladders.  DPAL k=7 (two ~3.5 s checks of 1.3M
# pairs) is deferred with k=8: those two memory-bound calls made up two
# thirds of a pass, and their speed on a shared host swung ops_per_s
# between runs by more than its bound.
DPAL_TOP_K = 6


def build_muddy(tiny: bool) -> list[Op]:
    top = 4 if tiny else DPAL_TOP_K
    ops = []
    for kind, last in ((DPAL, top), (EDPAL, top + 2), (ADPAL, top + 2)):
        for k in range(3, last + 1):
            inst = muddy.build_muddy(k, k, muddy.canonical_depths(k))
            f = syntax.implies(muddy.upper_bound_hypothesis(k),
                               muddy.phi_k(k))
            ops.append(Op(check_op, (inst.model, inst.initial, f, kind),
                          const, (True,), ("upper", kind.value, f"k={k}"),
                          (f,)))
    for k in range(3, top + 1):
        inst = muddy.build_muddy(k, k, muddy.canonical_depths(k))
        f = syntax.implies(muddy.phi_k(k), muddy.lower_bound_conclusion(k))
        ops.append(Op(check_op, (inst.model, inst.initial, f, DPAL),
                      const, (True,), ("lower", "DPAL", f"k={k}"), (f,)))
    for k in ((3,) if tiny else (3, 4)):
        phi = muddy.phi_k(k)
        f = syntax.implies(phi, muddy.lower_bound_conclusion(k))
        for values in itertools.product(range(4), repeat=k):
            inst = muddy.build_muddy(k, k, muddy.constant_depths(list(values)))
            args = (inst.model, inst.initial)
            ops.append(Op(check_op, args + (f, DPAL), const, (True,),
                          ("sweep implication", f"k={k}", values), (f,)))
            if values[0] < k - 1:
                # a child 0 too shallow for phi_k never learns its state
                ops.append(Op(check_op, args + (phi, DPAL), const, (False,),
                              ("sweep contrapositive", f"k={k}", values),
                              (phi,)))
    inst = muddy.build_muddy(3, 3, muddy.canonical_depths(3))
    for kind in (DPAL, EDPAL, ADPAL):
        for which, f in (("amnesia", muddy.amnesia_formula()),
                         ("leakage", muddy.leakage_formula())):
            ops.append(Op(check_op, (inst.model, inst.initial, f, kind),
                          const, (MATRIX[kind.value][which],),
                          ("matrix", which, kind.value), (f,)))
    demoted = muddy.build_muddy(3, 3, muddy.constant_depths([1, 1, 0]))
    f = muddy.leakage_formula(observer=0)
    ops.append(Op(check_op, (demoted.model, demoted.initial, f, ADPAL),
                  const, (False,), ("matrix", "leakage_shallow", "ADPAL"),
                  (f,)))
    return ops


# -- reduction --

def _clause_pool(n: int) -> list[tuple[int, int, int]]:
    lits = [i for v in range(1, n + 1) for i in (v, -v)]
    return list(itertools.combinations_with_replacement(lits, 3))


def draw_instances(seed: int, count: int) -> list[muddy.ThreeSatInstance]:
    """Uniform draws from ``all_small_instances(3, 4)``: pick the clause
    count with weight C(56, c), then a uniform c-subset of the clause pool,
    which is exactly how the sweep enumerates its 396,606 instances."""
    pool = _clause_pool(3)
    sizes = range(1, 5)
    weights = [comb(len(pool), c) for c in sizes]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = rng.choices(sizes, weights)[0]
        picked = sorted(rng.sample(range(len(pool)), c))
        out.append(muddy.ThreeSatInstance(3, tuple(pool[i] for i in picked)))
    return out


def build_reduction(seed: int, tiny: bool) -> list[Op]:
    count = TINY_REDUCTION_DRAWS if tiny else REDUCTION_DRAWS
    ops = [Op(decide_op, (inst,), truth_table, (inst,),
              ("reduction_decide", inst.clauses), (inst,))
           for inst in draw_instances(seed, count)]
    # fill muddy._FINAL_CACHE, the post-announcement model, before timing
    muddy.reduction_decide(muddy.ThreeSatInstance(3, ((1, 2, 3),)))
    return ops


# -- random --

SOUNDNESS_TABLES = ((props.TABLE_T1, SemanticsKind.DBEL),
                    (props.TABLE_EDPAL, EDPAL),
                    (props.TABLE_DPAL_SOUND, DPAL))


def build_random(seed: int, tiny: bool) -> list[Op]:
    cases, models, triples = (6, 4, 20) if tiny else (300, 50, 500)
    spec = props.RandomSpec(max_size=8, agents=2, max_depth=3, max_states=5,
                            seed=seed)
    ops = []
    for table, kind in SOUNDNESS_TABLES:
        # same draw order as props.soundness_suite(table, kind, spec)
        rng = random.Random(spec.seed)
        pool = [props.random_model(rng, spec, False) for _ in range(models)]
        rows = props.TABLE_ROWS[table]
        for i in range(cases):
            inst = rows[i % len(rows)].instantiate(rng, spec)
            for j, m in enumerate(pool):
                ops.append(Op(holds_op, (m, inst, kind), const,
                              ((True, None),), (table, i, j, inst), (inst,)))
    # labeling-vs-oracle triples, drawn as acceptance criterion 8 draws them
    rng = random.Random(f"oracle:{seed}")
    for t in range(triples):
        m = props.random_model(rng, spec)
        f = props.random_formula(rng, spec, announce=True, kinf=True)
        kind = rng.choice((DPAL, EDPAL, ADPAL))
        ops.append(Op(labeling_op, (m, f, kind), naive_table, (m, f, kind),
                      ("check_labeling", t, kind.value, f), (f,)))
    return ops


# -- cli --

# The largest k of each chain.  DPAL k=6 is deferred for the reason
# DPAL_TOP_K gives: its check, update and export-dot on 11 MB files took
# 70% of a pass and swung ops_per_s between runs by about its bound.
CLI_SEMANTICS = (("DPAL", 5), ("EDPAL", 7), ("ADPAL", 7))


def _initial(k: int) -> str:
    return "1" * k


def _announcements(k: int) -> list[str]:
    """The announcements of phi_k, outermost first."""
    return [f"!K[{i}] m{i}" for i in range(k - 1, 0, -1)]


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)


def build_cli(tiny: bool, known_crashes: bool, workdir: str) -> list[Op]:
    """Per semantics and k: a chain of ``update --out`` through phi_k's
    announcements, ``check`` of phi_k's last conjunct on the final file, and
    ``export-dot`` of the whole chain; then a fixed set of malformed calls."""
    os.makedirs(workdir, exist_ok=True)
    top_k = max(last for _, last in CLI_SEMANTICS)
    files = {}
    for k in range(3, (4 if tiny else top_k) + 1):
        files[k] = os.path.join(workdir, f"muddy{k}.json")
        inst = muddy.build_muddy(k, k, muddy.canonical_depths(k))
        model.save_model(inst.model, files[k])
    ops = []
    for sem, last in CLI_SEMANTICS:
        for k in range(3, (4 if tiny else last) + 1):
            prev = files[k]
            texts = _announcements(k)
            for step, text in enumerate(texts, 1):
                out = os.path.join(workdir, f"{sem}-k{k}-step{step}.json")
                ops.append(Op(cli_op, (["update", "--model", prev,
                                        "--formula", text, "--semantics",
                                        sem, "--out", out],),
                              const, ((0, ""),), ("update", sem, k, step),
                              (text,)))
                prev = out
            state = ("1." * len(texts) if sem == "DPAL" else "") + _initial(k)
            ops.append(Op(cli_op, (["check", "--model", prev, "--state",
                                    state, "--formula", "K[0] m0",
                                    "--semantics", sem],),
                          const, ((0, "true\n"),), ("check", sem, k),
                          ("K[0] m0",)))
            argv = ["export-dot", "--model", files[k], "--state",
                    _initial(k), "--semantics", sem]
            for text in texts:
                argv += ["--announce", text]
            argv += ["--out", os.path.join(workdir, f"{sem}-k{k}.dot")]
            ops.append(Op(cli_op, (argv,), const, ((0, ""),),
                          ("export-dot", sem, k), tuple(texts)))
    # A directed (reflexive-mode) relation is not closed, so DPAL must
    # refuse it.  An equivalence-mode file is closed on load by design.
    directed = os.path.join(workdir, "directed.json")
    _write_json(directed, {
        "agents": 1, "mode": "reflexive", "states": ["a", "b", "c"],
        "val": {"a": ["p"], "b": [], "c": []},
        "rel": {"0": [["a", "b"], ["b", "c"]]},
        "depth": {"0": {"a": 1, "b": 1, "c": 1}}})
    m3, s3 = files[3], _initial(3)
    malformed = [
        ["check", "--model", m3, "--state", s3, "--formula", "K[0"],
        ["check", "--model", m3, "--state", "999", "--formula", "m0"],
        ["check", "--model", directed, "--state", "a", "--formula", "K[0] p",
         "--semantics", "DPAL"],
    ]
    if known_crashes:
        # These escape cli.main with TypeError, TypeError and KeyError
        # (ROADMAP item 4).  They are left out of the default set only
        # because a benchmark workload must be one on which no op fails.
        malformed += [
            ["check", "--model", m3, "--state", s3],
            ["muddy", "--k", "3", "--depths", "1,2"],
            ["check", "--model", m3, "--state", s3, "--formula", "K[5] m0"],
        ]
    for argv in malformed:
        ops.append(Op(usage_error_op, (argv,), const, (("usage error", ""),),
                      ("malformed", " ".join(argv))))
    return ops


def build(name: str, seed: int, tiny: bool = False,
          known_crashes: bool = False, workdir: str | None = None
          ) -> list[Op]:
    if name == "muddy":
        return build_muddy(tiny)
    if name == "reduction":
        return build_reduction(seed, tiny)
    if name == "random":
        return build_random(seed, tiny)
    if name == "cli":
        return build_cli(tiny, known_crashes, workdir)
    raise ValueError(f"unknown workload {name!r}")
