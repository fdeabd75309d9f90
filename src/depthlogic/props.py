"""Axiom schemas and randomized soundness suites.

Each schema instantiates its metavariables with random formulas drawn from
the fragment its table is stated for, and the suites check the instances for
validity on pools of random models.  Any violation is re-checked against the
naive recursive evaluator and greedily minimized before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .model import EQUIVALENCE, REFLEXIVE, Model
from .semantics import (SemanticsKind, check_naive, holds_everywhere)
from .syntax import (And, Announce, Atom, DepthAtLeast, DepthExact, Formula,
                     Know, KnowInf, Not, TOP, disj, f_transform, iff,
                     implies, modal_depth, or_, to_text)

ATOM_POOL = ("p", "q", "r")

TABLE_T1 = "T1"
TABLE_EDPAL = "EDPAL_PA"
TABLE_DPAL_SOUND = "DPAL_SOUND"


@dataclass(frozen=True)
class RandomSpec:
    max_size: int = 8
    agents: int = 2
    max_depth: int = 3
    max_states: int = 5
    seed: int = 0


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    table: str
    instantiate: Callable[[random.Random, "RandomSpec"], Formula]


# -- random generation --

def random_formula(rng: random.Random, spec: RandomSpec,
                   size: int | None = None, *, announce: bool = False,
                   kinf: bool = False, depth_atoms: bool = True,
                   agent: int | None = None) -> Formula:
    """Random formula within the given size budget and fragment flags.

    ``agent`` pins every modal operator (and forbids depth atoms), producing
    the single-agent fragment used by the knowledge-preservation property.
    """
    if size is None:
        size = rng.randint(1, spec.max_size)
    if agent is not None:
        depth_atoms = False
    return _rand(rng, spec, size, announce, kinf, depth_atoms, agent)


def _leaf(rng: random.Random, spec: RandomSpec, depth_atoms: bool) -> Formula:
    roll = rng.randrange(35 if depth_atoms else 20)
    if roll < 20:
        return Atom(rng.choice(ATOM_POOL))
    a = rng.randrange(spec.agents)
    d = rng.randint(0, spec.max_depth)
    if roll < 28:
        return DepthAtLeast(a, d)
    return DepthExact(a, d)


def _rand(rng: random.Random, spec: RandomSpec, size: int, announce: bool,
          kinf: bool, depth_atoms: bool, agent: int | None) -> Formula:
    if size <= 1:
        return _leaf(rng, spec, depth_atoms)
    roll = rng.randrange(100)
    if roll < 40:
        if rng.randrange(3) == 0:
            return Not(_rand(rng, spec, size - 1, announce, kinf,
                             depth_atoms, agent))
        split = rng.randint(1, size - 1)
        return And(_rand(rng, spec, split, announce, kinf, depth_atoms, agent),
                   _rand(rng, spec, size - split, announce, kinf,
                         depth_atoms, agent))
    if roll < 65:
        a = agent if agent is not None else rng.randrange(spec.agents)
        choices = ["K"]
        if kinf:
            choices.append("Kinf")
        if announce and size >= 3:
            choices.append("ann")
        op = rng.choice(choices)
        if op == "ann":
            split = rng.randint(1, size - 2)
            return Announce(
                _rand(rng, spec, split, announce, kinf, depth_atoms, agent),
                _rand(rng, spec, size - 1 - split, announce, kinf,
                      depth_atoms, agent))
        sub = _rand(rng, spec, size - 1, announce, kinf, depth_atoms, agent)
        return Know(a, sub) if op == "K" else KnowInf(a, sub)
    return _leaf(rng, spec, depth_atoms)


def _rgs_partition(rng: random.Random, n: int) -> list[int]:
    # restricted growth string: item i may join blocks 0..max_used+1
    blocks: list[int] = []
    for _ in range(n):
        blocks.append(rng.randint(0, max(blocks, default=-1) + 1))
    return blocks


def random_model(rng: random.Random, spec: RandomSpec,
                 unambiguous: bool = False) -> Model:
    n = rng.randint(1, spec.max_states)
    states = [f"s{i}" for i in range(n)]
    val = {s: frozenset(a for a in ATOM_POOL if rng.randrange(2))
           for s in states}
    class_ids = {}
    depth: dict[int, dict[str, int]] = {}
    for a in range(spec.agents):
        blocks = class_ids[a] = _rgs_partition(rng, n)
        if unambiguous:
            per_block = [rng.randint(0, spec.max_depth)
                         for _ in range(max(blocks) + 1)]
            depth[a] = {s: per_block[b] for s, b in zip(states, blocks)}
        else:
            depth[a] = {s: rng.randint(0, spec.max_depth) for s in states}
    return Model(agents=spec.agents, states=states, val=val, depth=depth,
                 mode=EQUIVALENCE, class_ids=class_ids)


# -- schema tables --

def _draw(rng: random.Random, spec: RandomSpec, *, announce=False,
          kinf=False, agent=None) -> Formula:
    return random_formula(rng, spec, rng.randint(1, max(2, spec.max_size // 2)),
                          announce=announce, kinf=kinf, agent=agent)


def _agent(rng: random.Random, spec: RandomSpec) -> int:
    return rng.randrange(spec.agents)


def _core_rows(table: str, announce: bool) -> list[AxiomSchema]:
    """The depth-gated K rows shared by the base table and both extensions."""

    def row(name: str, build) -> AxiomSchema:
        def inst(rng: random.Random, spec: RandomSpec) -> Formula:
            return build(rng, spec, _agent(rng, spec))
        return AxiomSchema(name, table, inst)

    def taut(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        g = _draw(rng, spec, announce=announce)
        if rng.randrange(2):
            return implies(f, f)
        return implies(And(f, g), f)

    def deduction(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        g = _draw(rng, spec, announce=announce)
        return implies(And(Know(a, f), Know(a, implies(f, g))),
                       Know(a, g))

    def truth(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        return implies(Know(a, f), f)

    def pos_introspection(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        d = modal_depth(f)
        return implies(And(Know(a, f), DepthAtLeast(a, d + 1)),
                       Know(a, implies(DepthAtLeast(a, d), Know(a, f))))

    def neg_introspection(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        d = modal_depth(f)
        return implies(And(Not(Know(a, f)), DepthAtLeast(a, d + 1)),
                       Know(a, Not(Know(a, f))))

    def depth_monotonicity(rng, spec, a):
        d = rng.randint(1, spec.max_depth + 1)
        return implies(DepthAtLeast(a, d), DepthAtLeast(a, d - 1))

    def exact_depths(rng, spec, a):
        d = rng.randint(0, spec.max_depth + 1)
        return iff(DepthAtLeast(a, d),
                   Not(disj(*(DepthExact(a, i) for i in range(d)))))

    def unique_depth(rng, spec, a):
        d1 = rng.randint(0, spec.max_depth)
        d2 = rng.randint(0, spec.max_depth)
        if d1 == d2:
            d2 = d1 + 1
        return Not(And(DepthExact(a, d1), DepthExact(a, d2)))

    def depth_deduction(rng, spec, a):
        f = _draw(rng, spec, announce=announce)
        return implies(Know(a, f), DepthAtLeast(a, modal_depth(f)))

    return [
        row("tautology", taut),
        row("deduction", deduction),
        row("truth", truth),
        row("positive introspection", pos_introspection),
        row("negative introspection", neg_introspection),
        row("depth monotonicity", depth_monotonicity),
        row("exact depths", exact_depths),
        row("unique depth", unique_depth),
        row("depth deduction", depth_deduction),
    ]


def _announce_rows(table: str, dpal: bool) -> list[AxiomSchema]:
    def row(name, build):
        def inst(rng: random.Random, spec: RandomSpec) -> Formula:
            return build(rng, spec, _agent(rng, spec))
        return AxiomSchema(name, table, inst)

    def atomic_permanence(rng, spec, a):
        phi = _draw(rng, spec, announce=True)
        p = Atom(rng.choice(ATOM_POOL))
        return iff(Announce(phi, p), implies(phi, p))

    def depth_adjustment(rng, spec, a):
        phi =_draw(rng, spec, announce=True)
        dphi = modal_depth(phi)
        if dpal:
            d = rng.randint(0, spec.max_depth)
            rhs = implies(phi, or_(
                And(DepthAtLeast(a, dphi), DepthExact(a, d + dphi)),
                And(Not(DepthAtLeast(a, dphi)), DepthExact(a, d))))
        else:
            d = rng.randint(-spec.max_depth, spec.max_depth)
            rhs = implies(phi, DepthExact(a, d + dphi))
        return iff(Announce(phi, DepthExact(a, d)), rhs)

    def negation_announcement(rng, spec, a):
        phi = _draw(rng, spec, announce=True)
        psi = _draw(rng, spec, announce=True)
        return iff(Announce(phi, Not(psi)),
                   implies(phi, Not(Announce(phi, psi))))

    def conjunction_announcement(rng, spec, a):
        phi = _draw(rng, spec, announce=True)
        psi = _draw(rng, spec, announce=True)
        chi = _draw(rng, spec, announce=True)
        return iff(Announce(phi, And(psi, chi)),
                   And(Announce(phi, psi), Announce(phi, chi)))

    def knowledge_announcement(rng, spec, a):
        phi = _draw(rng, spec, announce=True)
        psi = _draw(rng, spec, announce=True)
        dphi, dpsi = modal_depth(phi), modal_depth(psi)
        lhs = Announce(phi, implies(DepthAtLeast(a, dpsi), Know(a, psi)))
        rhs = implies(phi, implies(DepthAtLeast(a, dphi + dpsi),
                                   Know(a, Announce(phi, psi))))
        return iff(lhs, rhs)

    def composition(rng, spec, a):
        phi = _draw(rng, spec, announce=True)
        psi = _draw(rng, spec, announce=True)
        chi = _draw(rng, spec, announce=True)
        return composition_instance(phi, psi, chi)

    rows = [
        row("atomic permanence", atomic_permanence),
        row("depth adjustment", depth_adjustment),
        row("negation announcement", negation_announcement),
        row("conjunction announcement", conjunction_announcement),
    ]
    if dpal:
        def kp_prime(rng, spec, a):
            # psi must avoid raw depth atoms: the guard transform maps them
            # to true, yet an update can change a deep agent's depth
            phi = _draw(rng, spec, announce=True, kinf=True)
            psi = random_formula(rng, spec, rng.randint(1, 4),
                                 announce=True, kinf=True, depth_atoms=False)
            return kp_ta_instance("KPp", a, phi, psi)

        def ta_prime(rng, spec, a):
            phi = _draw(rng, spec, announce=True, kinf=True)
            psi = _draw(rng, spec, announce=True, kinf=True)
            return kp_ta_instance("TAp", a, phi, psi)

        rows += [row("knowledge preservation'", kp_prime),
                 row("traditional announcements'", ta_prime)]
    else:
        rows += [row("knowledge announcement", knowledge_announcement),
                 row("announcement composition", composition)]
    return rows


def composition_instance(phi: Formula, psi: Formula, chi: Formula) -> Formula:
    return iff(Announce(phi, Announce(psi, chi)),
               Announce(And(phi, Announce(phi, psi)), chi))


TABLE_ROWS: dict[str, list[AxiomSchema]] = {
    TABLE_T1: _core_rows(TABLE_T1, announce=False),
    TABLE_EDPAL: (_core_rows(TABLE_EDPAL, announce=True)
                  + _announce_rows(TABLE_EDPAL, dpal=False)),
    TABLE_DPAL_SOUND: (_core_rows(TABLE_DPAL_SOUND, announce=True)
                       + _announce_rows(TABLE_DPAL_SOUND, dpal=True)),
}

_TABLE_KIND = {TABLE_T1: SemanticsKind.DBEL,
               TABLE_EDPAL: SemanticsKind.EDPAL,
               TABLE_DPAL_SOUND: SemanticsKind.DPAL}


# -- KP/TA instances --

def kp_ta_instance(variant: str, agent: int, phi: Formula, psi: Formula,
                   direction: str = "both") -> Formula:
    """KP/TA (constant-depth guards) or KP'/TA' (epistemic guards)."""
    dphi = modal_depth(phi)
    ka_psi = Know(agent, psi)
    lhs = Announce(phi, ka_psi)
    if variant in ("KP", "KPp"):
        rhs = implies(phi, ka_psi)
        guard = (Not(DepthAtLeast(agent, dphi)) if variant == "KP"
                 else f_transform(phi, ka_psi))
    elif variant in ("TA", "TAp"):
        rhs = implies(phi, Know(agent, Announce(phi, psi)))
        guard = (DepthAtLeast(agent, dphi) if variant == "TA"
                 else KnowInf(agent, implies(phi, DepthAtLeast(agent, dphi))))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if direction == "both":
        body = iff(lhs, rhs)
    elif direction == "forward":
        body = implies(lhs, rhs)
    elif direction == "reverse":
        body = implies(rhs, lhs)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return implies(guard, body)


# -- reports --

@dataclass
class Violation:
    schema: str
    formula: Formula
    model: Model
    state: str

    def describe(self) -> str:
        return (f"{self.schema}: {to_text(self.formula)} fails at "
                f"state {self.state}")


@dataclass
class SuiteReport:
    name: str
    kind: SemanticsKind
    cases: int = 0
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _shrink_formula(f: Formula) -> list[Formula]:
    out: list[Formula] = []
    if isinstance(f, Not):
        out.append(f.sub)
        out += [Not(g) for g in _shrink_formula(f.sub)]
    elif isinstance(f, And):
        out += [f.left, f.right]
        out += [And(g, f.right) for g in _shrink_formula(f.left)]
        out += [And(f.left, g) for g in _shrink_formula(f.right)]
    elif isinstance(f, (Know, KnowInf)):
        out += [type(f)(f.agent, g) for g in _shrink_formula(f.sub)]
    elif isinstance(f, Announce):
        out.append(f.sub)
        out += [Announce(g, f.sub) for g in _shrink_formula(f.announced)]
        out += [Announce(f.announced, g) for g in _shrink_formula(f.sub)]
    if not isinstance(f, Atom) or f != TOP:
        out.append(TOP)
    return out


def minimize(m: Model, state: str, f: Formula, kind: SemanticsKind
             ) -> tuple[Model, str, Formula]:
    """Greedy shrink keeping the formula false at the designated state."""

    def fails(model, s, g):
        try:
            return not check_naive(model, s, g, kind)
        except Exception:
            return False

    changed = True
    while changed:
        changed = False
        for drop, name in enumerate(m.states):
            if name == state or len(m.states) == 1:
                continue
            keep = [i for i in range(len(m.states)) if i != drop]
            smaller = m.restrict(keep)
            if fails(smaller, state, f):
                m = smaller
                changed = True
                break
        if changed:
            continue
        # only accept formula shrinks that keep the failure *non-trivial*:
        # the candidate must still be satisfiable somewhere on the model
        for g in _shrink_formula(f):
            if g == f or not fails(m, state, g):
                continue
            if any(check_naive(m, s, g, kind) for s in m.states):
                f = g
                changed = True
                break
    return m, state, f


def _record(report: SuiteReport, name: str, f: Formula, m: Model,
            kind: SemanticsKind) -> bool:
    """Whether f fails somewhere on m, recording its minimized violation."""
    ok, state = holds_everywhere(m, f, kind)
    if ok:
        return False
    # guard against labeling bugs: only surface if the naive oracle agrees
    if check_naive(m, state, f, kind):
        raise AssertionError(
            f"labeling/naive checker disagreement on {to_text(f)} at {state}")
    m, state, f = minimize(m, state, f, kind)
    report.violations.append(Violation(name, f, m, state))
    return True


# -- suites --

def soundness_suite(table: str, kind: SemanticsKind, spec: RandomSpec,
                    cases: int = 300, models: int = 50,
                    max_violations: int = 5,
                    unambiguous: bool = False) -> SuiteReport:
    if _TABLE_KIND[table] is not kind:
        raise ValueError(
            f"table {table} is stated for {_TABLE_KIND[table].value}")
    rng = random.Random(spec.seed)
    pool = [random_model(rng, spec, unambiguous) for _ in range(models)]
    rows = TABLE_ROWS[table]
    report = SuiteReport(name=table, kind=kind)
    for i in range(cases):
        schema = rows[i % len(rows)]
        inst = schema.instantiate(rng, spec)
        report.cases += 1
        for m in pool:
            report.checks += 1
            if _record(report, schema.name, inst, m, kind):
                if len(report.violations) >= max_violations:
                    return report
                break
    return report


def kp_ta_suite(kind: SemanticsKind, variant: str, spec: RandomSpec,
                cases: int = 200, direction: str = "both",
                max_violations: int = 5) -> SuiteReport:
    """Knowledge preservation / traditional announcement property suite.

    KP/TA draw unambiguous-depth models; KP additionally restricts psi to
    the announcement-free single-agent fragment.
    """
    rng = random.Random(spec.seed)
    unamb = variant in ("KP", "TA")
    report = SuiteReport(name=f"{variant}/{direction}", kind=kind)
    for _ in range(cases):
        m = random_model(rng, spec, unambiguous=unamb)
        a = rng.randrange(spec.agents)
        phi = random_formula(rng, spec, announce=True, kinf=True)
        if variant == "KP":
            psi = random_formula(rng, spec, kinf=True, agent=a)
        elif variant == "KPp":
            # see kp_ta_instance: raw depth atoms in psi break preservation
            psi = random_formula(rng, spec, announce=True, kinf=True,
                                 depth_atoms=False)
        else:
            psi = random_formula(rng, spec, announce=True, kinf=True)
        inst = kp_ta_instance(variant, a, phi, psi, direction)
        report.cases += 1
        report.checks += 1
        if (_record(report, report.name, inst, m, kind)
                and len(report.violations) >= max_violations):
            return report
    return report


def amnesia_instance(agent: int, phi: Formula, psi: Formula) -> Formula:
    return implies(Not(DepthAtLeast(agent, modal_depth(phi))),
                   Announce(phi, Not(Know(agent, psi))))


def amnesia_suite(spec: RandomSpec, cases: int = 100,
                  kind: SemanticsKind = SemanticsKind.EDPAL,
                  max_violations: int = 5) -> SuiteReport:
    """!P[a,d(phi)] -> [phi]!K[a] psi: valid in EDPAL for any phi and psi;
    run under DPAL, the suite finds counterexamples (shallow agents keep
    their knowledge there)."""
    rng = random.Random(spec.seed)
    report = SuiteReport(name="amnesia", kind=kind)
    for _ in range(cases):
        m = random_model(rng, spec)
        a = rng.randrange(spec.agents)
        phi = random_formula(rng, spec, announce=True, kinf=True)
        psi = random_formula(rng, spec, announce=True, kinf=True)
        inst = amnesia_instance(a, phi, psi)
        report.cases += 1
        report.checks += 1
        if (_record(report, report.name, inst, m, kind)
                and len(report.violations) >= max_violations):
            return report
    return report


# -- explicit witnesses --

def kpp_depth_atom_witness() -> tuple[Model, str, Formula]:
    """Why the KPp suite excludes raw depth atoms from psi: announcing
    Kinf[1] q decrements agent 1's depth in the positive copy, flipping
    E[1,3] there while the guard transform (which maps depth atoms to true)
    still holds.  The reverse direction fails at s1."""
    m = Model(agents=2, states=["s0", "s1"],
              val={"s0": frozenset(), "s1": frozenset({"q"})},
              rel={0: (), 1: ()},
              depth={0: {"s0": 0, "s1": 0}, 1: {"s0": 2, "s1": 3}},
              mode=EQUIVALENCE)
    phi = KnowInf(1, Atom("q"))
    psi = And(Atom("q"), DepthExact(1, 3))
    inst = kp_ta_instance("KPp", 0, phi, psi, direction="reverse")
    return m, "s1", inst


def edpal_kp_reverse_witness() -> tuple[Model, str, Formula]:
    """One-state, depth-0 model where announcing K[a]true breaks the reverse
    direction of knowledge preservation in EDPAL."""
    m = Model(agents=1, states=["s"], val={"s": frozenset()}, rel={0: ()},
              depth={0: {"s": 0}}, mode=EQUIVALENCE)
    inst = kp_ta_instance("KP", 0, Know(0, TOP), TOP, direction="reverse")
    return m, "s", inst


def leakage_fixture() -> tuple[Model, str, Formula, Formula, int]:
    """Three-world model where a too-shallow agent gains knowledge from an
    announcement it cannot perceive (under the asymmetric semantics)."""
    a, b, c = 0, 1, 2
    # b's relation is the symmetric reflexive closure of 0~1~2 (and is
    # deliberately not transitive), hence the reflexive-mode model
    m = Model(
        agents=3,
        states=["0", "1", "2"],
        val={"0": frozenset({"p0"}), "1": frozenset({"p0"}), "2": frozenset()},
        rel={a: (), b: (("0", "1"), ("1", "0"), ("1", "2"), ("2", "1")),
             c: ()},
        depth={a: {"0": 1, "1": 1, "2": 1},
               b: {"0": 0, "1": 2, "2": 0},
               c: {"0": 2, "1": 2, "2": 2}},
        mode=REFLEXIVE)
    phi = Know(c, Know(c, Atom("p0")))
    psi = Know(b, Atom("p0"))
    return m, "1", phi, psi, a


def find_composition_counterexample(spec: RandomSpec, attempts: int = 5000
                                    ) -> tuple[Model, str, Formula] | None:
    """Random search for a DPAL failure of announcement composition on
    models with at most three states."""
    rng = random.Random(spec.seed)
    small = RandomSpec(max_size=spec.max_size, agents=spec.agents,
                       max_depth=spec.max_depth, max_states=3, seed=spec.seed)
    for _ in range(attempts):
        m = random_model(rng, small)
        phi = random_formula(rng, small, rng.randint(1, 4), announce=True)
        psi = random_formula(rng, small, rng.randint(1, 4), announce=True)
        chi = random_formula(rng, small, rng.randint(1, 4), announce=True)
        inst = composition_instance(phi, psi, chi)
        ok, state = holds_everywhere(m, inst, SemanticsKind.DPAL)
        if not ok and not check_naive(m, state, inst, SemanticsKind.DPAL):
            m2, state2, _ = minimize(m, state, inst, SemanticsKind.DPAL)
            return m2, state2, inst
    return None


def necessitation_probe(spec: RandomSpec, cases: int = 40,
                        pool_size: int = 30) -> SuiteReport:
    """Desk-scale stand-in for the necessitation rule: if phi is valid on a
    model pool, then P[a,d(phi)] -> K[a]phi must be too."""
    rng = random.Random(spec.seed)
    pool = [random_model(rng, spec) for _ in range(pool_size)]
    report = SuiteReport(name="necessitation", kind=SemanticsKind.DBEL)
    found = 0
    budget = cases * 500
    while found < cases and budget > 0:
        budget -= 1
        f = random_formula(rng, spec)
        report.checks += 1
        if not all(holds_everywhere(m, f, SemanticsKind.DBEL)[0]
                   for m in pool):
            continue
        found += 1
        report.cases += 1
        a = rng.randrange(spec.agents)
        g = implies(DepthAtLeast(a, modal_depth(f)), Know(a, f))
        for m in pool:
            if _record(report, "necessitation", g, m, SemanticsKind.DBEL):
                break
    return report
