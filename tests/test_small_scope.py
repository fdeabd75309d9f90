"""Bounded-exhaustive cross-check of the labeling checker against the
``check_naive`` oracle: every formula up to ``MAX_SIZE`` nodes over a small
vocabulary, on every model within small bounds, at every state.  Random
draws find the disagreements their seeds reach; this finds every one within
its bounds (the small-scope hypothesis)."""

from __future__ import annotations

import functools
import itertools

from depthlogic.model import REFLEXIVE, Model
from depthlogic.sat import enumerate_models
from depthlogic.semantics import SemanticsKind, check_labeling, check_naive
from depthlogic.syntax import (TOP, And, Announce, Atom, DepthAtLeast,
                               DepthExact, Know, KnowInf, Not, parse,
                               to_text)

MAX_SIZE = 2
AGENTS = DEPTHS = (0, 1)
LEAVES = [Atom("p"), TOP] + [cls(a, d) for cls in (DepthAtLeast, DepthExact)
                             for a in AGENTS for d in DEPTHS]
UNARY = [Not] + [functools.partial(cls, a) for cls in (Know, KnowInf)
                 for a in AGENTS]
KINDS = (SemanticsKind.DPAL, SemanticsKind.EDPAL, SemanticsKind.ADPAL)


def formulas(n: int) -> list:
    """Every formula of exactly n nodes over ``LEAVES``, ``!``, ``K``,
    ``Kinf``, ``&`` and announcements."""
    if n == 1:
        return list(LEAVES)
    out = [op(f) for op in UNARY for f in formulas(n - 1)]
    return out + [op(f, g) for op in (And, Announce) for i in range(1, n - 1)
                  for f in formulas(i) for g in formulas(n - 1 - i)]


def equivalence_models() -> list[Model]:
    """The ``sat`` candidates over atom p and agents 0 and 1 with at most 2
    states and depths 0..1."""
    f = And(Atom("p"), Know(1, TOP))
    return [pm.model for pm in enumerate_models(f, 2, max(DEPTHS))]


def reflexive_models() -> list[Model]:
    """Every 2-state reflexive-mode model over atom p and agents 0 and 1
    with depths 0..1: each agent's relation has or lacks each of the two
    arcs between the states."""
    states = ("s0", "s1")
    relations = [{"s0": {"s0", *a}, "s1": {"s1", *b}}
                 for a in ((), ("s1",)) for b in ((), ("s0",))]
    return [Model(2, states, dict(zip(states, val)), {0: dv[:2], 1: dv[2:]},
                  REFLEXIVE, successors={0: r0, 1: r1})
            for val in itertools.product(((), ("p",)), repeat=2)
            for dv in itertools.product(DEPTHS, repeat=4)
            for r0, r1 in itertools.product(relations, repeat=2)]


def cross_check(pool: list) -> tuple[int, list]:
    """Checks and mismatches of ``check_labeling`` against ``check_naive``
    for each formula of pool at every state of every small case: the
    equivalence models under three semantics, the reflexive ones under
    ADPAL."""
    cases = [(m, kind) for m in equivalence_models() for kind in KINDS]
    cases += [(m, SemanticsKind.ADPAL) for m in reflexive_models()]
    checks, mismatches = 0, []
    for m, kind in cases:
        for f in pool:
            mask = check_labeling(m, f, kind).root_mask
            for i, s in enumerate(m.states):
                checks += 1
                if bool(mask >> i & 1) != check_naive(m, s, f, kind):
                    mismatches.append((kind.value, to_text(f), m, s))
    return checks, mismatches


def test_labeling_matches_the_oracle_on_every_small_case():
    pool = [f for n in range(1, MAX_SIZE + 1) for f in formulas(n)]
    assert len(pool) == len(set(pool)) == 60
    checks, mismatches = cross_check(pool)
    assert mismatches[:5] == []
    # 60 formulas at the 520 states of the 264 equivalence models under
    # three semantics, and at the 2,048 of the 1,024 reflexive ones
    assert checks == 216_480


# announced formulas of modal depth 0, 1 and 2: at depths 0..1 an agent of
# depth 0 is too shallow for depth 1, so DPAL copies link, and every state
# is too shallow for depth 2, which keeps its depth bounds
ANNOUNCED = [parse(t) for t in ("p", "P[0,1]", "K[0] p", "!K[1] p",
                                "K[1] K[0] p")]
BODIES = [parse(t) for t in ("K[0] p", "K[1] p", "K[0] K[1] p",
                             "Kinf[1] K[0] p", "P[0,1]", "E[1,0]")]
# one nested level; each names agent 0 only inside its nested announcement
NESTED = [parse(t) for t in ("[p] K[0] p", "[!K[0] p] K[0] p",
                             "[p] P[0,1]")]


def test_announcements_match_the_oracle_on_every_small_case():
    pool = [Announce(psi, chi) for psi in ANNOUNCED
            for chi in BODIES + NESTED]
    checks, mismatches = cross_check(pool)
    assert mismatches[:5] == []
    # 45 formulas at the 3,608 states of the cases above
    assert checks == 45 * 3_608
