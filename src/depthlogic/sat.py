"""Depth-typed satisfiability machinery and a bounded brute-force oracle.

The closure/type/depth-assignment trio operates on the announcement-free,
K-free fragment (atoms, depth atoms, negation, conjunction, Kinf); the
brute-force search enumerates all small pointed models up to relabeling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import EQUIVALENCE, Model, PointedModel
from .semantics import FragmentError, SemanticsKind, check_naive
from .syntax import (And, Atom, DepthAtLeast, DepthExact, Formula, KnowInf,
                     Not, TRUE_ATOM, agents_of, atoms_of, max_depth_constant,
                     modal_depth, walk)


def _check_fragment(f: Formula) -> None:
    for g in walk(f):
        if not isinstance(g, (Atom, DepthExact, DepthAtLeast, Not, And,
                              KnowInf)):
            raise FragmentError(
                f"closure fragment excludes {type(g).__name__} nodes")


@dataclass(frozen=True)
class Closure:
    """Smallest superset of the input closed under subformulas and single
    negation (no double negations are introduced)."""

    formulas: tuple[Formula, ...]
    d_max: int
    agents: tuple[int, ...]

    def __contains__(self, f: Formula) -> bool:
        return f in self._set

    @property
    def _set(self) -> frozenset[Formula]:
        return frozenset(self.formulas)


def closure(gamma: Iterable[Formula]) -> Closure:
    seen: dict[Formula, None] = {}  # insertion-ordered set

    def add(f: Formula) -> None:
        if isinstance(f, Not):
            add(f.sub)
            return
        if f in seen:
            return
        seen[f] = None
        if isinstance(f, And):
            add(f.left)
            add(f.right)
        elif isinstance(f, KnowInf):
            add(f.sub)

    for f in gamma:
        _check_fragment(f)
        add(f)
    out = [g for f in seen for g in (f, Not(f))]
    dmax = max((max_depth_constant(f) for f in out), default=0) + 1
    agents = tuple(sorted(set().union(*(agents_of(f) for f in out))
                          if out else ()))
    return Closure(formulas=tuple(out), d_max=dmax, agents=agents)


@dataclass(frozen=True)
class RuleViolation:
    rule: int
    witnesses: tuple[Formula, ...]


def _depth_literals(gamma: frozenset[Formula], agent: int
                    ) -> tuple[list[int], list[int], list[int], list[int]]:
    """(E positives, P positives, negated-E depths, negated-P depths)."""
    es, ps, nes, nps = [], [], [], []
    for g in gamma:
        if isinstance(g, DepthExact) and g.agent == agent:
            es.append(g.d)
        elif isinstance(g, DepthAtLeast) and g.agent == agent:
            ps.append(g.d)
        elif isinstance(g, Not):
            h = g.sub
            if isinstance(h, DepthExact) and h.agent == agent:
                nes.append(h.d)
            elif isinstance(h, DepthAtLeast) and h.agent == agent:
                nps.append(h.d)
    return es, ps, nes, nps


def is_type(gamma_subset: Iterable[Formula], cl: Closure
            ) -> RuleViolation | None:
    """None when the subset satisfies the seven type rules, otherwise the
    lowest-numbered violated rule with witness formulas."""
    gamma = frozenset(gamma_subset)
    clset = cl._set
    for g in gamma:
        if g not in clset:
            raise ValueError(f"subset member {g!r} outside the closure")

    # rule 1: for non-negations, exactly one of psi / !psi
    for f in cl.formulas:
        if not isinstance(f, Not) and (Not(f) in gamma) != (f not in gamma):
            return RuleViolation(1, (f,))
    # rule 2: conjunctions agree with their conjuncts
    for f in cl.formulas:
        if isinstance(f, And):
            if (f in gamma) != (f.left in gamma and f.right in gamma):
                return RuleViolation(2, (f,))
    # rule 3: Kinf is factive within the type
    for f in gamma:
        if isinstance(f, KnowInf) and f.sub not in gamma:
            return RuleViolation(3, (f,))
    agents = set(cl.agents)
    for a in sorted(agents):
        es, ps, nes, nps = _depth_literals(gamma, a)
        # rule 4: P[a,d] excludes !P[a,d'] and E[a,d'] below d
        for d in ps:
            for d2 in nps:
                if d2 < d:
                    return RuleViolation(
                        4, (DepthAtLeast(a, d), Not(DepthAtLeast(a, d2))))
            for d2 in es:
                if d2 < d:
                    return RuleViolation(
                        4, (DepthAtLeast(a, d), DepthExact(a, d2)))
        # rule 5: E[a,d] is unique and excludes !P[a,d'] for d' <= d
        for d in es:
            for d2 in es:
                if d2 != d:
                    return RuleViolation(
                        5, (DepthExact(a, d), DepthExact(a, d2)))
            for d2 in nps:
                if d2 <= d:
                    return RuleViolation(
                        5, (DepthExact(a, d), Not(DepthAtLeast(a, d2))))
        # rule 7: depth is never below zero (checked before rule 6 so that
        # !P[a,0] is reported as the rule written specifically for it)
        if 0 in nps:
            return RuleViolation(7, (Not(DepthAtLeast(a, 0)),))
        # rule 6: !P[a,d] leaves some candidate depth below d open
        neg_e = set(nes)
        for d in nps:
            if all(d2 in neg_e for d2 in range(d)):
                return RuleViolation(6, (Not(DepthAtLeast(a, d)),))
        # rule 6, global reading: the interval allowed by the P literals
        # must contain a depth not excluded by a negated E
        if not es:
            lo = max(ps, default=0)
            hi = min(nps, default=cl.d_max + 1) - 1
            if all(d in neg_e for d in range(lo, hi + 1)):
                return RuleViolation(
                    6, tuple(Not(DepthExact(a, d)) for d in range(lo, hi + 1)))
    return None


def assign_depths(gamma_subset: Iterable[Formula], cl: Closure
                  ) -> dict[int, int]:
    """A depth per agent satisfying every depth literal of an accepted type."""
    gamma = frozenset(gamma_subset)
    viol = is_type(gamma, cl)
    if viol is not None:
        raise ValueError(f"not a type (rule {viol.rule})")
    out: dict[int, int] = {}
    for a in cl.agents:
        es, ps, nes, nps = _depth_literals(gamma, a)
        neg_e = set(nes)
        if es:
            out[a] = es[0]
        elif ps:
            d0 = max(ps)
            hi = min(nps, default=cl.d_max + 1) - 1
            out[a] = next(d for d in range(d0, hi + 1) if d not in neg_e)
        elif nps:
            d0 = min(nps)
            out[a] = max(d for d in range(d0) if d not in neg_e)
        else:
            # only negated E literals (if any): smallest unexcluded depth
            out[a] = next(d for d in itertools.count() if d not in neg_e)
    return out


def satisfies_literals(gamma_subset: Iterable[Formula],
                       depths: dict[int, int]) -> bool:
    """Literal-by-literal check of a depth assignment against a subset."""
    for g in gamma_subset:
        neg = isinstance(g, Not)
        h = g.sub if neg else g
        if isinstance(h, DepthExact):
            ok = depths[h.agent] == h.d
        elif isinstance(h, DepthAtLeast):
            ok = depths[h.agent] >= h.d
        else:
            continue
        if ok == neg:
            return False
    return True


# -- bounded brute force --

def _set_partitions(n: int) -> list[tuple[int, ...]]:
    # restricted growth strings enumerate partitions without relabeling;
    # each string gives every item's block number, in lexicographic order
    rgs: list[tuple[int, ...]] = [()]
    for _ in range(n):
        rgs = [p + (b,) for p in rgs for b in range(max(p, default=-1) + 2)]
    return rgs


def _bell(n: int) -> int:
    """Number of partitions of an n-element set, from the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _estimate(n: int, n_atoms: int, n_agents: int, max_depth: int) -> int:
    return ((2 ** n_atoms) ** n * _bell(n) ** n_agents
            * (max_depth + 1) ** (n * n_agents))


def enumerate_models(f: Formula, max_states: int, max_depth: int,
                     limit: int = 2_000_000) -> Iterator[PointedModel]:
    """All pointed models (point at the first state) over f's vocabulary, up
    to state relabeling."""
    atoms = sorted(atoms_of(f) - {TRUE_ATOM})
    n_agents = max(agents_of(f), default=0) + 1
    total = sum(_estimate(n, len(atoms), n_agents, max_depth)
                for n in range(1, max_states + 1))
    if total > limit:
        raise ValueError(
            f"bounds exceeded: ~{total} candidate models (limit {limit})")
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        partitions = _set_partitions(n)
        valuations = list(itertools.product(
            *([[frozenset(c) for c in _subsets(atoms)]] * n)))
        depth_vecs = list(itertools.product(range(max_depth + 1),
                                            repeat=n * n_agents))
        for parts in itertools.product(partitions, repeat=n_agents):
            class_ids = dict(enumerate(parts))
            for vals in valuations:
                val = dict(zip(states, vals))
                for dv in depth_vecs:
                    depth = {a: {s: dv[a * n + i]
                                 for i, s in enumerate(states)}
                             for a in range(n_agents)}
                    m = Model(agents=n_agents, states=states, val=val,
                              depth=depth, mode=EQUIVALENCE,
                              class_ids=class_ids)
                    yield PointedModel(m, states[0])


def _subsets(items: list[str]) -> Iterator[tuple[str, ...]]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def sat_bruteforce(f: Formula, kind: SemanticsKind = SemanticsKind.DPAL,
                   max_states: int = 3, max_depth: int | None = None,
                   limit: int = 2_000_000) -> PointedModel | None:
    """First satisfying pointed model within the bounds, or None.

    None is *not* an unsatisfiability certificate, only none-within-bounds.
    """
    if max_depth is None:
        max_depth = max(modal_depth(f), max_depth_constant(f)) + 1
    for pm in enumerate_models(f, max_states, max_depth, limit):
        if check_naive(pm.model, pm.state, f, kind):
            return pm
    return None
