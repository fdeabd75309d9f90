"""Muddy-children models, the depth bound experiments, and the 3-SAT
reduction used for the NP-hardness benchmark."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .model import EQUIVALENCE, Model
# check_naive is unused here, but the traced benchmark wraps
# muddy.check_naive by name
from .semantics import (SemanticsKind, announcement_steps, check,
                        check_labeling, check_naive)
from .syntax import (And, Announce, Atom, DepthAtLeast, Formula, Know,
                     KnowInf, Not, TOP, announcement_chain, conj, disj, dual,
                     implies)

DepthFn = Callable[[int, str], int]


@dataclass(frozen=True)
class MuddyInstance:
    n: int
    k: int
    model: Model

    @property
    def initial(self) -> str:
        return "1" * self.k + "0" * (self.n - self.k)


def muddy_atom(i: int) -> Atom:
    return Atom(f"m{i}")


def canonical_depths(k: int) -> DepthFn:
    """Child i unambiguously of depth k-1-i."""
    return lambda agent, state: max(k - 1 - agent, 0)


def constant_depths(values: list[int]) -> DepthFn:
    return lambda agent, state: values[agent]


def build_muddy(n: int, k: int, depth_fn: DepthFn) -> MuddyInstance:
    """States are the nonzero bitstrings of length n (the father's depth-0
    announcement is pre-applied); child i cannot see its own forehead, so its
    classes pair each state with its i-th bitflip."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    states = ["".join(bits) for bits in itertools.product("01", repeat=n)
              if "1" in bits]
    val = {s: frozenset(f"m{i}" for i, b in enumerate(s) if b == "1")
           for s in states}
    # a state and its i-th bitflip share the key with bit i set
    class_ids = {i: [s[:i] + "1" + s[i + 1:] for s in states]
                 for i in range(n)}
    depth = {i: {s: depth_fn(i, s) for s in states} for i in range(n)}
    model = Model(agents=n, states=states, val=val, depth=depth,
                  mode=EQUIVALENCE, class_ids=class_ids)
    return MuddyInstance(n=n, k=k, model=model)


def phi_k(k: int) -> Formula:
    """<!K[k-1] m_{k-1}> ... <!K[1] m_1> K[0] m_0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f: Formula = Know(0, muddy_atom(0))
    for i in range(1, k):
        f = dual(Not(Know(i, muddy_atom(i))), f)
    return f


def upper_bound_hypothesis(k: int) -> Formula:
    """K[0](P[0,k-1] & K[1](P[1,k-2] & ... K[k-1] P[k-1,0]))."""
    if k < 2:
        raise ValueError("k must be >= 2")
    acc: Formula = Know(k - 1, DepthAtLeast(k - 1, 0))
    for i in range(k - 2, -1, -1):
        acc = Know(i, And(DepthAtLeast(i, k - 1 - i), acc))
    return acc


def upper_bound_check(k: int, kind: SemanticsKind,
                      depth_fn: DepthFn | None = None) -> bool:
    inst = build_muddy(k, k, depth_fn or canonical_depths(k))
    f = implies(upper_bound_hypothesis(k), phi_k(k))
    return check(inst.model, inst.initial, f, kind)


def lower_bound_conclusion(k: int) -> Formula:
    """K[0](P[0,k-1] & /\\_i Kinf[1]..Kinf[i](!(m_1|..|m_i) -> P[i,k-2-i])).

    The depth constant k-2-i is clamped at zero for the last term.
    """
    parts: list[Formula] = [DepthAtLeast(0, k - 1)]
    for i in range(1, k):
        body: Formula = implies(
            Not(disj(*(muddy_atom(j) for j in range(1, i + 1)))),
            DepthAtLeast(i, max(k - 2 - i, 0)))
        for j in range(i, 0, -1):
            body = KnowInf(j, body)
        parts.append(body)
    return Know(0, conj(*parts))


@dataclass
class SweepReport:
    k: int
    cases: int = 0
    violations: int = 0
    witnesses: list[tuple[tuple[int, ...], str]] = field(
        default_factory=list)


def lower_bound_check(k: int, depth_fn: DepthFn) -> bool:
    """Check phi_k -> (lower bound conclusion) at s_k under DPAL."""
    inst = build_muddy(k, k, depth_fn)
    f = implies(phi_k(k), lower_bound_conclusion(k))
    return check(inst.model, inst.initial, f, SemanticsKind.DPAL)


def lower_bound_sweep(k: int, max_depth: int = 3) -> SweepReport:
    """Exhaustive sweep over constant-per-agent depth assignments; also
    asserts the contrapositive witness: a too-shallow child 0 never learns."""
    report = SweepReport(k=k)
    base = build_muddy(k, k, canonical_depths(k))
    phi = phi_k(k)
    f = implies(phi, lower_bound_conclusion(k))
    n = len(base.model.states)
    for values in itertools.product(range(max_depth + 1), repeat=k):
        model = base.model.restrict(depth={a: (d,) * n
                                           for a, d in enumerate(values)})
        report.cases += 1
        if not check(model, base.initial, f, SemanticsKind.DPAL):
            report.violations += 1
            report.witnesses.append((values, "implication"))
        if values[0] < k - 1 and check(model, base.initial, phi,
                                       SemanticsKind.DPAL):
            report.violations += 1
            report.witnesses.append((values, "contrapositive"))
    return report


def amnesia_formula() -> Formula:
    """<!K[2] m_2><!K[1] m_1> !K[2] true."""
    return dual(Not(Know(2, muddy_atom(2))),
                dual(Not(Know(1, muddy_atom(1))), Not(Know(2, TOP))))


def leakage_formula(observer: int = 1) -> Formula:
    """<K[1] !K[2] m_2> K[observer] K[0] m_0 for observer 1, or the shallow
    variant <K[1] !K[2] m_2> K[0] m_0."""
    announced = Know(1, Not(Know(2, muddy_atom(2))))
    if observer == 1:
        return dual(announced, Know(1, Know(0, muddy_atom(0))))
    return dual(announced, Know(0, muddy_atom(0)))


def proposition_matrix() -> dict[str, dict[str, bool]]:
    """Truth of the amnesia/leakage formulas on M_3 with depths 2-i, per
    semantics."""
    inst = build_muddy(3, 3, canonical_depths(3))
    demoted = build_muddy(3, 3, constant_depths([1, 1, 0]))
    out = {kind.value: {
        "amnesia": check(inst.model, inst.initial, amnesia_formula(), kind),
        "leakage": check(inst.model, inst.initial, leakage_formula(), kind)}
        for kind in (SemanticsKind.DPAL, SemanticsKind.EDPAL,
                     SemanticsKind.ADPAL)}
    out["ADPAL"]["leakage_shallow"] = check(
        demoted.model, demoted.initial, leakage_formula(observer=0),
        SemanticsKind.ADPAL)
    return out


# -- 3-SAT reduction --

@dataclass(frozen=True)
class ThreeSatInstance:
    """Clauses in DIMACS convention: nonzero ints, sign = polarity,
    variables numbered from 1."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        lits = _literals(self.n)
        for c in self.clauses:
            if type(c) is not tuple or len(c) != 3 or not lits.issuperset(c):
                raise ValueError(f"bad clause {c!r}")


@functools.lru_cache(maxsize=8)
def _literals(n: int) -> frozenset[int]:
    return frozenset(range(-n, n + 1)) - {0}


def truth_table_sat(inst: ThreeSatInstance) -> bool:
    for bits in itertools.product((False, True), repeat=inst.n):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl)
               for cl in inst.clauses):
            return True
    return False


def _reduction_model(n: int) -> Model:
    depth = {i: (n + i,) for i in range(1, n + 1)}
    depth[0] = (0,)
    depth[n + 1] = (5 * n * n,)
    return Model(agents=n + 2, states=["s"], val={"s": frozenset()},
                 depth=depth)


def _clause(cl: tuple[int, ...]) -> Formula:
    # literal a_i becomes "agent i has leftover depth", i.e. P[i,1]
    return disj(*(DepthAtLeast(abs(lit), 1) if lit > 0
                  else Not(DepthAtLeast(abs(lit), 1)) for lit in cl))


def reduce_3sat(inst: ThreeSatInstance) -> tuple[Model, Formula]:
    """One-state model and announcement chain whose DPAL truth value equals
    satisfiability: each announcement splits agent i's depth budget into a
    zero/non-zero branch, and a depth-0 observer then scans all branches."""
    n = inst.n
    body: Formula = Not(Know(0, Not(conj(*map(_clause, inst.clauses)))))
    for j in range(n + 1, 2 * n + 1):
        tower: Formula = TOP
        for _ in range(j):
            tower = Know(n + 1, tower)
        body = Announce(tower, body)
    return _reduction_model(n), body


# per variable count n: the final model, agent 0's class at s's all-positive
# copy in it, that copy's depth gate, and each clause's label mask there,
# keyed by the clause as given: at most (2n)^3 masks
_FINAL_CACHE: dict[int, tuple[Model, int, bool, dict[tuple, int]]] = {}


def reduction_decide(inst: ThreeSatInstance) -> bool:
    """DPAL truth of the reduction formula at ``s``: the announcements depend
    only on n and hold everywhere, so it is ``!K[0] !phi'`` at ``s``'s
    all-positive copy in the final model: true iff the depth gate fails or
    phi' meets agent 0's class there.  The conjunction starts from that
    class, so an instance costs one lookup and one ``&`` per clause."""
    n = inst.n
    table = _FINAL_CACHE.get(n)
    if table is None:
        m, f = reduce_3sat(ThreeSatInstance(n, ((1, 1, 1),)))
        final, s = announcement_steps(m, announcement_chain(f),
                                      SemanticsKind.DPAL, "s")[-1]
        for a in range(final.agents):   # all built, final drops its parents
            final.class_ids(a)
        i = final.state_index(s)
        # the labeling's K rule; the depth gate is modal_depth(!phi') = 0
        table = _FINAL_CACHE[n] = (final, final.successor_masks(0)[i],
                                   bool(final.depth_mask(0, 0) >> i & 1), {})
    final, phi, gate, masks = table
    for cl in inst.clauses:
        mask = masks.get(cl)
        if mask is None:
            mask = masks[cl] = check_labeling(
                final, _clause(cl), SemanticsKind.DPAL).root_mask
        phi &= mask
    return not gate or phi != 0


def all_small_instances(n: int = 3, max_clauses: int = 4
                        ) -> Iterator[ThreeSatInstance]:
    """Every 3-SAT instance over n variables with up to max_clauses clauses,
    up to clause order (combinations, not permutations)."""
    lits = [i for v in range(1, n + 1) for i in (v, -v)]
    pool = list(itertools.combinations_with_replacement(lits, 3))
    for count in range(1, max_clauses + 1):
        for clauses in itertools.combinations(pool, count):
            yield ThreeSatInstance(n=n, clauses=tuple(clauses))
