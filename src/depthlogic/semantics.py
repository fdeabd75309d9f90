"""Model checking for the four semantics and their announcement updates.

Two checking routes are provided: ``check_naive`` is a direct recursive
evaluator (the oracle), and ``check``/``check_labeling`` implement the
bottom-up subformula labeling algorithm with one model update per
announcement node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .model import (EQUIVALENCE, REFLEXIVE, Model, closed_pairs)
from .syntax import (And, Announce, Atom, DepthAtLeast, DepthExact, Formula,
                     Know, KnowInf, Not, TRUE_ATOM, modal_depth)


class SemanticsKind(Enum):
    DBEL = "DBEL"
    DPAL = "DPAL"
    EDPAL = "EDPAL"
    ADPAL = "ADPAL"


class FragmentError(ValueError):
    pass


class ModeError(ValueError):
    pass


def _require(m: Model, f: Formula, kind: SemanticsKind) -> None:
    if kind is SemanticsKind.DBEL:
        if _has_announce(f):
            raise FragmentError("DBEL formulas cannot contain announcements")
        if m.mode != EQUIVALENCE:
            raise ModeError("DBEL requires an equivalence-mode model")
    elif kind in (SemanticsKind.DPAL, SemanticsKind.EDPAL):
        if m.mode != EQUIVALENCE:
            raise ModeError(f"{kind.value} requires an equivalence-mode model")
    # ADPAL accepts both modes; equivalence models are demoted on update.


def _has_announce(f: Formula) -> bool:
    if isinstance(f, Announce):
        return True
    if isinstance(f, Not):
        return _has_announce(f.sub)
    if isinstance(f, And):
        return _has_announce(f.left) or _has_announce(f.right)
    if isinstance(f, (Know, KnowInf)):
        return _has_announce(f.sub)
    return False


def _mapped_state(kind: SemanticsKind, state: str) -> str:
    return dpal_copy(state, True) if kind is SemanticsKind.DPAL else state


# -- naive recursive checker (oracle) --

def check_naive(m: Model, state: str, f: Formula, kind: SemanticsKind) -> bool:
    _require(m, f, kind)
    return _nv(m, state, f, kind)


def _nv(m: Model, s: str, f: Formula, kind: SemanticsKind) -> bool:
    if isinstance(f, Atom):
        return f.name == TRUE_ATOM or f.name in m.atoms(s)
    if isinstance(f, DepthExact):
        return m.depth(f.agent, s) == f.d
    if isinstance(f, DepthAtLeast):
        return m.depth(f.agent, s) >= f.d
    if isinstance(f, Not):
        return not _nv(m, s, f.sub, kind)
    if isinstance(f, And):
        return _nv(m, s, f.left, kind) and _nv(m, s, f.right, kind)
    if isinstance(f, KnowInf):
        return all(_nv(m, t, f.sub, kind) for t in m.successors(f.agent, s))
    if isinstance(f, Know):
        if m.depth(f.agent, s) < modal_depth(f.sub):
            return False
        return all(_nv(m, t, f.sub, kind) for t in m.successors(f.agent, s))
    if isinstance(f, Announce):
        if not _nv(m, s, f.announced, kind):
            return True
        truth = {t: _nv(m, t, f.announced, kind) for t in m.states}
        upd = update(m, f.announced, kind, truth=truth)
        return _nv(upd, _mapped_state(kind, s), f.sub, kind)
    raise TypeError(f"not a formula: {f!r}")


# -- model updates --

def update(m: Model, announced: Formula, kind: SemanticsKind,
           truth: dict[str, bool] | None = None) -> Model:
    if kind is SemanticsKind.DPAL:
        return update_dpal(m, announced, truth=truth)
    if kind is SemanticsKind.EDPAL:
        return update_edpal(m, announced, truth=truth)
    if kind is SemanticsKind.ADPAL:
        return update_adpal(m, announced, truth=truth)
    raise FragmentError("DBEL has no announcement update")


def _truth_map(m: Model, announced: Formula, kind: SemanticsKind,
               truth: dict[str, bool] | None) -> dict[str, bool]:
    if truth is None:
        truth = {s: check_naive(m, s, announced, kind) for s in m.states}
    return truth


def dpal_copy(state: str, positive: bool) -> str:
    """Name of a state's copy after a DPAL update: ``1.s`` for the positive
    copy (the announcement was heard), ``0.s`` for the negative one."""
    return ("1." if positive else "0.") + state


def update_dpal(m: Model, announced: Formula,
                truth: dict[str, bool] | None = None) -> Model:
    """World-duplicating update: a full negative copy plus a positive copy of
    the states satisfying the announcement.  Per agent, the copies of a class
    stay classes, and the two merge iff the agent is too shallow to perceive
    the announcement at one of the class's announcement states."""
    if m.mode != EQUIVALENCE:
        raise ModeError("DPAL update requires an equivalence-mode model")
    truth = _truth_map(m, announced, SemanticsKind.DPAL, truth)
    dphi = modal_depth(announced)
    pos = [i for i, s in enumerate(m.states) if truth[s]]
    states = ([dpal_copy(s, False) for s in m.states]
              + [dpal_copy(m.states[i], True) for i in pos])
    atoms = [m.atoms(s) for s in m.states]
    val = dict(zip(states, atoms + [atoms[i] for i in pos]))
    depth = {}
    class_ids = {}
    offset = len(m.states)   # class ids are state indices, below this
    for a in range(m.agents):
        ids = m.class_ids(a)
        da = [m.depth(a, s) for s in m.states]
        linked = {ids[i] for i in pos if da[i] < dphi}
        class_ids[a] = ids + tuple(ids[i] if ids[i] in linked
                                   else ids[i] + offset for i in pos)
        depth[a] = dict(zip(states, da + [da[i] - dphi if da[i] >= dphi
                                          else da[i] for i in pos]))
    return Model(agents=m.agents, states=states, val=val, depth=depth,
                 mode=EQUIVALENCE, class_ids=class_ids)


def update_edpal(m: Model, announced: Formula,
                 truth: dict[str, bool] | None = None) -> Model:
    """Eager update: restrict to announcement states, decrement every depth
    unconditionally (possibly below zero)."""
    if m.mode != EQUIVALENCE:
        raise ModeError("EDPAL update requires an equivalence-mode model")
    truth = _truth_map(m, announced, SemanticsKind.EDPAL, truth)
    dphi = modal_depth(announced)
    return m.restrict({s for s in m.states if truth[s]},
                      lambda a, s: m.depth(a, s) - dphi)


def update_adpal(m: Model, announced: Formula,
                 truth: dict[str, bool] | None = None) -> Model:
    """Asymmetric update: same states; a pair (s, t) is cut iff the agent is
    deep enough at s and exactly one endpoint satisfies the announcement;
    depths decrement only where the agent is deep enough."""
    truth = _truth_map(m, announced, SemanticsKind.ADPAL, truth)
    dphi = modal_depth(announced)
    rel = {}
    for a in range(m.agents):
        if m.mode == EQUIVALENCE:
            pairs = closed_pairs(m.classes(a))
        else:
            pairs = m.pairs(a)
        kept = frozenset(
            (s, t) for s, t in pairs
            if not (m.depth(a, s) >= dphi and truth[s] != truth[t]))
        rel[a] = kept
    depth = {a: {s: (m.depth(a, s) - dphi if m.depth(a, s) >= dphi
                     else m.depth(a, s))
                 for s in m.states}
             for a in range(m.agents)}
    val = {s: m.atoms(s) for s in m.states}
    return Model(agents=m.agents, states=m.states, val=val, rel=rel,
                 depth=depth, mode=REFLEXIVE)


# -- labeling checker --

@dataclass
class Labeling:
    """Truth table over (subformula tree node, state); nodes are preorder ids
    over the announcement tree, each announcement body labeled on the updated
    model."""

    root: int
    table: dict[int, dict[str, bool]] = field(default_factory=dict)
    formulas: dict[int, Formula] = field(default_factory=dict)

    def truth(self, state: str) -> bool:
        return self.table[self.root][state]


def check_labeling(m: Model, f: Formula, kind: SemanticsKind) -> Labeling:
    _require(m, f, kind)
    counter = itertools.count()
    out = Labeling(root=0)

    def label(model: Model, g: Formula) -> dict[str, bool]:
        nid = next(counter)
        out.formulas[nid] = g
        if isinstance(g, Atom):
            if g.name == TRUE_ATOM:
                res = {s: True for s in model.states}
            else:
                res = {s: g.name in model.atoms(s) for s in model.states}
        elif isinstance(g, DepthExact):
            res = {s: model.depth(g.agent, s) == g.d for s in model.states}
        elif isinstance(g, DepthAtLeast):
            res = {s: model.depth(g.agent, s) >= g.d for s in model.states}
        elif isinstance(g, Not):
            sub = label(model, g.sub)
            res = {s: not v for s, v in sub.items()}
        elif isinstance(g, And):
            left = label(model, g.left)
            right = label(model, g.right)
            res = {s: left[s] and right[s] for s in model.states}
        elif isinstance(g, KnowInf):
            sub = label(model, g.sub)
            res = {s: all(sub[t] for t in model.successors(g.agent, s))
                   for s in model.states}
        elif isinstance(g, Know):
            sub = label(model, g.sub)
            gate = modal_depth(g.sub)
            res = {s: model.depth(g.agent, s) >= gate
                   and all(sub[t] for t in model.successors(g.agent, s))
                   for s in model.states}
        elif isinstance(g, Announce):
            pre = label(model, g.announced)
            upd = update(model, g.announced, kind, truth=pre)
            sub = label(upd, g.sub)
            res = {}
            for s in model.states:
                if not pre[s]:
                    res[s] = True
                else:
                    res[s] = sub[_mapped_state(kind, s)]
        else:
            raise TypeError(f"not a formula: {g!r}")
        out.table[nid] = res
        return res

    label(m, f)
    return out


def check(m: Model, state: str, f: Formula, kind: SemanticsKind) -> bool:
    """Labeling-based model check of a pointed model."""
    if not m.has_state(state):
        raise ModeError(f"unknown state {state!r}")
    return check_labeling(m, f, kind).truth(state)


def holds_everywhere(m: Model, f: Formula, kind: SemanticsKind
                     ) -> tuple[bool, str | None]:
    """Validity of f on the model; returns (ok, first falsifying state)."""
    lab = check_labeling(m, f, kind)
    root = lab.table[lab.root]
    for s in m.states:
        if not root[s]:
            return False, s
    return True, None
