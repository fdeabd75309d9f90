"""Model checking for the four semantics and their announcement updates.

Two checking routes are provided: ``check_naive`` is a direct recursive
evaluator (the oracle), and ``check``/``check_labeling`` implement the
bottom-up subformula labeling algorithm with one model update per
announcement node.  The labeling keeps each subformula's label as one
``int`` bitmask over the states of its model (bit i for ``states[i]``), so
``!`` and ``&`` are single integer operations.  ``K``/``Kinf`` drop the
classes that reach outside the label (equivalence mode) or test each
state's successor mask (reflexive mode), and ``K`` is gated by the model's
cached depth masks.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat

from .model import EQUIVALENCE, REFLEXIVE, Model, flags_of, mask_of
from .syntax import (And, Announce, Atom, DepthAtLeast, DepthExact, Formula,
                     Know, KnowInf, Not, TRUE_ATOM, modal_depth, walk)


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
        if any(isinstance(g, Announce) for g in walk(f)):
            raise FragmentError("DBEL formulas cannot contain announcements")
        if m.mode != EQUIVALENCE:
            raise ModeError("DBEL requires an equivalence-mode model")
    elif kind in (SemanticsKind.DPAL, SemanticsKind.EDPAL):
        if m.mode != EQUIVALENCE:
            raise ModeError(f"{kind.value} requires an equivalence-mode model")
    # ADPAL accepts both modes; equivalence models are demoted on update.


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
    return truth if truth is not None else {
        s: check_naive(m, s, announced, kind) for s in m.states}


_COPY_PREFIX = ("0.", "1.")


def dpal_copy(state: str, positive: bool) -> str:
    """Name of a state's copy after a DPAL update: ``1.s`` for the positive
    copy (the announcement was heard), ``0.s`` for the negative one."""
    return _COPY_PREFIX[positive] + state


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
    n = len(m.states)   # class ids are state indices, below this
    flags = list(map(truth.__getitem__, m.states))
    neg, pos = _COPY_PREFIX
    states = (list(map(neg.__add__, m.states))
              + list(map(pos.__add__, compress(m.states, flags))))
    atoms = list(map(m.atoms, m.states))
    val = dict(zip(states, atoms + list(compress(atoms, flags))))
    depth = {}
    class_ids = {}
    for a in range(m.agents):
        ids, da = m.class_ids(a), m.depths(a)
        pos_ids = list(compress(ids, flags))
        pos_da = list(compress(da, flags))
        # a class links its copies iff the agent is too shallow at one of its
        # announcement states; the 1. copies of the others get new ids
        linked = set(compress(pos_ids, map(dphi.__gt__, pos_da)))
        new_id = {c: c if c in linked else c + n for c in set(pos_ids)}
        class_ids[a] = ids + tuple(map(new_id.__getitem__, pos_ids))
        # deep enough agents hear the announcement and lose its depth
        shifted = {d: d - dphi if d >= dphi else d for d in set(pos_da)}
        depth[a] = da + tuple(map(shifted.__getitem__, pos_da))
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
    flags = list(map(truth.__getitem__, m.states))
    depth = {a: tuple(map(operator.sub, compress(m.depths(a), flags),
                          repeat(dphi)))
             for a in range(m.agents)}
    return m.restrict(list(compress(range(len(flags)), flags)), depth)


def update_adpal(m: Model, announced: Formula,
                 truth: dict[str, bool] | None = None) -> Model:
    """Asymmetric update: same states; an edge from s to a successor t is cut
    iff the agent is deep enough at s and exactly one endpoint satisfies the
    announcement; depths decrement only where the agent is deep enough."""
    truth = _truth_map(m, announced, SemanticsKind.ADPAL, truth)
    dphi = modal_depth(announced)
    yes = frozenset(s for s in m.states if truth[s])
    succ: dict[int, dict[str, frozenset[str]]] = {}
    depth: dict[int, list[int]] = {}
    for a in range(m.agents):
        succ[a], depth[a] = {}, []
        for s, d in zip(m.states, m.depths(a)):
            ts = m.successors(a, s)
            if d >= dphi:
                d -= dphi
                cut = ts & yes if truth[s] else ts - yes
                ts = cut if len(cut) < len(ts) else ts   # else shared with m
            succ[a][s] = ts
            depth[a].append(d)
    val = {s: m.atoms(s) for s in m.states}
    return Model(agents=m.agents, states=m.states, val=val, depth=depth,
                 mode=REFLEXIVE, successors=succ)


# -- labeling checker --

@dataclass
class Labeling:
    """Truth of each subformula tree node, as a bitmask per node.

    Nodes are preorder ids over the announcement tree; each announcement body
    is labeled on the updated model.  Bit i of ``masks[node]`` stands for
    ``states[node][i]``, the i-th state of the model the node was labeled on.
    ``table`` shows the same labels as ``{node: {state: bool}}``, building
    each row when it is read."""

    model: Model
    root: int = 0
    masks: dict[int, int] = field(default_factory=dict)
    states: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @property
    def table(self) -> Mapping[int, dict[str, bool]]:
        return _Rows(self)

    def truth(self, state: str) -> bool:
        return bool(self.masks[self.root] >> self.model.state_index(state) & 1)


class _Rows(Mapping):
    """``Labeling.table``: node id to ``{state: bool}``, built on access."""

    def __init__(self, lab: Labeling) -> None:
        self._lab = lab

    def __getitem__(self, nid: int) -> dict[str, bool]:
        states = self._lab.states[nid]
        return dict(zip(states, flags_of(self._lab.masks[nid], len(states))))

    def __iter__(self) -> Iterator[int]:
        return iter(self._lab.masks)

    def __len__(self) -> int:
        return len(self._lab.masks)


def _known(model: Model, agent: int, sub: int) -> int:
    """States all of whose agent-successors lie in ``sub``."""
    if model.mode == EQUIVALENCE:
        # all but the classes with a state outside sub; read from the class
        # ids, since one full-width mask per class would take memory
        # quadratic in the size of a DPAL product
        n = len(model.states)
        full = (1 << n) - 1
        ids = model.class_ids(agent)
        leaving = set(compress(ids, flags_of(full ^ sub, n)))
        return full ^ mask_of(map(leaving.__contains__, ids))
    return mask_of(t & sub == t for t in model.successor_masks(agent))


def _pull_back(kind: SemanticsKind, pre: int, sub: int, n: int) -> int:
    """The announcement states (``pre``, over n states) whose image in the
    updated model lies in ``sub``.  DPAL puts the ``1.`` copies of the
    announcement states after the n ``0.`` copies and EDPAL keeps just them,
    both in state order; ADPAL keeps every state in place."""
    if kind is SemanticsKind.ADPAL:
        return pre & sub
    if kind is SemanticsKind.DPAL:
        sub >>= n
    kept = list(compress(range(n), flags_of(pre, n)))
    return sum(map((1).__lshift__, compress(kept, flags_of(sub, len(kept)))))


def check_labeling(m: Model, f: Formula, kind: SemanticsKind) -> Labeling:
    _require(m, f, kind)
    counter = itertools.count()
    out = Labeling(m)

    def label(model: Model, g: Formula) -> int:
        nid = next(counter)
        if isinstance(g, Not):
            res = label(model, g.sub) ^ ((1 << len(model.states)) - 1)
        elif isinstance(g, And):
            res = label(model, g.left) & label(model, g.right)
        elif isinstance(g, Atom):
            res = ((1 << len(model.states)) - 1 if g.name == TRUE_ATOM
                   else model.atom_mask(g.name))
        elif isinstance(g, DepthExact):
            res = (model.depth_mask(g.agent, g.d)
                   ^ model.depth_mask(g.agent, g.d + 1))
        elif isinstance(g, DepthAtLeast):
            res = model.depth_mask(g.agent, g.d)
        elif isinstance(g, KnowInf):
            res = _known(model, g.agent, label(model, g.sub))
        elif isinstance(g, Know):
            res = (_known(model, g.agent, label(model, g.sub))
                   & model.depth_mask(g.agent, modal_depth(g.sub)))
        elif isinstance(g, Announce):
            n = len(model.states)
            full = (1 << n) - 1
            pre = label(model, g.announced)
            truth = dict(zip(model.states, flags_of(pre, n)))
            upd = update(model, g.announced, kind, truth=truth)
            sub = label(upd, g.sub)
            res = (pre ^ full) | _pull_back(kind, pre, sub, n)
        else:
            raise TypeError(f"not a formula: {g!r}")
        out.masks[nid] = res
        out.states[nid] = model.states
        return res

    label(m, f)
    del label   # frees the tables now, not at the next cyclic collection
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
    missed = lab.masks[lab.root] ^ ((1 << len(m.states)) - 1)
    if not missed:
        return True, None
    return False, m.states[(missed & -missed).bit_length() - 1]
