"""Model checking for the four semantics and their announcement updates.

Two checking routes are provided: ``check_naive`` is a direct recursive
evaluator (the oracle), and ``check``/``check_labeling`` implement the
bottom-up subformula labeling algorithm.  Within one call, it labels each
formula node object once per model and runs each announcement's update once
per (model, announced node object); nothing is cached across calls.  The
labeling keeps each subformula's label as one ``int`` bitmask over the
states of its model (bit i for ``states[i]``), so ``!`` and ``&`` are single
integer operations.  ``K``/``Kinf`` drop the classes that reach outside the
label (equivalence mode) or test each state's successor mask (reflexive
mode), and ``K`` is gated by the model's cached depth masks.
Updates take the announcement's truth as such a mask (``pre``); both
checkers, the DOT export and the 3-SAT reduction follow states through
``update_image``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count, repeat

from .model import (EQUIVALENCE, REFLEXIVE, Model, bits_of, flags_of,
                    mask_of)
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


_NO_DBEL_ANNOUNCE = "DBEL formulas cannot contain announcements"
_NO_DBEL_UPDATE = "DBEL has no announcement update"


def _require_mode(m: Model, kind: SemanticsKind) -> None:
    # ADPAL accepts both modes; equivalence models are demoted on update.
    if kind is not SemanticsKind.ADPAL and m.mode != EQUIVALENCE:
        raise ModeError(f"{kind.value} requires an equivalence-mode model")


def _require(m: Model, f: Formula, kind: SemanticsKind) -> None:
    if kind is SemanticsKind.DBEL and any(
            isinstance(g, Announce) for g in walk(f)):
        raise FragmentError(_NO_DBEL_ANNOUNCE)
    _require_mode(m, kind)


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
        pre = mask_of(_nv(m, t, f.announced, kind) for t in m.states)
        upd = update(m, f.announced, kind, pre)
        image = update_image(kind, pre, len(m.states))
        return _nv(upd, upd.states[image[m.state_index(s)]], f.sub, kind)
    raise TypeError(f"not a formula: {f!r}")


# -- model updates --

def update(m: Model, announced: Formula, kind: SemanticsKind,
           pre: int | None = None) -> Model:
    """The model after announcing ``announced``.  ``pre`` is where it holds,
    as a mask over ``m.states`` (bit i for ``states[i]``); None computes it
    with ``check_labeling``."""
    if kind is SemanticsKind.DPAL:
        return update_dpal(m, announced, pre)
    if kind is SemanticsKind.EDPAL:
        return update_edpal(m, announced, pre)
    if kind is SemanticsKind.ADPAL:
        return update_adpal(m, announced, pre)
    raise FragmentError(_NO_DBEL_UPDATE)


def update_image(kind: SemanticsKind, pre: int, n: int) -> list[int | None]:
    """Where an update sends each of n states: ``image[i]`` is the index of
    ``states[i]``'s image in the updated model, or None if the update drops
    it.  DPAL sends the announcement states (the bits of ``pre``) to their
    ``1.`` copies, which follow the n ``0.`` copies in state order, and the
    others to their ``0.`` copies; EDPAL keeps just the announcement states,
    in order; ADPAL keeps every state in place."""
    if kind is SemanticsKind.ADPAL:
        return list(range(n))
    if kind is SemanticsKind.DBEL:
        raise FragmentError(_NO_DBEL_UPDATE)
    dpal = kind is SemanticsKind.DPAL
    image: list[int | None] = list(range(n)) if dpal else [None] * n
    for i, j in zip(bits_of(pre), count(n if dpal else 0)):
        image[i] = j
    return image


def _flags(m: Model, announced: Formula, kind: SemanticsKind,
           pre: int | None) -> list[bool]:
    """Per state of m, whether the announcement holds there (``pre``, or
    the labeling's root mask when None)."""
    if pre is None:
        lab = check_labeling(m, announced, kind)
        pre = lab.masks[lab.root]
    return list(flags_of(pre, len(m.states)))


_COPY_PREFIX = ("0.", "1.")


def dpal_copy(state: str, positive: bool) -> str:
    """Name of a state's copy after a DPAL update: ``1.s`` for the positive
    copy (the announcement was heard), ``0.s`` for the negative one."""
    return _COPY_PREFIX[positive] + state


def update_dpal(m: Model, announced: Formula, pre: int | None = None
                ) -> Model:
    """World-duplicating update: a full negative copy plus a positive copy of
    the states satisfying the announcement.  Per agent, the copies of a class
    stay classes, and the two merge iff the agent is too shallow to perceive
    the announcement at one of the class's announcement states."""
    if m.mode != EQUIVALENCE:
        raise ModeError("DPAL update requires an equivalence-mode model")
    flags = _flags(m, announced, SemanticsKind.DPAL, pre)
    dphi = modal_depth(announced)
    n = len(m.states)   # the 1. copies follow the n 0. copies
    neg, pos = _COPY_PREFIX
    states = (tuple(map(neg.__add__, m.states))
              + tuple(map(pos.__add__, compress(m.states, flags))))
    atoms = list(map(m.atoms, m.states))
    val = dict(zip(states, atoms + list(compress(atoms, flags))))
    depth = {}
    class_ids = {}
    for a in range(m.agents):
        ids, da = m.class_ids(a), m.depths(a)
        pos_ids = list(compress(ids, flags))
        pos_da = list(compress(da, flags))
        # a class links its copies iff the agent is too shallow at one of its
        # announcement states; the 1. copies of the others form a class of
        # their own, whose first-index id is the state index of its first
        # 1. copy
        linked = list(compress(pos_ids, map(dphi.__gt__, pos_da)))
        first = dict(zip(linked, linked))
        class_ids[a] = ids + tuple(map(first.setdefault, pos_ids, count(n)))
        # deep enough agents hear the announcement and lose its depth
        shifted = {d: d - dphi if d >= dphi else d for d in set(pos_da)}
        depth[a] = da + tuple(map(shifted.__getitem__, pos_da))
    return Model._derived(m.agents, states, val, depth, EQUIVALENCE,
                          ids=class_ids)


def update_edpal(m: Model, announced: Formula, pre: int | None = None
                 ) -> Model:
    """Eager update: restrict to announcement states, decrement every depth
    unconditionally (possibly below zero)."""
    if m.mode != EQUIVALENCE:
        raise ModeError("EDPAL update requires an equivalence-mode model")
    flags = _flags(m, announced, SemanticsKind.EDPAL, pre)
    dphi = modal_depth(announced)
    depth = {a: tuple(map(operator.sub, compress(m.depths(a), flags),
                          repeat(dphi)))
             for a in range(m.agents)}
    return m._restrict(list(compress(range(len(flags)), flags)), depth)


def update_adpal(m: Model, announced: Formula, pre: int | None = None
                 ) -> Model:
    """Asymmetric update: same states; an edge from s to a successor t is cut
    iff the agent is deep enough at s and exactly one endpoint satisfies the
    announcement; depths decrement only where the agent is deep enough."""
    flags = _flags(m, announced, SemanticsKind.ADPAL, pre)
    dphi = modal_depth(announced)
    yes = frozenset(compress(m.states, flags))
    succ: dict[int, dict[str, frozenset[str]]] = {}
    depth: dict[int, tuple[int, ...]] = {}
    for a in range(m.agents):
        succ[a], da = {}, []
        for s, d, heard in zip(m.states, m.depths(a), flags):
            ts = m.successors(a, s)
            if d >= dphi:
                d -= dphi
                cut = ts & yes if heard else ts - yes
                ts = cut if len(cut) < len(ts) else ts   # else shared with m
            succ[a][s] = ts
            da.append(d)
        depth[a] = tuple(da)
    val = dict(zip(m.states, map(m.atoms, m.states)))
    return Model._derived(m.agents, m.states, val, depth, REFLEXIVE,
                          succ=succ)


# -- labeling checker --

@dataclass
class Labeling:
    """Truth of each labeled subformula, as a bitmask per label.

    Ids are handed out in preorder, one per label computed: one per
    (model, node object) for inner nodes, which are labeled once per model
    however often they occur, and one per visit for leaves, which read the
    model's cached masks.  Each announcement body is labeled on the updated
    model.  Bit i of ``masks[nid]`` stands for ``states[nid][i]``, the i-th
    state of the model that label was computed on.  ``table`` shows the same
    labels as ``{nid: {state: bool}}``, building each row when it is
    read."""

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


def check_labeling(m: Model, f: Formula, kind: SemanticsKind) -> Labeling:
    """Label f's subformulas bottom-up, each shared one once per model.

    Formulas such as ``iff`` and the axiom instances reuse one node object
    in several places, and an announcement node may recur over one model.
    Two memos, both keyed by object identity and both dropped on return,
    make that work happen once per call: each model's dict maps a node's id
    to its mask, and ``updates`` maps (model id, announced node id) to the
    updated model, its own dict and the update's image, through which
    ``[phi]psi`` reads psi's label in time linear in the models' sizes.
    Leaves read the model's cached masks and skip the memo.  No id is reused
    while the call runs, since every keyed object stays alive: each node is
    reachable from f, and each keyed model is m or an updated model that
    ``updates`` itself holds."""
    _require_mode(m, kind)
    counter = itertools.count()
    out = Labeling(m)
    masks, states = out.masks, out.states
    updates: dict[tuple[int, int], tuple[Model, dict, list]] = {}

    def label(model: Model, g: Formula, memo: dict[int, int]) -> int:
        cls = g.__class__
        if cls is Atom:
            res = ((1 << len(model.states)) - 1 if g.name == TRUE_ATOM
                   else model.atom_mask(g.name))
        elif cls is DepthAtLeast:
            res = model.depth_mask(g.agent, g.d)
        elif cls is DepthExact:
            res = (model.depth_mask(g.agent, g.d)
                   ^ model.depth_mask(g.agent, g.d + 1))
        else:
            res = memo.get(id(g))
            if res is not None:
                return res
            nid = next(counter)
            if cls is Not:
                res = (label(model, g.sub, memo)
                       ^ ((1 << len(model.states)) - 1))
            elif cls is And:
                res = label(model, g.left, memo) & label(model, g.right, memo)
            elif cls is KnowInf:
                res = _known(model, g.agent, label(model, g.sub, memo))
            elif cls is Know:
                res = (_known(model, g.agent, label(model, g.sub, memo))
                       & model.depth_mask(g.agent, modal_depth(g.sub)))
            elif cls is Announce:
                if kind is SemanticsKind.DBEL:
                    raise FragmentError(_NO_DBEL_ANNOUNCE)
                n = len(model.states)
                pre = label(model, g.announced, memo)
                key = (id(model), id(g.announced))
                done = updates.get(key)
                if done is None:
                    done = updates[key] = (
                        update(model, g.announced, kind, pre), {},
                        update_image(kind, pre, n))
                upd, upd_memo, image = done
                # psi at each state's image; a dropped state (None) reads False
                sub = dict(enumerate(flags_of(label(upd, g.sub, upd_memo),
                                              len(upd.states))))
                res = ((pre ^ ((1 << n) - 1))
                       | mask_of(map(sub.get, image, repeat(False))))
            else:
                raise TypeError(f"not a formula: {g!r}")
            memo[id(g)] = masks[nid] = res
            states[nid] = model.states
            return res
        nid = next(counter)
        masks[nid] = res
        states[nid] = model.states
        return res

    label(m, f, {})
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
