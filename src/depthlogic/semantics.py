"""Model checking for the four semantics and their announcement updates.

Two checking routes are provided: ``check_naive`` is a direct recursive
evaluator (the oracle), and ``check``/``check_labeling`` implement the
bottom-up subformula labeling algorithm by running a post-order program over
the formula's distinct node objects, compiled once and kept on the formula.
Labels and updates are not cached across calls; within one, each node
object is labeled once per model and each (model, announced node object)
update runs once, unless the announcement holds nowhere: then ``[phi]psi``
is true everywhere and no update is built.  Each label is one ``int``
bitmask over the states of its model (bit i for ``states[i]``), so ``!`` and
``&`` are single integer operations.  ``K``/``Kinf`` drop the classes that
reach outside the label (equivalence mode) or test each state's successor
mask (reflexive mode), reading no relation for an empty or full label,
and ``K`` is gated by the model's cached depth masks, looked up by the keys
the program carries.  Updates take the announcement's truth as such a mask
(``pre``) and its modal depth; both checkers, the DOT export and the 3-SAT
reduction follow states through ``update_image``.  A DPAL or EDPAL update
is a view of its parent until read, with masks derived from the parent's.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping
from enum import Enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from typing import NamedTuple

from .model import (EQUIVALENCE, REFLEXIVE, Model, ModelError, _bytes_of,
                    _first_index_ids, bits_of, flags_of, mask_of)
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


_NO_DBEL_ANNOUNCE = "DBEL formulas cannot contain announcements"
_NO_DBEL_UPDATE = "DBEL has no announcement update"


def _require_mode(m: Model, kind: SemanticsKind) -> None:
    # ADPAL accepts both modes; equivalence models are demoted on update.
    if kind is not SemanticsKind.ADPAL and m.mode != EQUIVALENCE:
        raise ModeError(f"{kind.value} requires an equivalence-mode model")


# -- naive recursive checker (oracle) --

def check_naive(m: Model, state: str, f: Formula, kind: SemanticsKind) -> bool:
    code, _ = _program(m, f)
    if kind is SemanticsKind.DBEL and any(op == _ANNOUNCE for op, *_ in code):
        raise FragmentError(_NO_DBEL_ANNOUNCE)
    _require_mode(m, kind)
    m.state_index(state)   # refuses an unknown state
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
        image = update_image(kind, pre, m.n)
        return _nv(upd, upd.states[image[m.state_index(s)]], f.sub, kind)
    raise TypeError(f"not a formula: {f!r}")


# -- model updates --

def update(m: Model, announced: Formula, kind: SemanticsKind,
           pre: int | None = None, dphi: int | None = None) -> Model:
    """The model after announcing ``announced``.  ``pre`` is where it holds,
    as a mask over ``m.states`` (bit i for ``states[i]``), and ``dphi`` its
    ``modal_depth``; None computes them (``pre`` with ``check_labeling``)."""
    if kind is SemanticsKind.DPAL:
        return update_dpal(m, announced, pre, dphi)
    if kind is SemanticsKind.EDPAL:
        return update_edpal(m, announced, pre, dphi)
    if kind is SemanticsKind.ADPAL:
        return update_adpal(m, announced, pre, dphi)
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


def announcement_steps(m: Model, announcements: list[Formula],
                       kind: SemanticsKind, state: str | None = None
                       ) -> list[tuple[Model, str | None]]:
    """Models (and tracked designated state) after each successive update."""
    steps: list[tuple[Model, str | None]] = [(m, state)]
    cur, here = m, None if state is None else m.state_index(state)
    for phi in announcements:
        pre = check_labeling(cur, phi, kind).root_mask
        if here is not None:
            here = update_image(kind, pre, cur.n)[here]
        cur = update(cur, phi, kind, pre)
        steps.append((cur, None if here is None else cur.states[here]))
    return steps


def _pre(m: Model, announced: Formula, kind: SemanticsKind,
         pre: int | None, dphi: int | None) -> tuple[int, int]:
    """``pre`` and ``dphi``, computed as ``update`` says where None, once
    m's mode suits ``kind``."""
    _require_mode(m, kind)
    if pre is None:
        pre = check_labeling(m, announced, kind).root_mask
    return pre, modal_depth(announced) if dphi is None else dphi


def _heard(depths: tuple[int, ...], dphi: int) -> tuple[int, ...]:
    """The depths after an announcement of depth dphi is heard: those of at
    least dphi lose it (each distinct depth is shifted once)."""
    shift = {d: d - dphi if d >= dphi else d for d in set(depths)}
    return tuple(map(shift.__getitem__, depths))


_COPY_PREFIX = ("0.", "1.")


class _View(NamedTuple):
    """A lazy update's source (see ``Model._derived``): its parent, ``pre``
    as a mask and as bytes, and dphi."""
    parent: Model
    pre: int
    heard: bytes
    dphi: int

    def packed(self, mask: int) -> int:
        """A parent mask's bits at ``pre``'s set bits, packed low: its binary
        digits, lowest first, kept where pre has a 1."""
        kept = mask & self.pre
        if not kept or kept == self.pre:   # none or all of pre's bits
            return (1 << kept.bit_count()) - 1
        packed = bytes(compress(bin(mask)[:1:-1].encode(), self.heard))
        return int(packed[::-1], 2)


def update_dpal(m: Model, announced: Formula, pre: int | None = None,
                dphi: int | None = None) -> Model:
    """World-duplicating update: a full negative copy plus a positive copy of
    the states satisfying the announcement.  Per agent, the copies of a class
    stay classes, and the two merge iff the agent is too shallow to perceive
    the announcement at one of the class's announcement states."""
    pre, dphi = _pre(m, announced, SemanticsKind.DPAL, pre, dphi)
    heard = _bytes_of(pre, m.n)
    val = m.valuation()   # the 1. copies follow the n 0. copies
    return Model._derived(
        m.agents, None, val + tuple(compress(val, heard)), {}, EQUIVALENCE,
        source=_DpalProduct(m, pre, heard, dphi))


class _DpalProduct(_View):
    __slots__ = ()

    def states(self) -> tuple[str, ...]:
        names, (neg, pos) = self.parent.states, _COPY_PREFIX
        return tuple(map(neg.__add__, names)) + tuple(map(
            pos.__add__, compress(names, self.heard)))

    def ids(self, a: int) -> tuple[int, ...]:
        parent, pre, heard, dphi = self
        ids = parent.class_ids(a)
        # a class links its copies iff the agent is too shallow at one of its
        # announcement states; the 1. copies of the others form a class of
        # their own, whose first-index id is the state index of its first
        # 1. copy
        shallow = pre & ~parent.depth_mask(a, dphi)
        linked = list(compress(ids, _bytes_of(shallow, parent.n))
                      if shallow else ())
        first = dict(zip(linked, linked))
        return ids + tuple(map(first.setdefault, compress(ids, heard),
                               count(parent.n)))

    def depths(self, a: int) -> tuple[int, ...]:
        da = self.parent.depths(a)
        return da + _heard(tuple(compress(da, self.heard)), self.dphi)

    def needs(self, key: tuple) -> tuple[tuple, ...]:
        """The parent's masks ``mask(key)`` reads (for d <= 0 a 1. copy's
        depth is at least d iff its 0. copy's is)."""
        if key[0] == "atom" or key[2] <= 0:
            return (key,)
        _, a, d = key
        return key, ("depth", a, d + self.dphi), ("depth", a, self.dphi)

    def mask(self, key: tuple) -> int:
        """The product's mask from its parent's: the 0. copies keep the
        parent's bits; the 1. copies take, packed, those at ``pre`` of the
        same mask, or for d > 0 of P(d + dphi) where the agent is deep
        enough to hear the announcement and of P(d) where it is not."""
        masks = self.parent._masks
        low = high = masks[key]
        if key[0] == "depth" and key[2] > 0:
            _, a, d = key
            high = (masks["depth", a, d + self.dphi]
                    | low & ~masks["depth", a, self.dphi])
        return low | self.packed(high) << self.parent.n


def update_edpal(m: Model, announced: Formula, pre: int | None = None,
                 dphi: int | None = None) -> Model:
    """Eager update: restrict to announcement states, decrement every depth
    unconditionally (possibly below zero)."""
    pre, dphi = _pre(m, announced, SemanticsKind.EDPAL, pre, dphi)
    heard = _bytes_of(pre, m.n)
    return Model._derived(
        m.agents, None, tuple(compress(m.valuation(), heard)), {},
        EQUIVALENCE, source=_EdpalView(m, pre, heard, dphi))


class _EdpalView(_View):
    __slots__ = ()

    def states(self) -> tuple[str, ...]:
        return tuple(compress(self.parent.states, self.heard))

    def ids(self, a: int) -> tuple[int, ...]:
        return _first_index_ids(compress(self.parent.class_ids(a),
                                         self.heard))

    def depths(self, a: int) -> tuple[int, ...]:
        kept = compress(self.parent.depths(a), self.heard)
        return tuple(map(operator.sub, kept, repeat(self.dphi)))

    def needs(self, key: tuple) -> tuple[tuple, ...]:
        """The parent mask ``mask(key)`` reads: P(d + dphi) for P(d)."""
        if key[0] == "atom":
            return (key,)
        return (("depth", key[1], key[2] + self.dphi),)

    def mask(self, key: tuple) -> int:
        """The parent's ``needs`` mask, packed at ``pre``."""
        return self.packed(self.parent._masks[self.needs(key)[0]])


def update_adpal(m: Model, announced: Formula, pre: int | None = None,
                 dphi: int | None = None) -> Model:
    """Asymmetric update: same states; an edge from s to a successor t is cut
    iff the agent is deep enough at s and exactly one endpoint satisfies the
    announcement; depths decrement only where the agent is deep enough.
    Each successor mask left whole is shared with m."""
    pre, dphi = _pre(m, announced, SemanticsKind.ADPAL, pre, dphi)
    heard = _bytes_of(pre, m.n)
    keep = (pre ^ ((1 << m.n) - 1), pre)   # by heard: a state's side
    succ = {a: tuple([t if d < dphi or (u := t & keep[h]) == t else u
                      for t, d, h in zip(m.successor_masks(a), m.depths(a),
                                         heard)])
            for a in range(m.agents)}
    depth = {a: _heard(m.depths(a), dphi) for a in range(m.agents)}
    return Model._derived(m.agents, m.states, m.valuation(), depth, REFLEXIVE,
                          succ=succ)


# -- labeling checker --

# Opcodes of a compiled formula; an instruction is (op, a, b, c)
_AND, _NOT, _ATOM, _ANNOUNCE, _DEPTH, _KNOW = range(6)


def _compile(roots: list[Formula]) -> tuple[tuple, dict[int, int]]:
    """The program ``(code, top_agent)`` over the distinct node objects
    under ``roots``, and each node's slot by id (good while they live).
    ``code`` has one instruction per node, in post-order, whose operands are
    earlier slots.  Leaves carry their mask keys (see ``Model._mask``), E(d)
    P(d + 1)'s too; a ``K``, P(``modal_depth`` of its body)'s.  The bodies
    of all announcements of one announced node object form one program, run
    on the updated model; each such announcement carries the announced node,
    that program, the node's ``modal_depth`` and its body's slot there.
    ``top_agent`` is the largest agent index named anywhere, or -1."""
    order, slot, stack = [], {}, roots[::-1]
    bodies: dict[int, list[Formula]] = {}   # by announced node
    while stack:
        g = stack[-1]
        cls = g.__class__
        todo = [h for h in ((g.left, g.right) if cls is And
                            else (g.announced,) if cls is Announce
                            else (g.sub,) if cls in (Not, Know, KnowInf)
                            else ()) if id(h) not in slot]
        if todo:
            stack += reversed(todo)
        elif id(stack.pop()) not in slot:
            slot[id(g)] = len(order)
            order.append(g)
            if cls is Announce:
                bodies.setdefault(id(g.announced), []).append(g.sub)
    groups = {key: _compile(subs) for key, subs in bodies.items()}
    top = max((prog[1] for prog, _ in groups.values()), default=-1)
    code = []
    for g in order:
        cls = g.__class__
        if cls is And:
            code.append((_AND, slot[id(g.left)], slot[id(g.right)], None))
        elif cls is Not:
            code.append((_NOT, slot[id(g.sub)], None, None))
        elif cls is Atom:
            code.append((_ATOM, ("atom", g.name), g.name == TRUE_ATOM, None))
        elif cls is Announce:
            (body, _), body_slot = groups[id(g.announced)]
            code.append((_ANNOUNCE, slot[id(g.announced)],
                         (g.announced, body, modal_depth(g.announced)),
                         body_slot[id(g.sub)]))
        elif cls in (DepthAtLeast, DepthExact):
            code.append((_DEPTH, ("depth", g.agent, g.d),
                         ("depth", g.agent, g.d + 1) if cls is DepthExact
                         else None, None))
        elif cls in (Know, KnowInf):
            code.append((_KNOW, g.agent, slot[id(g.sub)],
                         ("depth", g.agent, modal_depth(g.sub)) if cls is Know
                         else None))
        else:
            raise TypeError(f"not a formula: {g!r}")
        top = max(top, getattr(g, "agent", -1))
    return (tuple(code), top), slot


@dataclass
class Labeling:
    """Truth of each labeled subformula, as a bitmask per label.

    ``runs`` keeps the model and slots of each program run: first the
    formula's on ``model``, whose last slot is ``root_mask``, then one per
    (model, announced node object) for the bodies on the updated model, if
    the announcement holds somewhere (one that holds nowhere adds no run).
    Ids number the slots run by run, in post-order within a run, so each
    node object, leaves included, has one id per model it is labeled on.
    Bit i of ``masks[nid]`` stands for ``states[nid][i]``.  ``masks``,
    ``states`` and ``table`` (``{nid: {state: bool}}``) are built when
    read."""

    model: Model
    root_mask: int
    runs: list[tuple[Model, list[int]]]

    @property
    def root(self) -> int:
        return len(self.runs[0][1]) - 1

    @cached_property
    def masks(self) -> dict[int, int]:
        return dict(enumerate(chain.from_iterable(s for _, s in self.runs)))

    @cached_property
    def states(self) -> dict[int, tuple[str, ...]]:
        return dict(enumerate(chain.from_iterable(
            repeat(m.states, len(slots)) for m, slots in self.runs)))

    @property
    def table(self) -> Mapping[int, dict[str, bool]]:
        return _Rows(self)

    def truth(self, state: str) -> bool:
        return bool(self.root_mask >> self.model.state_index(state) & 1)


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
    """States all of whose agent-successors lie in ``sub``.  Each state is
    its own successor, so an empty or full ``sub`` is its own answer, found
    without reading the agent's relation (a lazy update builds none)."""
    full = (1 << model.n) - 1
    if not sub or sub == full:
        return sub
    out = full ^ sub
    if model.mode == EQUIVALENCE:
        # all but the classes with a state outside sub; read from the class
        # ids, since one full-width mask per class would take memory
        # quadratic in the size of a DPAL product
        ids = model.class_ids(agent)
        leaving = set(compress(ids, _bytes_of(out, model.n)))
        return full ^ mask_of(map(leaving.__contains__, ids))
    return mask_of(map(operator.not_, map(
        out.__and__, model.successor_masks(agent))))


def _pull_back(kind: SemanticsKind, pre: int, n: int, body: int) -> int:
    """The states of ``pre`` at whose ``update_image`` ``body`` holds.  Their
    images are, in order, the updated states from n (DPAL) or 0 (EDPAL) on,
    so those bits of ``body`` are deposited into ``pre``'s set bits: written
    MSB first, their digits take the places of ``pre``'s 1s."""
    if kind is SemanticsKind.ADPAL:
        return body & pre
    gaps = bin(pre)[2:].split("1")
    digits = format(body >> n if kind is SemanticsKind.DPAL else body, "b")
    return int("".join(map(operator.add, gaps, digits.zfill(len(gaps) - 1)))
               + gaps[-1], 2)


def _run(model: Model, code: tuple[tuple, ...], kind: SemanticsKind,
         updates: dict, runs: list) -> list[int]:
    """Run a program on model; returns the slots, also added to ``runs``.
    ``updates`` maps (model id, announced node id) to the slots of the run
    on the updated model, for ``[phi]psi`` to read psi.  A mask key is
    looked up in the model's cache, and ``Model._mask`` called on a miss."""
    n = model.n
    full = (1 << n) - 1
    masks = model._masks
    slots: list[int] = []
    runs.append((model, slots))
    put = slots.append
    for op, a, b, c in code:
        if op == _AND:
            put(slots[a] & slots[b])
        elif op == _NOT:
            put(slots[a] ^ full)
        elif op == _ATOM:   # the mask of key a, or every state if b
            mask = full if b else masks.get(a)
            put(model._mask(a) if mask is None else mask)
        elif op == _ANNOUNCE:
            if kind is SemanticsKind.DBEL:
                raise FragmentError(_NO_DBEL_ANNOUNCE)
            pre = slots[a]
            if not pre:   # [phi]psi holds wherever phi fails: everywhere
                put(full)
                continue
            announced, body, dphi = b
            key = (id(model), id(announced))
            done = updates.get(key)
            if done is None:
                done = updates[key] = _run(
                    update(model, announced, kind, pre, dphi), body, kind,
                    updates, runs)
            put((pre ^ full) | _pull_back(kind, pre, n, done[c]))
        elif op == _DEPTH:   # P(d) of key a, less P(d + 1) of key b for E
            low = masks.get(a)
            high = 0 if b is None else masks.get(b)
            put((model._mask(a) if low is None else low)
                ^ (model._mask(b) if high is None else high))
        else:   # K[a], gated by the mask of key c, or Kinf[a] if c is None
            gate = full if c is None else masks.get(c)
            gate = model._mask(c) if gate is None else gate
            put(_known(model, a, slots[b]) & gate)
    return slots


def _program(m: Model, f: Formula) -> tuple:
    """f's compiled program (kept on f), once f names no agent m lacks."""
    prog = f._program
    if prog is None:
        prog = _compile([f])[0]
        object.__setattr__(f, "_program", prog)
    if prog[1] >= m.agents:
        raise ModelError(f"formula names unknown agent {prog[1]}")
    return prog


def check_labeling(m: Model, f: Formula, kind: SemanticsKind) -> Labeling:
    """Label f's subformulas bottom-up, each node object once per model.

    f keeps its compiled program for later checks on any model.  Within a
    call each (model, announced node object) update runs once, and none for
    an announcement that holds nowhere; ``K`` over an empty or full body
    reads no relation.  The update memo is keyed by ids, unique while it
    lives (the program holds every node, ``runs`` every updated model), and
    is dropped on return with the labels."""
    prog = _program(m, f)
    _require_mode(m, kind)
    runs: list[tuple[Model, list[int]]] = []
    root_mask = _run(m, prog[0], kind, {}, runs)[-1]
    return Labeling(m, root_mask, runs)


def check(m: Model, state: str, f: Formula, kind: SemanticsKind) -> bool:
    """Labeling-based model check of a pointed model."""
    m.state_index(state)   # refuses an unknown state before labeling
    return check_labeling(m, f, kind).truth(state)


def holds_everywhere(m: Model, f: Formula, kind: SemanticsKind
                     ) -> tuple[bool, str | None]:
    """Validity of f on the model; returns (ok, first falsifying state)."""
    missed = check_labeling(m, f, kind).root_mask ^ ((1 << m.n) - 1)
    if not missed:
        return True, None
    return False, m.states[(missed & -missed).bit_length() - 1]
