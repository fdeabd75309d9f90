"""Kripke structures with per-agent, per-state depths.

An equivalence-mode relation (DBEL, DPAL, EDPAL) is a partition, stored as
one class id per state index for each agent; a reflexive-mode relation
(ADPAL) is stored as one successor mask per state index (see below), the
state's own bit included.  ``successors`` reads either as names: the
agent's class, or the state itself plus its direct successors.

Explicit pairs, never reflexive loops, exist only in model files, and are
read and written a state at a time.  ``model_from_dict`` maps each agent's
pair names to indices in one pass; a closed equivalence relation's class
ids are its states' least successors, after three checks at C level (an
open relation is closed with a warning).  ``pair_walk`` slices each state's
pairs from its class or reads them off its successor mask for the writer,
``to_dict``, the DOT export and ``validate``.  ``save_model`` writes, and
``canonical_json`` joins, the fixed file schema as text laid out byte for
byte as ``json.dumps(to_dict(m), sort_keys=True, indent=2)`` plus a newline,
without building ``to_dict``.

Depths and atoms are stored by state index too: one tuple per agent, and
one of atom sets, in state order (``depths(a)``, ``valuation()``); ``n`` is
the state count.  Updates build these tuples directly from their input's.

Input is validated once, at the boundary: ``Model(...)``, ``model_from_dict``
and ``Model.restrict`` check everything they are given.  The models the
checker derives from valid ones (the DPAL, EDPAL and ADPAL updates and the
``sat`` candidates) are trusted: ``Model._derived`` sets their columns as
given and re-checks none of them.  Their name index is built on first read,
and so is all of a DPAL or EDPAL update but its valuation: names, class ids
and masks from its parent's, depth tuples only when read.

For the labeling checker a model also offers sets of states as ``int``
bitmasks, bit i standing for ``states[i]``: per atom, per (agent, depth
bound) and per state's successors.  Each is built on first use and cached,
since models are immutable.  ``mask_of``, ``flags_of`` and ``bits_of``
convert masks at C level, with no Python call per state, through a mask's
bytes form: a 0/1 byte per state.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from collections.abc import (Hashable, Iterable, Iterator, Mapping,
                             Sequence)
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, floordiv, lt, mod, mul, ne

EQUIVALENCE = "equivalence"
REFLEXIVE = "reflexive"


class ModelError(ValueError):
    pass


Pair = tuple[str, str]


class Model:
    """Immutable pointed-model substrate: states, valuation, relations, depths.

    Relations come in equivalence mode as ``class_ids`` (per agent, one
    hashable class id per state, equal ids meaning the same class) and in
    reflexive mode as ``successors`` (per agent, each state's successor set,
    itself included); an omitted relation is the identity.  Depths come per
    agent as ``{state: depth}`` (missing states at 0) or as a sequence in
    state order.
    """

    __slots__ = ("agents", "n", "mode", "_states", "_val", "_ids", "_depth",
                 "_index", "_succ", "_masks", "_source")

    def __init__(self,
                 agents: int,
                 states: Iterable[str],
                 val: Mapping[str, Iterable[str]],
                 depth: Mapping[int, Mapping[str, int] | tuple[int, ...]
                                | list[int]]
                 | None = None,
                 mode: str = EQUIVALENCE,
                 *,
                 class_ids: Mapping[int, Sequence[Hashable]] | None = None,
                 successors: Mapping[int, Mapping[str, Iterable[str]]]
                 | None = None):
        states = tuple(states)
        index = dict(zip(states, count()))
        if len(index) != len(states):
            raise ModelError("duplicate state names")
        if not (all(map(isinstance, states, repeat(str))) and all(states)):
            raise ModelError("state names must be non-empty strings")
        if agents < 1:
            raise ModelError("need at least one agent")
        if mode not in (EQUIVALENCE, REFLEXIVE):
            raise ModelError(f"unknown mode {mode!r}")
        if not val.keys() <= index.keys():
            unknown = min(val.keys() - index.keys())
            raise ModelError(f"valuation for unknown state {unknown!r}")
        vmap = tuple(map(frozenset, map(val.get, states, repeat(()))))
        ids: dict[int, tuple[int, ...]] = {}
        succ: dict[int, tuple[int, ...]] = {}
        if mode == EQUIVALENCE:
            if successors is not None:
                raise ModelError("successors needs reflexive mode")
            class_ids = class_ids or {}
            for a, column in class_ids.items():
                if not 0 <= a < agents:
                    raise ModelError(f"relation for unknown agent {a}")
                if len(column) != len(states):
                    raise ModelError(f"agent {a} needs one class id per state")
            for a in range(agents):
                column = class_ids.get(a)
                ids[a] = (tuple(range(len(states))) if column is None
                          else _first_index_ids(column))
        else:
            if class_ids is not None:
                raise ModelError("class_ids needs equivalence mode")
            if successors is None:   # the identity: each state's own bit
                successors, succ = {}, dict.fromkeys(range(agents), tuple(
                    map((1).__lshift__, range(len(states)))))
            elif successors.keys() != set(range(agents)):
                raise ModelError("successors needs one map per agent")
            bit = (1).__lshift__
            for a, column in successors.items():
                sets = [frozenset(column.get(s, ())) for s in states]
                if column.keys() != index.keys() or not all(
                        s in ts and ts <= index.keys()
                        for s, ts in zip(states, sets)):
                    raise ModelError(f"agent {a} needs each state's "
                                     f"successors, itself included")
                succ[a] = tuple([sum(map(bit, map(index.__getitem__, ts)))
                                 for ts in sets])
        self._fill(agents, states, vmap, _depth_columns(agents, index, depth),
                   mode, ids, succ, index)

    @classmethod
    def _derived(cls, agents: int, states: tuple[str, ...] | None,
                 val: tuple[frozenset[str], ...],
                 depth: dict[int, tuple[int, ...]], mode: str, *,
                 ids: dict[int, tuple[int, ...]] | None = None,
                 succ: dict[int, tuple[int, ...]] | None = None,
                 index: dict[str, int] | None = None, source=None) -> Model:
        """A model from columns its caller guarantees, none of them checked:
        ``states`` distinct names; ``val`` each state's atoms as a frozenset,
        in state order; ``depth`` a tuple of ints per agent; in equivalence
        mode ``ids``, first-index class ids (see ``class_ids``) for every
        agent, and in reflexive mode ``succ``, each state's successors as a
        mask with its own bit set (see ``successor_masks``), for every agent.
        Optional: the name ``index``; a ``source`` building None ``states``,
        absent agents' columns and uncached masks."""
        m = cls.__new__(cls)
        m._fill(agents, states, val, depth, mode, ids or {}, succ or {},
                index, source)
        return m

    def _fill(self, agents, states, val, depth, mode, ids, succ,
              index, source=None) -> None:
        self.agents = agents
        self.n = len(val)
        self.mode = mode
        self._states = states
        self._val = val
        self._ids = ids
        self._depth = depth
        self._index = index
        self._succ = succ
        self._masks: dict[tuple, int] = {}
        self._source = source

    # -- accessors --

    @property
    def states(self) -> tuple[str, ...]:
        if self._states is None:
            self._build()
        return self._states

    def _names(self) -> dict[str, int]:
        if self._index is None:   # the state-name index
            self._index = dict(zip(self.states, count()))
        return self._index

    def _build(self, agent: int | None = None, depths: bool = False) -> None:
        """Builds the names (``agent`` None) or a known agent's class ids (or
        ``depths``) from the source, oldest lacking parent first: a long
        chain builds in a loop.  A model with its names and every agent's
        ids builds its other depths and drops source and parent."""
        if agent is not None and not 0 <= agent < self.agents:
            raise ModelError(f"unknown agent {agent}")
        todo, m = [], self
        while (m._states is None if agent is None
               else agent not in (m._depth if depths else m._ids)):
            assert m._source is not None, "a derived model lacks a column"
            todo.append(m)
            m = m._source.parent
        for m in reversed(todo):
            if agent is None:
                m._states = m._source.states()
            elif depths:
                m._depth[agent] = m._source.depths(agent)
            else:
                m._ids[agent] = m._source.ids(agent)
            if m._states is not None and len(m._ids) == m.agents:
                for b in range(m.agents):
                    if b not in m._depth:
                        m._depth[b] = m._source.depths(b)
                m._source = None

    def atoms(self, state: str) -> frozenset[str]:
        return self._val[self.state_index(state)]

    def valuation(self) -> tuple[frozenset[str], ...]:
        """Each state's atoms, in state order."""
        return self._val

    def depth(self, agent: int, state: str) -> int:
        return self.depths(agent)[self.state_index(state)]

    def depths(self, agent: int) -> tuple[int, ...]:
        """The agent's depth at each state, in state order (a DPAL or EDPAL
        update builds its class ids too)."""
        if agent not in self._depth:
            self.class_ids(agent)
            self._build(agent, True)
        return self._depth[agent]

    def pairs(self, agent: int) -> frozenset[Pair]:
        """Non-loop pairs, from ``pair_walk``."""
        return frozenset((s, t) for s, ts in zip(self.states, pair_walk(
            self, agent, labels=self.states)) for t in ts)

    def has_state(self, state: str) -> bool:
        return state in self._names()

    def state_index(self, state: str) -> int:
        """The state's index; ``ModelError`` for a state the model lacks."""
        try:
            return self._names()[state]
        except KeyError:
            raise ModelError(f"unknown state {state!r}") from None

    def class_ids(self, agent: int) -> tuple[int, ...]:
        """Per state index, the index of the first state of its class (see
        ``classes``)."""
        if agent in self._ids:
            return self._ids[agent]
        if agent in self._succ and self.mode == REFLEXIVE:   # components
            self._ids[agent] = _components(pair_walk(self, agent))
        else:
            self._build(agent)
        return self._ids[agent]

    def successors(self, agent: int, state: str) -> frozenset[str]:
        """States the agent considers possible at ``state`` (includes itself):
        its class in equivalence mode, its direct successors otherwise."""
        mask = self.successor_masks(agent)[self.state_index(state)]
        return frozenset(map(self.states.__getitem__, bits_of(mask)))

    def classes(self, agent: int) -> tuple[frozenset[str], ...]:
        """The agent's partition (in reflexive mode: the connected components
        of the symmetrized relation), in state order."""
        states = self.states
        return tuple(frozenset(map(states.__getitem__, members))
                     for members in _members(self.class_ids(agent)).values())

    # -- bitmasks (bit i stands for states[i]) --

    def atom_mask(self, atom: str) -> int:
        """States whose valuation holds the atom."""
        return self._mask(("atom", atom))

    def depth_mask(self, agent: int, d: int) -> int:
        """States where the agent's depth is at least ``d``."""
        return self._mask(("depth", agent, d))

    def _mask(self, key: tuple) -> int:
        """The atom or depth mask ``key``, cached.  A DPAL or EDPAL update
        derives it from the masks of its parent that its source ``needs``,
        building those missing up the chain first, oldest first, in a loop;
        it reads an atom mask the parent lacks from its own valuation."""
        mask = self._masks.get(key)
        if mask is not None:
            return mask
        src = self._source
        if src is None or key[0] == "atom" and key not in src.parent._masks:
            mask = mask_of(
                map(key[2].__le__, self.depths(key[1])) if key[0] == "depth"
                else map(frozenset.__contains__, self._val, repeat(key[1])))
        else:
            todo, m, keys = [], src.parent, src.needs(key)
            while not all(map(m._masks.__contains__, keys)):
                keys = {k for k in keys if k not in m._masks}
                todo.append((m, keys))
                if m._source is None:
                    break
                keys = {j for k in keys for j in m._source.needs(k)}
                m = m._source.parent
            for m, keys in reversed(todo):   # each m's parent has its needs
                for k in keys:
                    m._mask(k)
            mask = src.mask(key)
        self._masks[key] = mask
        return mask

    def successor_masks(self, agent: int) -> tuple[int, ...]:
        """Per state index, the agent's ``successors`` of that state as a
        mask: stored in reflexive mode, one per class in equivalence mode."""
        masks = self._succ.get(agent)
        if masks is None:
            ids = self.class_ids(agent)
            bit = (1).__lshift__
            members = {c: sum(map(bit, js)) for c, js in _members(ids).items()}
            masks = self._succ[agent] = tuple(map(members.__getitem__, ids))
        return masks

    def restrict(self, keep: Sequence[int] | None = None,
                 depth: Mapping[int, tuple[int, ...] | list[int]]
                 | None = None) -> Model:
        """The submodel on the states at the indices ``keep`` (default: all),
        in that order, with per-agent depths ``depth`` in the submodel's state
        order (default: these).  A repeated or out-of-range index (negative
        ones too) is refused, and so is a depth for an unknown agent or of the
        wrong length."""
        n = self.n
        keep = range(n) if keep is None else list(keep)
        kept = set(keep)
        outside = kept.difference(range(n))
        if outside:
            bad = next(i for i in keep if i in outside)
            raise ModelError(f"no state at index {bad!r} (the model has {n})")
        if len(kept) != len(keep):
            raise ModelError("restrict keeps a state index twice")
        states = tuple(map(self.states.__getitem__, keep))
        if depth is None:
            depth = {a: tuple(map(self.depths(a).__getitem__, keep))
                     for a in range(self.agents)}
        else:
            depth = _depth_columns(self.agents, dict.fromkeys(states), depth)
        val = tuple(map(self._val.__getitem__, keep))
        if self.mode == EQUIVALENCE:
            ids = {a: _first_index_ids(
                       map(self.class_ids(a).__getitem__, keep))
                   for a in range(self.agents)}
            return Model._derived(self.agents, states, val, depth, EQUIVALENCE,
                                  ids=ids)
        new = dict(zip(keep, count()))   # a kept state's old index: new
        succ = {a: tuple([sum(1 << new[j] for j in bits_of(t) if j in new)
                          for t in map(self.successor_masks(a).__getitem__,
                                       keep)])
                for a in range(self.agents)}
        return Model._derived(self.agents, states, val, depth, REFLEXIVE,
                              succ=succ)

    def __repr__(self) -> str:
        return (f"Model(agents={self.agents}, states={self.n}, "
                f"mode={self.mode!r})")


# bin()'s digits to the bytes form and back; ``compress`` reads the former
_TO_BYTES = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def mask_of(flags: Iterable[bool]) -> int:
    """The bitmask whose bit i is the i-th flag."""
    return int(bytes(flags).translate(_TO_DIGITS)[::-1] or b"0", 2)


def _bytes_of(mask: int, n: int) -> bytes:
    """Bits 0..n-1 of a bitmask below ``2**n`` in the bytes form."""
    return bin(mask)[:1:-1].encode().translate(_TO_BYTES).ljust(n, b"\0")[:n]


def flags_of(mask: int, n: int) -> Iterator[bool]:
    """Bits 0..n-1 of a mask below ``2**n`` as bools, inverting ``mask_of``."""
    return map(bool, _bytes_of(mask, n))


def bits_of(mask: int) -> Iterator[int]:
    """The indices of a bitmask's set bits, ascending.  A sparse mask, such
    as a state's successors, is read a set bit at a time, not a byte per
    state."""
    if mask.bit_count() << 5 >= mask.bit_length():
        return compress(count(), _bytes_of(mask, mask.bit_length()))
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return iter(bits)


def _members(ids: Iterable[int]) -> dict[int, list[int]]:
    """Per class id, in order of first appearance, its state indices."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(ids):
        members.setdefault(c, []).append(i)
    return members


def _first_index_ids(column: Iterable[Hashable]) -> tuple[int, ...]:
    first: dict[Hashable, int] = {}
    return tuple(map(first.setdefault, column, count()))


def _depth_columns(agents: int, names: Mapping[str, object],
                   depth: Mapping[int, Mapping[str, int] | tuple[int, ...]
                                  | list[int]] | None
                   ) -> dict[int, tuple[int, ...]]:
    """Per agent, its depths as ints in the order of the state ``names``
    (a mapping keyed by them), from ``Model``'s ``depth`` argument."""
    depth = depth or {}
    for a in depth:
        if not 0 <= a < agents:
            raise ModelError(f"depth for unknown agent {a}")
    dmap = {}
    for a in range(agents):
        da = depth.get(a, {})
        if isinstance(da, (tuple, list)):
            if len(da) != len(names):
                raise ModelError(f"agent {a} needs one depth per state")
            dmap[a] = tuple(map(int, da))
        elif da.keys() <= names.keys():
            dmap[a] = tuple(map(int, map(da.get, names, repeat(0))))
        else:
            unknown = min(da.keys() - names.keys())
            raise ModelError(f"depth for unknown state {unknown!r}")
    return dmap


def _components(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Class ids (as ``Model.class_ids``) of the connected components of the
    symmetrized relation whose successor ``rows`` are laid out as
    ``pair_walk``'s: a union-find whose roots are the least indices."""
    up = list(range(len(rows)))

    def root(i: int) -> int:
        while up[i] != i:
            up[i] = up[up[i]]
            i = up[i]
        return i
    for i, js in enumerate(rows):
        for j in js:
            low, high = sorted((root(i), root(j)))
            up[high] = low
    return tuple(map(root, range(len(rows))))


@dataclass(frozen=True)
class PointedModel:
    model: Model
    state: str

    def __post_init__(self) -> None:
        self.model.state_index(self.state)   # refuses an unknown state


@dataclass(frozen=True)
class ViolationReport:
    property: str   # "symmetry" | "transitivity"
    agent: int
    witness: Pair


def validate(m: Model, mode: str | None = None) -> ViolationReport | None:
    """Check closure properties for the given mode: only a reflexive-mode
    relation checked as an equivalence can fail (an equivalence-mode model
    is closed by construction, and reflexivity is implicit).  Returns None
    when fine, otherwise the first violation in state order."""
    if m.mode == EQUIVALENCE or (mode or m.mode) == REFLEXIVE:
        return None
    return next(filter(None, (_first_violation(a, pair_walk(m, a), m.states)
                              for a in range(m.agents))), None)


def _first_violation(agent: int, rows: Sequence[Sequence[int]],
                     names: Sequence[str]) -> ViolationReport | None:
    """The first arc (i, j), in index order, whose reverse is missing, else
    the first (i, k) that transitivity requires and the arcs lack; ``rows``
    holds each state's successors as ``pair_walk`` lays them out."""
    arcs = [(i, j) for i, js in enumerate(rows) for j in js]
    has = set(arcs)
    for prop, i, j in chain(
            (("symmetry", i, j) for i, j in arcs if (j, i) not in has),
            (("transitivity", i, k) for i, j in arcs for k in rows[j]
             if k != i and (i, k) not in has)):
        return ViolationReport(prop, agent, (names[i], names[j]))
    return None


def is_unambiguous(m: Model) -> bool:
    """True iff each agent's depth is constant on each of its own classes."""
    return all(len({m.depth(a, s) for s in cls}) == 1
               for a in range(m.agents) for cls in m.classes(a))


def model_size(m: Model) -> int:
    """States plus, per agent and state, its successors (itself included)."""
    return m.n + sum(len(js) + 1 for a in range(m.agents)
                     for js in pair_walk(m, a))


# -- serialization --

def pair_walk(m: Model, agent: int, later: bool = False,
              labels: Sequence | None = None) -> list[Sequence]:
    """Per state index i, in order, the indices (or ``labels``) of the
    agent's successors of ``states[i]`` other than i, ascending: its pairs in
    index order.  In equivalence mode, the other members of i's class (with
    ``later``, those after i), sliced from it; else its successor mask's."""
    label = (range(m.n) if labels is None else labels).__getitem__
    rows: list[Sequence] = [()] * m.n
    if m.mode != EQUIVALENCE:
        for i, t in enumerate(m.successor_masks(agent)):
            t ^= 1 << i   # i's other successors: often none or one
            if t:
                rows[i] = ([label(t.bit_length() - 1)] if t & (t - 1) == 0
                           else list(map(label, bits_of(t))))
        return rows
    for cls in _members(m.class_ids(agent)).values():
        if len(cls) > 1:
            named = list(map(label, cls))
            for p, i in enumerate(cls):
                rows[i] = named[p + 1:] if later else named[:p] + named[p + 1:]
    return rows


def to_dict(m: Model) -> dict:
    states = m.states
    return {
        "agents": m.agents,
        "mode": m.mode,
        "states": list(states),
        "val": {s: sorted(atoms) for s, atoms in zip(states, m.valuation())},
        "rel": {str(a): [[s, t] for s, ts in zip(states, pair_walk(
            m, a, labels=states)) for t in ts] for a in range(m.agents)},
        "depth": {str(a): dict(zip(states, m.depths(a)))
                  for a in range(m.agents)},
    }


def _json_chunks(m: Model) -> Iterator[str]:
    """``json.dumps(to_dict(m), sort_keys=True, indent=2) + "\\n"`` as text
    chunks, without building ``to_dict``: the file schema is fixed, so its
    keys are laid out in sorted order here, each state name is quoted once
    as the encoder quotes it, and an agent's pairs are one chunk, joined a
    state at a time from ``pair_walk``."""
    states = m.states
    quoted = list(map(encode_basestring_ascii, states))
    by_name = sorted(range(len(states)), key=states.__getitem__)
    keys = [quoted[i] + ": " for i in by_name]
    agents = sorted(range(m.agents), key=str)   # "10" sorts before "2"
    yield '{\n  "agents": ' + json.dumps(m.agents) + ',\n  "depth": {'
    for k, a in enumerate(agents):
        depths = map(str, map(m.depths(a).__getitem__, by_name))
        yield (f'{"," if k else ""}\n    "{a}": '
               + _block(list(map(str.__add__, keys, depths)), 4, "{}"))
    yield '\n  },\n  "mode": ' + json.dumps(m.mode) + ',\n  "rel": {'
    tail = "\n      ]"
    heads = ["[\n        " + q + ",\n        " for q in quoted]
    seps = [tail + ",\n      " + head for head in heads]
    for k, a in enumerate(agents):   # one item per state with pairs
        rows = [head + sep.join(js) + tail for head, sep, js
                in zip(heads, seps, pair_walk(m, a, labels=quoted)) if js]
        yield f'{"," if k else ""}\n    "{a}": ' + _block(rows, 4, "[]")
    yield '\n  },\n  "states": ' + _block(quoted, 2, "[]")
    vals = m.valuation()
    atoms_text = {a: _block(list(map(encode_basestring_ascii, sorted(a))), 4,
                            "[]") for a in set(vals)}   # each set quoted once
    val = list(map(str.__add__, keys, map(atoms_text.__getitem__,
                                          map(vals.__getitem__, by_name))))
    yield ',\n  "val": ' + _block(val, 2, "{}") + "\n}\n"


def _block(items: list[str], indent: int, brackets: str) -> str:
    """``items`` in a JSON array or object (``brackets`` is ``"[]"`` or
    ``"{}"``) whose closing bracket is indented by ``indent`` spaces, laid
    out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return (brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent
            + brackets[1])


def canonical_json(m: Model) -> str:
    """The model's file text: ``json.dumps(to_dict(m), sort_keys=True,
    indent=2)`` plus a newline."""
    return "".join(_json_chunks(m))


def save_model(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(m))


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array",
               Mapping: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (a boolean is no integer),
    so that a malformed file is refused instead of coerced."""
    if isinstance(value, kind) and type(value) is not bool:
        return value
    raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")


def _each(items: Iterable, kind: type, what: str) -> None:
    """Refuses items whose type is not exactly ``kind`` (one type test per
    item at C level, as files hold many)."""
    wrong = set(map(type, items)) - {kind}
    if wrong:
        raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, got "
                        f"{', '.join(sorted(t.__name__ for t in wrong))}")


def _agent(key: str) -> int:
    """A section's agent key, refused unless an integer's own text: ``"01"``
    would name agent 1 as ``"1"`` does, and replace its entry."""
    if key != str(int(key)):
        raise ValueError(f"agent key {key!r} is not an integer's text")
    return int(key)


def model_from_dict(data: Mapping) -> Model:
    """The model a file document describes.  Every field must have the JSON
    type the file format gives it: ``"states": "st"``, atoms given as one
    string, or a depth of ``1.7``, ``true`` or ``"3"`` are refused.  Each
    agent's pairs, loops and repeats dropped, become its successor sets or,
    in equivalence mode, its connected components; an open relation is
    closed with a warning that names its first violation."""
    def section(key: str) -> Mapping:
        return _typed(data.get(key, {}), Mapping, key)

    try:
        agents = _typed(data["agents"], int, "agents")
        states = _typed(data["states"], list, "states")
        _each(states, str, "a state")
        index = dict(zip(states, count()))
        mode = data.get("mode", EQUIVALENCE)
        val = section("val")
        _each(val.values(), list, "a valuation")
        _each(chain.from_iterable(val.values()), str, "an atom")
        rel = {}
        for a, pairs in section("rel").items():
            _each(_typed(pairs, list, "a relation"), list, "a pair")
            if set(map(len, pairs)) - {2}:
                raise ValueError("a pair must name two states")
            try:   # each pair's source and target index, flat
                ends = list(map(index.__getitem__, chain.from_iterable(pairs)))
            except (KeyError, TypeError):   # a name not a string, or unknown
                _each(chain.from_iterable(pairs), str, "a state")
                ends = tuple(next(p for p in pairs
                                  if not index.keys() >= set(p)))
            rel[_agent(a)] = ends
        depth = {}
        for a, per in section("depth").items():
            _each(_typed(per, Mapping, "a depth map").values(), int,
                  "a depth")
            depth[_agent(a)] = per
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    for a, ends in rel.items():
        if not 0 <= a < agents:
            raise ModelError(f"relation for unknown agent {a}")
        if type(ends) is tuple:   # the first pair naming an unknown state
            raise ModelError(f"relation pair {ends!r} uses unknown state")
    n = len(states)
    if mode == REFLEXIVE:   # checked with identity relations, then the arcs
        m = Model(agents, states, val, depth, mode)
        for a, flat in rel.items():   # loops and repeats set a bit again
            masks = list(m._succ[a])
            for i, bit in zip(flat[::2], map((1).__lshift__, flat[1::2])):
                masks[i] |= bit
            m._succ[a] = tuple(masks)
        return m
    class_ids = {}
    for a, flat in rel.items():
        src, dst = flat[::2], flat[1::2]
        codes = list(map(add, map(mul, src, repeat(n)), dst))
        if not (all(map(lt, codes, islice(codes, 1, None)))
                and all(map(ne, src, dst))):   # unlike a written file's
            codes = sorted(set(compress(codes, map(ne, src, dst))))
            src = list(map(floordiv, codes, repeat(n)))
            dst = list(map(mod, codes, repeat(n)))
        # a closed relation's class id at i is i's least successor or i, the
        # arcs stay within these candidate classes, and each holds all c(c-1)
        ids = list(range(n))
        for i, j in dict(zip(reversed(src), reversed(dst))).items():
            if j < i:   # i's least target
                ids[i] = j
        sizes = Counter(ids).values()
        if len(src) != sum(c * (c - 1) for c in sizes) or any(
                map(ne, map(ids.__getitem__, src), map(ids.__getitem__, dst))):
            rows: list[list[int]] = [[] for _ in range(n)]
            for i, j in zip(src, dst):   # ascending, as pair_walk's
                rows[i].append(j)
            ids, report = _components(rows), _first_violation(a, rows, states)
            warnings.warn(
                f"agent {a} relation was not closed ({report.property} "
                f"fails at {report.witness}); applying symmetric transitive "
                f"closure", stacklevel=2)
        class_ids[a] = ids
    return Model(agents, states, val, depth, mode, class_ids=class_ids)


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def loads_model(text: str) -> Model:
    return model_from_dict(json.loads(text))
