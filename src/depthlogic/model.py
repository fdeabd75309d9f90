"""Kripke structures with per-agent, per-state depths.

An equivalence-mode relation (DBEL, DPAL, EDPAL) is a partition, stored as
one class id per state index for each agent; a reflexive-mode relation
(ADPAL) is stored as each state's successor set.  Other modules read
relations only through ``successors``: the agent's class, or the state
itself plus its direct successors.  Explicit pairs exist only in model
files: ``model_from_dict`` turns them into class ids or successor sets
(closing an open equivalence relation with a warning), ``validate`` reads
``Model.pairs``, derived from the successors, and the writer, ``to_dict``
and the DOT export walk them by state index (``pair_walk``).  Pairs never
list reflexive loops.

Files are written by one streaming writer: ``save_model`` writes, and
``canonical_json`` joins, the fixed file schema as chunks of text, laid out
byte for byte as ``json.dumps(to_dict(m), sort_keys=True, indent=2)`` plus a
newline lays it out, without building ``to_dict`` or the whole text.

Depths are stored by state index too: one tuple per agent, in state order,
so ``depth(a, s)`` is an index lookup and ``depths(a)`` hands out the tuple
itself.  Updates build these tuples directly from their input's.

Input is validated once, at the boundary: ``Model(...)``, ``model_from_dict``
and ``Model.restrict`` check everything they are given.  The models the
checker derives from valid ones (the DPAL, EDPAL and ADPAL updates and the
``sat`` candidates) are trusted: ``Model._derived`` sets their columns as
given and re-checks none of them.

For the labeling checker a model also offers sets of states as ``int``
bitmasks, bit i standing for ``states[i]``: per atom, per (agent, depth
bound) and, in reflexive mode, per state's successors.  Each is built on
first use and cached, since models are immutable.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from collections import Counter
from collections.abc import (Callable, Hashable, Iterable, Iterator, Mapping,
                             Sequence)
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii

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

    __slots__ = ("agents", "states", "mode", "_val", "_rel", "_ids",
                 "_depth", "_index", "_succ", "_classes", "_masks")

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
        vmap = {s: frozenset(val.get(s, ())) for s in states}
        ids: dict[int, tuple[int, ...]] = {}
        succ: dict[int, dict[str, frozenset[str]]] = {}
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
            if successors is None:
                successors = {a: {s: (s,) for s in states}
                              for a in range(agents)}
            if successors.keys() != set(range(agents)):
                raise ModelError("successors needs one map per agent")
            for a, column in successors.items():
                succ[a] = {s: frozenset(column.get(s, ())) for s in states}
                if column.keys() != index.keys() or not all(
                        s in ts and ts <= index.keys()
                        for s, ts in succ[a].items()):
                    raise ModelError(f"agent {a} needs each state's "
                                     f"successors, itself included")
        self._fill(agents, states, vmap, _depth_columns(agents, index, depth),
                   mode, ids, succ, index)

    @classmethod
    def _derived(cls, agents: int, states: tuple[str, ...],
                 val: dict[str, frozenset[str]],
                 depth: dict[int, tuple[int, ...]], mode: str, *,
                 ids: dict[int, tuple[int, ...]] | None = None,
                 succ: dict[int, dict[str, frozenset[str]]] | None = None
                 ) -> Model:
        """A model from columns its caller guarantees, none of them checked:
        ``states`` distinct names; ``val`` each state's atoms as a frozenset,
        in state order; ``depth`` a tuple of ints per agent; in equivalence
        mode ``ids``, first-index class ids (see ``class_ids``) for every
        agent, and in reflexive mode ``succ``, each state's successors as a
        frozenset with itself included, for every agent."""
        m = cls.__new__(cls)
        m._fill(agents, states, val, depth, mode, ids or {}, succ or {},
                dict(zip(states, count())))
        return m

    def _fill(self, agents, states, val, depth, mode, ids, succ,
              index) -> None:
        self.agents = agents
        self.states = states
        self.mode = mode
        self._val = val
        self._rel: dict[int, frozenset[Pair]] = {}
        self._ids = ids
        self._depth = depth
        self._index = index
        self._succ = succ
        self._classes: dict[int, tuple[frozenset[str], ...]] = {}
        self._masks: dict[tuple, int | tuple[int, ...]] = {}

    # -- accessors --

    def atoms(self, state: str) -> frozenset[str]:
        return self._val[state]

    def depth(self, agent: int, state: str) -> int:
        return self._depth[agent][self._index[state]]

    def depths(self, agent: int) -> tuple[int, ...]:
        """The agent's depth at each state, in state order."""
        return self._depth[agent]

    def pairs(self, agent: int) -> frozenset[Pair]:
        """Non-loop pairs, built from the successors on first use."""
        pairs = self._rel.get(agent)
        if pairs is None:
            pairs = self._rel[agent] = frozenset(
                (s, t) for s in self.states
                for t in self.successors(agent, s) if s != t)
        return pairs

    def has_state(self, state: str) -> bool:
        return state in self._index

    def state_index(self, state: str) -> int:
        return self._index[state]

    def class_ids(self, agent: int) -> tuple[int, ...]:
        """Per state index, the index of the first state of its class (see
        ``classes``)."""
        ids = self._ids.get(agent)
        if ids is None:   # reflexive mode: components of the successor sets
            index = self._index.__getitem__
            ids = self._ids[agent] = _components(len(self.states), (
                (index(s), index(t)) for s in self.states
                for t in self.successors(agent, s)))
        return ids

    def successors(self, agent: int, state: str) -> frozenset[str]:
        """States the agent considers possible at ``state`` (includes itself):
        its class in equivalence mode, its direct successors otherwise."""
        cache = self._succ.get(agent)
        if cache is None:   # equivalence mode: built from the classes
            cache = self._succ[agent] = {
                s: cls for cls in self.classes(agent) for s in cls}
        return cache[state]

    def classes(self, agent: int) -> tuple[frozenset[str], ...]:
        """The agent's partition (in reflexive mode: the connected components
        of the symmetrized relation), in state order."""
        cached = self._classes.get(agent)
        if cached is not None:
            return cached
        groups: dict[int, list[str]] = {}
        for s, c in zip(self.states, self.class_ids(agent)):
            groups.setdefault(c, []).append(s)
        result = tuple(frozenset(g) for g in groups.values())
        self._classes[agent] = result
        return result

    # -- bitmasks (bit i stands for states[i]) --

    def atom_mask(self, atom: str) -> int:
        """States whose valuation holds the atom."""
        key = ("atom", atom)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = mask_of(map(
                frozenset.__contains__, self._val.values(), repeat(atom)))
        return mask

    def depth_mask(self, agent: int, d: int) -> int:
        """States where the agent's depth is at least ``d``."""
        key = ("depth", agent, d)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = mask_of(
                map(d.__le__, self._depth[agent]))
        return mask

    def successor_masks(self, agent: int) -> tuple[int, ...]:
        """Per state index, the state's ``successors`` as a mask (for
        reflexive mode, where updates never add states)."""
        key = ("successors", agent)
        masks = self._masks.get(key)
        if masks is None:
            bit = (1).__lshift__
            index = self._index.__getitem__
            masks = self._masks[key] = tuple(
                sum(map(bit, map(index, self.successors(agent, s))))
                for s in self.states)
        return masks

    def restrict(self, keep: Sequence[int] | None = None,
                 depth: Mapping[int, tuple[int, ...] | list[int]]
                 | None = None) -> Model:
        """The submodel on the states at the indices ``keep`` (default: all),
        in that order, with per-agent depths ``depth`` in the submodel's state
        order (default: these).  A repeated or out-of-range index (negative
        ones too) is refused, and so is a depth for an unknown agent or of the
        wrong length."""
        n = len(self.states)
        keep = range(n) if keep is None else list(keep)
        kept = set(keep)
        outside = kept.difference(range(n))
        if outside:
            bad = next(i for i in keep if i in outside)
            raise ModelError(f"no state at index {bad!r} (the model has {n})")
        if len(kept) != len(keep):
            raise ModelError("restrict keeps a state index twice")
        if depth is not None:
            depth = _depth_columns(self.agents, dict.fromkeys(
                map(self.states.__getitem__, keep)), depth)
        return self._restrict(keep, depth)

    def _restrict(self, keep: Sequence[int],
                  depth: dict[int, tuple[int, ...]] | None = None) -> Model:
        """``restrict`` for distinct in-range indices and depth tuples its
        caller guarantees."""
        states = tuple(map(self.states.__getitem__, keep))
        if depth is None:
            depth = {a: tuple(map(da.__getitem__, keep))
                     for a, da in self._depth.items()}
        val = dict(zip(states, map(self._val.__getitem__, states)))
        if self.mode == EQUIVALENCE:
            ids = {a: _first_index_ids(
                       map(self.class_ids(a).__getitem__, keep))
                   for a in range(self.agents)}
            return Model._derived(self.agents, states, val, depth, EQUIVALENCE,
                                  ids=ids)
        kept = frozenset(states)
        succ = {a: {s: self.successors(a, s) & kept for s in states}
                for a in range(self.agents)}
        return Model._derived(self.agents, states, val, depth, REFLEXIVE,
                              succ=succ)

    def __repr__(self) -> str:
        return (f"Model(agents={self.agents}, states={len(self.states)}, "
                f"mode={self.mode!r})")


def mask_of(flags: Iterable[bool]) -> int:
    """The bitmask whose bit i is the i-th flag."""
    return int("".join(map("01".__getitem__, flags))[::-1] or "0", 2)


def flags_of(mask: int, n: int) -> Iterator[bool]:
    """Bits 0..n-1 of a bitmask below ``2**n``, as flags (the inverse of
    ``mask_of``)."""
    return map("1".__eq__, bin(mask)[:1:-1].ljust(n, "0")[:n])


# bin() digits as the bytes 0 and 1, so that ``compress`` reads them
_BITS = bytes.maketrans(b"01", b"\0\1")


def bits_of(mask: int) -> Iterator[int]:
    """The indices of a bitmask's set bits, ascending."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


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
            dmap[a] = tuple([int(da.get(s, 0)) for s in names])
        else:
            unknown = min(da.keys() - names.keys())
            raise ModelError(f"depth for unknown state {unknown!r}")
    return dmap


def _components(n: int, edges: Iterable[tuple[int, int]]
                ) -> tuple[int, ...]:
    """Class ids (as ``Model.class_ids``) of the connected components of the
    symmetrized edges between state indices ``0..n-1``."""
    neigh: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neigh[i].append(j)
        neigh[j].append(i)
    ids = [-1] * len(neigh)
    for i in range(len(neigh)):
        if ids[i] >= 0:
            continue
        ids[i] = i
        frontier = [i]
        while frontier:
            for v in neigh[frontier.pop()]:
                if ids[v] < 0:
                    ids[v] = i
                    frontier.append(v)
    return tuple(ids)


@dataclass(frozen=True)
class PointedModel:
    model: Model
    state: str

    def __post_init__(self) -> None:
        if not self.model.has_state(self.state):
            raise ModelError(f"unknown state {self.state!r}")


@dataclass(frozen=True)
class ViolationReport:
    property: str   # "symmetry" | "transitivity"
    agent: int
    witness: Pair


def validate(m: Model, mode: str | None = None) -> ViolationReport | None:
    """Check closure properties of ``Model.pairs`` for the given mode (an
    equivalence-mode model is closed by construction, so only a
    reflexive-mode relation checked as an equivalence can fail).

    Returns None when fine, otherwise the first violation in deterministic
    order.  Reflexivity is implicit and can never be violated.
    """
    mode = mode or m.mode
    if mode == REFLEXIVE:
        return None
    for a in range(m.agents):
        report = _first_violation(a, m.pairs(a), m.state_index)
        if report is not None:
            return report
    return None


def _first_violation(agent: int, pairs: frozenset[Pair],
                     order: Callable[[str], int]) -> ViolationReport | None:
    """The first pair, in state ``order``, that breaks symmetry, else the
    first that transitivity requires and ``pairs`` lacks."""
    key = lambda p: (order(p[0]), order(p[1]))
    for s, t in sorted(pairs, key=key):
        if (t, s) not in pairs:
            return ViolationReport("symmetry", agent, (s, t))
    succ = {}
    for s, t in pairs:
        succ.setdefault(s, set()).add(t)
    for s, t in sorted(pairs, key=key):
        for u in sorted(succ.get(t, ()), key=order):
            if u != s and (s, u) not in pairs:
                return ViolationReport("transitivity", agent, (s, u))
    return None


def is_unambiguous(m: Model) -> bool:
    """True iff each agent's depth is constant on each of its own classes."""
    return all(len({m.depth(a, s) for s in cls}) == 1
               for a in range(m.agents) for cls in m.classes(a))


def model_size(m: Model) -> int:
    """States plus, per agent and state, its successors (itself included)."""
    return len(m.states) + sum(len(m.successors(a, s))
                               for a in range(m.agents) for s in m.states)


# -- serialization --

def pair_walk(m: Model, agent: int) -> Iterator[list[int]]:
    """Per state index i, in order, the indices of the agent's successors of
    ``states[i]`` other than i, ascending: the agent's pairs in (index s,
    index t) order.  In equivalence mode these are the other members of i's
    class."""
    if m.mode == EQUIVALENCE:
        ids = m.class_ids(agent)
        members: dict[int, list[int]] = {}
        for i, c in enumerate(ids):
            members.setdefault(c, []).append(i)
        for i, c in enumerate(ids):
            cls = members[c]
            p = bisect_left(cls, i)
            yield cls[:p] + cls[p + 1:]
    else:
        index = m.state_index
        for i, s in enumerate(m.states):
            js = sorted(map(index, m.successors(agent, s)))
            js.remove(i)
            yield js


def to_dict(m: Model) -> dict:
    states = m.states
    return {
        "agents": m.agents,
        "mode": m.mode,
        "states": list(states),
        "val": {s: sorted(m.atoms(s)) for s in states},
        "rel": {str(a): [[states[i], states[j]]
                         for i, js in enumerate(pair_walk(m, a)) for j in js]
                for a in range(m.agents)},
        "depth": {str(a): dict(zip(states, m.depths(a)))
                  for a in range(m.agents)},
    }


def _json_chunks(m: Model) -> Iterator[str]:
    """``json.dumps(to_dict(m), sort_keys=True, indent=2) + "\\n"`` as text
    chunks, without building ``to_dict``: the file schema is fixed, so its
    keys are laid out in sorted order here, each state name is quoted once
    as the encoder quotes it, and each agent's pairs come from
    ``pair_walk``, one state's at a time."""
    states = m.states
    quoted = list(map(encode_basestring_ascii, states))
    by_name = sorted(range(len(states)), key=states.__getitem__)
    keys = [quoted[i] + ": " for i in by_name]
    agents = sorted(range(m.agents), key=str)   # "10" sorts before "2"
    yield '{\n  "agents": ' + json.dumps(m.agents) + ',\n  "depth": {'
    for k, a in enumerate(agents):
        da = m.depths(a)
        yield (f'{"," if k else ""}\n    "{a}": '
               + _block([key + str(da[i]) for key, i in zip(keys, by_name)],
                        4, "{}"))
    yield '\n  },\n  "mode": ' + json.dumps(m.mode) + ',\n  "rel": {'
    for k, a in enumerate(agents):
        yield f'{"," if k else ""}\n    "{a}": '
        sep = "["
        for i, js in enumerate(pair_walk(m, a)):
            if js:
                head = "\n      [\n        " + quoted[i] + ",\n        "
                tail = "\n      ]"
                yield (sep + head + (tail + "," + head).join(
                    map(quoted.__getitem__, js)) + tail)
                sep = ","
        yield "[]" if sep == "[" else "\n    ]"
    yield '\n  },\n  "states": ' + _block(quoted, 2, "[]")
    atoms_text = {   # each distinct atom set quoted once
        atoms: _block(list(map(encode_basestring_ascii, sorted(atoms))), 4,
                      "[]")
        for atoms in set(map(m.atoms, states))}
    val = [key + atoms_text[m.atoms(states[i])]
           for key, i in zip(keys, by_name)]
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
        mode = data.get("mode", EQUIVALENCE)
        val = section("val")
        _each(val.values(), list, "a valuation")
        _each(chain.from_iterable(val.values()), str, "an atom")
        rel = {}
        for a, pairs in section("rel").items():
            _each(_typed(pairs, list, "a relation"), list, "a pair")
            if set(map(len, pairs)) - {2}:
                raise ValueError("a pair must name two states")
            _each(chain.from_iterable(pairs), str, "a state")
            rel[int(a)] = pairs
        depth = {}
        for a, per in section("depth").items():
            _each(_typed(per, Mapping, "a depth map").values(), int,
                  "a depth")
            depth[int(a)] = per
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    index = dict(zip(states, count()))
    edges = {}
    for a, pairs in rel.items():
        if not 0 <= a < agents:
            raise ModelError(f"relation for unknown agent {a}")
        if not index.keys() >= set(chain.from_iterable(pairs)):
            s, t = next(p for p in pairs if not index.keys() >= set(p))
            raise ModelError(f"relation pair ({s!r}, {t!r}) uses unknown "
                             f"state")
        edges[a] = {(index[s], index[t]) for s, t in pairs if s != t}
    if mode == REFLEXIVE:
        successors = {a: {s: [s] for s in states} for a in range(agents)}
        for a, arcs in edges.items():
            for i, j in arcs:
                successors[a][states[i]].append(states[j])
        return Model(agents, states, val, depth, mode, successors=successors)
    class_ids = {}
    for a, arcs in edges.items():
        ids = class_ids[a] = _components(len(states), arcs)
        # all arcs lie within their components, so equal counts mean closed
        if len(arcs) != sum(c * (c - 1) for c in Counter(ids).values()):
            report = _first_violation(
                a, frozenset((states[i], states[j]) for i, j in arcs),
                index.__getitem__)
            warnings.warn(
                f"agent {a} relation was not closed ({report.property} "
                f"fails at {report.witness}); applying symmetric transitive "
                f"closure", stacklevel=2)
    return Model(agents, states, val, depth, mode, class_ids=class_ids)


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def loads_model(text: str) -> Model:
    return model_from_dict(json.loads(text))
