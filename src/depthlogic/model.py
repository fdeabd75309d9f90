"""Kripke structures with per-agent, per-state depths.

An equivalence-mode relation (DBEL, DPAL, EDPAL) is a partition, stored as
one class id per state index for each agent; a reflexive-mode relation
(ADPAL) is stored as each state's successor set.  Other modules read
relations only through ``successors``: the agent's class, or the state
itself plus its direct successors.  Explicit pairs are read only by
``to_dict``, ``validate`` and ``model_from_dict``; pairs given to an
equivalence-mode model are kept as given, so ``validate`` reports the first
violation of an unclosed relation.  Pairs never list reflexive loops.

Depths are stored by state index too: one tuple per agent, in state order,
so ``depth(a, s)`` is an index lookup and ``depths(a)`` hands out the tuple
itself.  Updates build these tuples directly from their input's.

For the labeling checker a model also offers sets of states as ``int``
bitmasks, bit i standing for ``states[i]``: per atom, per (agent, depth
bound) and, in reflexive mode, per state's successors.  Each is built on
first use and cached, since models are immutable.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, count, repeat

EQUIVALENCE = "equivalence"
REFLEXIVE = "reflexive"


class ModelError(ValueError):
    pass


Pair = tuple[str, str]


class Model:
    """Immutable pointed-model substrate: states, valuation, relations, depths.

    Relations come either as ``rel`` (non-loop pairs per agent), in
    equivalence mode as ``class_ids`` (per agent, one hashable class id per
    state, equal ids meaning the same class), or in reflexive mode as
    ``successors`` (per agent, each state's successor set, itself included).
    Depths come per agent as ``{state: depth}`` (missing states at 0) or as
    a tuple or list in state order.
    """

    __slots__ = ("agents", "states", "mode", "_val", "_rel", "_ids",
                 "_depth", "_index", "_succ", "_classes", "_masks")

    def __init__(self,
                 agents: int,
                 states: Iterable[str],
                 val: Mapping[str, Iterable[str]],
                 rel: Mapping[int, Iterable[Pair]] | None = None,
                 depth: Mapping[int, Mapping[str, int] | tuple[int, ...]
                                | list[int]]
                 | None = None,
                 mode: str = EQUIVALENCE,
                 *,
                 class_ids: Mapping[int, Sequence[Hashable]] | None = None,
                 successors: Mapping[int, Mapping[str, frozenset[str]]]
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
        rmap: dict[int, frozenset[Pair]] = {}
        ids: dict[int, tuple[int, ...]] = {}
        succ: dict[int, dict[str, frozenset[str]]] = {}
        if class_ids is not None:
            if rel is not None or mode != EQUIVALENCE:
                raise ModelError(
                    "class_ids replaces rel and needs equivalence mode")
            for a, column in class_ids.items():
                if not 0 <= a < agents:
                    raise ModelError(f"relation for unknown agent {a}")
                if len(column) != len(states):
                    raise ModelError(f"agent {a} needs one class id per state")
            for a in range(agents):
                column = class_ids.get(a)
                ids[a] = (tuple(range(len(states))) if column is None
                          else _first_index_ids(column))
        elif successors is not None:
            if (rel is not None or mode != REFLEXIVE
                    or successors.keys() != set(range(agents))):
                raise ModelError("successors replaces rel, needs reflexive "
                                 "mode and one map per agent")
            for a, column in successors.items():
                succ[a] = {s: frozenset(column.get(s, ())) for s in states}
                if column.keys() != index.keys() or not all(
                        s in ts and ts <= index.keys()
                        for s, ts in succ[a].items()):
                    raise ModelError(f"agent {a} needs each state's "
                                     f"successors, itself included")
        else:
            rel = rel or {}
            for a in range(agents):
                pairs = set()
                for s, t in rel.get(a, ()):
                    if s not in index or t not in index:
                        raise ModelError(
                            f"relation pair ({s!r}, {t!r}) uses unknown state")
                    if s != t:
                        pairs.add((s, t))
                rmap[a] = frozenset(pairs)
                if mode == REFLEXIVE:
                    sets = {s: [s] for s in states}
                    for s, t in pairs:
                        sets[s].append(t)
                    succ[a] = {s: frozenset(ts) for s, ts in sets.items()}
            for a in rel:
                if not 0 <= a < agents:
                    raise ModelError(f"relation for unknown agent {a}")
        depth = depth or {}
        for a in depth:
            if not 0 <= a < agents:
                raise ModelError(f"depth for unknown agent {a}")
        dmap = {}
        for a in range(agents):
            da = depth.get(a, {})
            if isinstance(da, (tuple, list)):
                if len(da) != len(states):
                    raise ModelError(f"agent {a} needs one depth per state")
                dmap[a] = tuple(map(int, da))
            elif da.keys() <= index.keys():
                dmap[a] = tuple([int(da.get(s, 0)) for s in states])
            else:
                unknown = min(da.keys() - index.keys())
                raise ModelError(f"depth for unknown state {unknown!r}")
        self.agents = agents
        self.states = states
        self.mode = mode
        self._val = vmap
        self._rel = rmap
        self._ids = ids
        self._depth = dmap
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
        """Non-loop pairs: as given, or built from the successors."""
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
        if ids is None:
            ids = self._ids[agent] = _components(self._index, self.pairs(agent))
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
        order (default: these).  Equivalence classes are restricted, so an
        unclosed relation given as pairs is restricted as its closure."""
        if keep is None:
            keep = range(len(self.states))
        states = tuple(map(self.states.__getitem__, keep))
        if depth is None:
            depth = {a: tuple(map(da.__getitem__, keep))
                     for a, da in self._depth.items()}
        val = {s: self._val[s] for s in states}
        if self.mode == EQUIVALENCE:
            ids = {a: tuple(map(self.class_ids(a).__getitem__, keep))
                   for a in range(self.agents)}
            return Model(self.agents, states, val, depth=depth, class_ids=ids)
        kept = frozenset(states)
        succ = {a: {s: self.successors(a, s) & kept for s in states}
                for a in range(self.agents)}
        return Model(self.agents, states, val, depth=depth, mode=REFLEXIVE,
                     successors=succ)

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


def _first_index_ids(column: Sequence[Hashable]) -> tuple[int, ...]:
    first: dict[Hashable, int] = {}
    return tuple(map(first.setdefault, column, count()))


def _components(index: Mapping[str, int], pairs: Iterable[Pair]
                ) -> tuple[int, ...]:
    """Class ids (as ``Model.class_ids``) of the connected components of the
    symmetrized pairs."""
    neigh: list[list[int]] = [[] for _ in index]
    for s, t in pairs:
        i, j = index[s], index[t]
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
    """Check closure properties of the stored relations for the given mode.

    Returns None when fine, otherwise the first violation in deterministic
    order.  Reflexivity is implicit and can never be violated.
    """
    mode = mode or m.mode
    if mode == REFLEXIVE:
        return None
    for a in range(m.agents):
        pairs = m.pairs(a)
        key = lambda p: (m.state_index(p[0]), m.state_index(p[1]))
        for s, t in sorted(pairs, key=key):
            if (t, s) not in pairs:
                return ViolationReport("symmetry", a, (s, t))
        succ = {}
        for s, t in pairs:
            succ.setdefault(s, set()).add(t)
        for s, t in sorted(pairs, key=key):
            for u in sorted(succ.get(t, ()), key=m.state_index):
                if u != s and (s, u) not in pairs:
                    return ViolationReport("transitivity", a, (s, u))
    return None


def is_unambiguous(m: Model) -> bool:
    """True iff each agent's depth is constant on each of its own classes."""
    return all(len({m.depth(a, s) for s in cls}) == 1
               for a in range(m.agents) for cls in m.classes(a))


def connected_component(m: Model, state: str, agent: int) -> frozenset[str]:
    """States reachable from ``state`` along the agent's successors: its class
    in equivalence mode, its forward-reachable set in reflexive mode."""
    if not m.has_state(state):
        raise ModelError(f"unknown state {state!r}")
    reached = {state}
    frontier = [state]
    while frontier:
        u = frontier.pop()
        for v in m.successors(agent, u):
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return frozenset(reached)


def model_size(m: Model) -> int:
    """States plus, per agent and state, its successors (itself included)."""
    return len(m.states) + sum(len(m.successors(a, s))
                               for a in range(m.agents) for s in m.states)


# -- serialization --

def to_dict(m: Model) -> dict:
    def pair_key(p: Pair) -> tuple[int, int]:
        return (m.state_index(p[0]), m.state_index(p[1]))

    return {
        "agents": m.agents,
        "mode": m.mode,
        "states": list(m.states),
        "val": {s: sorted(m.atoms(s)) for s in m.states},
        "rel": {str(a): [list(p) for p in sorted(m.pairs(a), key=pair_key)]
                for a in range(m.agents)},
        "depth": {str(a): dict(zip(m.states, m.depths(a)))
                  for a in range(m.agents)},
    }


def canonical_json(m: Model) -> str:
    return json.dumps(to_dict(m), sort_keys=True, indent=2) + "\n"


def save_model(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(m))


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
    string, or a depth of ``1.7``, ``true`` or ``"3"`` are refused."""
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
            rel[int(a)] = list(map(tuple, pairs))
        depth = {}
        for a, per in section("depth").items():
            _each(_typed(per, Mapping, "a depth map").values(), int,
                  "a depth")
            depth[int(a)] = per
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    m = Model(agents=agents, states=states, val=val, rel=rel, depth=depth,
              mode=mode)
    if m.mode == EQUIVALENCE:
        # given pairs lie within their components, so equal counts mean closed
        unclosed = [a for a in range(m.agents)
                    if len(m.pairs(a)) != sum(len(c) * (len(c) - 1)
                                              for c in m.classes(a))]
        for a in unclosed:
            warnings.warn(
                f"agent {a} relation was not closed; applying symmetric "
                f"transitive closure", stacklevel=2)
        if unclosed:
            m = m.restrict()
    return m


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def loads_model(text: str) -> Model:
    return model_from_dict(json.loads(text))
