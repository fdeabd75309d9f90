"""Kripke structures with per-agent, per-state depths.

An equivalence-mode relation (DBEL, DPAL, EDPAL) is a partition, stored as
one class id per state index for each agent; a reflexive-mode relation
(ADPAL) is stored as each state's successor set.  Other modules read
relations only through ``successors``: the agent's class, or the state
itself plus its direct successors.  Explicit pairs are read only by
``to_dict``, ``validate`` and ``model_from_dict``; pairs given to an
equivalence-mode model are kept as given, so ``validate`` reports the first
violation of an unclosed relation.  Pairs never list reflexive loops.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Container, Hashable, Iterable, Mapping, Sequence

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
    """

    __slots__ = ("agents", "states", "mode", "_val", "_rel", "_ids",
                 "_depth", "_index", "_succ", "_classes")

    def __init__(self,
                 agents: int,
                 states: Iterable[str],
                 val: Mapping[str, Iterable[str]],
                 rel: Mapping[int, Iterable[Pair]] | None = None,
                 depth: Mapping[int, Mapping[str, int]] | None = None,
                 mode: str = EQUIVALENCE,
                 *,
                 class_ids: Mapping[int, Sequence[Hashable]] | None = None,
                 successors: Mapping[int, Mapping[str, frozenset[str]]]
                 | None = None):
        states = tuple(states)
        if len(set(states)) != len(states):
            raise ModelError("duplicate state names")
        if not all(isinstance(s, str) and s for s in states):
            raise ModelError("state names must be non-empty strings")
        if agents < 1:
            raise ModelError("need at least one agent")
        if mode not in (EQUIVALENCE, REFLEXIVE):
            raise ModelError(f"unknown mode {mode!r}")
        index = {s: i for i, s in enumerate(states)}
        vmap = {}
        for s in states:
            vmap[s] = frozenset(val.get(s, ()))
        for s in val:
            if s not in index:
                raise ModelError(f"valuation for unknown state {s!r}")
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
        for a, da in depth.items():
            if not 0 <= a < agents:
                raise ModelError(f"depth for unknown agent {a}")
            unknown = da.keys() - index.keys()
            if unknown:
                raise ModelError(f"depth for unknown state {min(unknown)!r}")
        dmap = {}
        for a in range(agents):
            da = depth.get(a, {})
            dmap[a] = {s: int(da.get(s, 0)) for s in states}
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

    # -- accessors --

    def atoms(self, state: str) -> frozenset[str]:
        return self._val[state]

    def depth(self, agent: int, state: str) -> int:
        return self._depth[agent][state]

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

    def restrict(self, keep: Container[str] | None = None,
                 depth: Callable[[int, str], int] | None = None) -> Model:
        """The submodel on the states in ``keep`` (default: all), in this
        model's order, with depths ``depth(agent, state)`` (default: these).
        Equivalence classes are restricted, so an unclosed relation given as
        pairs is restricted as its closure."""
        idx = [i for i, s in enumerate(self.states)
               if keep is None or s in keep]
        states = [self.states[i] for i in idx]
        depth = depth or self.depth
        dmap = {a: {s: depth(a, s) for s in states}
                for a in range(self.agents)}
        val = {s: self._val[s] for s in states}
        if self.mode == EQUIVALENCE:
            ids = {a: [self.class_ids(a)[i] for i in idx]
                   for a in range(self.agents)}
            return Model(self.agents, states, val, depth=dmap, class_ids=ids)
        kept = frozenset(states)
        succ = {a: {s: self.successors(a, s) & kept for s in states}
                for a in range(self.agents)}
        return Model(self.agents, states, val, depth=dmap, mode=REFLEXIVE,
                     successors=succ)

    def __repr__(self) -> str:
        return (f"Model(agents={self.agents}, states={len(self.states)}, "
                f"mode={self.mode!r})")


def _first_index_ids(column: Sequence[Hashable]) -> tuple[int, ...]:
    first: dict[Hashable, int] = {}
    return tuple(first.setdefault(c, i) for i, c in enumerate(column))


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
    for a in range(m.agents):
        for cls in m.classes(a):
            depths = {m.depth(a, s) for s in cls}
            if len(depths) > 1:
                return False
    return True


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
        "depth": {str(a): {s: m.depth(a, s) for s in m.states}
                  for a in range(m.agents)},
    }


def canonical_json(m: Model) -> str:
    return json.dumps(to_dict(m), sort_keys=True, indent=2) + "\n"


def save_model(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(m))


def model_from_dict(data: Mapping) -> Model:
    try:
        agents = int(data["agents"])
        states = list(data["states"])
        mode = data.get("mode", EQUIVALENCE)
        val = {s: list(atoms) for s, atoms in data.get("val", {}).items()}
        rel = {int(a): [tuple(p) for p in pairs]
               for a, pairs in data.get("rel", {}).items()}
        depth = {int(a): {s: int(d) for s, d in per.items()}
                 for a, per in data.get("depth", {}).items()}
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
