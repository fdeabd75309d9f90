"""``model_from_dict`` against the pair-by-pair loader it replaced, kept
below as the reference: breadth-first components of the symmetrized pairs,
and for an open equivalence relation the first violation found by sorting
its pairs."""

from __future__ import annotations

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthlogic.model import model_from_dict


def reference_components(n: int, arcs: set) -> tuple[int, ...]:
    neigh = [[] for _ in range(n)]
    for i, j in arcs:
        neigh[i].append(j)
        neigh[j].append(i)
    ids = [-1] * n
    for i in range(n):
        if ids[i] < 0:
            ids[i], frontier = i, [i]
            while frontier:
                for v in neigh[frontier.pop()]:
                    if ids[v] < 0:
                        ids[v] = i
                        frontier.append(v)
    return tuple(ids)


def reference_violation(pairs: frozenset, order: dict) -> tuple:
    key = lambda p: (order[p[0]], order[p[1]])
    for s, t in sorted(pairs, key=key):
        if (t, s) not in pairs:
            return "symmetry", (s, t)
    succ: dict = {}
    for s, t in pairs:
        succ.setdefault(s, set()).add(t)
    for s, t in sorted(pairs, key=key):
        for u in sorted(succ.get(t, ()), key=order.__getitem__):
            if u != s and (s, u) not in pairs:
                return "transitivity", (s, u)
    raise AssertionError("a closed relation has no violation")


def reference_load(doc: dict) -> tuple[dict, list[str]]:
    """Per agent, class ids (in reflexive mode, of the symmetrized relation)
    and successor masks (reflexive mode only), and the closure warnings in
    agent order."""
    states, n = doc["states"], len(doc["states"])
    index = {s: i for i, s in enumerate(states)}
    columns, texts = {}, []
    for a in range(doc["agents"]):
        pairs = frozenset((s, t) for s, t in doc["rel"].get(str(a), ())
                          if s != t)
        arcs = {(index[s], index[t]) for s, t in pairs}
        ids = reference_components(n, arcs)
        if doc["mode"] == "reflexive":
            columns[a] = ids, tuple(
                1 << i | sum(1 << j for k, j in arcs if k == i)
                for i in range(n))
            continue
        columns[a] = ids, None
        if len(arcs) != sum(ids.count(c) * (ids.count(c) - 1)
                            for c in set(ids)):
            prop, witness = reference_violation(pairs, index)
            texts.append(f"agent {a} relation was not closed ({prop} fails "
                         f"at {witness}); applying symmetric transitive "
                         f"closure")
    return columns, texts


@st.composite
def documents(draw) -> dict:
    """A model document over at most 8 states: per agent, pairs drawn at
    random (loops, repeats, open and asymmetric relations) or a closed
    relation listed as written or shuffled, possibly with loops and
    repeats added."""
    n = draw(st.integers(1, 8))
    states = draw(st.permutations([f"s{i}" for i in range(n)]))
    agents = draw(st.integers(1, 3))
    names = st.sampled_from(states)
    rel = {}
    for a in range(agents):
        if draw(st.booleans()):
            pairs = draw(st.lists(st.lists(names, min_size=2, max_size=2),
                                  max_size=20))
        else:   # closed: all pairs within each block of a partition
            blocks = draw(st.lists(st.integers(0, n - 1), min_size=n,
                                   max_size=n))
            pairs = [[s, t] for s, b in zip(states, blocks)
                     for t, c in zip(states, blocks) if b == c and s != t]
            if draw(st.booleans()):
                pairs = draw(st.permutations(pairs))
            pairs += draw(st.lists(st.lists(names, min_size=2, max_size=2),
                                   max_size=3))
        if pairs or draw(st.booleans()):
            rel[str(a)] = pairs
    return {"agents": agents, "mode": draw(st.sampled_from(
                ["equivalence", "reflexive"])), "states": states,
            "val": {}, "rel": rel, "depth": {}}


# a and b agree on their least successor, a; yet a -> c has no reverse
LEAST_SUCCESSORS_AGREE = {
    "agents": 1, "mode": "equivalence", "states": ["a", "b", "c"],
    "val": {}, "rel": {"0": [["a", "b"], ["b", "a"], ["a", "c"], ["b", "c"]]},
    "depth": {}}


def one_agent(*pairs: str, states: str = "abc") -> dict:
    return {**LEAST_SUCCESSORS_AGREE, "states": list(states),
            "rel": {"0": [list(p) for p in pairs]}}


@settings(max_examples=400, deadline=None)
@given(doc=documents())
@example(doc=LEAST_SUCCESSORS_AGREE)
# within one candidate class, but two pairs short of closed
@example(doc=one_agent("ab", "ac", "ba", "ca"))
# as many pairs as closed classes hold, but c -> d leaves its class
@example(doc=one_agent("ab", "ac", "ba", "bc", "ca", "cd", states="abcd"))
# closed, with a loop and a repeat, listed out of order
@example(doc=one_agent("ba", "cc", "ab", "ba", states="abc"))
def test_loader_matches_pair_by_pair_reference(doc):
    columns, texts = reference_load(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = model_from_dict(doc)
    assert [str(w.message) for w in caught] == texts
    for a, (ids, masks) in columns.items():
        assert m.class_ids(a) == ids
        assert masks is None or m.successor_masks(a) == masks


def test_least_successors_agreeing_is_not_enough():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = model_from_dict(LEAST_SUCCESSORS_AGREE)
    assert [str(w.message) for w in caught] == [
        "agent 0 relation was not closed (symmetry fails at ('a', 'c')); "
        "applying symmetric transitive closure"]
    assert m.class_ids(0) == (0, 0, 0)
