"""Pins the class-id DPAL/EDPAL updates and the successor-based ADPAL update
to the pair-level implementations they replaced, kept below as the
reference."""

from __future__ import annotations

import hashlib
import random

import pytest

from depthlogic import dot
from depthlogic.model import (EQUIVALENCE, REFLEXIVE, Model, canonical_json,
                              model_size)
from depthlogic.muddy import build_muddy, canonical_depths, muddy_atom
from depthlogic.props import RandomSpec, random_formula, random_model
from depthlogic.semantics import (SemanticsKind, check_naive, update_adpal,
                                  update_dpal, update_edpal)
from depthlogic.syntax import Know, Not, modal_depth


def closed_pairs(classes) -> frozenset:
    """All ordered non-loop pairs within each class."""
    return frozenset((s, t) for cls in classes for s in cls for t in cls
                     if s != t)


def pair_update_dpal(m: Model, announced, truth) -> Model:
    dphi = modal_depth(announced)
    neg = ["0." + s for s in m.states]
    pos = ["1." + s for s in m.states if truth[s]]
    states = neg + pos
    val = {}
    depth: dict[int, dict[str, int]] = {a: {} for a in range(m.agents)}
    for s in m.states:
        val["0." + s] = m.atoms(s)
        for a in range(m.agents):
            depth[a]["0." + s] = m.depth(a, s)
        if truth[s]:
            val["1." + s] = m.atoms(s)
            for a in range(m.agents):
                d = m.depth(a, s)
                depth[a]["1." + s] = d - dphi if d >= dphi else d
    rel = {}
    for a in range(m.agents):
        parent = {s: s for s in states}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: str, y: str) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for s, t in m.pairs(a):
            union("0." + s, "0." + t)
            if truth[s] and truth[t]:
                union("1." + s, "1." + t)
        for s in m.states:
            if truth[s] and m.depth(a, s) < dphi:
                union("1." + s, "0." + s)
        groups: dict[str, list[str]] = {}
        for s in states:
            groups.setdefault(find(s), []).append(s)
        rel[a] = closed_pairs(groups.values())
    return Model(agents=m.agents, states=states, val=val, rel=rel,
                 depth=depth, mode=EQUIVALENCE)


def pair_update_edpal(m: Model, announced, truth) -> Model:
    dphi = modal_depth(announced)
    states = [s for s in m.states if truth[s]]
    keep = set(states)
    val = {s: m.atoms(s) for s in states}
    rel = {a: frozenset(p for p in m.pairs(a) if p[0] in keep and p[1] in keep)
           for a in range(m.agents)}
    depth = {a: {s: m.depth(a, s) - dphi for s in states}
             for a in range(m.agents)}
    return Model(agents=m.agents, states=states, val=val, rel=rel,
                 depth=depth, mode=EQUIVALENCE)


def pair_update_adpal(m: Model, announced, truth) -> Model:
    dphi = modal_depth(announced)
    rel = {}
    for a in range(m.agents):
        if m.mode == EQUIVALENCE:
            pairs = closed_pairs(m.classes(a))
        else:
            pairs = m.pairs(a)
        rel[a] = frozenset(
            (s, t) for s, t in pairs
            if not (m.depth(a, s) >= dphi and truth[s] != truth[t]))
    depth = {a: {s: (m.depth(a, s) - dphi if m.depth(a, s) >= dphi
                     else m.depth(a, s))
                 for s in m.states}
             for a in range(m.agents)}
    val = {s: m.atoms(s) for s in m.states}
    return Model(agents=m.agents, states=m.states, val=val, rel=rel,
                 depth=depth, mode=REFLEXIVE)


PAIRS = [(SemanticsKind.DPAL, update_dpal, pair_update_dpal),
         (SemanticsKind.EDPAL, update_edpal, pair_update_edpal),
         (SemanticsKind.ADPAL, update_adpal, pair_update_adpal)]


def truth_of(m: Model, phi, kind: SemanticsKind) -> dict[str, bool]:
    return {s: check_naive(m, s, phi, kind) for s in m.states}


def assert_same(new: Model, ref: Model) -> None:
    assert canonical_json(new) == canonical_json(ref)
    assert model_size(new) == model_size(ref)


def phi_k_announcements(k: int) -> list:
    return [Not(Know(i, muddy_atom(i))) for i in range(k - 1, 0, -1)]


@pytest.mark.parametrize("kind,new_update,ref_update", PAIRS)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_phi_k_chain_matches_pair_level_update(k, kind, new_update,
                                               ref_update):
    new = ref = build_muddy(k, k, canonical_depths(k)).model
    for phi in phi_k_announcements(k):
        new = new_update(new, phi, truth=truth_of(new, phi, kind))
        ref = ref_update(ref, phi, truth_of(ref, phi, kind))
        assert_same(new, ref)


@pytest.mark.parametrize("kind,new_update,ref_update", PAIRS)
def test_random_draws_match_pair_level_update(kind, new_update, ref_update):
    rng = random.Random(f"pins:{kind.value}")
    spec = RandomSpec()
    for _ in range(300):
        m = random_model(rng, spec, unambiguous=rng.random() < 0.5)
        phi = random_formula(rng, spec, announce=True, kinf=True)
        truth = truth_of(m, phi, kind)
        assert_same(new_update(m, phi, truth=truth),
                    ref_update(m, phi, truth))


# sha256 of sequence_to_dot(M_4, phi_4's announcements) from the
# pair-level implementation
M4_DOT_SHA256 = {
    SemanticsKind.DPAL:
        "d8f0755f01e5c2141ed3189e922cae649853a44de6fc8a000d23fe5af5c39ace",
    SemanticsKind.EDPAL:
        "7d3b4f7c98faab6a5cac6d14cc1a9f1407d3cd1f79d96402a5248630773878df",
    SemanticsKind.ADPAL:
        "9ba4f098a0ff5e3fe0f9e0fd55d3f219b396833b8999942cce208d63d5cc75d3",
}


@pytest.mark.parametrize("kind", list(M4_DOT_SHA256))
def test_m4_sequence_dot_is_byte_identical(kind):
    inst = build_muddy(4, 4, canonical_depths(4))
    text = dot.sequence_to_dot(inst.model, phi_k_announcements(4), kind,
                               state=inst.initial)
    assert hashlib.sha256(text.encode()).hexdigest() == M4_DOT_SHA256[kind]
