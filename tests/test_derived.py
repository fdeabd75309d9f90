"""Models the checker derives skip validation; each must equal the model the
public constructor builds from its columns."""

from __future__ import annotations

import itertools
import random

import pytest

from depthlogic.model import EQUIVALENCE, Model, canonical_json
from depthlogic.muddy import build_muddy, canonical_depths, phi_k
from depthlogic.props import RandomSpec, random_formula, random_model
from depthlogic.sat import _set_partitions, _subsets, enumerate_models
from depthlogic.semantics import (SemanticsKind, check_labeling, update,
                                  update_adpal, update_dpal, update_edpal)
from depthlogic.syntax import (TRUE_ATOM, Announce, agents_of, atoms_of,
                               parse, walk)

KINDS = (SemanticsKind.DPAL, SemanticsKind.EDPAL, SemanticsKind.ADPAL)


def rebuilt(m: Model) -> Model:
    """m through the public constructor, from m's own columns."""
    val = {s: m.atoms(s) for s in m.states}
    depth = {a: m.depths(a) for a in range(m.agents)}
    if m.mode == EQUIVALENCE:
        return Model(m.agents, m.states, val, depth, m.mode,
                     class_ids={a: m.class_ids(a) for a in range(m.agents)})
    return Model(m.agents, m.states, val, depth, m.mode,
                 successors={a: {s: m.successors(a, s) for s in m.states}
                             for a in range(m.agents)})


def assert_same_as_validated(m: Model) -> None:
    r = rebuilt(m)
    assert r.states == m.states and r.mode == m.mode
    assert list(map(r.atoms, r.states)) == list(map(m.atoms, m.states))
    for a in range(m.agents):
        assert r.depths(a) == m.depths(a)
        # the constructor renumbers ids to first-index form, so equal ids
        # mean m's are first-index too
        assert r.class_ids(a) == m.class_ids(a)
        assert all(r.successors(a, s) == m.successors(a, s)
                   for s in m.states)
    assert canonical_json(r) == canonical_json(m)


def is_first_index(ids: tuple[int, ...]) -> bool:
    """Each id is the index of the first state of its class."""
    return all(c <= i and ids[c] == c for i, c in enumerate(ids))


def phi_chain(k: int, kind: SemanticsKind) -> list[Model]:
    """The models after each announcement of phi_k on M_k."""
    m = build_muddy(k, k, canonical_depths(k)).model
    chain = []
    for g in walk(phi_k(k)):
        if isinstance(g, Announce):
            lab = check_labeling(m, g.announced, kind)
            m = update(m, g.announced, kind, lab.masks[lab.root])
            chain.append(m)
    return chain


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_phi_k_chain_equals_validated(k, kind):
    chain = phi_chain(k, kind)
    assert len(chain) == k - 1
    for m in chain:
        assert_same_as_validated(m)


def test_dpal_ids_stay_first_index_over_five_updates():
    # offsetting unlinked 1. copies by the state count, without renumbering,
    # would collide with the next update's 1. copies
    chain = phi_chain(6, SemanticsKind.DPAL)
    assert len(chain) == 5
    last = chain[-1]
    for a in range(last.agents):
        assert is_first_index(last.class_ids(a))


def test_random_update_chains_equal_validated():
    rng = random.Random(11)
    spec = RandomSpec(agents=2, max_states=4, max_depth=2)
    for _ in range(60):
        m = random_model(rng, spec)
        for _ in range(3):
            kind = rng.choice(KINDS)
            if m.mode != EQUIVALENCE:
                kind = SemanticsKind.ADPAL
            phi = random_formula(rng, spec, rng.randint(1, 4),
                                 announce=False)
            m = update(m, phi, kind)
            assert_same_as_validated(m)


def test_restrict_equals_validated(three_world_model):
    rng = random.Random(5)
    spec = RandomSpec(agents=2, max_states=5, max_depth=3)
    models = [random_model(rng, spec) for _ in range(40)]
    models.append(three_world_model)
    for m in models:
        keep = rng.sample(range(len(m.states)),
                          rng.randint(1, len(m.states)))
        assert_same_as_validated(m.restrict(keep))
        depth = {a: [rng.randint(0, 3) for _ in keep]
                 for a in range(m.agents)}
        assert_same_as_validated(m.restrict(keep, depth))


def test_sat_candidates_equal_validated():
    f = parse("K[0] p & !p & K[1] q & !q")
    for pm in itertools.islice(enumerate_models(f, 3, 1), 0, 200_000, 997):
        assert_same_as_validated(pm.model)


def validated_candidates(f, max_states, max_depth):
    """``enumerate_models``'s candidates, in its order, each built through
    the public constructor from restricted-growth strings."""
    atoms = sorted(atoms_of(f) - {TRUE_ATOM})
    n_agents = max(agents_of(f), default=0) + 1
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        for parts in itertools.product(_set_partitions(n), repeat=n_agents):
            for vals in itertools.product(
                    *([[frozenset(c) for c in _subsets(atoms)]] * n)):
                for dv in itertools.product(range(max_depth + 1),
                                            repeat=n * n_agents):
                    yield Model(n_agents, states, dict(zip(states, vals)),
                                {a: dv[a * n:(a + 1) * n]
                                 for a in range(n_agents)},
                                class_ids=dict(enumerate(parts)))


@pytest.mark.parametrize("text,max_states,max_depth,count", [
    ("K[0] p & !p & K[1] q & !q", 3, 1, 500),
    ("Kinf[1] p & q", 3, 0, None),   # all 1,668 candidates
])
def test_sat_candidates_keep_order_and_models(text, max_states, max_depth,
                                              count):
    f = parse(text)
    got = itertools.islice(enumerate_models(f, max_states, max_depth), count)
    want = itertools.islice(validated_candidates(f, max_states, max_depth),
                            count)
    n = 0
    for pm, m in itertools.zip_longest(got, want):
        assert pm.state == "s0"
        assert canonical_json(pm.model) == canonical_json(m)
        n += 1
    assert n == (count or 1_668)


def test_updates_skip_the_validating_paths(monkeypatch):
    m = build_muddy(3, 3, canonical_depths(3)).model
    phi = parse("!K[1] m1")

    def refuse(*args, **kwargs):
        raise AssertionError("an update re-validated its result")

    monkeypatch.setattr(Model, "__init__", refuse)
    monkeypatch.setattr(Model, "restrict", refuse)
    for upd in (update_dpal, update_edpal, update_adpal):
        assert upd(m, phi).states
