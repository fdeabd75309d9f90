"""Models the checker derives skip validation; each must equal the model the
public constructor builds from its columns."""

from __future__ import annotations

import copy
import gc
import itertools
import pickle
import random

import pytest

from depthlogic import muddy
from depthlogic.model import (EQUIVALENCE, Model, ModelError, PointedModel,
                              canonical_json)
from depthlogic.muddy import build_muddy, canonical_depths, phi_k
from depthlogic.props import RandomSpec, random_formula, random_model
from depthlogic.sat import _set_partitions, _subsets, enumerate_models
from depthlogic.semantics import (SemanticsKind, check, check_labeling,
                                  check_naive, update, update_adpal,
                                  update_dpal, update_edpal)
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
    # DPAL products unread, and read for one agent only
    m3 = build_muddy(3, 3, canonical_depths(3)).model
    models += [update_dpal(m3, parse("!K[2] m2")),
               update_dpal(m3, parse("!K[2] m2"))]
    models[-1].depths(1)
    for m in models:
        keep = rng.sample(range(m.n), rng.randint(1, m.n))
        assert_same_as_validated(m.restrict(keep))


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



def test_sweep_variants_equal_validated(monkeypatch):
    # each depth variant the lower-bound sweep checks is built from M_k's
    # columns with no validating path, and equals its validated rebuild
    seen = []

    def capture(m, state, f, kind):
        seen.append(m)
        return check(m, state, f, kind)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep variant was re-validated")

    monkeypatch.setattr(muddy, "check", capture)
    monkeypatch.setattr(Model, "restrict", refuse)
    report = muddy.lower_bound_sweep(3, max_depth=2)
    assert (report.cases, report.violations) == (27, 0)
    variants = list({id(m): m for m in seen}.values())   # in check order
    assert len(variants) == 27
    for m, values in zip(variants, itertools.product(range(3), repeat=3)):
        assert_same_as_validated(m)
        assert all(m.depths(a) == (d,) * m.n for a, d in enumerate(values))


# -- DPAL products built on first read --

def unread_phi_chain(k: int) -> list[Model]:
    """M_k and the DPAL models after each announcement of phi_k, the derived
    ones not read at all: each update takes its mask from a reference
    chain."""
    base = m = build_muddy(k, k, canonical_depths(k)).model
    announced = [g.announced for g in walk(phi_k(k))
                 if isinstance(g, Announce)]
    pres = []
    for phi in announced:
        pres.append(check_labeling(m, phi, SemanticsKind.DPAL).root_mask)
        m = update_dpal(m, phi, pres[-1])
    chain = [base]
    for phi, pre in zip(announced, pres):
        chain.append(update_dpal(chain[-1], phi, pre))
    return chain


def masks(m: Model) -> list[int]:
    """m's atom and depth masks and a few labels, read by index only."""
    out = [m.atom_mask(f"m{i}") for i in range(m.agents)]
    out += [m.depth_mask(a, d) for a in range(m.agents) for d in range(4)]
    for a in range(m.agents):
        for text in (f"K[{a}] m{a}", f"Kinf[{a}] !m{a}"):
            out.append(check_labeling(m, parse(text),
                                      SemanticsKind.DPAL).root_mask)
    return out


FIRST_READS = ([("names", lambda m: m.states),
                ("index", lambda m: m.state_index(m.states[-1]))]
               + [(f"{what}({a})", lambda m, a=a, what=what:
                   getattr(m, what)(a))
                  for a in range(5) for what in ("class_ids", "depths")])


@pytest.mark.parametrize("read", [r for _, r in FIRST_READS],
                         ids=[name for name, _ in FIRST_READS])
def test_dpal_products_agree_whichever_is_read_first(read):
    want = unread_phi_chain(5)
    want_masks = [masks(m) for m in want]
    want_json = list(map(canonical_json, want))
    chain = unread_phi_chain(5)
    for m in reversed(chain):   # the last product first: it reads up
        read(m)
    assert [masks(m) for m in chain] == want_masks
    assert list(map(canonical_json, chain)) == want_json


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["deepcopy", "pickle"])
def test_unread_dpal_product_copies(clone):
    last = unread_phi_chain(5)[-1]
    copied = clone(last)
    assert canonical_json(copied) == canonical_json(last)
    assert copied.n == last.n == len(last.states)


def holds_on_to(m: Model, other: Model) -> bool:
    """Whether other is among m's referents or theirs."""
    near = gc.get_referents(m)
    return any(r is other for x in near + [m] for r in gc.get_referents(x))


def test_fully_read_dpal_product_drops_its_parent():
    chain = unread_phi_chain(4)
    parent, m = chain[-2:]
    assert holds_on_to(m, parent)
    m.states
    for a in range(m.agents - 1):
        m.class_ids(a)
    assert holds_on_to(m, parent)   # an agent's columns are still missing
    m.depths(m.agents - 1)
    assert not holds_on_to(m, parent)
    assert canonical_json(m) == canonical_json(unread_phi_chain(4)[-1])


def test_long_unread_chain_builds_without_recursing():
    m = Model(2, ["s", "t"], {"s": ["p"]}, class_ids={0: [0, 0]})
    chain = [m]
    for _ in range(300):   # nowhere true: each product keeps two states
        chain.append(update_dpal(chain[-1], parse("p & !p"), 0))
    last = chain[-1]
    assert last.depths(1) == (0, 0) and last.class_ids(0) == (0, 0)
    assert last.states == ("0." * 300 + "s", "0." * 300 + "t")
    assert check(m, "s", parse("[p & !p]" * 300 + "K[0] p"),
                 SemanticsKind.DPAL)


# -- agents and states the model lacks --

def muddy_3(which: str) -> Model:
    """M_3, its DPAL product or its (reflexive-mode) ADPAL update."""
    m = build_muddy(3, 3, canonical_depths(3)).model
    if which == "dpal":
        m = update_dpal(m, parse("!K[2] m2"))
    elif which == "reflexive":
        m = update_adpal(m, parse("!K[2] m2"))
    return m


@pytest.mark.parametrize("agent", [5, -1])
@pytest.mark.parametrize("which", ["base", "dpal", "reflexive"])
def test_unknown_agent_refused_on_every_accessor(which, agent):
    m = muddy_3(which)
    state = m.states[0]
    for read in (m.class_ids, m.depths, m.classes, m.pairs,
                 m.successor_masks, lambda a: m.depth_mask(a, 0),
                 lambda a: m.depth(a, state),
                 lambda a: m.successors(a, state)):
        with pytest.raises(ModelError, match=f"^unknown agent {agent}$"):
            read(agent)


@pytest.mark.parametrize("which", ["base", "dpal", "reflexive"])
def test_unknown_state_refused_on_every_entry_point(which):
    m = muddy_3(which)
    kind = SemanticsKind.ADPAL if which == "reflexive" else SemanticsKind.DPAL
    true = parse("true")   # reads no state: the name is refused up front
    lab = check_labeling(m, true, kind)
    for read in (m.state_index, m.atoms, lambda s: m.depth(0, s),
                 lambda s: m.successors(0, s),
                 lambda s: check(m, s, true, kind),
                 lambda s: check_naive(m, s, true, kind), lab.truth,
                 lambda s: PointedModel(m, s)):
        with pytest.raises(ModelError, match="^unknown state 'zzz'$"):
            read("zzz")
