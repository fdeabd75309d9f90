"""Updated models read by state index: a DPAL product's or an EDPAL view's
masks and class ids come from its parent's, an ADPAL update's successor
masks from its input's.  Each must equal what the public constructor gives
for the same columns."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlogic import muddy, semantics
from depthlogic.model import (EQUIVALENCE, REFLEXIVE, Model, canonical_json,
                              mask_of)
from depthlogic.props import RandomSpec, random_formula
from depthlogic.semantics import (SemanticsKind, check_labeling, check_naive,
                                  update_adpal, update_dpal, update_edpal)
from depthlogic.syntax import TOP, Atom, Know, parse
from test_derived import (KINDS, assert_same_as_validated, holds_on_to,
                          rebuilt)

ATOMS = ("p", "q")


@st.composite
def models(draw, mode: str = EQUIVALENCE) -> Model:
    """A model on up to 6 states with depths in -3..3 (EDPAL leaves depths
    below zero): random classes in equivalence mode, random successor sets
    in reflexive mode."""
    n = draw(st.integers(1, 6))
    agents = draw(st.integers(1, 3))
    states = [f"s{i}" for i in range(n)]
    val = {s: draw(st.sets(st.sampled_from(ATOMS))) for s in states}
    depth = {a: draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
             for a in range(agents)}
    if mode == EQUIVALENCE:
        ids = {a: draw(st.lists(st.integers(0, n - 1), min_size=n,
                                max_size=n)) for a in range(agents)}
        return Model(agents, states, val, depth, class_ids=ids)
    succ = {a: {s: draw(st.sets(st.sampled_from(states))) | {s}
                for s in states} for a in range(agents)}
    return Model(agents, states, val, depth, REFLEXIVE, successors=succ)


def of_depth(d: int):
    """An announcement of modal depth d."""
    f = Atom("p")
    for _ in range(d):
        f = Know(0, f)
    return f


def depth_range(m: Model, dphi: int) -> range:
    """Depth bounds from below every depth to above every depth + dphi."""
    ds = [d for a in range(m.agents) for d in m.depths(a)] or [0]
    return range(min(ds) - 1, max(ds) + dphi + 2)


def update_chain(m: Model, steps: list[tuple[bool, int, int]]) -> list[Model]:
    """m and the models after an EDPAL (if eager) or DPAL update per (eager,
    pre seed, announcement depth), left unread: each pre is the seed cut to
    the model's size."""
    chain = [m]
    for eager, seed, dphi in steps:
        upd = update_edpal if eager else update_dpal
        chain.append(upd(chain[-1], of_depth(dphi), seed % (1 << chain[-1].n)))
    return chain


def by_definition(m: Model, pre: int, dphi: int) -> Model:
    """The DPAL product built from its definition through the public
    constructor: a 1. copy shares its 0. copy's class iff the agent is too
    shallow for the announcement at some announcement state of that class;
    where it hears it, its depth drops by dphi."""
    heard = [i for i in range(m.n) if pre >> i & 1]
    states = [f"0.{s}" for s in m.states] + [f"1.{m.states[i]}"
                                             for i in heard]
    val = dict(zip(states, list(m.valuation()) + [m.valuation()[i]
                                                  for i in heard]))
    ids, depth = {}, {}
    for a in range(m.agents):
        cid, da = m.class_ids(a), m.depths(a)
        linked = {cid[i] for i in heard if da[i] < dphi}
        ids[a] = list(cid) + [cid[i] if cid[i] in linked else ("1", cid[i])
                              for i in heard]
        depth[a] = list(da) + [da[i] - dphi if da[i] >= dphi else da[i]
                               for i in heard]
    return Model(m.agents, states, val, depth, class_ids=ids)


def assert_masks_match(m: Model, want: Model, ds: range) -> None:
    for atom in ATOMS:
        assert m.atom_mask(atom) == want.atom_mask(atom)
    for a in range(m.agents):
        for d in ds:
            assert m.depth_mask(a, d) == want.depth_mask(a, d), (a, d)
        assert m.class_ids(a) == want.class_ids(a)


def edpal_by_definition(m: Model, pre: int, dphi: int) -> Model:
    """The EDPAL update built from its definition through the public
    constructor: the states of pre, each depth lowered by dphi."""
    keep = [i for i in range(m.n) if pre >> i & 1]
    states = [m.states[i] for i in keep]
    return Model(m.agents, states,
                 dict(zip(states, [m.valuation()[i] for i in keep])),
                 {a: [m.depths(a)[i] - dphi for i in keep]
                  for a in range(m.agents)},
                 class_ids={a: [m.class_ids(a)[i] for i in keep]
                            for a in range(m.agents)})


def assert_chain_equals_rebuild(m: Model, steps) -> None:
    """The last model of ``update_chain(m, steps)`` equals the chain built
    by definition; its masks equal the rebuild's when read before its
    columns and after them (then it has dropped its parent); and
    ``restrict`` on it unread equals its validated rebuild."""
    want = rebuilt(update_chain(m, steps)[-1])
    ref = m
    for eager, seed, dphi in steps:
        ref = (edpal_by_definition if eager else by_definition)(
            ref, seed % (1 << ref.n), dphi)
    assert canonical_json(want) == canonical_json(ref)
    ds = depth_range(want, max(d for *_, d in steps))
    assert_masks_match(update_chain(m, steps)[-1], want, ds)   # masks first
    *_, parent, built = update_chain(m, steps)
    built.states
    for a in range(built.agents):   # columns first: then parent is dropped
        built.depths(a)
    assert not holds_on_to(built, parent)
    assert_masks_match(built, want, ds)
    unread = update_chain(m, steps)[-1]
    assert_same_as_validated(unread.restrict(range(unread.n - 1, -1, -2)))


def chains(eager=st.just(False)) -> st.SearchStrategy:
    """1-3 steps for ``update_chain``; DPAL only by default."""
    return st.lists(st.tuples(eager, st.integers(0, 2 ** 40),
                              st.integers(0, 3)), min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(models(), chains())
def test_dpal_product_masks_equal_its_rebuild(m, steps):
    assert_chain_equals_rebuild(m, steps)


@pytest.mark.parametrize("steps_of", [chains(st.just(True)),
                                      chains(st.booleans())],
                         ids=["edpal", "mixed"])
@settings(max_examples=120, deadline=None)
@given(m=models(), data=st.data())
def test_edpal_view_masks_equal_its_rebuild(steps_of, m, data):
    assert_chain_equals_rebuild(m, data.draw(steps_of))


KEYED = [parse(text) for text in (
    "E[0,0] & !P[1,1]", "E[1,2] | P[0,0]", "K[0] p & !K[1] K[0] q",
    "[K[0] p]E[0,0]", "[K[1] K[0] p](P[0,1] & K[1] q)", "[p][K[0] q]E[1,0]")]


@settings(max_examples=60, deadline=None)
@given(models().filter(lambda m: m.agents >= 2), st.integers(0, 2 ** 40),
       st.integers(0, 3))
def test_keyed_reads_agree_on_cold_and_warm_caches(m, seed, dphi):
    fresh = [lambda: rebuilt(m),   # an EDPAL view lowers depths below 0
             lambda: update_edpal(rebuilt(m), of_depth(dphi),
                                  seed % (1 << m.n))]
    for make in fresh:
        for f in KEYED:
            for kind in KINDS:
                model = make()
                cold = check_labeling(model, f, kind).root_mask
                assert model._masks   # the first run cached what it read
                warm = check_labeling(model, f, kind).root_mask
                want = mask_of(check_naive(model, s, f, kind)
                               for s in model.states)
                assert cold == warm == want, (f, kind)


@settings(max_examples=120, deadline=None)
@given(st.one_of(models(), models(REFLEXIVE)), st.integers(0, 2 ** 40),
       st.integers(0, 3))
def test_adpal_successor_masks_equal_its_rebuild(m, seed, dphi):
    upd = update_adpal(m, of_depth(dphi), seed % (1 << m.n))
    want = rebuilt(upd)
    for a in range(m.agents):
        assert upd.successor_masks(a) == want.successor_masks(a)
        assert all(upd.successors(a, s) == want.successors(a, s)
                   for s in m.states)
        # a mask left whole is the input's own object
        assert all(new is old or new != old for new, old in zip(
            upd.successor_masks(a), m.successor_masks(a)))
    assert_same_as_validated(upd.restrict(range(m.n - 1, -1, -2)))


def test_long_unread_chain_reads_a_depth_mask_first():
    m = Model(2, ["s", "t"], {"s": ["p"]}, class_ids={0: [0, 0]})
    chain = [m]
    for _ in range(300):   # depth 1 and nowhere true: two states each
        chain.append(update_dpal(chain[-1], parse("K[0] p & !p"), 0))
    last = chain[-1]
    assert last.depth_mask(0, 1) == 0 and last.depth_mask(1, 0) == 0b11
    assert last.class_ids(0) == (0, 0)
    assert last.depth_mask(0, 1) == mask_of(map((1).__le__, last.depths(0)))


def test_long_unread_edpal_chain_reads_a_depth_mask_first():
    m = Model(2, ["s", "t"], {"s": ["p"]}, class_ids={0: [0, 0]})
    chain = [m]
    for _ in range(300):   # depth 1 and true everywhere: depths fall by 1
        chain.append(update_edpal(chain[-1], parse("K[0] p | !p"), 0b11))
    last = chain[-1]
    assert last.depth_mask(0, -300) == 0b11 and last.depth_mask(1, -299) == 0
    assert last.class_ids(0) == (0, 0) and last.class_ids(1) == (0, 1)
    assert last.depths(1) == (-300, -300) and last.states == ("s", "t")


def test_reduction_final_model_drops_its_parents(monkeypatch):
    steps = []

    def spy(*args, **kwargs):
        steps.extend(muddy_steps(*args, **kwargs))
        return steps

    muddy_steps = muddy.announcement_steps
    monkeypatch.setattr(muddy, "_FINAL_CACHE", {})
    monkeypatch.setattr(muddy, "announcement_steps", spy)
    inst = muddy.ThreeSatInstance(3, ((1, 2, -3), (-1, -2, 3)))
    assert muddy.reduction_decide(inst) == muddy.truth_table_sat(inst)
    final = muddy._FINAL_CACHE[3][0]
    assert final is steps[-1][0] and len(steps) > 2
    assert not any(holds_on_to(final, m) for m, _ in steps[:-1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(models(), models(REFLEXIVE)), st.integers(0, 2 ** 40),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_flat_bodies_label_as_on_the_update(m, seed, dphi, rng):
    # announcement-free programs run in the parent's index space, at an
    # arbitrary pre, pulled back, label as on the update itself; under
    # DPAL, where no agent they name is shallow at pre, as under EDPAL
    pre = seed % (1 << m.n)
    full = (1 << m.n) - 1
    kinds = KINDS if m.mode == EQUIVALENCE else (SemanticsKind.ADPAL,)
    for _ in range(20):
        f = random_formula(rng, RandomSpec(agents=m.agents), kinf=True)
        (code, named, _), _ = semantics._compile([f])
        for kind in kinds:
            flat = semantics._run_flat(m, code, kind, pre, dphi)
            on = semantics._run(semantics.update(m, TOP, kind, pre, dphi),
                                code, kind, {}, [])
            pull = partial(semantics._pull_back, kind, pre, m.n)
            if kind is SemanticsKind.ADPAL:
                assert flat == on
            elif kind is SemanticsKind.EDPAL:
                assert [x & pre for x in flat] == list(map(pull, on))
            else:
                assert [x & full for x in flat] == [x & full for x in on]
                assert [x >> m.n & pre for x in flat] == list(map(pull, on))
                if not any(semantics._shallow(m, a, pre, dphi)
                           for a in named):
                    eager = semantics._run_flat(m, code, SemanticsKind.EDPAL,
                                                pre, dphi)
                    assert [x & pre for x in eager] == list(map(pull, on))
