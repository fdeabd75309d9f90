"""The checker, the three update constructions, and the labeling algorithm."""

from __future__ import annotations

import copy
import gc
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlogic import dot, semantics
from depthlogic.model import (REFLEXIVE, Model, ModelError, bits_of,
                              canonical_json, load_model, mask_of, model_size,
                              save_model, validate)
from depthlogic.muddy import (
    amnesia_formula,
    build_muddy,
    canonical_depths,
    leakage_formula,
    phi_k,
    upper_bound_hypothesis,
)
from depthlogic.props import (TABLE_DPAL_SOUND, TABLE_EDPAL, TABLE_ROWS,
                              TABLE_T1, _TABLE_KIND, RandomSpec,
                              leakage_fixture, random_formula, random_model)
from depthlogic.semantics import (
    FragmentError,
    ModeError,
    SemanticsKind,
    check,
    check_labeling,
    check_naive,
    holds_everywhere,
    update,
    update_adpal,
    update_dpal,
    update_edpal,
    update_image,
)
from depthlogic.syntax import (
    TOP,
    And,
    Announce,
    Atom,
    DepthAtLeast,
    Formula,
    Know,
    KnowInf,
    Not,
    f_transform,
    iff,
    implies,
    modal_depth,
    parse,
    walk,
)

ALL_KINDS = (SemanticsKind.DPAL, SemanticsKind.EDPAL, SemanticsKind.ADPAL)


class TestCheck:
    def test_depth_gate(self, one_state_model):
        m = one_state_model  # d(0, s) = 0
        assert check(m, "s", Know(0, TOP), SemanticsKind.DBEL)
        assert not check(m, "s", Know(0, Know(0, TOP)), SemanticsKind.DBEL)

    def test_three_world_leakage(self, three_world_model):
        m, s, phi, psi, a = leakage_fixture()
        assert not check(m, s, Know(a, psi), SemanticsKind.ADPAL)
        assert check(m, s, Announce(phi, Know(a, psi)), SemanticsKind.ADPAL)

    def test_muddy_two_children_dpal(self):
        inst = build_muddy(2, 2, canonical_depths(2))
        assert inst.model.depth(0, "11") == 1 and inst.model.depth(1, "11") == 0
        assert check(inst.model, "11", phi_k(2), SemanticsKind.DPAL)

    def test_amnesia_matrix_on_muddy_three(self):
        inst = build_muddy(3, 3, canonical_depths(3))
        f = amnesia_formula()
        assert f == parse("<!(K[2] m2)><!(K[1] m1)> !(K[2] true)")
        assert check(inst.model, "111", f, SemanticsKind.EDPAL)
        assert not check(inst.model, "111", f, SemanticsKind.DPAL)
        assert not check(inst.model, "111", f, SemanticsKind.ADPAL)

    def test_leakage_matrix_on_muddy_three(self):
        inst = build_muddy(3, 3, canonical_depths(3))
        f = leakage_formula()
        assert check(inst.model, "111", f, SemanticsKind.ADPAL)
        assert not check(inst.model, "111", f, SemanticsKind.DPAL)
        assert not check(inst.model, "111", f, SemanticsKind.EDPAL)

    def test_dbel_rejects_announcements(self, one_state_model):
        with pytest.raises(FragmentError):
            check(one_state_model, "s", Announce(TOP, TOP), SemanticsKind.DBEL)

    @pytest.mark.parametrize("text", ["K[0] (p & [q] r)",
                                      "K[0] ([q] r & p)"])
    def test_dbel_rejects_nested_announcements(self, one_state_model, text):
        f = parse(text)
        for checker in (check, check_naive):
            with pytest.raises(FragmentError, match="cannot contain"):
                checker(one_state_model, "s", f, SemanticsKind.DBEL)

    def test_dpal_rejects_reflexive_models(self, three_world_model):
        with pytest.raises(ModeError):
            check(three_world_model, "1", TOP, SemanticsKind.DPAL)
        with pytest.raises(ModeError):
            check(three_world_model, "1", TOP, SemanticsKind.EDPAL)
        assert check(three_world_model, "1", TOP, SemanticsKind.ADPAL)

    def test_false_precondition_short_circuits(self, one_state_model):
        m = one_state_model
        f = Announce(Not(Atom("p")), Not(TOP))
        for kind in ALL_KINDS:
            assert check(m, "s", f, kind)


class TestPointwiseProperties:
    def test_know_equals_gate_and_kinf(self):
        rng = random.Random(41)
        spec = RandomSpec()
        for _ in range(200):
            m = random_model(rng, spec)
            psi = random_formula(rng, spec, announce=True, kinf=True)
            a = rng.randrange(spec.agents)
            for s in m.states:
                lhs = check_naive(m, s, Know(a, psi), SemanticsKind.DPAL)
                rhs = (check_naive(m, s, DepthAtLeast(a, modal_depth(psi)),
                                   SemanticsKind.DPAL)
                       and check_naive(m, s, KnowInf(a, psi),
                                       SemanticsKind.DPAL))
                assert lhs == rhs

    def test_truth_axiom_all_semantics(self):
        rng = random.Random(43)
        spec = RandomSpec()
        for _ in range(100):
            psi = random_formula(rng, spec, announce=True, kinf=True)
            a = rng.randrange(spec.agents)
            for kind in ALL_KINDS:
                m = random_model(rng, spec)
                for s in m.states:
                    if check_naive(m, s, Know(a, psi), kind):
                        assert check_naive(m, s, psi, kind)


class TestUpdateDpal:
    def test_top_announcement(self):
        rng = random.Random(47)
        m = random_model(rng, RandomSpec())
        m2 = update_dpal(m, TOP)
        # positive copy isomorphic to m, no cross links, depths unchanged
        for s in m.states:
            assert m2.depth(0, "1." + s) == m.depth(0, s)
            assert "0." + s not in connected(m2, "1." + s)
        assert len(m2.states) == 2 * len(m.states)

    def test_no_leakage(self, three_world_model):
        # the world-duplicating semantics needs an equivalence model; close
        # agent b's chain and keep the ambiguous depths
        m0 = three_world_model
        m = Model(agents=3, states=list(m0.states),
                  val={s: m0.atoms(s) for s in m0.states},
                  class_ids={1: [0, 0, 0]},
                  depth={a: {s: m0.depth(a, s) for s in m0.states}
                         for a in range(3)})
        phi = Know(2, Know(2, Atom("p0")))
        psi = Know(1, Atom("p0"))
        assert not check(m, "1", Announce(phi, Know(0, psi)),
                         SemanticsKind.DPAL)

    def test_blowup_bound_and_validation(self):
        rng = random.Random(53)
        spec = RandomSpec()
        for _ in range(100):
            m = random_model(rng, spec)
            phi = random_formula(rng, spec, announce=True, kinf=True)
            m2 = update_dpal(m, phi)
            assert validate(m2, "equivalence") is None
            assert model_size(m2) <= 4 * model_size(m)

    def test_cross_links_only_for_shallow_agents(self):
        m = Model(agents=2, states=["s"], val={"s": ["p"]},
                  depth={0: {"s": 0}, 1: {"s": 2}})
        m2 = update_dpal(m, Know(1, Atom("p")))  # depth 1
        assert "0.s" in m2.successors(0, "1.s")   # depth 0 < 1: linked
        assert "0.s" not in m2.successors(1, "1.s")   # depth 2 >= 1: cut
        assert m2.depth(0, "1.s") == 0   # too shallow, unchanged
        assert m2.depth(1, "1.s") == 1   # decremented by d(phi)
        assert m2.depth(0, "0.s") == 0 and m2.depth(1, "0.s") == 2


class TestUpdateEdpal:
    def test_top_announcement_identity(self):
        rng = random.Random(59)
        m = random_model(rng, RandomSpec())
        m2 = update_edpal(m, TOP)
        from depthlogic.model import canonical_json

        assert canonical_json(m2) == canonical_json(m)

    def test_depth_goes_negative_and_kills_knowledge(self, one_state_model):
        m = one_state_model
        m2 = update_edpal(m, Know(0, Atom("p")))  # depth 1, true at s
        assert m2.depth(0, "s") == -1
        assert not check(m2, "s", Know(0, TOP), SemanticsKind.EDPAL)
        assert not check(m2, "s", Know(0, Atom("p")), SemanticsKind.EDPAL)

    def test_never_grows(self):
        rng = random.Random(61)
        spec = RandomSpec()
        for _ in range(100):
            m = random_model(rng, spec)
            phi = random_formula(rng, spec, announce=True, kinf=True)
            m2 = update_edpal(m, phi)
            assert len(m2.states) <= len(m.states)
            assert validate(m2, "equivalence") is None


class TestUpdateAdpal:
    def test_top_announcement_identity(self, three_world_model):
        m2 = update_adpal(three_world_model, TOP)
        from depthlogic.model import canonical_json

        assert canonical_json(m2) == canonical_json(three_world_model)

    def test_cut_only_where_deep_enough(self, three_world_model):
        m, _, phi, _, _ = leakage_fixture()
        m2 = update_adpal(m, phi)  # depth 2; phi true at 0, 1 only
        b = 1
        # b has depth 2 at state 1 only: the boundary pair (1,2) is cut there
        assert "2" not in m2.successors(b, "1")
        # but kept in the shallow direction 2 -> 1 (b's depth at 2 is 0)
        assert "1" in m2.successors(b, "2")
        assert "0" in m2.successors(b, "1")
        assert validate(m2, "reflexive") is None
        assert m2.depth(b, "1") == 0 and m2.depth(b, "0") == 0

    def test_equivalence_input_demoted(self):
        rng = random.Random(67)
        m = random_model(rng, RandomSpec())
        m2 = update_adpal(m, TOP)
        assert m2.mode == "reflexive"
        assert validate(m2, "reflexive") is None

    def test_updates_validate_under_their_mode(self):
        rng = random.Random(71)
        spec = RandomSpec()
        for _ in range(50):
            m = random_model(rng, spec)
            phi = random_formula(rng, spec, announce=True, kinf=True)
            assert validate(update(m, phi, SemanticsKind.ADPAL),
                            "reflexive") is None


class TestUpdateImage:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_image_agrees_with_state_names(self, kind):
        rng = random.Random(f"image:{kind.value}")
        spec = RandomSpec()
        for _ in range(200):
            m = random_model(rng, spec, unambiguous=rng.random() < 0.5)
            phi = random_formula(rng, spec, announce=True, kinf=True)
            pre = mask_of(check_naive(m, s, phi, kind) for s in m.states)
            upd = update(m, phi, kind, pre)
            # pre=None computes the same mask with check_labeling
            assert canonical_json(update(m, phi, kind)) == canonical_json(upd)
            image = update_image(kind, pre, len(m.states))
            assert len(image) == len(m.states)
            for i, s in enumerate(m.states):
                heard = bool(pre >> i & 1)
                if kind is SemanticsKind.DPAL:
                    expected = ("1." if heard else "0.") + s
                elif kind is SemanticsKind.EDPAL:
                    expected = s if heard else None
                else:
                    expected = s
                j = image[i]
                assert (None if j is None else upd.states[j]) == expected
                if j is not None:
                    assert upd.atoms(upd.states[j]) == m.atoms(s)

    def test_dbel_has_no_image(self):
        with pytest.raises(FragmentError):
            update_image(SemanticsKind.DBEL, 1, 1)

    @pytest.mark.parametrize("kind,tracked", [
        (SemanticsKind.DPAL, ["s", "0.s", "1.0.s"]),
        (SemanticsKind.EDPAL, ["s", None, None]),
        (SemanticsKind.ADPAL, ["s", "s", "s"]),
    ])
    def test_steps_track_a_state_the_announcement_misses(self, kind,
                                                         tracked):
        # p is false at the designated state s, then true everywhere holds
        m = Model(agents=1, states=["s", "t"], val={"s": [], "t": ["p"]},
                  class_ids={0: [0, 0]},
                  depth={0: {"s": 1, "t": 1}})
        announcements = [Atom("p"), TOP]
        steps = semantics.announcement_steps(m, announcements, kind, state="s")
        assert [here for _, here in steps] == tracked
        for model, here in steps:
            assert here is None or model.has_state(here)
        text = dot.sequence_to_dot(m, announcements, kind, state="s")
        assert text.count("fillcolor") == sum(h is not None for h in tracked)


class TestPullBack:
    """``[phi]psi`` reads psi back through the update by bit deposit, and
    ``K`` drops leaving classes through the class ids; both agree with the
    state-by-state formulations."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deposit_agrees_with_update_image(self, kind):
        rng = random.Random(f"pull:{kind.value}")
        spec = RandomSpec()
        for _ in range(150):
            m = random_model(rng, spec, unambiguous=rng.random() < 0.5)
            phi = random_formula(rng, spec, announce=True, kinf=True)
            n = m.n
            full = (1 << n) - 1
            for pre in (0, full, rng.getrandbits(n)):
                upd = update(m, phi, kind, pre)
                if kind is SemanticsKind.EDPAL and not pre:
                    assert upd.n == 0 and upd.states == ()
                image = update_image(kind, pre, n)
                for body in (0, (1 << upd.n) - 1, rng.getrandbits(upd.n)):
                    expected = mask_of(
                        bool(pre >> i & 1 and body >> j & 1)
                        for i, j in enumerate(image))
                    assert semantics._pull_back(kind, pre, n, body) == expected

    @given(st.integers(0, 300), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_deposit_fills_set_bits_in_order(self, n, rng):
        # an EDPAL update keeps pre's states, so body's bit j goes to pre's
        # j-th set bit; some masks have only high bits set
        pre = rng.getrandbits(n) >> rng.randint(0, n) << rng.randint(0, n)
        pre &= (1 << n) - 1
        held = list(bits_of(pre))
        body = rng.getrandbits(len(held))
        pull = partial(semantics._pull_back, SemanticsKind.EDPAL, pre, n)
        assert pull(body) == sum((body >> j & 1) << i
                                 for j, i in enumerate(held))
        assert pull((1 << len(held)) - 1) == pre and pull(0) == 0

    def test_known_agrees_with_classes(self):
        rng = random.Random(83)
        spec = RandomSpec()
        for _ in range(150):
            m = random_model(rng, spec)
            if rng.random() < 0.5:   # a lazy DPAL product's class ids
                phi = random_formula(rng, spec, announce=True)
                m = update(m, phi, SemanticsKind.DPAL)
            assert m.mode == "equivalence"
            full = (1 << m.n) - 1
            for sub in (0, full, rng.getrandbits(m.n)):
                inside = {s for i, s in enumerate(m.states) if sub >> i & 1}
                for a in range(m.agents):
                    kept = set().union(*(c for c in m.classes(a)
                                         if c <= inside))
                    assert semantics._known(m, a, sub) == mask_of(
                        s in kept for s in m.states)


class TestLabeling:
    def test_atom_labeling_equals_valuation(self):
        m = Model(agents=1, states=["a", "b", "c"],
                  val={"a": ["p"], "b": [], "c": ["p"]},
                  depth={0: {"a": 0, "b": 0, "c": 0}})
        lab = check_labeling(m, Atom("p"), SemanticsKind.DPAL)
        got = lab.table[lab.root]
        assert got == {"a": True, "b": False, "c": True}

    def test_agrees_with_naive_on_random_pairs(self):
        rng = random.Random(73)
        spec = RandomSpec()
        for _ in range(200):
            m = random_model(rng, spec)
            f = random_formula(rng, spec, announce=True, kinf=True)
            kind = rng.choice(ALL_KINDS)
            lab = check_labeling(m, f, kind)
            for s in m.states:
                assert lab.table[lab.root][s] == check_naive(m, s, f, kind)

    def test_check_uses_labeling_result(self):
        rng = random.Random(79)
        spec = RandomSpec()
        for _ in range(50):
            m = random_model(rng, spec)
            f = random_formula(rng, spec, announce=True, kinf=True)
            for s in m.states:
                assert check(m, s, f, SemanticsKind.DPAL) == \
                    check_naive(m, s, f, SemanticsKind.DPAL)


def _node_counts(f):
    """(tree nodes, distinct node objects) of a formula."""
    seen, tree, stack = set(), 0, [f]
    while stack:
        g = stack.pop()
        tree += 1
        seen.add(id(g))
        stack.extend(v for v in vars(g).values() if isinstance(v, Formula))
    return tree, len(seen)


def _counting_update(monkeypatch):
    calls = []
    real = semantics.update

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(semantics, "update", counted)
    return calls


class TestLabelingMemo:
    """``check_labeling`` labels each (model, node object) once and runs
    each (model, announced node object) update once, within one call."""

    @pytest.mark.parametrize("table", [TABLE_T1, TABLE_EDPAL,
                                       TABLE_DPAL_SOUND])
    def test_axiom_instances_agree_with_naive(self, table):
        kind = _TABLE_KIND[table]
        rng = random.Random(f"memo:{table}")
        spec = RandomSpec()
        rows = TABLE_ROWS[table]
        shared = 0
        for i in range(200):
            inst = rows[i % len(rows)].instantiate(rng, spec)
            tree, distinct = _node_counts(inst)
            shared += distinct < tree
            _agrees_with_naive(random_model(rng, spec), inst, kind)
        # most instances reuse subformula objects, which the memo shares
        assert shared >= 100

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nodes_reused_across_models_agree_with_naive(self, kind):
        # each step combines earlier node objects, so one object is labeled
        # on several models and announced on several models, as in [phi]phi
        # and [phi][phi]psi
        rng = random.Random(f"reuse:{kind.value}")
        spec = RandomSpec(max_states=4)
        for _ in range(150):
            pool = [random_formula(rng, spec, size=3, announce=True)
                    for _ in range(3)]
            for _ in range(5):
                a, b = rng.choice(pool), rng.choice(pool)
                pool.append(rng.choice((Announce(a, b), And(a, b), Not(a),
                                        Know(rng.randrange(2), a))))
            m = random_model(rng, spec)
            _agrees_with_naive(m, pool[-1], kind)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shared_announcement_updates_once(self, kind, monkeypatch):
        calls = _counting_update(monkeypatch)
        m = build_muddy(3, 3, canonical_depths(3)).model
        phi = parse("!K[2] m2")
        shared = And(Announce(phi, Atom("m0")), Announce(phi, Atom("m1")))
        lab = check_labeling(m, shared, kind)
        assert calls == [phi]
        calls.clear()
        distinct = And(Announce(phi, Atom("m0")),
                       Announce(parse("!K[2] m2"), Atom("m1")))
        assert distinct == shared
        again = check_labeling(m, distinct, kind)
        assert len(calls) == 2
        assert again.table[again.root] == lab.table[lab.root]

    def test_nothing_cached_across_calls(self, monkeypatch):
        calls = _counting_update(monkeypatch)
        m = build_muddy(4, 4, canonical_depths(4)).model
        f = iff(phi_k(4), Announce(parse("m0 | m1"), phi_k(4)))
        first = check_labeling(m, f, SemanticsKind.DPAL)
        done = len(calls)
        assert done > 0
        second = check_labeling(m, f, SemanticsKind.DPAL)
        assert len(calls) == 2 * done
        assert second.masks == first.masks
        assert second.states == first.states


def _agrees_with_naive(m, f, kind):
    lab = check_labeling(m, f, kind)
    row = lab.table[lab.root]
    assert row == {s: check_naive(m, s, f, kind) for s in m.states}
    assert set(map(type, row.values())) <= {bool}   # not 0/1 ints
    return lab


class TestProgram:
    """``check_labeling`` compiles a formula object on its first check and
    keeps the program on it; labels and updates stay per call."""

    def test_compiled_once_per_formula_object(self, monkeypatch):
        compiled = []
        real = semantics._compile

        def counted(roots):
            compiled.append(roots)
            return real(roots)

        monkeypatch.setattr(semantics, "_compile", counted)
        f = iff(phi_k(3), Announce(parse("m0 | m1"), phi_k(3)))
        m3 = build_muddy(3, 3, canonical_depths(3)).model
        check_labeling(m3, f, SemanticsKind.DPAL)
        assert compiled[0] == [f]
        program = f._program
        compiled.clear()
        m4 = build_muddy(4, 4, canonical_depths(4)).model
        for kind in ALL_KINDS:
            for m in (m3, m4):
                _agrees_with_naive(m, f, kind)
                holds_everywhere(m, f, kind)
                check(m, m.states[-1], f, kind)
        assert compiled == []
        assert f._program is program

    def test_equality_hash_and_repr_ignore_the_program(self):
        text = "[m0 | m1] K[0] m0 <-> E[1,2]"
        f, g = parse(text), parse(text)
        before = hash(f), repr(f)
        m = build_muddy(3, 3, canonical_depths(3)).model
        check_labeling(m, f, SemanticsKind.DPAL)
        assert f._program is not None and g._program is None
        assert f == g
        assert hash(f) == hash(g) == before[0]
        assert repr(f) == repr(g) == before[1]

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_copied_program_agrees_with_naive(self, duplicate):
        m = build_muddy(4, 4, canonical_depths(4)).model
        f = iff(phi_k(4), Announce(parse("m0 | m1"), phi_k(4)))
        check_labeling(m, f, SemanticsKind.DPAL)
        g = duplicate(f)
        assert g == f and g is not f and g._program is not None
        # the copy's program refers to the copy's own nodes
        nodes = {id(h) for h in walk(g)}
        code, _ = g._program
        announced = [b[0] for op, _, b, _ in code
                     if op == semantics._ANNOUNCE]
        assert announced and all(id(a) in nodes for a in announced)
        for kind in ALL_KINDS:
            _agrees_with_naive(m, g, kind)

    def test_dbel_announcement_still_refused(self):
        m = build_muddy(3, 3, canonical_depths(3)).model
        f = parse("m0 & [m1] K[0] m0")
        with pytest.raises(FragmentError):
            check_labeling(m, f, SemanticsKind.DBEL)
        check_labeling(m, f, SemanticsKind.DPAL)
        with pytest.raises(FragmentError):
            check(m, "111", f, SemanticsKind.DBEL)

    @pytest.mark.parametrize("text,agent", [
        ("K[5] m0", 5), ("P[5,1]", 5), ("E[7,0]", 7),
        ("!Kinf[3] m0 & K[1] m1", 3), ("m0 & [m1] (K[4] m2 | P[3,0])", 4),
    ])
    def test_unknown_agent_refused_before_any_work(self, text, agent,
                                                   monkeypatch):
        calls = _counting_update(monkeypatch)
        m = build_muddy(3, 3, canonical_depths(3)).model
        f = parse(text)
        message = f"^formula names unknown agent {agent}$"
        for kind in ALL_KINDS:
            with pytest.raises(ModelError, match=message):
                check(m, "111", f, kind)
            with pytest.raises(ModelError, match=message):
                holds_everywhere(m, f, kind)
            with pytest.raises(ModelError, match=message):
                update(m, f, kind)
        with pytest.raises(ModelError, match=message):
            check_labeling(m, f, SemanticsKind.DBEL)
        for kind in ALL_KINDS:   # the oracle refuses it the same way
            with pytest.raises(ModelError, match=message):
                check_naive(m, "111", f, kind)
        assert calls == []   # no announcement was reached


def _small_models():
    """An equivalence-mode and a reflexive-mode model on atoms p and q."""
    states = ["a", "b", "c"]
    val = {"a": ["p"], "b": ["p", "q"], "c": ["q"]}
    depth = {0: [1, 2, 1], 1: [0, 1, 2]}
    eq = Model(agents=2, states=states, val=val, depth=depth,
               class_ids={0: [0, 0, 1], 1: [0, 1, 1]})
    refl = Model(agents=2, states=states, val=val, depth=depth,
                 mode=REFLEXIVE, successors={
                     0: {"a": ["a", "b"], "b": ["a", "b", "c"], "c": ["c"]},
                     1: {"a": ["a"], "b": ["b", "c"], "c": ["b", "c"]}})
    return eq, refl


_EMPTY = parse("p & !p")   # one announced node shared by two bodies


class TestShortcuts:
    """An announcement that holds nowhere is labeled true everywhere with
    no update, and ``K`` over an empty or full body reads no relation."""

    @pytest.mark.parametrize("f", [
        parse("[p & !p] K[0] q"), parse("[false][q] K[0] p"),
        And(Announce(_EMPTY, Know(0, Atom("q"))),
            Announce(_EMPTY, Not(Atom("p"))))], ids=["K", "nested", "shared"])
    def test_empty_announcement_builds_no_update(self, f, monkeypatch):
        calls = _counting_update(monkeypatch)
        eq, refl = _small_models()
        for m, kind in [(eq, k) for k in ALL_KINDS] + [
                (refl, SemanticsKind.ADPAL)]:
            lab = _agrees_with_naive(m, f, kind)
            assert lab.root_mask == (1 << m.n) - 1
            assert len(lab.runs) == 1
        assert calls == []
        with pytest.raises(FragmentError):
            check_labeling(eq, f, SemanticsKind.DBEL)

    def test_unknown_agent_under_empty_announcement_refused(self):
        eq, refl = _small_models()
        f = parse("[p & !p] K[5] q")
        for m, kind in ((eq, SemanticsKind.DPAL), (refl, SemanticsKind.ADPAL)):
            with pytest.raises(ModelError, match="unknown agent 5"):
                check_labeling(m, f, kind)

    @pytest.mark.parametrize("text", ["K[{a}] false", "K[{a}] true",
                                      "K[{a}] (p & !p)"])
    @pytest.mark.parametrize("kind", [SemanticsKind.DPAL,
                                      SemanticsKind.EDPAL])
    def test_empty_or_full_body_builds_no_class_ids(self, text, kind):
        eq, _ = _small_models()
        for a in range(eq.agents):
            f = parse(text.format(a=a))
            m = update(eq, parse("p"), kind)
            lab = check_labeling(m, f, kind)
            assert a not in m._ids
            assert lab.table[lab.root] == {
                s: check_naive(m, s, f, kind) for s in m.states}

    def test_known_of_nothing_is_nothing(self):
        eq, refl = _small_models()
        for m in (eq, refl, Model(agents=1, states=[], val={}),
                  Model(agents=1, states=[], val={}, mode=REFLEXIVE)):
            for a in range(m.agents):
                assert semantics._known(m, a, 0) == 0


def test_checks_leave_no_reference_cycles():
    m = build_muddy(5, 5, canonical_depths(5)).model
    formulas = [phi_k(5), implies(upper_bound_hypothesis(5), phi_k(5)),
                iff(phi_k(4), Announce(parse("m0 | m1"), phi_k(4))),
                amnesia_formula(), leakage_formula()]
    gc.collect()
    gc.disable()
    try:
        for kind in ALL_KINDS:
            for f in formulas:
                check(m, "11111", f, kind)
                holds_everywhere(m, f, kind)
                check_labeling(m, f, kind)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestLabelingMasks:
    """Labels are bitmasks over state indices; these models are far past the
    one-digit Python ints that the random models' at most 5 states reach."""

    @pytest.mark.parametrize("kind", [SemanticsKind.EDPAL,
                                      SemanticsKind.ADPAL])
    def test_upper_bound_on_muddy_seven(self, kind):
        m = build_muddy(7, 7, canonical_depths(7)).model
        assert len(m.states) == 127
        f = implies(upper_bound_hypothesis(7), phi_k(7))
        _agrees_with_naive(m, f, kind)

    def test_phi_five_under_dpal(self):
        m = build_muddy(5, 5, canonical_depths(5)).model
        lab = _agrees_with_naive(m, phi_k(5), SemanticsKind.DPAL)
        assert max(map(len, lab.states.values())) > 64

    def test_reflexive_model_loaded_from_file(self, tmp_path):
        m = build_muddy(7, 7, canonical_depths(7)).model
        for announced in ("K[6] m6", "!K[5] m5"):
            m = update_adpal(m, parse(announced))
        path = str(tmp_path / "reflexive.json")
        save_model(m, path)
        m = load_model(path)
        assert m.mode == REFLEXIVE and len(m.states) == 127
        for f in (phi_k(6), leakage_formula(),
                  parse("[Kinf[2] m2 | m1] (K[0] m0 | E[1,3])"),
                  parse("E[0,4] & !E[1,2] & (m1 | E[2,1])"),
                  parse("[!K[4] m4] (E[4,2] | K[4] !m4)"),
                  parse("<m3> Kinf[3] (m3 -> P[3,1])")):
            lab = _agrees_with_naive(m, f, SemanticsKind.ADPAL)
            assert 0 < lab.masks[lab.root] < (1 << len(m.states)) - 1

    def test_table_row_is_a_plain_dict(self):
        m = build_muddy(3, 3, canonical_depths(3)).model
        lab = check_labeling(m, phi_k(3), SemanticsKind.DPAL)
        row = lab.table[lab.root]
        assert type(row) is dict
        assert row == {s: check_naive(m, s, phi_k(3), SemanticsKind.DPAL)
                       for s in m.states}
        assert list(row) == list(m.states)
        assert all(lab.truth(s) is row[s] for s in m.states)


def test_f_transform_true_on_three_world_fixture():
    m, s, phi, psi, a = leakage_fixture()
    assert check(m, s, f_transform(phi, Know(a, psi)), SemanticsKind.ADPAL)


def test_holds_everywhere_reports_witness(one_state_model):
    ok, state = holds_everywhere(one_state_model, Atom("q"),
                                 SemanticsKind.DPAL)
    assert not ok and state == "s"
    ok, state = holds_everywhere(one_state_model, Atom("p"),
                                 SemanticsKind.DPAL)
    assert ok and state is None


def connected(m, s):
    return set().union(*(m.successors(a, s) for a in range(m.agents)))
