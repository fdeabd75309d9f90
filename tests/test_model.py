"""Model construction, validation, unambiguity, components, serialization."""

from __future__ import annotations

import random

import pytest

from depthlogic.model import (
    Model,
    ModelError,
    canonical_json,
    connected_component,
    closed_pairs,
    is_unambiguous,
    load_model,
    loads_model,
    model_from_dict,
    model_size,
    save_model,
    to_dict,
    validate,
)
from depthlogic.muddy import build_muddy, canonical_depths
from depthlogic.props import RandomSpec, random_model


def chain_model(mode="equivalence", close=True):
    pairs = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    if close:
        pairs += [("a", "c"), ("c", "a")]
    return Model(
        agents=1,
        states=["a", "b", "c"],
        val={"a": ["p"], "b": [], "c": []},
        rel={0: pairs},
        depth={0: {"a": 0, "b": 0, "c": 0}},
        mode=mode,
    )


class TestValidate:
    def test_identity_relations_ok(self):
        m = Model(agents=2, states=["s", "t"], val={"s": [], "t": []},
                  rel={0: [], 1: []}, depth={0: {"s": 1, "t": 2},
                                             1: {"s": 0, "t": 0}})
        assert validate(m, "equivalence") is None

    def test_symmetry_violation_witness(self):
        m = Model(agents=1, states=["s", "t"], val={"s": [], "t": []},
                  rel={0: [("s", "t")]}, depth={0: {"s": 0, "t": 0}},
                  mode="reflexive")
        report = validate(m, "equivalence")
        assert report is not None
        assert report.property == "symmetry"
        assert report.witness == ("s", "t")

    def test_transitivity_violation_witness(self):
        m = chain_model(mode="reflexive", close=False)
        report = validate(m, "equivalence")
        assert report is not None
        assert report.property == "transitivity"

    def test_reflexive_mode_accepts_chain(self, three_world_model):
        assert validate(three_world_model, "reflexive") is None

    def test_adpal_updated_three_world_model_ok(self, three_world_model):
        from depthlogic.semantics import SemanticsKind, update
        from depthlogic.syntax import Atom, Know

        m2 = update(three_world_model, Know(2, Know(2, Atom("p0"))),
                    SemanticsKind.ADPAL)
        assert validate(m2, "reflexive") is None

    def test_default_mode_reports_open_relation(self):
        m = Model(agents=1, states=["s", "t"], val={"s": [], "t": []},
                  rel={0: [("s", "t")]}, depth={0: {"s": 0, "t": 0}})
        report = validate(m)
        assert report is not None and report.property == "symmetry"


class TestUnambiguous:
    def test_constant_depths(self):
        m = chain_model()
        assert is_unambiguous(m)

    def test_muddy_canonical(self):
        inst = build_muddy(3, 3, canonical_depths(3))
        assert is_unambiguous(inst.model)

    def test_three_world_model_ambiguous(self, three_world_model):
        # agent b has depths 0, 2, 0 across its connected chain
        assert not is_unambiguous(three_world_model)

    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        spec = RandomSpec()
        for _ in range(50):
            m = random_model(rng, spec)
            names = list(m.states)
            perm = names[:]
            rng.shuffle(perm)
            ren = dict(zip(names, perm))
            m2 = Model(
                agents=m.agents,
                states=[ren[s] for s in m.states],
                val={ren[s]: m.atoms(s) for s in m.states},
                rel={a: [(ren[s], ren[t]) for s, t in m.pairs(a)]
                     for a in range(m.agents)},
                depth={a: {ren[s]: m.depth(a, s) for s in m.states}
                       for a in range(m.agents)},
                mode=m.mode,
            )
            assert is_unambiguous(m) == is_unambiguous(m2)


class TestConnectedComponent:
    def test_identity(self):
        m = chain_model()
        m_id = Model(agents=1, states=["s"], val={"s": []}, rel={0: []},
                     depth={0: {"s": 0}})
        assert connected_component(m_id, "s", 0) == {"s"}
        assert connected_component(m, "a", 0) == {"a", "b", "c"}

    def test_complete_relation(self):
        states = ["w", "x", "y", "z"]
        pairs = [(s, t) for s in states for t in states if s != t]
        m = Model(agents=1, states=states, val={s: [] for s in states},
                  rel={0: pairs}, depth={0: {s: 0 for s in states}})
        assert connected_component(m, "x", 0) == set(states)

    def test_muddy_flip(self):
        inst = build_muddy(3, 3, canonical_depths(3))
        assert connected_component(inst.model, "111", 0) == {"111", "011"}

    def test_unknown_state(self):
        with pytest.raises(ModelError):
            connected_component(chain_model(), "zzz", 0)

    def test_partition_in_equivalence_mode(self):
        rng = random.Random(9)
        spec = RandomSpec()
        for _ in range(30):
            m = random_model(rng, spec)
            for a in range(m.agents):
                seen: dict[str, frozenset] = {}
                for s in m.states:
                    comp = connected_component(m, s, a)
                    assert s in comp
                    for t in comp:
                        assert seen.setdefault(t, comp) == comp


class TestClassIds:
    def test_ids_give_classes_successors_and_pairs(self):
        m = Model(agents=1, states=["a", "b", "c"], val={},
                  class_ids={0: ["x", "y", "x"]})
        assert m.class_ids(0) == (0, 1, 0)
        assert m.classes(0) == (frozenset({"a", "c"}), frozenset({"b"}))
        assert m.successors(0, "c") == {"a", "c"}
        assert m.pairs(0) == {("a", "c"), ("c", "a")}
        assert model_size(m) == 3 + 4 + 1

    def test_same_model_as_from_pairs(self):
        by_ids = Model(agents=1, states=["a", "b", "c"], val={"a": ["p"]},
                       depth={0: {"a": 0, "b": 0, "c": 0}},
                       class_ids={0: [0, 0, 0]})
        assert canonical_json(by_ids) == canonical_json(chain_model())

    def test_rejects_bad_columns(self):
        with pytest.raises(ModelError):
            Model(agents=1, states=["a", "b"], val={}, class_ids={0: [0]})
        with pytest.raises(ModelError):
            Model(agents=1, states=["a"], val={}, class_ids={1: [0]})
        with pytest.raises(ModelError):
            Model(agents=1, states=["a"], val={}, class_ids={0: [0]},
                  mode="reflexive")

    def test_unclosed_pairs_kept_as_given(self):
        m = chain_model(close=False)
        assert ("a", "c") not in m.pairs(0)
        assert m.classes(0) == (frozenset({"a", "b", "c"}),)

    def test_restrict_keeps_classes_and_takes_depths(self):
        m = chain_model().restrict({"a", "c"}, lambda a, s: 3)
        assert m.states == ("a", "c")
        assert m.classes(0) == (frozenset({"a", "c"}),)
        assert m.depth(0, "c") == 3 and m.atoms("a") == {"p"}


class TestSize:
    def test_counts_squared_pairs_per_class(self):
        # one class of size 3 plus 3 states: 3 + 3^2
        assert model_size(chain_model()) == 3 + 9

    def test_reflexive_counts_pairs_plus_loops(self, three_world_model):
        # states 3; agents a,c identity (3 loops each); b: 4 pairs + 3 loops
        assert model_size(three_world_model) == 3 + 3 + 7 + 3


class TestSerialization:
    def test_roundtrip_byte_exact(self, tmp_path):
        rng = random.Random(31)
        spec = RandomSpec()
        for i in range(20):
            m = random_model(rng, spec)
            path = tmp_path / f"m{i}.json"
            save_model(m, str(path))
            m2 = load_model(str(path))
            assert canonical_json(m2) == canonical_json(m)
            save_model(m2, str(path))
            assert load_model(str(path)).states == m.states

    def test_closure_applied_on_load_with_warning(self):
        text = canonical_json(chain_model(mode="reflexive", close=False))
        text = text.replace('"reflexive"', '"equivalence"')
        with pytest.warns(UserWarning):
            m = loads_model(text)
        assert validate(m, "equivalence") is None
        assert connected_component(m, "a", 0) == {"a", "b", "c"}

    def test_negative_depths_load(self):
        text = canonical_json(chain_model()).replace('"a": 0', '"a": -2')
        assert loads_model(text).depth(0, "a") == -2

    @pytest.mark.parametrize("depth", [{"0": {"zz": 1}}, {"1": {"a": 1}},
                                       {"-1": {"a": 1}}])
    def test_depth_entry_for_unknown_state_or_agent_rejected(self, depth):
        data = to_dict(chain_model())
        data["depth"] = depth
        with pytest.raises(ModelError):
            model_from_dict(data)

    def test_closed_pairs(self):
        assert closed_pairs([["a", "b"], ["c"]]) == {("a", "b"), ("b", "a")}
