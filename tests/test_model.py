"""Model construction, validation, unambiguity, components, serialization."""

from __future__ import annotations

import json
import random
import warnings

import pytest

from depthlogic.model import (
    REFLEXIVE,
    Model,
    ModelError,
    PointedModel,
    bits_of,
    canonical_json,
    is_unambiguous,
    load_model,
    loads_model,
    model_from_dict,
    model_size,
    pair_walk,
    save_model,
    to_dict,
    validate,
)
from depthlogic.muddy import build_muddy, canonical_depths, phi_k
from depthlogic.props import RandomSpec, random_model
from depthlogic.semantics import (SemanticsKind, check_naive, dpal_copy,
                                  update_adpal, update_dpal, update_edpal)
from depthlogic.syntax import Announce, Atom, Know, walk


def chain_doc(mode="equivalence", close=True) -> dict:
    """The file document of one agent's symmetric chain a~b~c, closed to
    one class or not."""
    pairs = [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]]
    if close:
        pairs += [["a", "c"], ["c", "a"]]
    return {"agents": 1, "mode": mode, "states": ["a", "b", "c"],
            "val": {"a": ["p"], "b": [], "c": []}, "rel": {"0": pairs},
            "depth": {"0": {"a": 0, "b": 0, "c": 0}}}


def chain_model(mode="equivalence", close=True):
    return model_from_dict(chain_doc(mode, close))


class TestValidate:
    def test_identity_relations_ok(self):
        m = Model(agents=2, states=["s", "t"], val={"s": [], "t": []},
                  depth={0: {"s": 1, "t": 2}, 1: {"s": 0, "t": 0}})
        assert validate(m, "equivalence") is None

    def test_symmetry_violation_witness(self):
        m = Model(agents=1, states=["s", "t"], val={"s": [], "t": []},
                  successors={0: {"s": {"s", "t"}, "t": {"t"}}},
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
                class_ids={a: m.class_ids(a) for a in range(m.agents)},
                depth={a: {ren[s]: m.depth(a, s) for s in m.states}
                       for a in range(m.agents)},
                mode=m.mode,
            )
            assert is_unambiguous(m) == is_unambiguous(m2)


class TestConnectedComponent:
    def test_identity(self):
        m = chain_model()
        m_id = Model(agents=1, states=["s"], val={"s": []})
        assert m_id.successors(0, "s") == {"s"}
        assert m.successors(0, "a") == {"a", "b", "c"}

    def test_complete_relation(self):
        states = ["w", "x", "y", "z"]
        pairs = [[s, t] for s in states for t in states if s != t]
        m = model_from_dict({"agents": 1, "states": states,
                             "rel": {"0": pairs}})
        assert m.successors(0, "x") == set(states)

    def test_muddy_flip(self):
        inst = build_muddy(3, 3, canonical_depths(3))
        assert inst.model.successors(0, "111") == {"111", "011"}

    def test_unknown_state(self):
        with pytest.raises(ModelError):
            PointedModel(chain_model(), "zzz")

    def test_partition_in_equivalence_mode(self):
        rng = random.Random(9)
        spec = RandomSpec()
        for _ in range(30):
            m = random_model(rng, spec)
            for a in range(m.agents):
                seen: dict[str, frozenset] = {}
                for s in m.states:
                    comp = m.successors(a, s)
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

    def test_restrict_keeps_classes_and_takes_depths(self):
        m = chain_model().restrict([0, 2], {0: [3, 3]})
        assert m.states == ("a", "c")
        assert m.classes(0) == (frozenset({"a", "c"}),)
        assert m.depth(0, "c") == 3 and m.atoms("a") == {"p"}


class TestSuccessorSets:
    def test_sets_give_pairs_classes_and_file_form(self):
        m = Model(agents=1, states=["a", "b", "c"], val={}, mode="reflexive",
                  successors={0: {"a": {"a", "b"}, "b": {"b"},
                                  "c": {"b", "c"}}})
        assert m.successors(0, "c") == {"b", "c"}
        assert m.pairs(0) == {("a", "b"), ("c", "b")}
        assert m.classes(0) == (frozenset({"a", "b", "c"}),)
        by_pairs = model_from_dict({
            "agents": 1, "mode": "reflexive", "states": ["a", "b", "c"],
            "rel": {"0": [["a", "b"], ["c", "b"]]}})
        assert canonical_json(m) == canonical_json(by_pairs)
        assert model_size(m) == model_size(by_pairs) == 3 + 5

    @pytest.mark.parametrize("successors,mode", [
        ({0: {"a": {"b"}, "b": {"b"}}}, "reflexive"),       # a lacks itself
        ({0: {"a": {"a", "z"}, "b": {"b"}}}, "reflexive"),  # unknown state
        ({0: {"a": {"a"}}}, "reflexive"),                   # b has no set
        ({}, "reflexive"),                                  # agent 0 missing
        ({0: {"a": {"a"}, "b": {"b"}}, 1: {}}, "reflexive"),
        ({0: {"a": {"a"}, "b": {"b"}}}, "equivalence"),
    ])
    def test_rejects_bad_maps(self, successors, mode):
        with pytest.raises(ModelError):
            Model(agents=1, states=["a", "b"], val={}, mode=mode,
                  successors=successors)

    def test_restrict_drops_edges_to_removed_states(self, three_world_model):
        m = three_world_model.restrict([0, 1])
        assert m.mode == "reflexive" and m.states == ("0", "1")
        assert m.pairs(1) == {("0", "1"), ("1", "0")}
        assert m.successors(1, "1") == {"0", "1"}
        assert m.depth(1, "1") == 2


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
        assert m.successors(0, "a") == {"a", "b", "c"}

    def test_open_agents_warn_with_their_first_violation(self):
        # agent 0 lacks (b, a), agent 1 lacks (a, c), agent 2 is closed
        data = {"agents": 3, "states": ["a", "b", "c"],
                "rel": {"0": [["a", "b"]],
                        "1": [["a", "b"], ["b", "a"], ["b", "c"],
                              ["c", "b"]],
                        "2": [["b", "c"], ["c", "b"]]}}
        with pytest.warns(UserWarning) as caught:
            m = model_from_dict(data)
        assert [str(w.message) for w in caught] == [
            "agent 0 relation was not closed (symmetry fails at ('a', "
            "'b')); applying symmetric transitive closure",
            "agent 1 relation was not closed (transitivity fails at ('a', "
            "'c')); applying symmetric transitive closure"]
        assert m.classes(0) == (frozenset("ab"), frozenset("c"))
        assert m.classes(1) == (frozenset("abc"),)
        assert m.classes(2) == (frozenset("a"), frozenset("bc"))
        assert m.pairs(1) == {(s, t) for s in "abc" for t in "abc" if s != t}

    def test_loop_and_repeated_pairs_load_as_the_plain_pairs(self):
        plain = chain_doc()
        noisy = chain_doc()
        noisy["rel"]["0"] = ([["a", "a"]] + plain["rel"]["0"]
                             + [["b", "a"], ["c", "c"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = model_from_dict(noisy)
        assert canonical_json(m) == canonical_json(model_from_dict(plain))
        assert to_dict(m)["rel"]["0"] == [["a", "b"], ["a", "c"], ["b", "a"],
                                          ["b", "c"], ["c", "a"], ["c", "b"]]

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

    # each field must have its JSON type; the in-memory sequence form of
    # depths is not a file form
    @pytest.mark.parametrize("key,value", [
        ("val", [["p"], [], []]),
        ("rel", [[["a", "b"]]]),
        ("depth", [{"a": 0}]),
        ("depth", {"0": [1, 1, 1]}),
        ("rel", {"0": {"a": "b"}}),
        ("val", {"a": {"p": True}}),
    ])
    def test_array_or_object_in_the_wrong_place_rejected(self, key, value):
        data = to_dict(chain_model())
        data[key] = value
        with pytest.raises(ModelError, match="malformed model document"):
            model_from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("states", "abc"),
        ("val", {"a": "pq"}),
        ("val", {"a": [1]}),
        ("rel", {"0": ["ab"]}),
        ("rel", {"0": [["a", "b", "c"]]}),
        ("rel", {"0": [[["a"], "b"]]}),
        ("depth", {"0": {"a": 1.7}}),
        ("depth", {"0": {"a": True}}),
        ("depth", {"0": {"a": "3"}}),
        ("agents", 1.5),
        ("agents", True),
        ("agents", "1"),
    ])
    def test_values_of_the_wrong_type_rejected(self, key, value):
        data = to_dict(chain_model())
        data[key] = value
        with pytest.raises(ModelError, match="malformed model document"):
            model_from_dict(data)

    def test_document_that_is_not_an_object_rejected(self):
        with pytest.raises(ModelError, match="malformed model document"):
            loads_model("[1, 2]")


class TestDepthsByIndex:
    """Depths given by state name are stored in state order, and every
    update keeps each copy's depth bound to the state it came from."""

    @pytest.fixture
    def shuffled(self):
        # key order differs from the state order, and "b" is left out
        return Model(agents=2, states=["a", "b", "c", "d"],
                     val={"a": ["p"], "c": ["p"]},
                     class_ids={0: [0, 0, 1, 1], 1: [0, 1, 0, 1]},
                     depth={0: {"d": 3, "c": 2, "a": 1}, 1: {"c": 5}})

    def test_map_in_any_order_with_missing_states_at_zero(self, shuffled):
        assert shuffled.depths(0) == (1, 0, 2, 3)
        assert shuffled.depths(1) == (0, 0, 5, 0)
        assert shuffled.depths(0) is shuffled.depths(0)
        assert [shuffled.depth(0, s) for s in "abcd"] == [1, 0, 2, 3]
        assert to_dict(shuffled)["depth"]["0"] == {"a": 1, "b": 0, "c": 2,
                                                   "d": 3}

    def test_sequence_form_is_the_same_model(self, shuffled):
        by_index = Model(agents=2, states=["a", "b", "c", "d"],
                         val={"a": ["p"], "c": ["p"]},
                         class_ids={0: [0, 0, 1, 1], 1: [0, 1, 0, 1]},
                         depth={0: [1, 0, 2, 3], 1: (0, 0, 5, 0)})
        assert canonical_json(by_index) == canonical_json(shuffled)

    @pytest.mark.parametrize("column", [[1, 2, 3], [1, 2, 3, 4, 5], []])
    def test_sequence_of_wrong_length_rejected(self, column):
        with pytest.raises(ModelError):
            Model(agents=1, states=["a", "b", "c", "d"], val={},
                  depth={0: column})

    def test_restrict_binds_depths_to_kept_states(self, shuffled):
        m = shuffled.restrict([3, 0])
        assert m.states == ("d", "a")
        assert [m.depth(0, s) for s in m.states] == [3, 1]
        assert [m.depth(1, s) for s in m.states] == [0, 0]
        m = shuffled.restrict([2, 1], {0: [7, 8], 1: (9, 6)})
        assert (m.depth(0, "c"), m.depth(0, "b")) == (7, 8)
        assert (m.depth(1, "c"), m.depth(1, "b")) == (9, 6)

    def test_updates_bind_depths_to_copies(self, shuffled):
        announced = Know(1, Atom("p"))   # modal depth 1, true at a and c
        truth = {s: check_naive(shuffled, s, announced, SemanticsKind.DPAL)
                 for s in shuffled.states}
        assert [s for s in shuffled.states if truth[s]] == ["a", "c"]

        def heard(d):
            return d - 1 if d >= 1 else d

        dpal = update_dpal(shuffled, announced)
        edpal = update_edpal(shuffled, announced)
        adpal = update_adpal(shuffled, announced)
        assert edpal.states == ("a", "c")
        for a in range(2):
            for s in shuffled.states:
                d = shuffled.depth(a, s)
                assert dpal.depth(a, dpal_copy(s, False)) == d
                assert adpal.depth(a, s) == heard(d)
                if truth[s]:
                    assert dpal.depth(a, dpal_copy(s, True)) == heard(d)
                    assert edpal.depth(a, s) == d - 1


class TestRestrictRefuses:
    @pytest.mark.parametrize("keep", [[5], [3], [0, 4]])
    def test_index_past_the_end(self, keep):
        with pytest.raises(ModelError, match="no state at index"):
            chain_model().restrict(keep)

    @pytest.mark.parametrize("keep", [[-1], [0, -3]])
    def test_negative_index(self, keep):
        with pytest.raises(ModelError, match="no state at index -"):
            chain_model().restrict(keep)

    @pytest.mark.parametrize("keep", [[0, 0], [2, 1, 2]])
    def test_repeated_index(self, keep):
        with pytest.raises(ModelError, match="twice"):
            chain_model().restrict(keep)

    def test_reflexive_mode_too(self, three_world_model):
        for keep in ([3], [-1], [1, 1]):
            with pytest.raises(ModelError):
                three_world_model.restrict(keep)

    @pytest.mark.parametrize("depth", [{0: [1]}, {0: (1, 2, 3)}])
    def test_depth_of_wrong_length(self, depth):
        with pytest.raises(ModelError, match="one depth per state"):
            chain_model().restrict([0, 2], depth)

    @pytest.mark.parametrize("depth", [{1: [0, 0]}, {-1: [0, 0]}])
    def test_depth_for_unknown_agent(self, depth):
        with pytest.raises(ModelError, match="unknown agent"):
            chain_model().restrict([0, 2], depth)

    def test_depth_for_unknown_state(self):
        with pytest.raises(ModelError, match="unknown state 'b'"):
            chain_model().restrict([0, 2], {0: {"a": 1, "b": 2}})


def stdlib_json(m: Model) -> str:
    """The file text as the standard library's encoder writes it."""
    return json.dumps(to_dict(m), sort_keys=True, indent=2) + "\n"


def random_reflexive(rng: random.Random, agents: int, n: int) -> Model:
    states = [f"r{i}" for i in range(n)]
    succ = {a: {s: {s} | {t for t in states if rng.random() < 0.3}
                for s in states} for a in range(agents)}
    depth = {a: [rng.randint(0, 3) for _ in states] for a in range(agents)}
    val = {s: {p for p in ("p", "q") if rng.randrange(2)} for s in states}
    return Model(agents, states, val, depth, REFLEXIVE, successors=succ)


class TestStreamingWriter:
    """``canonical_json`` and ``save_model`` lay the file out by hand; both
    must match the standard library's indented, sorted encoding, and the
    pairs they list must be ``Model.pairs`` in state-index order."""

    def assert_written_as_stdlib(self, m: Model, path) -> None:
        expected = stdlib_json(m)
        assert canonical_json(m) == expected
        save_model(m, str(path))
        assert path.read_bytes() == expected.encode("utf-8")
        for a in range(m.agents):
            walked = [(m.states[i], m.states[j])
                      for i, js in enumerate(pair_walk(m, a)) for j in js]
            assert walked == sorted(m.pairs(a), key=lambda p: (
                m.state_index(p[0]), m.state_index(p[1])))

    def test_random_models_in_both_modes(self, tmp_path):
        rng = random.Random(5)
        for _ in range(40):
            spec = RandomSpec(agents=rng.randint(1, 4), max_states=7)
            self.assert_written_as_stdlib(random_model(rng, spec),
                                          tmp_path / "eq.json")
            self.assert_written_as_stdlib(
                random_reflexive(rng, rng.randint(1, 4), rng.randint(1, 7)),
                tmp_path / "refl.json")

    def test_twelve_agents_sort_as_strings(self, tmp_path):
        states = ["a", "b", "c"]
        m = Model(12, states, {"a": ["p"]},
                  {a: [a, a + 1, 0] for a in range(12)},
                  class_ids={a: [0, a % 2, 1] for a in range(12)})
        text = canonical_json(m)
        assert text.index('"10": ') < text.index('"2": ')
        self.assert_written_as_stdlib(m, tmp_path / "m.json")

    def test_agent_without_pairs_and_states_without_atoms(self, tmp_path):
        m = Model(2, ["x", "y"], {}, class_ids={1: [0, 0]})
        assert to_dict(m)["rel"]["0"] == []
        assert to_dict(m)["val"] == {"x": [], "y": []}
        self.assert_written_as_stdlib(m, tmp_path / "m.json")
        refl = Model(1, ["x"], {}, mode=REFLEXIVE)
        self.assert_written_as_stdlib(refl, tmp_path / "r.json")
        self.assert_written_as_stdlib(Model(1, [], {}), tmp_path / "0.json")

    def test_negative_edpal_depths(self, tmp_path):
        m = build_muddy(3, 3, canonical_depths(3)).model
        for _ in range(3):
            everywhere = (1 << len(m.states)) - 1
            m = update_edpal(m, Know(0, Atom("true")), everywhere)
        assert min(map(min, map(m.depths, range(m.agents)))) < 0
        self.assert_written_as_stdlib(m, tmp_path / "m.json")

    def test_quotes_backslashes_and_non_ascii_names(self, tmp_path):
        names = ['a"b', "c\\d", "é", "☃\x01", "\U0001f600", "tab\tx"]
        m = Model(2, names, {s: [s, "p"] for s in names[::2]},
                  {0: [1, 2, 0, 1, 0, 3]},
                  class_ids={0: [0, 0, 1, 1, 2, 0], 1: [0, 1, 0, 1, 0, 1]})
        self.assert_written_as_stdlib(m, tmp_path / "m.json")
        assert load_model(str(tmp_path / "m.json")).states == m.states

    def test_every_model_of_the_dpal_phi_5_chain(self, tmp_path):
        m = build_muddy(5, 5, canonical_depths(5)).model
        chain = [m]
        for g in walk(phi_k(5)):
            if isinstance(g, Announce):
                chain.append(update_dpal(chain[-1], g.announced))
        assert len(chain) == 5
        for m in chain:
            self.assert_written_as_stdlib(m, tmp_path / "m.json")


def test_bits_of_lists_set_bits_in_order():
    rng = random.Random(9)
    for mask in [0, 1, 2, 5, 1 << 70] + [rng.getrandbits(200)
                                          for _ in range(20)]:
        assert list(bits_of(mask)) == [i for i in range(mask.bit_length())
                                       if mask >> i & 1]
