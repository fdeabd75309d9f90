"""``K`` read from partition blocks: on a small held equivalence model
``_known`` ORs the agent's classes, as masks, that miss the complement of
the label; on a larger one or a lazy update it reads the class ids.  Both
reads, and the successor masks built from the same blocks, must agree
everywhere."""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from depthlogic import muddy
from depthlogic.model import SMALL, Model, load_model, model_from_dict
from depthlogic.semantics import (SemanticsKind, _known, check_labeling,
                                  update_dpal, update_edpal)
from depthlogic.syntax import parse
from test_products import of_depth


@st.composite
def partitions(draw) -> Model:
    """An equivalence model on up to ``SMALL`` states with random classes
    and depths in -1..2 (so DPAL copies sometimes link)."""
    n = draw(st.integers(1, SMALL))
    agents = draw(st.integers(1, 2))
    column = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ids = {a: draw(column) for a in range(agents)}
    depth = {a: draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
             for a in range(agents)}
    return Model(agents, [f"s{i}" for i in range(n)], {}, depth,
                 class_ids=ids)


def known_both_ways(m: Model, a: int, sub: int) -> tuple[int, int]:
    """``_known`` from the blocks and from the class ids, on the same m."""
    answers = []
    for small in (True, False):
        with mock.patch.object(Model, "small", return_value=small):
            answers.append(_known(m, a, sub))
    return answers[0], answers[1]


def by_ids(m: Model, a: int) -> tuple[int, ...]:
    """Each state's class as a mask, read off the class ids one by one."""
    ids = m.class_ids(a)
    return tuple(sum(1 << j for j in range(m.n) if ids[j] == c) for c in ids)


@settings(max_examples=60, deadline=None)
@given(partitions(), st.data())
def test_blocks_answer_k_as_the_class_ids_do(m, data):
    pre = data.draw(st.integers(1, (1 << m.n) - 1))
    dphi = data.draw(st.integers(0, 2))
    for model in (m, update_dpal(m, of_depth(dphi), pre, dphi),
                  update_edpal(m, of_depth(dphi), pre, dphi)):
        for a in range(model.agents):
            for _ in range(4):
                sub = data.draw(st.integers(0, (1 << model.n) - 1))
                blocks, ids = known_both_ways(model, a, sub)
                assert blocks == ids, (a, sub)
            assert model.successor_masks(a) == by_ids(model, a)
            assert sorted(model._blocks_of(a).values()) == sorted(
                set(by_ids(model, a)))


def test_k_reads_blocks_only_on_small_held_models():
    m = Model(1, [f"s{i}" for i in range(SMALL + 1)], {})
    assert not m.small() and m.restrict(range(SMALL)).small()
    upd = update_edpal(m.restrict(range(4)), parse("p"), 0b0110, 0)
    assert upd._source is not None and not upd.small()


def test_labeling_builds_blocks_on_the_root_model_only():
    """Muddy labeling reads each lazy update about once per agent, too few
    reads to repay its blocks: only the held M_5 builds them."""
    model = muddy.build_muddy(5, 5, muddy.canonical_depths(5)).model
    upper = muddy.FORMULAS["upper"](5)
    built = []
    blocks = Model._blocks_of

    def spy(self, agent):
        built.append(self)
        return blocks(self, agent)

    for kind in (SemanticsKind.DPAL, SemanticsKind.EDPAL):
        with mock.patch.object(Model, "_blocks_of", spy):
            lab = check_labeling(model, upper, kind)
        assert lab.truth("11111")
        assert len(lab.runs) > 1 and built
        assert all(m is model for m in built), kind


def test_loaded_relation_answers_k(tmp_path):
    """``model_from_dict`` sets each agent's column after building the
    model with identity relations; ``K`` must read the loaded classes."""
    doc = {"agents": 2, "states": ["a", "b", "c"],
           "val": {"a": ["p"], "b": ["p"]},
           "rel": {"0": [["a", "b"], ["b", "a"]],
                   "1": [["b", "c"], ["c", "b"]]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    for m in (model_from_dict(doc), load_model(str(path))):
        assert m.small()
        assert list(m._blocks_of(0).values()) == [0b011, 0b100]
        assert list(m._blocks_of(1).values()) == [0b001, 0b110]
        assert _known(m, 0, 0b011) == 0b011   # {a, b} is agent 0's class
        assert _known(m, 1, 0b011) == 0b001   # b is linked to c for 1
        for text, want in (("K[0] p", 0b011), ("K[1] p", 0b001)):
            assert check_labeling(m, parse(text),
                                  SemanticsKind.DBEL).root_mask == want
