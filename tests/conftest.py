"""Shared fixtures: small hand-built models used across the test modules."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from depthlogic.model import Model
from depthlogic.props import leakage_fixture

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def one_state_model() -> Model:
    return Model(
        agents=1,
        states=["s"],
        val={"s": ["p"]},
        depth={0: {"s": 0}},
    )


@pytest.fixture
def three_world_model() -> Model:
    """The reflexive three-world model where agent b's relation is the
    non-transitive chain 0~1~2 and b's depth varies across it."""
    m, _, _, _, _ = leakage_fixture()
    return m


@pytest.fixture
def composition_fixture() -> tuple[Model, str, str]:
    from depthlogic.model import load_model

    m = load_model(str(FIXTURES / "composition_model.json"))
    data = json.loads((FIXTURES / "composition_formulas.json").read_text())
    return m, data["state"], data["formula"]
