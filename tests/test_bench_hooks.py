"""The traced benchmark (``perfbench/spans.py``) wraps functions by looking
up ``owner.__dict__[attr]`` for each entry of its ``WRAPPED`` table; a name
removed or moved from there would make ``perfbench/run.py --trace 1`` fail
with a ``KeyError``, so each must stay where the table says."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_is_defined_where_it_is_looked_up(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans.WRAPPED
               if attr not in owner.__dict__]
    assert spans.WRAPPED
    assert missing == []
