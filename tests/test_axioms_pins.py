"""Pins the ``axioms`` command's stdout and the text of minimized violations.

The digests were taken before the randomized searches in ``props`` shared
one runner; a change in draw order, check count, oracle re-check or
minimization changes them."""

from __future__ import annotations

import hashlib

import pytest

from depthlogic.cli import main
from depthlogic.props import RandomSpec, amnesia_suite
from depthlogic.semantics import SemanticsKind

STDOUT_SHA256 = {
    "T1": "d30bbe32232ee12dfa47bddf8da40be34ed9a563e56c929c4ea76b1c69c7dba9",
    "EDPAL_PA":
        "6d7ca03470e12f702a7afed3ef592902abb4ef505a7ef9cbad924511fa0410d6",
    "DPAL_SOUND":
        "fadf1fee636fef9547b68af5fd98dca0c3735595c6ce209fd69014e4f6eeb803",
}

KP_EDPAL_REVERSE_SHA256 = (
    "a30fdb915bd706bdcfe82439727d3136e54af0d3fff622144c8ef71a9e2cf317")

AMNESIA_DPAL = [
    "amnesia: !(!P[0,1] & ![[Kinf[0] p]!q]!K[0] (p & r)) fails at state s0",
    "amnesia: !(!P[0,1] & ![K[0] (p & !r)]!K[0] q) fails at state s1",
    "amnesia: !(!P[0,3] & ![Kinf[0] Kinf[0] (Kinf[0] (r & E[0,2]) & r)]"
    "!K[0] [r]Kinf[0] P[1,0]) fails at state s2",
]


def stdout_sha256(capsys, argv: list[str], code: int) -> str:
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("table", sorted(STDOUT_SHA256))
def test_table_stdout(capsys, table):
    argv = ["axioms", "--table", table, "--seed", "7", "--max-states", "8"]
    assert stdout_sha256(capsys, argv, 0) == STDOUT_SHA256[table]


def test_violating_property_stdout(capsys):
    # prints five minimized counterexamples and exits 1
    argv = ["axioms", "--property", "KP", "--semantics", "EDPAL",
            "--direction", "reverse", "--cases", "400"]
    assert stdout_sha256(capsys, argv, 1) == KP_EDPAL_REVERSE_SHA256


def test_amnesia_violation_text():
    r = amnesia_suite(RandomSpec(seed=0, max_states=3), cases=300,
                      kind=SemanticsKind.DPAL, max_violations=3)
    assert [v.describe() for v in r.violations] == AMNESIA_DPAL
