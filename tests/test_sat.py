"""Closure, depth-typed type rules, depth assignment, bounded SAT search."""

from __future__ import annotations

import random

import pytest

from depthlogic.props import RandomSpec, random_formula
from depthlogic.sat import (
    _estimate,
    assign_depths,
    closure,
    enumerate_models,
    is_type,
    sat_bruteforce,
    satisfies_literals,
)
from depthlogic.semantics import FragmentError, SemanticsKind, check
from depthlogic.syntax import (
    And,
    Atom,
    DepthAtLeast,
    DepthExact,
    Know,
    KnowInf,
    Not,
    subformulas,
    translate_edpal,
)

P, Q = Atom("p"), Atom("q")


def fragment_formula(rng, spec):
    """A random formula in the closure fragment (no K, no announcements)."""
    return translate_edpal(random_formula(rng, spec, kinf=True))


class TestClosure:
    def test_atom(self):
        cl = closure([P])
        assert set(cl.formulas) == {P, Not(P)}

    def test_kinf(self):
        cl = closure([KnowInf(0, P)])
        assert set(cl.formulas) == {KnowInf(0, P), Not(KnowInf(0, P)),
                                    P, Not(P)}

    def test_no_double_negations(self):
        cl = closure([Not(P)])
        assert set(cl.formulas) == {P, Not(P)}

    def test_size_bound(self):
        rng = random.Random(3)
        spec = RandomSpec()
        for _ in range(100):
            f = fragment_formula(rng, spec)
            cl = closure([f])
            assert len(cl.formulas) <= 2 * len(subformulas(f))

    def test_rejects_know_and_announce(self):
        with pytest.raises(FragmentError):
            closure([Know(0, P)])


def complete(cl, wanted):
    """Extend ``wanted`` literals to a maximal candidate over cl: for every
    unsigned member not mentioned, include its negation."""
    got = set(wanted)
    positive = {f for f in cl.formulas if not isinstance(f, Not)}
    for f in positive:
        if f not in got and Not(f) not in got:
            got.add(Not(f))
    return got


class TestIsType:
    def test_rule_4_exact_below_at_least(self):
        cl = closure([And(DepthAtLeast(0, 2), DepthExact(0, 1))])
        gamma = complete(cl, {DepthAtLeast(0, 2), DepthExact(0, 1),
                              And(DepthAtLeast(0, 2), DepthExact(0, 1))})
        v = is_type(gamma, cl)
        assert v is not None and v.rule == 4

    def test_rule_7_not_p_zero(self):
        cl = closure([DepthAtLeast(0, 0)])
        gamma = complete(cl, {Not(DepthAtLeast(0, 0))})
        v = is_type(gamma, cl)
        assert v is not None and v.rule == 7

    def test_rule_1_maximality_and_contradiction(self):
        cl = closure([And(P, Q)])
        v = is_type({P}, cl)  # not maximal
        assert v is not None and v.rule == 1
        v = is_type(complete(cl, {P, Not(P), Q, Not(And(P, Q))}), cl)
        assert v is not None and v.rule == 1

    def test_rule_2_conjunction(self):
        cl = closure([And(P, Q)])
        gamma = complete(cl, {P, Q, Not(And(P, Q))})
        v = is_type(gamma, cl)
        assert v is not None and v.rule == 2

    def test_rule_3_kinf_factive(self):
        cl = closure([KnowInf(0, P)])
        gamma = complete(cl, {KnowInf(0, P), Not(P)})
        v = is_type(gamma, cl)
        assert v is not None and v.rule == 3

    def test_consistent_propositional_type(self):
        cl = closure([P])
        assert is_type({P}, cl) is None
        assert is_type({Not(P)}, cl) is None


class TestAssignDepths:
    def test_exact_pins(self):
        cl = closure([DepthExact(0, 3)])
        gamma = {DepthExact(0, 3)}
        assert is_type(gamma, cl) is None
        assert assign_depths(gamma, cl)[0] == 3

    def test_at_least_skips_negated_exact(self):
        cl = closure([And(DepthAtLeast(0, 2), DepthExact(0, 2))])
        gamma = complete(cl, {DepthAtLeast(0, 2), Not(DepthExact(0, 2))})
        assert is_type(gamma, cl) is None
        assert assign_depths(gamma, cl)[0] == 3

    def test_no_depth_atoms_gives_zero(self):
        cl = closure([P])
        assert assign_depths({P}, cl) == {}

    def test_every_accepted_type_gets_consistent_depths(self):
        rng = random.Random(5)
        spec = RandomSpec(max_size=6)
        accepted = 0
        for _ in range(200):
            f = fragment_formula(rng, spec)
            cl = closure([f])
            members = list(cl.formulas)
            for _ in range(40):
                wanted = {g for g in members if rng.random() < 0.5}
                gamma = complete(cl, wanted)
                if is_type(gamma, cl) is None:
                    accepted += 1
                    depths = assign_depths(gamma, cl)
                    assert satisfies_literals(gamma, depths)
        assert accepted > 100


class TestSatBruteforce:
    def test_contradiction(self):
        assert sat_bruteforce(And(P, Not(P))) is None

    def test_depth_gate_forces_p(self):
        # K[a] gates on the depth of its argument: for an atom that gate is
        # P[a,0], so !P[a,0] makes it unsatisfiable while !P[a,1] does not
        assert sat_bruteforce(And(Know(0, P), Not(DepthAtLeast(0, 0))),
                              max_states=3) is None
        pm = sat_bruteforce(And(Know(0, P), Not(DepthAtLeast(0, 1))),
                            max_states=3)
        assert pm is not None and pm.model.depth(0, pm.state) == 0
        # a nested K needs depth >= 1
        assert sat_bruteforce(And(Know(0, Know(0, P)),
                                  Not(DepthAtLeast(0, 1))),
                              max_states=3) is None

    def test_exact_depth_with_nested_knowledge(self):
        f = And(DepthExact(0, 2), Know(0, Know(0, P)))
        pm = sat_bruteforce(f, max_states=3)
        assert pm is not None
        assert pm.model.depth(0, pm.state) == 2
        assert check(pm.model, pm.state, f, SemanticsKind.DPAL)

    def test_found_models_check_out(self):
        rng = random.Random(7)
        spec = RandomSpec(max_size=5, max_depth=2)
        found = 0
        for _ in range(60):
            f = random_formula(rng, spec, kinf=True)
            pm = sat_bruteforce(f, max_states=2)
            if pm is not None:
                found += 1
                assert check(pm.model, pm.state, f, SemanticsKind.DPAL)
        assert found > 10

    def test_found_point_induces_accepted_type(self):
        # the depth literals true at a satisfying point extend to a type the
        # rule checker accepts, and assign_depths reproduces consistent values
        rng = random.Random(11)
        spec = RandomSpec(max_size=5, max_depth=2)
        hits = 0
        for _ in range(80):
            f = fragment_formula(rng, spec)
            pm = sat_bruteforce(f, max_states=2)
            if pm is None:
                continue
            cl = closure([f])
            gamma = set()
            for g in cl.formulas:
                if isinstance(g, Not):
                    continue
                if check(pm.model, pm.state, g, SemanticsKind.DPAL):
                    gamma.add(g)
                else:
                    gamma.add(Not(g))
            if is_type(gamma, cl) is None:
                hits += 1
                assert satisfies_literals(gamma, assign_depths(gamma, cl))
        assert hits > 10


def test_enumerate_models_yields_valid_pointed_models():
    from depthlogic.model import validate

    count = 0
    for pm in enumerate_models(And(P, Know(0, Q)), max_states=2, max_depth=1):
        assert validate(pm.model, "equivalence") is None
        count += 1
        if count >= 50:
            break
    assert count == 50


@pytest.mark.parametrize("n,bell", [(7, 877), (8, 4140)])
def test_estimate_uses_exact_bell_number(n, bell):
    # one agent, no atoms, depth 0: the count is the number of partitions
    assert _estimate(n, 0, 1, 0) == bell


def test_limit_counts_all_partitions_of_seven_states():
    # no atoms, one agent, depth 0: 1 + 2 + 5 + 15 + 52 + 203 + 877 = 1155
    f = Atom("true")
    next(enumerate_models(f, max_states=7, max_depth=0, limit=1155))
    with pytest.raises(ValueError, match="bounds exceeded"):
        next(enumerate_models(f, max_states=7, max_depth=0, limit=1154))
