"""Axiom suites, the knowledge-preservation properties, and witnesses."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from depthlogic import props
from depthlogic.model import Model, canonical_json, validate
from depthlogic.props import (
    TABLE_DPAL_SOUND,
    TABLE_EDPAL,
    TABLE_T1,
    RandomSpec,
    amnesia_suite,
    edpal_kp_reverse_witness,
    find_composition_counterexample,
    kp_ta_instance,
    kp_ta_suite,
    kpp_depth_atom_witness,
    leakage_fixture,
    minimize,
    necessitation_probe,
    random_formula,
    random_model,
    soundness_suite,
)
from depthlogic.semantics import SemanticsKind, check, check_naive
from depthlogic.syntax import (
    TOP,
    Announce,
    Atom,
    DepthAtLeast,
    DepthExact,
    Know,
    KnowInf,
    to_text,
    walk,
)

SPEC = RandomSpec(seed=0)
SMOKE = dict(cases=60, models=12)


class TestRandomGeneration:
    def test_models_validate(self):
        rng = random.Random(0)
        for _ in range(500):
            assert validate(random_model(rng, SPEC), "equivalence") is None

    def test_single_state_spec(self):
        rng = random.Random(0)
        m = random_model(rng, RandomSpec(max_states=1))
        assert len(m.states) == 1

    def test_seed_determinism(self):
        m1 = random_model(random.Random(42), SPEC)
        m2 = random_model(random.Random(42), SPEC)
        from depthlogic.model import canonical_json

        assert canonical_json(m1) == canonical_json(m2)

    def test_draws_are_pinned(self):
        """The seeded suites, the benchmark's draws and the acceptance tests
        rest on these streams: a change to the generators that moves any
        draw (even one RNG call reordered) changes this digest."""
        spec = RandomSpec(max_size=10, agents=3, max_depth=4, max_states=6)
        h = hashlib.sha256()
        flags = itertools.product((False, True), (False, True),
                                  (False, True), (None, 0, 2))
        for seed, (announce, kinf, depth_atoms, agent) in enumerate(flags):
            rng = random.Random(seed)
            for _ in range(125):
                f = random_formula(rng, spec, announce=announce, kinf=kinf,
                                   depth_atoms=depth_atoms, agent=agent)
                h.update(to_text(f).encode() + b"\n")
        rng = random.Random(99)
        for unambiguous in (False, True) * 100:
            m = random_model(rng, spec, unambiguous)
            h.update(canonical_json(m).encode())
        assert h.hexdigest() == ("73592c631477e7e7abe33077985e5977"
                                 "90cd4fe3dc738858f3396a01ead870d2")

    def test_unambiguous_flag(self):
        from depthlogic.model import is_unambiguous

        rng = random.Random(1)
        for _ in range(100):
            assert is_unambiguous(random_model(rng, SPEC, unambiguous=True))

    def test_formula_flags_respected(self):
        rng = random.Random(2)
        for _ in range(300):
            f = random_formula(rng, SPEC, agent=0, depth_atoms=False)
            for node in walk(f):
                assert not isinstance(node, (DepthExact, DepthAtLeast))
                assert not isinstance(node, Announce)
                assert not isinstance(node, KnowInf)
                if isinstance(node, Know):
                    assert node.agent == 0


class TestSoundnessSuites:
    def test_t1_dbel_clean(self):
        r = soundness_suite(TABLE_T1, SemanticsKind.DBEL, SPEC, **SMOKE)
        assert r.violations == []
        assert r.checks > 0

    def test_edpal_table_clean(self):
        r = soundness_suite(TABLE_EDPAL, SemanticsKind.EDPAL, SPEC, **SMOKE)
        assert r.violations == []

    def test_dpal_replacement_table_clean(self):
        r = soundness_suite(TABLE_DPAL_SOUND, SemanticsKind.DPAL, SPEC,
                            **SMOKE)
        assert r.violations == []

    def test_deterministic_per_seed(self):
        a = soundness_suite(TABLE_T1, SemanticsKind.DBEL, SPEC, cases=30,
                            models=6)
        b = soundness_suite(TABLE_T1, SemanticsKind.DBEL, SPEC, cases=30,
                            models=6)
        assert (a.cases, a.checks, len(a.violations)) == \
            (b.cases, b.checks, len(b.violations))


class TestKpTa:
    def test_dpal_all_variants_clean(self):
        for variant in ("KP", "TA", "KPp", "TAp"):
            r = kp_ta_suite(SemanticsKind.DPAL, variant, SPEC, cases=80)
            assert r.violations == [], variant

    def test_edpal_ta_and_kp_forward_clean(self):
        assert kp_ta_suite(SemanticsKind.EDPAL, "TA", SPEC,
                           cases=80).violations == []
        assert kp_ta_suite(SemanticsKind.EDPAL, "KP", SPEC, cases=80,
                           direction="forward").violations == []

    def test_edpal_kp_reverse_fails(self):
        r = kp_ta_suite(SemanticsKind.EDPAL, "KP", SPEC, cases=400,
                        direction="reverse", max_violations=1)
        assert len(r.violations) >= 1

    def test_edpal_kp_reverse_top_witness(self):
        m, s, f = edpal_kp_reverse_witness()
        assert m.depth(0, s) == 0
        assert not check(m, s, f, SemanticsKind.EDPAL)

    def test_adpal_kpp_forward_fails_on_fixture(self):
        m, s, phi, psi, a = leakage_fixture()
        inst = kp_ta_instance("KPp", a, phi, psi, direction="forward")
        assert not check(m, s, inst, SemanticsKind.ADPAL)
        # while the world-duplicating semantics verifies the same instance
        # everywhere on equivalence models (see the suites above)

    def test_kpp_reverse_breaks_with_depth_atoms_in_psi(self):
        # guarded preservation does not survive raw depth atoms inside the
        # known formula: announcing lowers the agent's depth in the updated
        # model while the guard transform maps depth atoms to top
        m, s, f = kpp_depth_atom_witness()
        assert not check_naive(m, s, f, SemanticsKind.DPAL)


class TestAmnesia:
    def test_edpal_valid(self):
        assert amnesia_suite(SPEC, cases=100).violations == []

    def test_dpal_counterexample_found(self):
        r = amnesia_suite(RandomSpec(seed=0, max_states=3), cases=300,
                          kind=SemanticsKind.DPAL, max_violations=1)
        assert len(r.violations) >= 1
        v = r.violations[0]
        assert len(v.model.states) <= 3
        assert not check_naive(v.model, v.state, v.formula,
                               SemanticsKind.DPAL)


class TestComposition:
    def test_search_finds_counterexample(self):
        res = find_composition_counterexample(RandomSpec(seed=3,
                                                         max_states=3))
        assert res is not None
        m, s, f = res
        assert not check_naive(m, s, f, SemanticsKind.DPAL)
        assert len(m.states) <= 3

    @pytest.mark.parametrize("seed", [4, 33, 36, 39])
    def test_search_returns_the_formula_its_model_was_shrunk_for(self, seed):
        # at these seeds the unshrunk instance holds on the shrunk model
        m, s, f = find_composition_counterexample(
            RandomSpec(seed=seed, max_states=3))
        assert not check_naive(m, s, f, SemanticsKind.DPAL)
        assert len(m.states) <= 3

    def test_search_surfaces_a_checker_disagreement(self, monkeypatch):
        # a labeling/oracle disagreement must stop the search, not be
        # skipped; at seed 16 labeling finds a failure within 50 draws
        monkeypatch.setattr(props, "check_naive", lambda *args: True)
        with pytest.raises(AssertionError, match="disagreement"):
            find_composition_counterexample(RandomSpec(seed=16, max_states=3),
                                            attempts=50)

    def test_frozen_fixture_still_fails(self, composition_fixture):
        from depthlogic.syntax import parse

        m, s, text = composition_fixture
        assert not check(m, s, parse(text), SemanticsKind.DPAL)

    def test_composition_valid_in_edpal(self):
        from depthlogic.props import composition_instance
        from depthlogic.semantics import holds_everywhere

        rng = random.Random(83)
        for _ in range(100):
            m = random_model(rng, SPEC)
            phi = random_formula(rng, SPEC, rng.randint(1, 4), announce=True)
            psi = random_formula(rng, SPEC, rng.randint(1, 4), announce=True)
            chi = random_formula(rng, SPEC, rng.randint(1, 4), announce=True)
            inst = composition_instance(phi, psi, chi)
            ok, _ = holds_everywhere(m, inst, SemanticsKind.EDPAL)
            assert ok


def test_necessitation_probe_clean():
    r = necessitation_probe(SPEC, cases=15, pool_size=15)
    assert r.violations == []
    assert r.cases > 0


def test_violation_reports_recheck_against_naive_oracle():
    # a surfaced violation always still fails under the naive checker
    r = amnesia_suite(RandomSpec(seed=0, max_states=3), cases=300,
                      kind=SemanticsKind.DPAL, max_violations=3)
    for v in r.violations:
        assert not check_naive(v.model, v.state, v.formula,
                               SemanticsKind.DPAL)


def test_minimize_lets_a_checker_error_through(monkeypatch):
    # a checker bug must stop the suite, not quietly end the shrink
    m, s, f = kpp_depth_atom_witness()
    assert len(m.states) == 2 and not check_naive(m, s, f, SemanticsKind.DPAL)
    calls = itertools.count(1)

    def failing_second_call(*args):
        if next(calls) == 2:
            raise RuntimeError("checker bug")
        return check_naive(*args)

    monkeypatch.setattr(props, "check_naive", failing_second_call)
    with pytest.raises(RuntimeError, match="checker bug"):
        minimize(m, s, f, SemanticsKind.DPAL)


def test_run_minimizes_the_failing_member_in_the_middle_of_a_pool():
    # the first instance holds on the pool's first and last models and fails
    # at y on the middle one; the second holds on all three
    p = Atom("p")
    holds = Model(1, ["a", "b"], {"a": ["p"], "b": ["p"]})
    fails = Model(1, ["x", "y", "z"], {"x": ["p"], "z": ["p"]},
                  class_ids={0: [0, 0, 0]})
    pool = [holds, fails, Model(1, ["c"], {"c": ["p"]})]
    draws = iter([("first", p, pool), ("second", TOP, pool)])
    report = props._run(props.SuiteReport("pool", SemanticsKind.DPAL),
                        draws, max_violations=5)
    assert (report.cases, report.checks) == (2, 5)
    [v] = report.violations
    assert (v.schema, v.formula, v.state) == ("first", p, "y")
    assert canonical_json(v.model) == canonical_json(fails.restrict([1]))
