"""Muddy-children generators, the bound experiments, and the 3-SAT reduction."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from depthlogic import muddy
from depthlogic.model import model_size, validate
from depthlogic.muddy import (
    ThreeSatInstance,
    all_small_instances,
    build_muddy,
    canonical_depths,
    constant_depths,
    lower_bound_check,
    lower_bound_conclusion,
    lower_bound_sweep,
    phi_k,
    proposition_matrix,
    reduce_3sat,
    reduction_decide,
    truth_table_sat,
    upper_bound_check,
    upper_bound_hypothesis,
)
from depthlogic.semantics import (SemanticsKind, announcement_steps, check,
                                  check_naive)
from depthlogic.syntax import announcement_chain, modal_depth, parse, to_text

ALL_KINDS = (SemanticsKind.DPAL, SemanticsKind.EDPAL, SemanticsKind.ADPAL)


def _reduction_steps(inst):
    """The DPAL models along the reduction's announcement chain."""
    m, f = reduce_3sat(inst)
    return announcement_steps(m, announcement_chain(f), SemanticsKind.DPAL)


class TestBuild:
    def test_two_children_shape(self):
        inst = build_muddy(2, 2, canonical_depths(2))
        m = inst.model
        assert set(m.states) == {"10", "01", "11"}
        assert inst.initial == "11"
        # agent relations flip one coordinate ("00" is excluded)
        assert m.successors(0, "11") == {"11", "01"}
        assert m.successors(1, "11") == {"11", "10"}
        # "10" flipped at coordinate 0 would be "00", which is excluded
        assert m.successors(0, "10") == {"10"}

    def test_state_count_and_validation(self):
        for n in (2, 3, 4):
            inst = build_muddy(n, n, canonical_depths(n))
            assert len(inst.model.states) == 2 ** n - 1
            assert validate(inst.model, "equivalence") is None

    def test_atoms_follow_coordinates(self):
        inst = build_muddy(3, 2, canonical_depths(2))
        assert inst.initial == "110"
        assert inst.model.atoms("110") == frozenset({"m0", "m1"})
        assert inst.model.atoms("001") == frozenset({"m2"})

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            build_muddy(2, 3, canonical_depths(3))
        with pytest.raises(ValueError):
            build_muddy(2, 0, canonical_depths(1))

    def test_unambiguous_for_constant_depths(self):
        from depthlogic.model import is_unambiguous

        inst = build_muddy(3, 3, constant_depths([2, 1, 0]))
        assert is_unambiguous(inst.model)


class TestPhiK:
    def test_k1(self):
        assert phi_k(1) == parse("K[0] m0")

    def test_k2(self):
        assert phi_k(2) == parse("<!(K[1] m1)> K[0] m0")

    def test_depth(self):
        for k in (1, 2, 3, 4):
            assert modal_depth(phi_k(k)) == k


class TestUpperBound:
    def test_hypothesis_shape_k2(self):
        assert upper_bound_hypothesis(2) == parse("K[0](P[0,1] & K[1] P[1,0])")

    def test_implication_all_semantics(self):
        for k in (2, 3, 4):
            for kind in ALL_KINDS:
                assert upper_bound_check(k, kind)

    def test_vacuous_when_hypothesis_false(self):
        # demoting child 0 below k-1 falsifies the hypothesis, so the
        # implication still holds
        k = 3
        demoted = constant_depths([k - 2, k - 2, 0])
        inst = build_muddy(k, k, demoted)
        assert not check(inst.model, inst.initial, upper_bound_hypothesis(k),
                         SemanticsKind.DPAL)
        assert upper_bound_check(k, SemanticsKind.DPAL, demoted)


class TestLowerBound:
    def test_shallow_child_never_learns(self):
        inst = build_muddy(2, 2, constant_depths([0, 0]))
        assert not check(inst.model, "11", phi_k(2), SemanticsKind.DPAL)

    def test_deep_everywhere_holds(self):
        assert lower_bound_check(3, constant_depths([2, 2, 2]))

    def test_conclusion_is_guarded_knowledge(self):
        f = lower_bound_conclusion(2)
        assert to_text(f).startswith("K[0]")
        assert modal_depth(f) >= 1

    def test_sweep_k2_k3(self):
        for k in (2, 3):
            report = lower_bound_sweep(k, max_depth=3)
            assert report.cases == 4 ** k
            assert report.violations == 0


class TestPropositionMatrix:
    def test_matrix(self):
        matrix = proposition_matrix()
        assert matrix["DPAL"] == {"amnesia": False, "leakage": False}
        assert matrix["EDPAL"] == {"amnesia": True, "leakage": False}
        assert matrix["ADPAL"] == {"amnesia": False, "leakage": True,
                                   "leakage_shallow": False}


class TestReduction:
    def test_unsat_padding(self):
        inst = ThreeSatInstance(1, ((1, 1, 1), (-1, -1, -1)))
        assert not truth_table_sat(inst)
        assert not reduction_decide(inst)

    def test_satisfiable_single_clause(self):
        inst = ThreeSatInstance(2, ((1, -2, 2),))
        assert truth_table_sat(inst)
        assert reduction_decide(inst)

    def test_model_shape(self):
        inst = ThreeSatInstance(3, ((1, 2, 3),))
        m, f = reduce_3sat(inst)
        assert len(m.states) == 1
        assert m.agents == 5
        s = next(iter(m.states))
        assert m.depth(0, s) == 0
        assert [m.depth(i, s) for i in (1, 2, 3)] == [4, 5, 6]
        assert m.depth(4, s) == 5 * 9

    def test_final_model_covers_all_zero_nonzero_combinations(self):
        n = 3
        inst = ThreeSatInstance(n, ((1, 2, 3),))
        final, _ = _reduction_steps(inst)[-1]
        assert validate(final, "equivalence") is None
        # the n depth-only announcements split the single state into 2^n
        # copies covering every zero/nonzero combination for agents 1..n
        assert len(final.states) == 2 ** n
        profiles = {
            tuple(final.depth(i, s) > 0 for i in range(1, n + 1))
            for s in final.states
        }
        assert len(profiles) == 2 ** n

    def test_growth_bounded_along_steps(self):
        inst = ThreeSatInstance(3, ((1, -2, 3), (-1, 2, -3)))
        sizes = [model_size(m) for m, _ in _reduction_steps(inst)]
        for before, after in zip(sizes, sizes[1:]):
            assert after <= 4 * before

    def test_agrees_with_truth_table_sample(self):
        rng = random.Random(97)
        pool = list(itertools.islice(all_small_instances(3, 4), 0, None, 617))
        rng.shuffle(pool)
        for inst in pool[:200]:
            assert reduction_decide(inst) == truth_table_sat(inst)

    def test_shortcut_agrees_with_full_formula(self):
        # round-robin over n, so a per-n table read under another n shows
        rng = random.Random(7)
        seen = {n: set() for n in (1, 2, 3)}
        for _ in range(200):
            for n in (1, 2, 3):
                lits = [v * sign for v in range(1, n + 1) for sign in (1, -1)]
                clauses = tuple(tuple(rng.choice(lits) for _ in range(3))
                                for _ in range(rng.randint(1, 8)))
                inst = ThreeSatInstance(n, clauses)
                m, f = reduce_3sat(inst)
                want = truth_table_sat(inst)
                assert reduction_decide(inst) == want, inst
                assert check(m, "s", f, SemanticsKind.DPAL) == want, inst
                assert check_naive(m, "s", f, SemanticsKind.DPAL) == want, inst
                seen[n].add(want)
        assert all(verdicts == {False, True} for verdicts in seen.values())

    def test_clause_table_stays_within_its_bound(self, monkeypatch):
        # every ordered clause, so unsorted ones and repeated literals too,
        # each decided twice: the bound leaves no room for a second key
        monkeypatch.setattr(muddy, "_FINAL_CACHE", {})
        for n in (1, 2, 3):
            lits = [v * sign for v in range(1, n + 1) for sign in (1, -1)]
            clauses = list(itertools.product(lits, repeat=3))
            for _ in range(2):
                for cl in clauses:
                    inst = ThreeSatInstance(n, (cl, cl[::-1]))
                    assert reduction_decide(inst) == truth_table_sat(inst)
                assert len(muddy._FINAL_CACHE[n][-1]) <= (2 * n) ** 3

    @pytest.mark.parametrize("n,clause", [
        (3, (1, 2, 0)), (3, (1, 2, 4)), (3, (-4, 1, 1)), (1, (1, 2, 1)),
        (2, (1, 2)), (2, (1, 2, -2, 1)), (0, (1, 1, 1)), (3, [1, 2, 3])])
    def test_bad_clause_is_refused(self, n, clause):
        for _ in range(2):   # the second time with n's literals cached
            with pytest.raises(ValueError,
                               match=re.escape(f"bad clause {clause!r}")):
                ThreeSatInstance(n, (clause,))


def test_all_small_instances_count():
    # 3 variables -> 6 literals -> 56 unordered clause shapes; instances are
    # the nonempty clause subsets of size <= 4
    import math

    want = sum(math.comb(56, c) for c in range(1, 5))
    got = sum(1 for _ in all_small_instances(3, 4))
    assert got == want
