"""Formula AST, grammar round-trip, modal depth, and the syntactic transforms."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import depthlogic

from depthlogic.props import RandomSpec, random_formula, random_model
from depthlogic.semantics import SemanticsKind, check_naive
from depthlogic.syntax import (
    TOP,
    And,
    Announce,
    Atom,
    DepthAtLeast,
    DepthExact,
    Fragment,
    Know,
    KnowInf,
    Not,
    ParseError,
    announcement_chain,
    dual,
    f_transform,
    implies,
    in_fragment,
    max_depth_constant,
    modal_depth,
    or_,
    parse,
    size,
    to_text,
    translate_edpal,
)

P, Q = Atom("p"), Atom("q")


class TestParse:
    def test_know_atom(self):
        assert parse("K[0] m0") == Know(0, Atom("m0"))

    def test_dual_announcement_desugars(self):
        got = parse("<!(K[1] m1)> K[0] m0")
        want = Not(Announce(Not(Know(1, Atom("m1"))), Not(Know(0, Atom("m0")))))
        assert got == want
        assert got == dual(Not(Know(1, Atom("m1"))), Know(0, Atom("m0")))

    def test_depth_atoms(self):
        assert parse("P[2,3] & E[0,1]") == And(DepthAtLeast(2, 3), DepthExact(0, 1))

    def test_precedence(self):
        # ! > & > | > -> > <->
        assert parse("!p & q") == And(Not(P), Q)
        assert parse("p | q & r") == or_(P, And(Q, Atom("r")))
        assert parse("p -> q | r") == implies(P, or_(Q, Atom("r")))

    def test_announcement_brackets(self):
        assert parse("[p]q & r") == And(Announce(P, Q), Atom("r"))

    def test_top_bottom(self):
        assert check_trivially_true(parse("true"))
        assert parse("false") == Not(parse("true"))

    @pytest.mark.parametrize("text,message,line,column", [
        ("p & & q", "unexpected '&'", 1, 5),
        ("p &\n\tq\n\t\t& & r", "unexpected '&'", 3, 5),
        ("K[0]\n\t p @", "unexpected character '@'", 2, 5),
        ("p \u00e9", "unexpected character '\u00e9'", 1, 3),
        ("\n\n\tp)", "unexpected ')'", 3, 3),
        ("p q", "unexpected 'q'", 1, 3),
        ("p &", "unexpected 'end of input'", 1, 4),
        ("", "unexpected 'end of input'", 1, 1),
        ("K[0 p", "expected ']', found 'p'", 1, 5),
        ("K[p] q", "expected 'int', found 'p'", 1, 3),
        ("E[0 1]", "expected ',', found '1'", 1, 5),
        ("(p", "expected ')', found 'end of input'", 1, 3),
        ("<p] q", "expected '>', found ']'", 1, 3),
        ("P[0,\n  -3]", "negative numbers are not allowed (agent indices "
         "and depths start at 0)", 2, 3),
        # ASCII only: digits 0-9; space, tab, CR and LF between tokens
        ("K[\u0660] p", "unexpected character '\u0660'", 1, 3),
        ("P[0,-\u0663]", "unexpected character '-'", 1, 5),
        ("p\u00a0& q", "unexpected character '\\xa0'", 1, 2),
        ("p\f& q", "unexpected character '\\x0c'", 1, 2),
    ])
    def test_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (line {line}, column {column})"
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_nesting_accepted_at_the_default_recursion_limit(self):
        # called from the top level of a fresh interpreter, so the test
        # runner's own frames do not count against the limit
        code = ("from depthlogic.syntax import parse\n"
                "parse('(' * 164 + 'p' + ')' * 164)\n"
                "parse('!' * 987 + 'p')\n"
                "parse('p -> ' * 988 + 'p')\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(depthlogic.__file__)))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("template,digits,line,column", [
        ("K[{}] p", 5000, 1, 3), ("E[0,\n {}]", 4301, 2, 2)])
    def test_number_past_the_int_digit_limit_is_a_parse_error(
            self, template, digits, line, column):
        with pytest.raises(ParseError) as exc:
            parse(template.format("7" * digits))
        assert str(exc.value) == (f"number of {digits} digits is too long "
                                  f"(line {line}, column {column})")

    def test_negative_depth_rejected(self):
        with pytest.raises(ParseError):
            parse("P[0,-1]")
        with pytest.raises(ParseError):
            parse("E[0,-1]")

    @pytest.mark.parametrize("text,column", [
        ("K[-1] m0", 3), ("Kinf[-2] p", 6), ("P[-1,0]", 3), ("E[0,-1]", 5)])
    def test_negative_number_message_fits_agents_and_depths(self, text,
                                                            column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == (
            "negative numbers are not allowed (agent indices and depths "
            f"start at 0) (line 1, column {column})")

    def test_depth_at_least_requires_nonnegative(self):
        with pytest.raises(ValueError):
            DepthAtLeast(0, -1)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        spec = RandomSpec(max_size=40, agents=3, max_depth=4)
        for _ in range(1000):
            f = random_formula(rng, spec, rng.randint(1, 40),
                               announce=True, kinf=True)
            assert parse(to_text(f)) == f


def check_trivially_true(f):
    return f == TOP


def formula_strategy():
    from hypothesis import strategies as st

    leaves = st.one_of(
        st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
        st.builds(DepthExact, st.integers(0, 2), st.integers(0, 3)),
        st.builds(DepthAtLeast, st.integers(0, 2), st.integers(0, 3)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Know, st.integers(0, 2), sub),
            st.builds(KnowInf, st.integers(0, 2), sub),
            st.builds(Announce, sub, sub),
        ),
        max_leaves=20,
    )


class TestRoundTripProperty:
    from hypothesis import given, settings

    @given(formula_strategy())
    @settings(max_examples=300, deadline=None)
    def test_parse_print_identity(self, f):
        assert parse(to_text(f)) == f


class TestModalDepth:
    def test_leaves(self):
        assert modal_depth(P) == 0
        assert modal_depth(DepthExact(0, 2)) == 0
        assert modal_depth(DepthAtLeast(1, 3)) == 0

    def test_nested_know(self):
        assert modal_depth(Know(0, Know(1, P))) == 2

    def test_announce_adds(self):
        assert modal_depth(Announce(Know(0, P), Know(1, Q))) == 2

    def test_phi_3(self):
        from depthlogic.muddy import phi_k

        assert modal_depth(phi_k(3)) == 3

    def test_matches_independent_recursion(self):
        def ref(f):
            if isinstance(f, (Atom, DepthExact, DepthAtLeast)):
                return 0
            if isinstance(f, Not):
                return ref(f.sub)
            if isinstance(f, And):
                return max(ref(f.left), ref(f.right))
            if isinstance(f, (Know, KnowInf)):
                return 1 + ref(f.sub)
            return ref(f.announced) + ref(f.sub)

        rng = random.Random(11)
        spec = RandomSpec()
        for _ in range(300):
            f = random_formula(rng, spec, announce=True, kinf=True)
            assert modal_depth(f) == ref(f)


class TestFTransform:
    def test_leaves_to_top(self):
        phi = Know(0, P)
        assert f_transform(phi, P) == TOP
        assert f_transform(phi, DepthExact(0, 1)) == TOP
        assert f_transform(phi, DepthAtLeast(1, 2)) == TOP

    def test_conjunction_distributes(self):
        phi = Know(0, P)
        assert f_transform(phi, And(P, Q)) == \
            And(f_transform(phi, P), f_transform(phi, Q))

    def test_announcement_clause(self):
        phi = Know(0, P)
        assert f_transform(phi, Announce(P, Q)) == \
            And(f_transform(phi, P), f_transform(phi, Q))

    def test_nested_know_expansion(self):
        # F over K_a K_b p0 with announced = K_c K_c p0: outer K contributes
        # the three-conjunct form whose last conjunct wraps the inner K's
        # expansion in Kinf_a.
        phi = Know(2, Know(2, Atom("p0")))
        f = Know(0, Know(1, Atom("p0")))
        got = f_transform(phi, f)
        dphi = 2
        inner = f_transform(phi, Know(1, Atom("p0")))
        want = And(
            And(
                Not(KnowInf(0, implies(phi, DepthAtLeast(0, dphi)))),
                KnowInf(0, implies(phi, or_(Not(DepthAtLeast(0, dphi)),
                                            DepthAtLeast(0, dphi + 1)))),
            ),
            KnowInf(0, inner),
        )
        assert got == want
        # and the inner expansion itself has the three-conjunct shape
        assert isinstance(inner, And) and isinstance(inner.left, And)


class TestTranslateEdpal:
    def test_atomic_permanence(self):
        phi = Know(0, P)
        assert translate_edpal(Announce(phi, Q)) == \
            translate_edpal(implies(phi, Q))

    def test_depth_adjustment(self):
        phi = Know(0, P)
        got = translate_edpal(Announce(phi, DepthExact(1, 2)))
        want = translate_edpal(implies(phi, DepthExact(1, 2 + modal_depth(phi))))
        assert got == want

    def test_fragment_of_output(self):
        rng = random.Random(19)
        spec = RandomSpec()
        for _ in range(200):
            f = random_formula(rng, spec, announce=True, kinf=True)
            t = translate_edpal(f)
            from depthlogic.syntax import walk

            for node in walk(t):
                assert not isinstance(node, (Announce, Know, DepthAtLeast))

    def test_know_expansion_equivalent_on_small_models(self):
        # bounded knowledge + exact depths: K_a p becomes a depth case split
        # conjoined with Kinf_a p; equivalent on every model with <=4 states
        rng = random.Random(23)
        spec = RandomSpec(max_size=4, max_states=4)
        f = Know(0, P)
        t = translate_edpal(f)
        for _ in range(60):
            m = random_model(rng, spec)
            for s in m.states:
                assert check_naive(m, s, f, SemanticsKind.EDPAL) == \
                    check_naive(m, s, t, SemanticsKind.EDPAL)

    def test_size_polynomial_bound(self):
        rng = random.Random(29)
        spec = RandomSpec(max_size=12)
        worst = 0.0
        for _ in range(500):
            f = random_formula(rng, spec, announce=True, kinf=True)
            worst = max(worst, size(translate_edpal(f)) / size(f) ** 4)
        assert worst <= 16.0


class TestFragments:
    def test_h_excludes_announce_and_kinf(self):
        assert in_fragment(Know(0, P), Fragment.H)
        assert not in_fragment(KnowInf(0, P), Fragment.H)
        assert not in_fragment(Announce(P, Q), Fragment.H)
        assert in_fragment(KnowInf(0, P), Fragment.HINF)
        assert not in_fragment(Announce(P, Q), Fragment.HINF)

    def test_l_excludes_kinf_only(self):
        assert in_fragment(Announce(P, Know(0, Q)), Fragment.L)
        assert not in_fragment(KnowInf(0, P), Fragment.L)
        assert in_fragment(KnowInf(0, Announce(P, Q)), Fragment.LINF)

    def test_la_single_agent_no_depth_atoms(self):
        assert in_fragment(Know(0, Announce(P, KnowInf(0, Q))), Fragment.LA,
                           agent=0)
        assert not in_fragment(Know(1, P), Fragment.LA, agent=0)
        assert not in_fragment(DepthAtLeast(0, 1), Fragment.LA, agent=0)
        # other agents are excluded inside announcements too
        assert not in_fragment(Announce(Know(1, P), Q), Fragment.LA, agent=0)

    def test_la_needs_an_agent(self):
        with pytest.raises(ValueError, match="fragment La needs an agent"):
            in_fragment(P, Fragment.LA)


def test_max_depth_constant():
    assert max_depth_constant(And(DepthAtLeast(0, 3), DepthExact(1, 5))) == 5
    assert max_depth_constant(P) == 0


def test_announcement_chain_in_order():
    assert announcement_chain(parse("[p][K[0] q] r")) == [P, Know(0, Q)]
    assert announcement_chain(P) == []
    # an announcement inside an announced formula comes before the body's
    assert announcement_chain(parse("[[p] q] [r] p")) == [
        parse("[p] q"), P, Atom("r")]
