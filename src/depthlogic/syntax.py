"""Formula syntax: AST nodes, a text grammar, modal depth and formula transforms.

Derived connectives (or, implies, iff, top, bottom, dual announcement) are
desugared at construction time; the core AST only has atoms, depth atoms,
negation, conjunction, the two knowledge operators and public announcements.
The reserved atom ``true`` is forced true in every state by the checker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterator

TRUE_ATOM = "true"

RESERVED_WORDS = {"K", "Kinf", "E", "P", "true", "false"}


class Formula:
    """Base class for formula nodes. Instances are immutable values."""

    __slots__ = ()
    _program = None   # check_labeling's, set on first use; not a field

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class DepthExact(Formula):
    """E[a,d]: agent a has depth exactly d.

    Source syntax only allows d >= 0; negative d arises internally from the
    EDPAL depth-adjustment rewriting.
    """

    agent: int
    d: int


@dataclass(frozen=True)
class DepthAtLeast(Formula):
    """P[a,d]: agent a has depth at least d (d >= 0)."""

    agent: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"P depth atom requires d >= 0, got {self.d}")


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Know(Formula):
    """Depth-gated knowledge operator K[a]."""

    agent: int
    sub: Formula


@dataclass(frozen=True)
class KnowInf(Formula):
    """Classical S5 knowledge operator Kinf[a] (no depth gate)."""

    agent: int
    sub: Formula


@dataclass(frozen=True)
class Announce(Formula):
    """[announced] sub: public announcement."""

    announced: Formula
    sub: Formula


TOP = Atom(TRUE_ATOM)
BOTTOM = Not(TOP)


# --- derived connectives (desugared) ---

def or_(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def dual(announced: Formula, sub: Formula) -> Formula:
    """<announced> sub, i.e. !([announced] !sub)."""
    return Not(Announce(announced, Not(sub)))


def conj(*parts: Formula) -> Formula:
    return reduce(And, parts) if parts else TOP


def disj(*parts: Formula) -> Formula:
    return reduce(or_, parts) if parts else BOTTOM


# --- structural helpers ---

def modal_depth(f: Formula) -> int:
    """Largest number of modal operators on a branch of the syntax tree."""
    if isinstance(f, (Atom, DepthExact, DepthAtLeast)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.sub)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (Know, KnowInf)):
        return 1 + modal_depth(f.sub)
    if isinstance(f, Announce):
        return modal_depth(f.announced) + modal_depth(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in walk(f))


def walk(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences, preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Know, KnowInf)):
            stack.append(g.sub)
        elif isinstance(g, Announce):
            stack.append(g.sub)
            stack.append(g.announced)


def announcement_chain(f: Formula) -> list[Formula]:
    """The announced formulas in preorder: a then b for ``[a][b] c``."""
    return [g.announced for g in walk(f) if isinstance(g, Announce)]


def subformulas(f: Formula) -> set[Formula]:
    return set(walk(f))


def atoms_of(f: Formula) -> set[str]:
    return {g.name for g in walk(f) if isinstance(g, Atom) and g.name != TRUE_ATOM}


def agents_of(f: Formula) -> set[int]:
    return {g.agent for g in walk(f)
            if isinstance(g, (Know, KnowInf, DepthExact, DepthAtLeast))}


def max_depth_constant(f: Formula) -> int:
    ds = [g.d for g in walk(f) if isinstance(g, (DepthExact, DepthAtLeast))]
    return max(ds, default=0)


class Fragment(Enum):
    L = "L"          # no Kinf
    LINF = "Linf"    # full language
    H = "H"          # no Kinf, no announcements
    HINF = "Hinf"    # no announcements
    LA = "La"        # no depth atoms, no modal operators for agents != a


def in_fragment(f: Formula, fragment: Fragment, agent: int | None = None) -> bool:
    """Syntactic fragment membership.

    LA requires ``agent``; it excludes depth atoms and modal operators for
    other agents everywhere, including inside announcements.
    """
    if fragment is Fragment.LA:
        if agent is None:
            raise ValueError("fragment La needs an agent")
        for g in walk(f):
            if isinstance(g, (DepthExact, DepthAtLeast)):
                return False
            if isinstance(g, (Know, KnowInf)) and g.agent != agent:
                return False
        return True
    no_kinf = fragment in (Fragment.L, Fragment.H)
    no_announce = fragment in (Fragment.H, Fragment.HINF)
    for g in walk(f):
        if no_kinf and isinstance(g, KnowInf):
            return False
        if no_announce and isinstance(g, Announce):
            return False
    return True


# --- precondition transform for announcement axioms in the ambiguous setting ---

def f_transform(announced: Formula, f: Formula) -> Formula:
    """The precondition transform guaranteeing knowledge preservation.

    Maps atoms to top, distributes over negation/conjunction/announcement, and
    turns each knowledge operator into the three-conjunct Kinf condition on the
    agent's perception of the announcement.
    """
    phi = announced
    dphi = modal_depth(phi)
    if isinstance(f, (Atom, DepthExact, DepthAtLeast)):
        return TOP
    if isinstance(f, Not):
        return f_transform(phi, f.sub)
    if isinstance(f, And):
        return And(f_transform(phi, f.left), f_transform(phi, f.right))
    if isinstance(f, Know):
        a = f.agent
        c1 = Not(KnowInf(a, implies(phi, DepthAtLeast(a, dphi))))
        c2 = KnowInf(a, implies(phi, or_(Not(DepthAtLeast(a, dphi)),
                                         DepthAtLeast(a, dphi + modal_depth(f.sub)))))
        c3 = KnowInf(a, f_transform(phi, f.sub))
        return And(And(c1, c2), c3)
    if isinstance(f, KnowInf):
        a = f.agent
        c1 = Not(KnowInf(a, implies(phi, DepthAtLeast(a, dphi))))
        return And(c1, KnowInf(a, f_transform(phi, f.sub)))
    if isinstance(f, Announce):
        return And(f_transform(phi, f.announced), f_transform(phi, f.sub))
    raise TypeError(f"not a formula: {f!r}")


# --- EDPAL announcement/knowledge elimination translation ---

def _expand_at_least(agent: int, d: int) -> Formula:
    # P[a,d] on a model with natural depths equals the conjunction of !E[a,i]
    # for i < d.  Only applied outside announcement scope.
    if d <= 0:
        return TOP
    return conj(*[Not(DepthExact(agent, i)) for i in range(d)])


def translate_edpal(f: Formula) -> Formula:
    """Rewrite f into an equivalent EDPAL formula without announcements,
    depth-gated knowledge or P atoms (only atoms, E, !, &, Kinf remain).

    P atoms under an announcement are shifted by the announcement's modal
    depth (mirroring the E depth-adjustment rule) instead of being expanded
    into E disjunctions, which would be unsound on updated models with
    negative depths.
    """
    if isinstance(f, (Atom, DepthExact)):
        return f
    if isinstance(f, DepthAtLeast):
        return _expand_at_least(f.agent, f.d)
    if isinstance(f, Not):
        return Not(translate_edpal(f.sub))
    if isinstance(f, And):
        return And(translate_edpal(f.left), translate_edpal(f.right))
    if isinstance(f, Know):
        return And(_expand_at_least(f.agent, modal_depth(f.sub)),
                   KnowInf(f.agent, translate_edpal(f.sub)))
    if isinstance(f, KnowInf):
        return KnowInf(f.agent, translate_edpal(f.sub))
    if isinstance(f, Announce):
        return _push_announce(f.announced, f.sub)
    raise TypeError(f"not a formula: {f!r}")


def _push_announce(phi: Formula, psi: Formula) -> Formula:
    tphi = translate_edpal(phi)
    dphi = modal_depth(phi)

    def push(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return implies(tphi, g)
        if isinstance(g, DepthExact):
            return implies(tphi, DepthExact(g.agent, g.d + dphi))
        if isinstance(g, DepthAtLeast):
            return implies(tphi, _expand_at_least(g.agent, g.d + dphi))
        if isinstance(g, Not):
            return implies(tphi, Not(push(g.sub)))
        if isinstance(g, And):
            return And(push(g.left), push(g.right))
        if isinstance(g, Know):
            gate = push(DepthAtLeast(g.agent, modal_depth(g.sub)))
            return And(gate, implies(tphi, KnowInf(g.agent, push(g.sub))))
        if isinstance(g, KnowInf):
            return implies(tphi, KnowInf(g.agent, push(g.sub)))
        if isinstance(g, Announce):
            # announcement composition: [phi][chi]rho == [phi & [phi]chi]rho
            return _push_announce(And(phi, Announce(phi, g.announced)), g.sub)
        raise TypeError(f"not a formula: {g!r}")

    return push(psi)


# --- parser ---

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<punct>[!&|()\[\],<>])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch == "-" and pos + 1 < len(text) and text[pos + 1].isdigit():
                raise ParseError("negative numbers are not allowed (agent "
                                 "indices and depths start at 0)", line, col)
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            if kind == "ident":
                tokens.append(_Token(tok if tok in RESERVED_WORDS else "ident",
                                     tok, line, col))
            elif kind == "int":
                tokens.append(_Token("int", tok, line, col))
            else:
                tokens.append(_Token(tok, tok, line, col))
        for ch in tok:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return f

    def iff(self) -> Formula:
        f = self.implication()
        while self.peek().kind == "<->":
            self.next()
            f = iff(f, self.implication())
        return f

    def implication(self) -> Formula:
        f = self.disjunction()
        if self.peek().kind == "->":
            self.next()
            return implies(f, self.implication())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "|":
            self.next()
            f = or_(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.unary())
        if tok.kind in ("K", "Kinf"):
            self.next()
            self.expect("[")
            agent = int(self.expect("int").text)
            self.expect("]")
            node = Know if tok.kind == "K" else KnowInf
            return node(agent, self.unary())
        if tok.kind == "[":
            self.next()
            announced = self.iff()
            self.expect("]")
            return Announce(announced, self.unary())
        if tok.kind == "<":
            self.next()
            announced = self.iff()
            self.expect(">")
            return dual(announced, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.next()
        if tok.kind == "(":
            f = self.iff()
            self.expect(")")
            return f
        if tok.kind in ("E", "P"):
            self.expect("[")
            agent = int(self.expect("int").text)
            self.expect(",")
            d = int(self.expect("int").text)
            self.expect("]")
            return DepthExact(agent, d) if tok.kind == "E" else DepthAtLeast(agent, d)
        if tok.kind == "true":
            return TOP
        if tok.kind == "false":
            return BOTTOM
        if tok.kind == "ident":
            return Atom(tok.text)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse(text: str) -> Formula:
    """Parse a formula; derived connectives are desugared."""
    return _Parser(_tokenize(text)).parse()


# --- printer ---

_PREC_ATOM = 3
_PREC_UNARY = 2
_PREC_AND = 1


def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, DepthExact, DepthAtLeast)):
        return _PREC_ATOM
    if isinstance(f, (Not, Know, KnowInf, Announce)):
        return _PREC_UNARY
    return _PREC_AND


def to_text(f: Formula) -> str:
    """Render the desugared AST; parse(to_text(f)) == f for source formulas."""
    def wrap(g: Formula, minimum: int) -> str:
        text = to_text(g)
        if _prec(g) < minimum:
            return f"({text})"
        return text

    if isinstance(f, Atom):
        return f.name
    if isinstance(f, DepthExact):
        return f"E[{f.agent},{f.d}]"
    if isinstance(f, DepthAtLeast):
        return f"P[{f.agent},{f.d}]"
    if isinstance(f, Not):
        return "!" + wrap(f.sub, _PREC_UNARY)
    if isinstance(f, Know):
        return f"K[{f.agent}] " + wrap(f.sub, _PREC_UNARY)
    if isinstance(f, KnowInf):
        return f"Kinf[{f.agent}] " + wrap(f.sub, _PREC_UNARY)
    if isinstance(f, Announce):
        return f"[{to_text(f.announced)}]" + wrap(f.sub, _PREC_UNARY)
    if isinstance(f, And):
        return wrap(f.left, _PREC_AND) + " & " + wrap(f.right, _PREC_AND + 1)
    raise TypeError(f"not a formula: {f!r}")
