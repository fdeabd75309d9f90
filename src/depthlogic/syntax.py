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
    """E[a,d]: agent a has depth exactly d.  The source syntax allows only
    d >= 0; a negative d arises from the EDPAL depth rewriting."""

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


# node classes each fragment excludes
_EXCLUDED = {Fragment.L: (KnowInf,), Fragment.LINF: (),
             Fragment.H: (KnowInf, Announce), Fragment.HINF: (Announce,),
             Fragment.LA: (DepthExact, DepthAtLeast)}


def in_fragment(f: Formula, fragment: Fragment, agent: int | None = None) -> bool:
    """Syntactic fragment membership.  LA requires ``agent``; it excludes
    depth atoms and other agents' modal operators everywhere, announcements
    included."""
    if fragment is Fragment.LA and agent is None:
        raise ValueError("fragment La needs an agent")
    gated = (Know, KnowInf) if fragment is Fragment.LA else ()
    return not any(isinstance(g, _EXCLUDED[fragment])
                   or isinstance(g, gated) and g.agent != agent
                   for g in walk(f))


# --- precondition transform for announcement axioms in the ambiguous setting ---

def f_transform(announced: Formula, f: Formula) -> Formula:
    """The precondition transform guaranteeing knowledge preservation: maps
    atoms to top, distributes over negation/conjunction/announcement, and
    turns each knowledge operator into the three-conjunct Kinf condition on
    the agent's perception of the announcement."""
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
    depth-gated knowledge or P atoms (only atoms, E, !, &, Kinf remain).  P
    atoms under an announcement are shifted by its modal depth, as the E
    depth-adjustment rule does, not expanded into E disjunctions: that would
    be unsound on updated models with negative depths."""
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


# one token after optional whitespace; ``bad`` takes any character that
# starts no token, so every match ends where the next one starts
_TOKEN_RE = re.compile(r"""[ \t\r\n]*(?:
    (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|[!&|()\[\],<>])
  | (?P<eof>\Z)
  | (?P<bad>.))""", re.VERBOSE)

# token -> (binding level, builder, groups right)
_BINARY = {"<->": (1, iff, False), "->": (2, implies, True),
           "|": (3, or_, False), "&": (4, And, False)}


class _Parser:
    """Tokens are (kind, text, offset) tuples, a reserved word or an operator
    being its own kind. All the text is tokenized before parsing starts, so
    a bad character is reported before any grammar error."""

    def __init__(self, text: str):
        self.text, self.tokens, self.pos = text, [], 0
        kind, end = None, 0
        while kind != "eof":
            m = _TOKEN_RE.match(text, end)
            kind, end = m.lastgroup, m.end()
            tok, offset = m[kind], m.start(kind)
            if kind == "bad":
                if tok == "-" and "0" <= text[end:end + 1] <= "9":
                    raise self.error("negative numbers are not allowed (agent "
                                     "indices and depths start at 0)", offset)
                raise self.error(f"unexpected character {tok!r}", offset)
            if kind == "op" or tok in RESERVED_WORDS:
                kind = tok
            self.tokens.append((kind, tok, offset))

    def error(self, message: str, offset: int) -> ParseError:
        text = self.text
        return ParseError(message, text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))

    def next(self, kind: str | None = None) -> tuple[str, str, int]:
        """Consume the next token, which must be of ``kind`` when given."""
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind!r}, found "
                             f"{tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def number(self) -> int:
        _, text, offset = self.next("int")
        try:
            return int(text)
        except ValueError:   # longer than int()'s digit limit
            raise self.error(f"number of {len(text)} digits is too long",
                             offset) from None

    def parse(self) -> Formula:
        f = self.binary()
        kind, text, offset = self.tokens[self.pos]
        if kind != "eof":
            raise self.error(f"unexpected {text!r}", offset)
        return f

    def binary(self, level: int = 1) -> Formula:
        """Operands joined by binary connectives binding at ``level`` or
        tighter (precedence climbing)."""
        f = self.unary()
        while (op := _BINARY.get(self.tokens[self.pos][0])) and op[0] >= level:
            bind, build, right = op
            self.pos += 1
            f = build(f, self.binary(bind if right else bind + 1))
        return f

    def unary(self) -> Formula:
        kind, text, offset = self.next()
        if kind == "!":
            return Not(self.unary())
        if kind in ("K", "Kinf"):
            self.next("[")
            agent = self.number()
            self.next("]")
            return (Know if kind == "K" else KnowInf)(agent, self.unary())
        if kind in ("[", "<"):
            announced = self.binary()
            self.next("]" if kind == "[" else ">")
            return (Announce if kind == "[" else dual)(announced, self.unary())
        return self.primary(kind, text, offset)

    def primary(self, kind: str, text: str, offset: int) -> Formula:
        if kind == "(":
            f = self.binary()
            self.next(")")
            return f
        if kind in ("E", "P"):
            self.next("[")
            agent = self.number()
            self.next(",")
            d = self.number()
            self.next("]")
            return DepthExact(agent, d) if kind == "E" else DepthAtLeast(agent, d)
        if kind == "true":
            return TOP
        if kind == "false":
            return BOTTOM
        if kind == "ident":
            return Atom(text)
        raise self.error(f"unexpected {text or 'end of input'!r}", offset)


def parse(text: str) -> Formula:
    """Parse a formula; derived connectives are desugared."""
    return _Parser(text).parse()


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
