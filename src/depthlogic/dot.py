"""Graphviz DOT export for models and announcement update sequences."""

from __future__ import annotations

from .model import EQUIVALENCE, Model, pair_walk
from .semantics import _COPY_PREFIX as _COPIES   # DPAL copies' name prefixes
# check_naive: unused here, but the traced benchmark wraps it by name
from .semantics import SemanticsKind, announcement_steps, check_naive
from .syntax import Formula, to_text

# Fixed palette, cycled per agent.
_COLORS = ("black", "blue3", "red3", "darkgreen", "darkorange2",
           "purple3", "deeppink3", "gray40")


def agent_color(a: int) -> str:
    return _COLORS[a % len(_COLORS)]


def _escaped(text: str) -> str:
    """Text as the inside of a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _model_lines(m: Model, indent: str, prefix: str,
                 designated: str | None) -> list[str]:
    """The model's node lines, then its edge lines, led by ``indent``, with
    each node named ``prefix`` plus its state.  Node texts, atom set labels
    and edge suffixes are built once, and one item holds an agent's edges
    from a state: to the later members of its class (equivalence mode,
    drawn undirected) or to its successors (reflexive mode)."""
    names = list(map(_escaped, m.states))
    atoms = {v: _escaped(",".join(sorted(v))) for v in set(m.valuation())}
    depths = map(" ".join, zip(*[map(str, m.depths(a))
                                 for a in range(m.agents)]))
    here = " style=filled fillcolor=lightyellow"
    lines = [f'{indent}"{prefix}{s}" [label="{s}\\n{{{atoms[v]}}}\\nd: {d}"'
             f'{here if t == designated else ""}];'
             for s, t, v, d in zip(names, m.states, m.valuation(), depths)]
    undirected = m.mode == EQUIVALENCE
    nodes = [f'"{prefix}{s}"' for s in names]
    heads = [f"{indent}{node} -> " for node in nodes]
    seps = ["\n" + head for head in heads]
    # a DPAL copy's edge to another copy's state is dashed
    copies = [s[:2] if undirected and s[:2] in _COPIES else None
              for s in m.states]
    for a in range(m.agents):
        plain = f' [color={agent_color(a)} label="{a}"' + (
            " dir=none" if undirected else "")
        end = (plain + " style=dashed];", plain + "];")
        tails = {c: [t + end[c is None or c == ct]   # per source copy
                     for t, ct in zip(nodes, copies)] for c in set(copies)}
        one = tails[copies[0]] if len(tails) == 1 else None   # one copy kind
        lines += [head + sep.join(js if one else map(tails[c].__getitem__, js))
                  for head, sep, c, js in zip(heads, seps, copies,
                                              pair_walk(m, a, undirected, one))
                  if js]
    return lines


def _digraph(name: str, body: list[str]) -> str:
    return "\n".join([f'digraph "{name}" {{', "  rankdir=LR;",
                      "  node [shape=box fontsize=10];", *body, "}\n"])


def model_to_dot(m: Model, designated: str | None = None,
                 name: str = "model") -> str:
    return _digraph(name, _model_lines(m, "  ", "", designated))


def sequence_to_dot(m: Model, announcements: list[Formula],
                    kind: SemanticsKind, state: str | None = None,
                    name: str = "updates") -> str:
    """One cluster per announcement step, left to right."""
    lines = []
    for i, (model, here) in enumerate(
            announcement_steps(m, announcements, kind, state)):
        title = f"after [{to_text(announcements[i - 1])}]" if i else "initial"
        lines += [f"  subgraph cluster_{i} {{", f'    label="{title}";',
                  *_model_lines(model, "    ", f"s{i}:", here), "  }"]
    return _digraph(name, lines)
