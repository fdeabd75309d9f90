"""Graphviz DOT export for models and announcement update sequences."""

from __future__ import annotations

from bisect import bisect_left

from .model import EQUIVALENCE, Model, pair_walk
from .semantics import _COPY_PREFIX as _COPIES   # DPAL copies' name prefixes
# check_naive is unused here, but the traced benchmark wraps dot.check_naive
# by name
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


def _node_lines(m: Model, prefix: str, designated: str | None) -> list[str]:
    lines = []
    for s, atoms, depths in zip(m.states, m.valuation(),
                                zip(*map(m.depths, range(m.agents)))):
        name = _escaped(s)
        atoms = _escaped(",".join(sorted(atoms)))
        label = f"{name}\\n{{{atoms}}}\\nd: {' '.join(map(str, depths))}"
        style = ' style=filled fillcolor=lightyellow' if s == designated else ""
        lines.append(f'    "{prefix}{name}" [label="{label}"{style}];')
    return lines


def _edge_lines(m: Model, prefix: str) -> list[str]:
    # an equivalence relation is symmetric: draw each pair once, undirected
    undirected = m.mode == EQUIVALENCE
    node = [f'"{prefix}{_escaped(s)}"' for s in m.states]
    lines = []
    for a in range(m.agents):
        for i, js in enumerate(pair_walk(m, a)):
            s = m.states[i]
            for j in js[bisect_left(js, i):] if undirected else js:
                t = m.states[j]
                style = " dir=none" if undirected else ""
                if undirected and s[:2] in _COPIES and s[:2] != t[:2]:
                    style += " style=dashed"   # a DPAL cross-copy link
                lines.append(f'    {node[i]} -> {node[j]} '
                             f'[color={agent_color(a)} label="{a}"{style}];')
    return lines


def model_to_dot(m: Model, designated: str | None = None,
                 name: str = "model") -> str:
    lines = [f"digraph \"{name}\" {{", "  rankdir=LR;",
             "  node [shape=box fontsize=10];"]
    lines += [ln[2:] for ln in _node_lines(m, "", designated)]
    lines += [ln[2:] for ln in _edge_lines(m, "")]
    lines.append("}")
    return "\n".join(lines) + "\n"


def sequence_to_dot(m: Model, announcements: list[Formula],
                    kind: SemanticsKind, state: str | None = None,
                    name: str = "updates") -> str:
    """One cluster per announcement step, left to right."""
    steps = announcement_steps(m, announcements, kind, state)
    lines = [f"digraph \"{name}\" {{", "  rankdir=LR;",
             "  node [shape=box fontsize=10];"]
    for i, (model, here) in enumerate(steps):
        title = f"after [{to_text(announcements[i - 1])}]" if i else "initial"
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{title}";')
        prefix = f"s{i}:"
        lines += _node_lines(model, prefix, here)
        lines += _edge_lines(model, prefix)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
