"""Graphviz DOT export for models and announcement update sequences."""

from __future__ import annotations

from .model import EQUIVALENCE, Model, closed_pairs
from .semantics import SemanticsKind, check_naive, dpal_copy, update
from .syntax import Formula, to_text

# Fixed palette, cycled per agent.
_COLORS = ("black", "blue3", "red3", "darkgreen", "darkorange2",
           "purple3", "deeppink3", "gray40")


def agent_color(a: int) -> str:
    return _COLORS[a % len(_COLORS)]


def _copy_prefix(state: str) -> str:
    head = state[:2]
    return head if head in (dpal_copy("", False), dpal_copy("", True)) else ""


def _node_lines(m: Model, prefix: str, designated: str | None) -> list[str]:
    lines = []
    for s in m.states:
        atoms = ",".join(sorted(m.atoms(s)))
        depths = " ".join(str(m.depth(a, s)) for a in range(m.agents))
        label = f"{s}\\n{{{atoms}}}\\nd: {depths}"
        style = ' style=filled fillcolor=lightyellow' if s == designated else ""
        lines.append(f'    "{prefix}{s}" [label="{label}"{style}];')
    return lines


def _edge_lines(m: Model, prefix: str) -> list[str]:
    lines = []
    for a in range(m.agents):
        if m.mode == EQUIVALENCE:
            pairs = sorted(closed_pairs(m.classes(a)),
                           key=lambda p: (m.state_index(p[0]), m.state_index(p[1])))
            seen = set()
            for s, t in pairs:
                if (t, s) in seen:
                    continue
                seen.add((s, t))
                dashed = ""
                if _copy_prefix(s) and _copy_prefix(s) != _copy_prefix(t):
                    dashed = " style=dashed"
                lines.append(f'    "{prefix}{s}" -> "{prefix}{t}" '
                             f'[color={agent_color(a)} label="{a}" dir=none{dashed}];')
        else:
            for s, t in sorted(m.pairs(a),
                               key=lambda p: (m.state_index(p[0]), m.state_index(p[1]))):
                lines.append(f'    "{prefix}{s}" -> "{prefix}{t}" '
                             f'[color={agent_color(a)} label="{a}"];')
    return lines


def model_to_dot(m: Model, designated: str | None = None,
                 name: str = "model") -> str:
    lines = [f"digraph \"{name}\" {{", "  rankdir=LR;",
             "  node [shape=box fontsize=10];"]
    lines += [ln[2:] for ln in _node_lines(m, "", designated)]
    lines += [ln[2:] for ln in _edge_lines(m, "")]
    lines.append("}")
    return "\n".join(lines) + "\n"


def announcement_steps(m: Model, announcements: list[Formula],
                       kind: SemanticsKind,
                       state: str | None = None
                       ) -> list[tuple[Model, str | None]]:
    """Models (and tracked designated state) after each successive update."""
    steps: list[tuple[Model, str | None]] = [(m, state)]
    cur, here = m, state
    for phi in announcements:
        truth = {s: check_naive(cur, s, phi, kind) for s in cur.states}
        cur = update(cur, phi, kind, truth=truth)
        if here is not None:
            if kind is SemanticsKind.DPAL:
                here = dpal_copy(here, truth[here])
            elif kind is SemanticsKind.EDPAL:
                here = here if truth[here] else None
        steps.append((cur, here))
    return steps


def sequence_to_dot(m: Model, announcements: list[Formula],
                    kind: SemanticsKind, state: str | None = None,
                    name: str = "updates") -> str:
    """One cluster per announcement step, left to right."""
    steps = announcement_steps(m, announcements, kind, state)
    lines = [f"digraph \"{name}\" {{", "  rankdir=LR;",
             "  node [shape=box fontsize=10];"]
    for i, (model, here) in enumerate(steps):
        if i == 0:
            title = "initial"
        else:
            title = f"after [{to_text(announcements[i - 1])}]"
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{title}";')
        prefix = f"s{i}:"
        lines += _node_lines(model, prefix, here)
        lines += _edge_lines(model, prefix)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
