"""Text and DOT rendering of derivations."""

from __future__ import annotations

from .combine import Branch, Derivation, Leaf, derivation_term, render_modes
from .lambda_eval import EvalError, eval_term
from .model import ModelError
from .values import render as render_value


def _value_text(reg, node: Derivation, model):
    """The node's evaluated value as text, ``<error: ...>`` when evaluation
    fails, or None without a model."""
    if model is None:
        return None
    try:
        return render_value(eval_term(derivation_term(reg, node), {}, model, reg))
    except (EvalError, ModelError) as exc:
        return f"<error: {exc}>"


def derivation_to_text(reg, d: Derivation, model=None, indent: str = "") -> str:
    """Indented tree; per node: type, mode string, and (with a model) the
    evaluated value."""
    lines = []

    def walk(node, depth):
        pad = indent + "  " * depth
        if isinstance(node, Leaf):
            label = f"{pad}{node.entry.surface} : {node.entry.ty}"
            if node.entry.category:
                label += f"  [{node.entry.category}]"
            v = _value_text(reg, node, model)
            if v is not None:
                label += f"  = {v}"
            lines.append(label)
            return
        label = f"{pad}{node.ty}  [{render_modes(node.modes)}]"
        v = _value_text(reg, node, model)
        if v is not None:
            label += f"  = {v}"
        lines.append(label)
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(d, 0)
    return "\n".join(lines)


def derivation_to_dot(reg, d: Derivation, model=None) -> str:
    lines = ["digraph derivation {", "  rankdir=TB;",
             '  node [shape=box, fontname="monospace"];']
    counter = [0]

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    def walk(node):
        me = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            parts = [node.entry.surface, str(node.entry.ty)]
        else:
            parts = [str(node.ty), render_modes(node.modes)]
        v = _value_text(reg, node, model)
        if v is not None:
            parts.append(v)
        label = "\\n".join(esc(p) for p in parts)
        lines.append(f'  {me} [label="{label}"];')
        if isinstance(node, Branch):
            for child in (node.left, node.right):
                cid = walk(child)
                lines.append(f"  {me} -> {cid};")
        return me

    walk(d)
    lines.append("}")
    return "\n".join(lines) + "\n"
