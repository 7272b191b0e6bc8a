"""Text and DOT rendering of derivations."""

from __future__ import annotations

from .combine import Branch, Derivation, Leaf, branch_value, outcome, render_modes
from .lambda_eval import EVAL_ERRORS, eval_term
from .values import render as render_value


def _value_texts(reg, d: Derivation, model) -> dict:
    """``id(node)`` to each node's evaluated value as text, or to
    ``<error: ...>`` when its evaluation fails with one of
    :data:`~effparse.lambda_eval.EVAL_ERRORS`; empty without a model.
    Other errors propagate.

    One bottom-up pass evaluates each node once.  A branch takes its
    children's outcomes through :func:`branch_value`, so it fails with the
    error evaluating it alone would raise."""
    if model is None:
        return {}
    outcomes = {}  # id(node) -> value or evaluation error, in evaluation order

    def evaluate(node):
        if isinstance(node, Leaf):
            result = outcome(eval_term, node.entry.term, {}, model, reg)
        else:
            result = outcome(branch_value, node, reg, evaluate)
        outcomes[id(node)] = result
        return result

    evaluate(d)
    return {key: value_text(result) for key, result in outcomes.items()}


def value_text(result) -> str:
    """An :func:`~effparse.combine.outcome` as text: the value, or
    ``<error: ...>`` for a kept evaluation error."""
    if isinstance(result, EVAL_ERRORS):
        return f"<error: {result}>"
    return render_value(result)


def derivation_to_text(reg, d: Derivation, model=None, indent: str = "") -> str:
    """Indented tree; per node: type, mode string, and (with a model) the
    evaluated value."""
    lines = []
    texts = _value_texts(reg, d, model)

    def walk(node, depth):
        pad = indent + "  " * depth
        if isinstance(node, Leaf):
            label = f"{pad}{node.entry.surface} : {node.entry.ty}"
            if node.entry.category:
                label += f"  [{node.entry.category}]"
        else:
            label = f"{pad}{node.ty}  [{render_modes(node.modes)}]"
        if texts:
            label += f"  = {texts[id(node)]}"
        lines.append(label)
        if isinstance(node, Branch):
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(d, 0)
    return "\n".join(lines)


def derivation_to_dot(reg, d: Derivation, model=None) -> str:
    lines = ["digraph derivation {", "  rankdir=TB;",
             '  node [shape=box, fontname="monospace"];']
    counter = [0]
    texts = _value_texts(reg, d, model)

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    def walk(node):
        me = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            parts = [node.entry.surface, str(node.entry.ty)]
        else:
            parts = [str(node.ty), render_modes(node.modes)]
        if texts:
            parts.append(texts[id(node)])
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
