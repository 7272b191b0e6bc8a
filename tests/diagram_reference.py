"""The reference diagram builder, which :func:`effparse.diagrams.from_derivation`
is tested against.

It walks the whole derivation tree and tracks each effect string as its
own object: ``live`` is the physical top word of a node, ``logical`` the
same strings in the order of the node's type, and a mode that draws a
cell finds its input strings in ``live`` by identity.  The engine draws
the same diagrams from per-node summaries that hold string positions
instead of string objects.
"""

from effparse.combine import MODE_RULES, Branch, Leaf
from effparse.diagrams import Diagram, DiagramError, PlanarityError, _checked, cell
from effparse.typesys import positive_effects


class _Str:
    __slots__ = ("eff",)

    def __init__(self, eff):
        self.eff = eff


def reference_diagram(d) -> Diagram:
    """The effect diagram of ``d``, built from its leaves."""
    cells, live, logical, bottom = _build(d)
    return _checked(Diagram(inputs=tuple(s.eff for s in bottom), nodes=tuple(cells)),
                    "internal construction fault")


def _build(d):
    if isinstance(d, Leaf):
        strs = [_Str(e) for e in positive_effects(d.ty)]
        return [], list(strs), list(strs), list(strs)
    if not isinstance(d, Branch):
        raise DiagramError(f"not a derivation: {d!r}")
    cells_l, live_l, logical_l, bot_l = _build(d.left)
    cells_r, live_r, logical_r, bot_r = _build(d.right)
    cells = [cell(c.pos + len(bot_r), c.kind, *c.params) for c in cells_l]
    cells += cells_r
    live = live_l + live_r

    def emit(kind, params, pool):
        """Draw a ``kind`` cell over the first strings of ``pool``; return
        the pool with those strings replaced by the cell's outputs."""
        k = len(cell(0, kind, *params).ins)
        idxs = sorted(live.index(s) for s in pool[:k])
        i0 = idxs[0]
        if idxs != list(range(i0, i0 + k)):
            raise PlanarityError(
                f"mode {kind} must merge adjacent strings; derivation is not planar")
        ins_word = tuple(live[i].eff for i in idxs)
        drawn = cell(len(live) - i0 - k, kind, *params)
        if drawn.ins != ins_word:
            raise PlanarityError(
                f"mode {kind} expects strings {drawn.ins}, found {ins_word}")
        created = [_Str(eff) for eff in drawn.outs]
        live[i0:i0 + k] = created
        cells.append(drawn)
        return created + pool[k:]

    # peel the strings each wrapper mode takes off the children, outermost
    # first, then rebuild the result's strings from the base mode outwards
    wl, wr, taken = logical_l, logical_r, []
    for m in d.modes[:-1]:
        nl, nr = MODE_RULES[m.kind].takes
        taken.append(wl[:nl] + wr[:nr])
        wl, wr = wl[nl:], wr[nr:]
    logical = wl + wr
    for m, strs in zip(reversed(d.modes[:-1]), reversed(taken)):
        logical = strs + logical
        kind = MODE_RULES[m.kind].cell
        if kind is not None:
            # DN carries no functor: it lowers whichever effect it finds
            logical = emit(kind, m.pair or (m.functor or logical[0].eff,), logical)
    # wire runs of same-effect strings without braiding
    i = 0
    while i < len(logical):
        j = i
        while j + 1 < len(logical) and logical[j + 1].eff == logical[i].eff:
            j += 1
        if j > i:
            logical[i:j + 1] = sorted(logical[i:j + 1], key=live.index)
        i = j + 1
    return cells, live, logical, bot_l + bot_r
