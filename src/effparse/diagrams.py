"""Combinatorial string diagrams of effect computations.

A diagram is the triple (number of cells, input string word, cell list):
cells are listed bottom to top, each logging its horizontal position as
the count of strings strictly to its right at its input interface, plus
the effect words it consumes and produces.  Validity is a single
bottom-up scan of interfaces.

A derivation's diagram is read off a summary of its root: the cells, the
bottom word, the top word and the top word's order in the node's type.
A summary is a value that depends on the derivation alone, and a
branch's is a function of its modes and its children's summaries, so
shared sub-derivations are drawn once: summaries are memoised by value
in bounded caches, and each branch keeps its own.

Two normalisation layers exist.  Right (exchange) normalisation sinks
independent cells so that the ones further right sit lower; it is the
canonical representative of the planar-isotopy class.  Equational
normalisation interleaves exchange with left-to-right passes applying the
snake cancellation, the monadic unit and associativity laws, and the
handler-unit law; the combined system is confluent, so diagram equality
is data equality of normal forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import sexpr
from .combine import MODE_RULES, Branch, Derivation, Leaf
from .record import Record
from .typesys import Registry, positive_effects


class DiagramError(Exception):
    pass


class PlanarityError(DiagramError):
    """A derivation routes effects in a way no planar diagram realises."""


class TwoCell(NamedTuple):
    pos: int
    kind: str
    params: tuple
    ins: tuple
    outs: tuple

    def render(self) -> str:
        inside = " ".join(self.params)
        return f"{self.kind}({inside})@{self.pos}"


# Each cell kind's boundary: a function from the kind's parameters to the
# (input word, output word) the cell consumes and produces.
CELL_KINDS = {
    "eta": lambda f: ((), (f,)),
    "mu": lambda f: ((f, f), (f,)),
    "ap": lambda f: ((f, f), (f,)),
    "lower": lambda f: ((f,), ()),
    "epsilon": lambda left, right: ((left, right), ()),
    "eta-adj": lambda left, right: ((), (right, left)),
    "handler": lambda name, f: ((f,), ()),
}


@lru_cache(maxsize=1 << 14)
def cell(pos: int, kind: str, *params) -> TwoCell:
    """The cell of a kind at a position.  Cells are immutable values, so
    the same one is handed out for equal arguments.  Distinct cells are
    few (the 6-cell confluence sweep of acceptance criterion 5 makes 88),
    so the bound only caps unusual inputs."""
    boundary = CELL_KINDS.get(kind)
    if boundary is None:
        raise DiagramError(f"unknown cell kind {kind}")
    return TwoCell(pos, kind, params, *boundary(*params))


class Diagram(NamedTuple):
    inputs: tuple
    nodes: tuple

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def output_word(self) -> tuple:
        word = tuple(self.inputs)
        for c in self.nodes:
            word = _apply(word, c)
        return word


def _apply(word: tuple, cell: TwoCell) -> tuple:
    """The word above ``cell`` placed on ``word``; raises on mismatch."""
    k = len(cell.ins)
    i = len(word) - cell.pos - k
    if i < 0 or cell.pos < 0:
        raise DiagramError(f"cell {cell.render()} falls off the word {word}")
    if word[i:i + k] != cell.ins:
        raise DiagramError(f"cell {cell.render()} expects {cell.ins}, word has {word[i:i + k]}")
    return word[:i] + cell.outs + word[i + k:]


def validate(d: Diagram) -> bool:
    return first_violation(d) is None


def _checked(d: Diagram, fault: str) -> Diagram:
    """``d`` itself; raises ``DiagramError`` prefixed by ``fault`` if it is
    invalid."""
    bad = first_violation(d)
    if bad is not None:
        raise DiagramError(f"{fault}: {bad}")
    return d


def first_violation(d: Diagram):
    word = tuple(d.inputs)
    for n, c in enumerate(d.nodes):
        try:
            word = _apply(word, c)
        except DiagramError as exc:
            return f"node {n}: {exc}"
    return None


# -- construction from derivations -----------------------------------------

class _Summary(Record, interned=True):
    """What a derivation node contributes to its ancestors' diagrams:
    ``cells``, with positions counted from the node's right edge, the
    ``bottom`` word of its leaves, the ``top`` word in physical order, and
    ``logical``, the top word's strings in the order of the node's type,
    as indices into ``top``.  Summaries are values: equal nodes have equal
    summaries wherever they sit.  They are interned (see
    :mod:`effparse.record`), so equal summaries are one object and the
    caches below key by it in C."""

    cells: tuple
    bottom: tuple
    top: tuple
    logical: tuple


def from_derivation(reg: Registry, d: Derivation) -> Diagram:
    """The effect diagram of a derivation.

    Bottom boundary: concatenated positive-position effects of the leaf
    types, leftmost leaf leftmost.  A mode draws the cell kind that
    ``MODE_RULES[kind].cell`` names, if it names one, and no cell
    otherwise.

    The diagram is read off the root's :class:`_Summary`.  A leaf's
    summary depends on its type alone and a branch's on its modes and its
    children's summaries, so both are memoised by those arguments, which
    are interned and hash by identity, and each branch also keeps its own
    summary (``Branch._drawn``): derivations that share a node draw it
    once, and nodes that summarise alike hold one summary.  A node that is
    not planar keeps its ``PlanarityError``, and each use raises a fresh
    copy of it.  Every diagram returned is checked.
    """
    drawn = _summary(d)
    if isinstance(drawn, PlanarityError):
        raise PlanarityError(*drawn.args)
    return _checked(Diagram(inputs=drawn.bottom, nodes=drawn.cells),
                    "internal construction fault")


def _summary(d):
    """The summary of ``d``, or the ``PlanarityError`` it keeps; the left
    child's error is the one kept when both children have one."""
    if isinstance(d, Leaf):
        return _leaf(d.ty)
    if not isinstance(d, Branch):
        raise DiagramError(f"not a derivation: {d!r}")
    drawn = d._drawn
    if drawn is None:
        drawn = left = _summary(d.left)
        if not isinstance(left, PlanarityError):
            drawn = right = _summary(d.right)
            if not isinstance(right, PlanarityError):
                drawn = _compose(d.modes, left, right)
        object.__setattr__(d, "_drawn", drawn)
    return drawn


@lru_cache(maxsize=1 << 10)
def _leaf(ty) -> _Summary:
    word = positive_effects(ty)
    return _Summary((), word, word, tuple(range(len(word))))


@lru_cache(maxsize=1 << 14)
def _compose(modes: tuple, left: _Summary, right: _Summary):
    """The summary of a branch with ``modes`` over children summarised as
    ``left`` and ``right``, or the ``PlanarityError`` it raises, kept
    unraised so that it holds no frames."""
    try:
        return _composed(modes, left, right)
    except PlanarityError as exc:
        return PlanarityError(*exc.args)


def _composed(modes, left, right) -> _Summary:
    """A branch's strings are numbered: the left child's top word, then
    the right child's, then each cell's outputs as it is drawn.  ``effs``
    maps a string to its effect and ``live`` lists the strings of the
    physical top word."""
    shift = len(right.bottom)
    cells = [cell(c.pos + shift, c.kind, *c.params) for c in left.cells]
    cells += right.cells
    effs = list(left.top + right.top)
    live = list(range(len(effs)))

    def emit(kind, params, pool):
        """Draw a ``kind`` cell over the first strings of ``pool``; return
        the pool with those strings replaced by the cell's outputs."""
        k = len(cell(0, kind, *params).ins)
        idxs = sorted(live.index(s) for s in pool[:k])
        i0 = idxs[0]
        if idxs != list(range(i0, i0 + k)):
            raise PlanarityError(
                f"mode {kind} must merge adjacent strings; derivation is not planar")
        ins_word = tuple(effs[live[i]] for i in idxs)
        drawn = cell(len(live) - i0 - k, kind, *params)
        if drawn.ins != ins_word:
            raise PlanarityError(
                f"mode {kind} expects strings {drawn.ins}, found {ins_word}")
        created = list(range(len(effs), len(effs) + len(drawn.outs)))
        effs.extend(drawn.outs)
        live[i0:i0 + k] = created
        cells.append(drawn)
        return created + pool[k:]

    # peel the strings each wrapper mode takes off the children, outermost
    # first, then rebuild the result's strings from the base mode outwards
    n = len(left.top)
    wl, wr, taken = list(left.logical), [n + i for i in right.logical], []
    for m in modes[:-1]:
        nl, nr = MODE_RULES[m.kind].takes
        taken.append(wl[:nl] + wr[:nr])
        wl, wr = wl[nl:], wr[nr:]
    logical = wl + wr
    for m, strs in zip(reversed(modes[:-1]), reversed(taken)):
        logical = strs + logical
        kind = MODE_RULES[m.kind].cell
        if kind is not None:
            # DN carries no functor: it lowers whichever effect it finds
            logical = emit(kind, m.pair or (m.functor or effs[logical[0]],), logical)
    # wire runs of same-effect strings without braiding: within a run the
    # strings are indistinguishable, so the physically monotone assignment
    # is the planar-canonical one
    at = {s: i for i, s in enumerate(live)}
    i = 0
    while i < len(logical):
        j = i
        while j + 1 < len(logical) and effs[logical[j + 1]] == effs[logical[i]]:
            j += 1
        if j > i:
            logical[i:j + 1] = sorted(logical[i:j + 1], key=at.__getitem__)
        i = j + 1
    return _Summary(tuple(cells), left.bottom + right.bottom,
                    tuple(effs[s] for s in live), tuple(at[s] for s in logical))


# -- exchange (right) normalisation -----------------------------------------

def _can_swap(lower: TwoCell, upper: TwoCell) -> bool:
    """True when the upper cell's input block lies entirely right of the
    lower cell's output block, so the two commute.

    A creating cell (no inputs) touching a purely consuming cell (no
    outputs) at the same position is exchangeable in both directions; the
    consumer-below orientation is the canonical representative, so that
    direction never swaps (otherwise exchanging would oscillate).
    """
    if upper.pos + len(upper.ins) > lower.pos:
        return False
    if not upper.ins and not lower.outs and upper.pos == lower.pos:
        return False
    return True


def _swap(lower: TwoCell, upper: TwoCell):
    """Exchange two independent cells; the one moving down keeps its
    position, the one moving up re-counts the other's string delta."""
    moved_up = cell(lower.pos + len(upper.outs) - len(upper.ins), lower.kind, *lower.params)
    return upper, moved_up


def right_normalize(d: Diagram) -> Diagram:
    _checked(d, "cannot normalise an invalid diagram")
    return Diagram(d.inputs, _exchange_sort(d.nodes))


def _exchange_sort(nodes, start: int = 0) -> tuple:
    """The exchange-normal order of the cells of a valid diagram whose
    first ``start`` cells are already in that order.

    Each later cell sinks past every cell below it that it commutes with.
    A swap moves the cells it passes by the same string delta, so their
    relative order stays normal and one insertion pass suffices.  Nothing
    is checked here: callers check the diagram they start from and the
    normal form they end at.
    """
    nodes = list(nodes)
    for j in range(start, len(nodes)):
        while j > 0 and _can_swap(nodes[j - 1], nodes[j]):
            nodes[j - 1], nodes[j] = _swap(nodes[j - 1], nodes[j])
            j -= 1
    return tuple(nodes)


# -- equational reduction -----------------------------------------------------

def _match_rule(c1: TwoCell, c2: TwoCell):
    """A reduction applying to the adjacent pair (c1 below, c2 above), or
    None.  Returns ("delete",) or ("assoc", new_c1, new_c2)."""
    # snake: unit then counit of one adjunction, interleaved positions
    if (c1.kind == "eta-adj" and c2.kind == "epsilon" and c1.params == c2.params
            and c1.pos in (c2.pos - 1, c2.pos + 1)):
        return ("delete",)
    # monadic unit: eta consumed by a join on a shared string
    if (c1.kind == "eta" and c2.kind == "mu" and c1.params == c2.params
            and c2.pos in (c1.pos - 1, c1.pos)):
        return ("delete",)
    # handler unit: eta consumed directly by a handler or lowering
    if (c1.kind == "eta" and c2.kind in ("handler", "lower")
            and c2.ins == c1.outs and c2.pos == c1.pos):
        return ("delete",)
    # monad associativity, left-nested to right-nested
    if (c1.kind == "mu" and c2.kind == "mu" and c1.params == c2.params
            and c1.pos == c2.pos + 1):
        return ("assoc", cell(c2.pos, c1.kind, *c1.params), c2)
    return None


def _one_pass(nodes: list) -> int:
    """One left-to-right equational pass, applying every match found."""
    applied = 0
    i = 0
    while i < len(nodes) - 1:
        m = _match_rule(nodes[i], nodes[i + 1])
        if m is None:
            i += 1
        elif m[0] == "delete":
            del nodes[i:i + 2]
            applied += 1
            i = max(i - 1, 0)
        else:
            nodes[i], nodes[i + 1] = m[1], m[2]
            applied += 1
            i += 1
    return applied


def eq_normalize(d: Diagram, stats: dict | None = None) -> Diagram:
    """Alternate exchange normalisation with equational passes until no
    rule applies; the result is the unique equational normal form."""
    nodes = right_normalize(d).nodes
    total = 0
    guard = 4 * (len(nodes) + 1) * (len(nodes) + 1) + 8
    while True:
        work = list(nodes)
        applied = _one_pass(work)
        if applied == 0:
            break
        total += applied
        nodes = _exchange_sort(work)
        guard -= 1
        if guard <= 0:
            raise DiagramError("equational normalisation failed to terminate")
    if stats is not None:
        stats["reductions"] = stats.get("reductions", 0) + total
    return _checked(Diagram(d.inputs, nodes), "equational normalisation broke the diagram")


def diagrams_equal(a: Diagram, b: Diagram) -> bool:
    """Whether two valid diagrams have the same equational normal form;
    :func:`eq_normalize` rejects an invalid one."""
    return eq_normalize(a) == eq_normalize(b)


# -- exhaustive reduction oracle ---------------------------------------------

def _reducts(nodes: tuple):
    """(rule, index, cells after the step) for every single equational
    step on an exchange-normal cell tuple.  The cells below ``index`` are
    untouched, so they stay exchange-normal."""
    for i in range(len(nodes) - 1):
        m = _match_rule(nodes[i], nodes[i + 1])
        if m is not None:
            yield m[0], i, nodes[:i] + m[1:] + nodes[i + 2:]


def applicable_reductions(d: Diagram):
    """Every single equational step applicable to the exchange-normal form
    of ``d``; used by the confluence oracle, not by the normaliser."""
    d = right_normalize(d)
    return [(f"{rule}@{i}", Diagram(d.inputs, new)) for rule, i, new in _reducts(d.nodes)]


def all_normal_forms(d: Diagram, _memo=None) -> frozenset:
    """Normal forms reachable by every maximal reduction order."""
    if _memo is None:
        _memo = {}
    return _anf(right_normalize(d), _memo)


def _anf(d: Diagram, memo, rewritten: bool = False) -> frozenset:
    """``rewritten``: ``d`` came from a reduction step, so it is checked
    if it is a normal form; the entry diagram was checked already."""
    hit = memo.get(d)
    if hit is not None:
        return hit
    memo[d] = frozenset()  # cycle guard
    result, stepped = frozenset(), False
    for _, i, new in _reducts(d.nodes):
        result |= _anf(Diagram(d.inputs, _exchange_sort(new, i)), memo, True)
        stepped = True
    if not stepped:
        result = frozenset([_checked(d, "reduction broke the diagram") if rewritten else d])
    memo[d] = result
    return result


# -- exhaustive generation ------------------------------------------------------

def cell_menu(monads=("F1", "F2"), adjunctions=(("L", "R"),), handlers=(("h1", "F1"),),
              lowerings=()):
    """The (kind, params) alphabet a registry makes available."""
    menu = []
    for f in monads:
        menu.append(("eta", (f,)))
        menu.append(("mu", (f,)))
    for left, right in adjunctions:
        menu.append(("eta-adj", (left, right)))
        menu.append(("epsilon", (left, right)))
    for name, f in handlers:
        menu.append(("handler", (name, f)))
    for f in lowerings:
        menu.append(("lower", (f,)))
    return tuple(menu)


def enumerate_diagrams(input_words, max_cells, menu=None, up_to_exchange=False):
    """Every valid diagram over the given bottom words with at most
    ``max_cells`` cells drawn from the menu.  Exhaustive, so keep the
    bounds small.

    With ``up_to_exchange`` only exchange-normal representatives are
    produced (prefixes of right-normal diagrams are right-normal, so the
    enumeration stays complete up to planar isotopy while skipping every
    reordering of independent cells).
    """
    menu = cell_menu() if menu is None else menu
    shapes = [(kind, params, cell(0, kind, *params).ins) for kind, params in menu]

    def grow(inputs, word, cells):
        yield Diagram(inputs, cells)
        if len(cells) >= max_cells:
            return
        n = len(word)
        for kind, params, ins in shapes:
            k = len(ins)
            for i in range(n - k + 1):
                if word[i:i + k] != ins:
                    continue
                c = cell(n - i - k, kind, *params)
                if up_to_exchange and cells and _can_swap(cells[-1], c):
                    continue
                yield from grow(inputs, word[:i] + c.outs + word[i + k:], cells + (c,))

    for word0 in input_words:
        yield from grow(tuple(word0), tuple(word0), ())


# -- serialization -------------------------------------------------------------

def diagram_to_sexpr(d: Diagram) -> str:
    nodes = tuple((c.pos, (c.kind, *c.params), tuple(c.ins), tuple(c.outs))
                  for c in d.nodes)
    return sexpr.unparse(("diagram", ":inputs", tuple(d.inputs), ":nodes", nodes))


def diagram_to_dot(d: Diagram) -> str:
    """Render cells as boxes and string segments as edges, bottom to top."""
    lines = ["digraph effect_diagram {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    word = [f"in{i}" for i in range(len(d.inputs))]
    labels = {f"in{i}": d.inputs[i] for i in range(len(d.inputs))}
    for name in word:
        lines.append(f'  {name} [shape=plaintext, label="{labels[name]}"];')
    for n, c in enumerate(d.nodes):
        i = len(word) - c.pos - len(c.ins)
        me = f"cell{n}"
        label = c.kind + ("" if not c.params else "_" + ",".join(c.params))
        lines.append(f'  {me} [label="{label}"];')
        for src in word[i:i + len(c.ins)]:
            lines.append(f"  {src} -> {me};")
        outs = []
        for k, eff in enumerate(c.outs):
            port = f"cell{n}out{k}"
            labels[port] = eff
            outs.append(port)
        word[i:i + len(c.ins)] = outs
        # emitted ports become plain carriers of the produced strings
        for port in outs:
            lines.append(f'  {port} [shape=plaintext, label="{labels[port]}"];')
            lines.append(f"  cell{n} -> {port};")
    for i, name in enumerate(word):
        if name.startswith("in"):
            lines.append(f'  out{i} [shape=plaintext, label="{labels[name]}"];')
            lines.append(f"  {name} -> out{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
