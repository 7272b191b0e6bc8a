"""Combination modes, pruning, chart parsing, and derivation denotations.

A combination of two adjacent constituents is a mode sequence: wrapper
modes (ML/MR/A strip an outer effect off a child, UL/UR feed a unit into
an effectful-domain function, EL/ER internalise an effect-wrapped
function) around exactly one base mode (forward/backward application,
pointwise conjunction/disjunction), possibly under postfix shrinking
modes (J joins a doubled effect, DN lowers a continuation, C cancels an
adjacent adjoint pair).  Sequences are stored outermost-first.
:data:`MODE_RULES` defines each mode kind once: its typing rule, its
denotation as a combinator over values and its diagram cell; enumeration,
replay, evaluation and diagram construction all read it.  A branch's value
is its modes' combinators composed and applied to its children's values;
no mode has a λ-term in the engine.  The composed combinator of each mode
sequence is built once per registry, and an ML/MR wrapper resolves its
carrier's ``fmap`` when it is built.  Modes, like types, are interned (see
:mod:`effparse.record`), so a mode sequence hashes and compares in C.

Parsing is CKY over a packed chart, seeded with each lexical entry over
every span its tokens match; each cell keys its items by category and
type.  An optional syntactic CFG is intersected with the type grammar by
the product construction.  Unpacking a packed forest is capped and
deterministic, and reaches only the root items whose derivations can make
the cut.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import terms as T
from .lambda_eval import (COMPILE, EVAL_ERRORS, _as_bool, _carrier, _map_left, _map_right,
                          ap, apply_value, counit, eta, eval_term, fmap_apply, join,
                          lower, upsilon)
from .lexicon import LanguageParseError, LexEntry, Lexicon, _symbol, load_file, load_forms
from .record import Record
from .typesys import Arrow, Base, Eff, Registry, Ty, TypeSysError, deep_effect_count
from .values import FALSE, TRUE, B, Fn, StateV


class ModeError(Exception):
    pass


class UnknownTokenError(Exception):
    def __init__(self, token: str, position: int):
        super().__init__(f"unknown token {token!r} at position {position}")
        self.token = token
        self.position = position


_BASE_RENDER = {"fwd": ">", "bwd": "<", "conj": "&", "disj": "|"}
_RENDER_BASE = {v: k for k, v in _BASE_RENDER.items()}
_T = Base("t")


class Mode(Record, interned=True):
    """One mode: its kind and the functor or adjoint pair it is indexed
    by.  Modes are interned, so the typing rules of :data:`MODE_RULES`
    and :func:`parse_mode` hand out one object per mode, made once; an
    unknown kind raises :class:`ModeError` and makes nothing.
    ``rendered``, its text, is kept beside the fields; the repr leaves it
    out."""

    kind: str
    functor: str | None = None
    pair: tuple | None = None

    def __post_init__(self):
        if self.kind not in MODE_RULES:
            raise ModeError(f"unknown mode kind {self.kind}")
        text = _BASE_RENDER.get(self.kind) or self.kind.upper()
        if self.pair is not None:
            text += f"_{self.pair[0]}:{self.pair[1]}"
        elif self.functor is not None:
            text += f"_{self.functor}"
        object.__setattr__(self, "rendered", text)

    def render(self) -> str:
        return self.rendered

    def __str__(self) -> str:
        return self.rendered


def parse_mode(text: str) -> Mode:
    """The mode rendered as ``text``; kinds and their indices come from
    :data:`MODE_RULES`.  An empty functor or adjoint name is rejected
    before any mode is made, so malformed text adds nothing to the mode
    table."""
    head, _, index = text.partition("_")
    kind = _RENDER_BASE.get(text, head.lower())
    rule = MODE_RULES.get(kind)
    if rule is not None:
        if rule.indexed_by == "pair":
            left, _, right = index.partition(":")
            m = Mode(kind, pair=(left, right)) if left and right else None
        elif rule.indexed_by == "functor":
            m = Mode(kind, functor=index) if index else None
        else:
            m = Mode(kind)
        if m is not None and m.render() == text:
            return m
    raise ModeError(f"cannot parse mode {text!r}")


def render_modes(seq) -> str:
    return " ".join(m.render() for m in seq)


# the text of a chart's mode sequence or type, rendered once while it stays
# in the bounded cache keyed by the sequence or the (interned) type
_modes_text = lru_cache(maxsize=1 << 10)(render_modes)
_type_text = lru_cache(maxsize=1 << 10)(str)


def parse_modes(text: str):
    return tuple(parse_mode(tok) for tok in text.split())


# -- the mode table ----------------------------------------------------------

def _pure(ty: Ty) -> bool:
    return deep_effect_count(ty) == 0


def _fwd(reg, l, r):
    if isinstance(l, Arrow) and r == l.dom and _pure(l.dom):
        return Mode("fwd"), l.cod


def _bwd(reg, l, r):
    if isinstance(r, Arrow) and l == r.dom and _pure(r.dom):
        return Mode("bwd"), r.cod


def _pointwise(kind):
    def step(reg, l, r):
        if isinstance(l, Arrow) and l == r and _pure(l.dom) and l.cod == _T:
            return Mode(kind), l
    return step


def _strip(reg, ty):
    """ML/MR: work under the outer effect of ``F a`` for a functor F."""
    if isinstance(ty, Eff) and reg.has_cap(ty.functor, "functor"):
        return ty.functor, ty.inner


def _feed_unit(reg, ty):
    """UL/UR: feed units into ``F a -> b`` for an applicative F."""
    if (isinstance(ty, Arrow) and isinstance(ty.dom, Eff)
            and reg.has_cap(ty.dom.functor, "applicative")):
        return ty.dom.functor, Arrow(ty.dom.inner, ty.cod)


def _internalise(reg, ty):
    """EL/ER: read ``R (a -> b)`` as ``a -> R b`` for a right adjoint R
    that is a functor, since the reading maps over R."""
    if (isinstance(ty, Eff) and isinstance(ty.inner, Arrow)
            and any(ty.functor == right for _, right in reg.adjunctions())
            and reg.has_cap(ty.functor, "functor")):
        return ty.functor, Arrow(ty.inner.dom, Eff(ty.functor, ty.inner.cod))


def _on_left(kind, side):
    def step(reg, l, r):
        hit = side(reg, l)
        if hit is not None:
            return Mode(kind, hit[0]), (hit[1], r)
    return step


def _on_right(kind, side):
    def step(reg, l, r):
        hit = side(reg, r)
        if hit is not None:
            return Mode(kind, hit[0]), (l, hit[1])
    return step


def _merge(reg, l, r):
    if (isinstance(l, Eff) and isinstance(r, Eff) and l.functor == r.functor
            and reg.has_cap(l.functor, "applicative")):
        return Mode("a", l.functor), (l.inner, r.inner)


def _join(reg, ty):
    if (isinstance(ty, Eff) and isinstance(ty.inner, Eff)
            and ty.functor == ty.inner.functor and reg.has_cap(ty.functor, "monad")):
        return Mode("j", ty.functor), ty.inner


def _lower(reg, ty):
    if isinstance(ty, Eff) and ty.inner is _T and reg.lowering_for(ty.functor) is not None:
        return Mode("dn"), ty.inner


def _cancel(reg, ty):
    if (isinstance(ty, Eff) and isinstance(ty.inner, Eff)
            and reg.is_adjunction(ty.functor, ty.inner.functor)):
        return Mode("c", None, (ty.functor, ty.inner.functor)), ty.inner.inner


def _holds(f, x) -> bool:
    """Is ``f x`` true?  An ``Fn`` is run and a ``B`` read directly;
    anything else goes through :func:`apply_value` and :func:`_as_bool`,
    which raise their errors."""
    v = f.run(x) if isinstance(f, Fn) else apply_value(f, x)
    return v.value if isinstance(v, B) else _as_bool(v)


def _wrapper(on_left, through):
    """A wrapper mode's denotation: the inner combination runs on one
    child's value, the left (``on_left``) or the right, taken
    ``through(reg, functor, value, go, label)``, where ``go`` finishes the
    inner combination from what it is given and ``label`` names a closure
    made for it."""
    def denote(m, reg):
        f = m.functor
        if on_left:
            return lambda inner: lambda x, y: through(
                reg, f, x, lambda a: inner(a, y), "\\_a")
        return lambda inner: lambda x, y: through(
            reg, f, y, lambda b: inner(x, b), "\\_b")
    return denote


def _mapped(on_left):
    """ML/MR: map the inner combination over the left (``on_left``) or
    the right child's effect.  The functor's capability and its carrier's
    ``fmap`` are resolved when the combinator is built, and a child value
    of the carrier's class goes straight to that ``fmap``, over an ``Fn``
    of the inner combination.  Anything else, and every value where the
    registry or the carrier lacks what is needed, goes through
    :func:`fmap_apply`, which raises the error it always has when the
    combinator is applied.

    Over D the combinator makes no ``Fn`` and no closure: it builds the
    mapped ``StateV`` from the inner combinator, the fixed operand and the
    state, with a step that reads ``inner(a, y)`` or ``inner(x, a)``
    straight from them.  Only D gets this: it is the only carrier that
    memoises, so a mapped state keeps what it is built from for as long as
    it lives, and the only one the workloads stack deep ("a cat (in a
    box)^k" stacks up to seven)."""
    def denote(m, reg):
        f = m.functor
        try:
            reg.require_cap(f, "functor")
            carrier = _carrier(f, "fmap")
            cls, fmap = carrier.cls, carrier.fmap
        except TypeSysError:
            cls, fmap = (), None  # no classes: every value takes fmap_apply

        def mapped(inner, x, y):
            if on_left:
                go, v = Fn(lambda a: inner(a, y), label="\\_a"), x
            else:
                go, v = Fn(lambda b: inner(x, b), label="\\_b"), y
            return fmap(go, v) if isinstance(v, cls) else fmap_apply(reg, f, go, v)
        if cls is not StateV:
            return lambda inner: lambda x, y: mapped(inner, x, y)
        if on_left:
            return lambda inner: lambda x, y: (
                StateV.of(_map_left, (inner, y, x)) if isinstance(x, StateV)
                else mapped(inner, x, y))
        return lambda inner: lambda x, y: (
            StateV.of(_map_right, (inner, x, y)) if isinstance(y, StateV)
            else mapped(inner, x, y))
    return denote


def _fed_unit(reg, f, phi, go, label):
    """UL/UR: the inner combination takes ``λv. phi (η_f v)``."""
    return go(Fn(lambda v: apply_value(phi, eta(reg, f, v)), label=label))


def _internalised(reg, f, phi, go, label):
    """EL/ER: the inner combination takes ``Υ_f phi``."""
    return go(upsilon(reg, f, phi))


def _ap_both(m, reg):
    f = m.functor

    def curried(inner):
        return Fn(lambda a: Fn(lambda b: inner(a, b), label="\\_b"), label="\\_a")
    return lambda inner: lambda x, y: ap(
        reg, f, fmap_apply(reg, f, curried(inner), x), y)


def _around(wrap):
    """A postfix denotation: ``wrap(m, reg, v)`` around the inner result v."""
    def denote(m, reg):
        return lambda inner: lambda x, y: wrap(m, reg, inner(x, y))
    return denote


class _Rule(Record):
    """What one mode kind does in typing, denotation and diagrams.

    ``step`` is the typing rule; it returns None where the kind does not
    apply.  A base rule maps the child types ``(l, r)`` to ``(mode,
    result)``; a wrapper rule maps them to ``(mode, (l', r'))``, the
    child types its inner sequence combines; a postfix rule maps the
    result of its inner sequence to ``(mode, shrunk result)``.
    ``rewrap`` puts the mode's functor back on the inner result, when
    the functor applies to it.  ``denote(m, reg)`` is the mode's meaning
    as a combinator over values: for a base mode a function ``(left,
    right) -> value``, for a wrapper or postfix mode a transformer taking
    the inner sequence's such function to its own.  In a diagram
    the mode takes ``takes`` = (left, right) strings off its children's
    effect words and emits a ``cell`` cell, if any.
    """

    place: str  # "base", "wrapper" or "postfix"
    indexed_by: str | None  # what follows the kind in the rendering
    step: object
    denote: object
    rewrap: bool = False
    takes: tuple = (0, 0)
    cell: str | None = None


MODE_RULES = {
    "fwd": _Rule("base", None, _fwd, lambda m, reg: apply_value),
    "bwd": _Rule("base", None, _bwd, lambda m, reg: lambda x, phi: apply_value(phi, x)),
    # the right predicate runs only where the left one leaves the result open
    "conj": _Rule("base", None, _pointwise("conj"), lambda m, reg: lambda p, q: Fn(
        lambda x: TRUE if _holds(p, x) and _holds(q, x) else FALSE, label="\\_x")),
    "disj": _Rule("base", None, _pointwise("disj"), lambda m, reg: lambda p, q: Fn(
        lambda x: TRUE if _holds(p, x) or _holds(q, x) else FALSE, label="\\_x")),
    "ml": _Rule("wrapper", "functor", _on_left("ml", _strip), _mapped(True),
                rewrap=True, takes=(1, 0)),
    "mr": _Rule("wrapper", "functor", _on_right("mr", _strip), _mapped(False),
                rewrap=True, takes=(0, 1)),
    "a": _Rule("wrapper", "functor", _merge, _ap_both,
               rewrap=True, takes=(1, 1), cell="ap"),
    "ul": _Rule("wrapper", "functor", _on_right("ul", _feed_unit),
                _wrapper(False, _fed_unit)),
    "ur": _Rule("wrapper", "functor", _on_left("ur", _feed_unit), _wrapper(True, _fed_unit)),
    "el": _Rule("wrapper", "functor", _on_left("el", _internalise),
                _wrapper(True, _internalised)),
    "er": _Rule("wrapper", "functor", _on_right("er", _internalise),
                _wrapper(False, _internalised)),
    "j": _Rule("postfix", "functor", _join,
               _around(lambda m, reg, v: join(reg, m.functor, v)), cell="mu"),
    "dn": _Rule("postfix", None, _lower, _around(lambda m, reg, v: lower(v)), cell="lower"),
    "c": _Rule("postfix", "pair", _cancel,
               _around(lambda m, reg, v: counit(reg, *m.pair, v)), cell="epsilon"),
}
_RULES_AT = {place: tuple(rule for rule in MODE_RULES.values() if rule.place == place)
             for place in ("base", "wrapper", "postfix")}


def _rewrapped(reg, rule, mode, ty):
    if not rule.rewrap:
        return ty
    return Eff(mode.functor, ty) if reg.applicable(mode.functor, ty) else None


# -- enumeration -----------------------------------------------------------

def modes_by_type(reg: Registry, left: Ty, right: Ty, pruned: bool = False,
                  seq_cap: int | None = None) -> dict:
    """Mode sequences combining two constituent types, grouped by result
    type; each group is sorted and holds at most ``seq_cap`` sequences.

    The types alone bound the recursion: ML/MR/A/UL/UR recurse on smaller
    child types; EL/ER keep the size but leave an arrow on top, which no
    wrapper reads as an effect again; J/DN/C shrink the result type.
    With ``pruned`` the normal-form rules are applied inside the recursion
    (each rule is local to a bounded window, so prefix filtering equals
    post-filtering while skipping the discarded interleavings).  A group
    cap never hides a result type, because every type keeps at least one
    witness sequence; it bounds the work on deeply stacked effects, where
    the number of interleavings grows combinatorially.
    """
    key = (left, right, pruned, seq_cap)
    hit = reg._combo_cache.get(key)
    if hit is not None:
        return hit
    out: dict = {}

    def add(seq, ty) -> bool:
        bucket = out.setdefault(ty, set())
        before = len(bucket)
        bucket.add(seq)
        return len(bucket) != before

    for rule in _RULES_AT["base"]:
        offer = rule.step(reg, left, right)
        if offer is not None:
            add((offer[0],), offer[1])
    for rule in _RULES_AT["wrapper"]:
        offer = rule.step(reg, left, right)
        if offer is None:
            continue
        mode, children = offer
        for ty, seqs in modes_by_type(reg, *children, pruned, seq_cap).items():
            res = _rewrapped(reg, rule, mode, ty)
            if res is None:
                continue
            for seq in seqs:
                if not (pruned and _banned_prefix(mode, seq, reg)):
                    add((mode,) + seq, res)
    # postfix modes shrink existing results; close under chains
    frontier = [(ty, seq) for ty, seqs in out.items() for seq in seqs]
    while frontier:
        ty, seq = frontier.pop()
        for rule in _RULES_AT["postfix"]:
            offer = rule.step(reg, ty)
            if offer is None:
                continue
            mode, res = offer
            new = (mode,) + seq
            if not (pruned and _banned_prefix(mode, seq, reg)) and add(new, res):
                frontier.append((res, new))
    result = {ty: tuple(sorted(seqs, key=render_modes)[:seq_cap])
              for ty, seqs in out.items()}
    reg._combo_cache[key] = result
    return result


def enumerate_modes(reg: Registry, left: Ty, right: Ty,
                    pruned: bool = False) -> frozenset:
    """Every (mode sequence, result type) combining two constituent types.
    Sequences replay to their paired type."""
    grouped = modes_by_type(reg, left, right, pruned=pruned)
    return frozenset((seq, ty) for ty, seqs in grouped.items() for seq in seqs)


def replay_modes(reg: Registry, seq, lty: Ty, rty: Ty) -> Ty:
    """Replay a mode sequence on child types by the rules enumeration
    uses; raises :class:`ModeError` if it does not fit."""

    def go(i, l, r):
        if i == len(seq):
            raise ModeError("mode sequence has no base mode")
        m = seq[i]
        rule = MODE_RULES[m.kind]
        if rule.place == "base" and i != len(seq) - 1:
            raise ModeError("base mode must be innermost")
        if rule.place == "postfix":
            inner = go(i + 1, l, r)
            offer, on = rule.step(reg, inner), inner
        else:
            offer, on = rule.step(reg, l, r), f"({l}, {r})"
        if offer is None or offer[0] != m:
            raise ModeError(f"mode {m.render()} does not apply: {on}")
        if rule.place != "wrapper":
            return offer[1]
        res = _rewrapped(reg, rule, m, go(i + 1, *offer[1]))
        if res is None:
            raise ModeError(f"mode {m.render()} does not apply: "
                            f"{m.functor} does not wrap the result")
        return res

    if not seq:
        raise ModeError("empty mode sequence")
    return go(0, lty, rty)


# -- pruning ----------------------------------------------------------------

def _commutative(reg, f) -> bool:
    return f is not None and reg.has_cap(f, "monad") and reg.functor(f).commutative


def _banned_pair(a: Mode, b: Mode, reg: Registry) -> bool:
    """Adjacent pair (a outer, b inner) discarded by the rewrite rules."""
    # a unit applied right on top of ML/MR on the same effect is void
    if a.kind in ("ul", "ur") and b.kind in ("ml", "mr") and a.functor == b.functor:
        return True
    # when both orders yield the same stack, take the left effect first
    if a.kind == "mr" and b.kind == "ml" and a.functor == b.functor:
        return True
    # a counit directly under another counit or an applicative merge
    if b.kind == "c" and a.kind in ("c", "a"):
        return True
    if _commutative(reg, a.functor) and a.functor == b.functor:
        if (a.kind, b.kind) in (("mr", "a"), ("a", "ml")):
            return True
    return False


_TRIPLE_FLANKS = (("ml", "ml"), ("mr", "mr"), ("ml", "mr"), ("a", "mr"), ("ml", "a"))


def _banned_triple(a: Mode, mid: Mode, b: Mode, reg: Registry) -> bool:
    """Triple (a, mid, b) with a shrinking move in the middle, discarded by
    the earliest-point normalisation.

    For scope-taking effects (those with a registered lowering) the order
    of joins and lowerings encodes scope, so the orders are genuinely
    distinct readings and survive.
    """
    f = a.functor
    if f is None or f != b.functor:
        return False
    shrinks = mid.kind == "c" or (mid.kind == "j" and mid.functor == f)
    if shrinks:
        pair = (a.kind, b.kind)
        if reg.lowering_for(f) is None and pair in _TRIPLE_FLANKS:
            return True
        if _commutative(reg, f) and pair in (("mr", "ml"), ("a", "a")):
            return True
    if (mid.kind == "dn" and reg.lowering_for(f) is None
            and (a.kind, b.kind) in _TRIPLE_FLANKS):
        return True
    return False


def _banned_prefix(mode: Mode, seq: tuple, reg: Registry) -> bool:
    """Would prepending ``mode`` create a discarded window?  All rules are
    local to pairs/triples except the lowering/counit co-occurrence ban."""
    if seq and _banned_pair(mode, seq[0], reg):
        return True
    if len(seq) >= 2 and _banned_triple(mode, seq[0], seq[1], reg):
        return True
    if mode.kind == "dn" and any(m.kind == "c" for m in seq):
        return True
    if mode.kind == "c" and any(m.kind == "dn" for m in seq):
        return True
    return False


def prune(seq, reg: Registry) -> bool:
    """True iff the sequence survives the normal-form pruning rules.

    Patterns are matched as contiguous windows of the outermost-first mode
    list; triple patterns carry a shrinking move (a join on the same
    functor, or any counit) in the middle.
    """
    return not any(_banned_prefix(seq[i], seq[i + 1:], reg) for i in range(len(seq)))


# -- derivations -------------------------------------------------------------

class Derivation(Record):
    pass


class Leaf(Derivation):
    entry: LexEntry

    def __init__(self, entry):
        object.__setattr__(self, "entry", entry)

    @property
    def ty(self) -> Ty:
        return self.entry.ty


class Branch(Derivation):
    """A combination of two subderivations.  Beside its fields it carries
    two memos.  The node memo's state is ``_uses``, the uses of its value
    still to come, and ``_memo``, ``(model, reg, outcome)`` or None, where
    the outcome is the value or the evaluation error it raised (see
    :func:`_node_value`).  ``_drawn`` is its diagram summary or the
    planarity error it keeps, once a diagram through it has been drawn
    (see :func:`effparse.diagrams.from_derivation`); it depends on the
    derivation alone."""

    ty: Ty
    modes: tuple
    left: Derivation
    right: Derivation
    _uses = 0
    _memo = None
    _drawn = None

    def __init__(self, ty, modes, left, right):
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class NodeTerm(T.Term):
    """The closed term of a branch: it evaluates to the branch's value
    through the node memo (see :func:`_node_value`)."""

    node: Branch

    def __init__(self, node):
        object.__setattr__(self, "node", node)


def derivation_term(reg: Registry, d: Derivation) -> T.Term:
    """One closed term for a derivation.

    A leaf is its lexical term.  A branch with modes m1 ... mk is a
    :class:`NodeTerm`, whose value is :func:`branch_value`: the mode
    combinators composed, ``m1(... mk-1(mk))``, applied to the left and
    right children's values.  That is the value of the λ-term that
    substitutes each figure into its wrappers' transformers, evaluated
    call-by-value.  Branches of one :meth:`Forest.derivations` list share
    a memo of outcomes: each branch is evaluated once, whether it yields a
    value or raises one of :data:`~effparse.lambda_eval.EVAL_ERRORS`, and
    its outcome is dropped after its last use, so evaluating the list in
    order holds only the outcomes still to be used.
    """
    if isinstance(d, Leaf):
        return d.entry.term
    return NodeTerm(d)


_NO_ENV: dict = {}


def _node_value(d: Derivation, model, reg: Registry):
    """The value of a derivation node under ``model`` and ``reg``.

    A branch keeps its :func:`outcome`, its value or the evaluation error
    it raised, keyed by the identity of ``(model, reg)``, and a kept error
    is raised again at each use; any other exception propagates.  It
    counts its uses down from what :meth:`Forest.derivations` recorded
    (one per parent, one as a root) and drops the outcome at the last one.
    Its evaluation uses each child once, whether or not it fails, so
    evaluating the list in order spends every recorded use once.  A branch
    used out of order, more often than counted, under another model, or
    not made by ``derivations`` is recomputed.  The uses are counted
    because the simpler memos cost more: keeping each outcome for as long
    as its branch lives, or memoising only below the root, read 8.9% and
    5.6% more peak memory and 8.5% and 6.4% fewer operations per second on
    the ambiguity workload (``tools/bench_pairs.py``, 6 pairs of 8 s, 2
    cores, Python 3.11.7).
    """
    if isinstance(d, Leaf):
        return eval_term(d.entry.term, _NO_ENV, model, reg)
    uses = d._uses - 1
    object.__setattr__(d, "_uses", uses)
    held = d._memo
    if held is None or held[0] is not model or held[1] is not reg:
        held = model, reg, outcome(branch_value, d, reg,
                                   lambda child: outcome(_node_value, child, model, reg))
    object.__setattr__(d, "_memo", held if uses > 0 else None)
    return value_of(held[2])


def outcome(f, *args):
    """``f(*args)``, or the error it raised if that is one of
    :data:`~effparse.lambda_eval.EVAL_ERRORS`, kept without its traceback
    and without the exception it was raised while handling (its
    ``__context__``, never printed, since every evaluation error is raised
    ``from None``), so a kept error holds no frames of the evaluation that
    raised it.  Any other exception propagates at once."""
    try:
        return f(*args)
    except EVAL_ERRORS as exc:
        exc.__context__ = None
        return exc.with_traceback(None)


def value_of(result):
    """The value of an :func:`outcome`.  A kept error is raised with a
    fresh traceback, so raising it at each use does not grow it."""
    if isinstance(result, EVAL_ERRORS):
        raise result.with_traceback(None)
    return result


def branch_value(d: Branch, reg: Registry, child_outcome):
    """The value of ``d`` given ``child_outcome(child)``, a child's
    :func:`outcome`.  Both children are taken, left then right, and the
    first failure in call-by-value order is raised: the left child's, the
    right child's, then the combination's.  The combinator of the
    branch's modes, built once per mode sequence and registry (see
    :func:`_combinator`), is applied to the two values; no term is
    evaluated."""
    left, right = child_outcome(d.left), child_outcome(d.right)
    return _combinator(d.modes, reg)(value_of(left), value_of(right))


@lru_cache(maxsize=1 << 12)
def _combinator(modes: tuple, reg: Registry):
    """The function ``(left, right) -> value`` of the mode sequence m1
    ... mk under ``reg``: the combinators of :data:`MODE_RULES` composed
    from the innermost mode out, ``m1(... mk-1(mk))``.  It is built once
    per sequence and registry, around the combinator of ``m2 ... mk``, so
    sequences with the same inner sequence share its combinator.
    Building it raises nothing; every check runs when it is applied."""
    m = modes[0]
    denote = MODE_RULES[m.kind].denote(m, reg)
    return denote if len(modes) == 1 else denote(_combinator(modes[1:], reg))


def _compile_node(t: NodeTerm):
    """The closure of a :class:`NodeTerm`.  It holds the branch, not the
    term that keeps the closure, so the two make no reference cycle."""
    node = t.node
    return lambda env, model, reg: _node_value(node, model, reg)


COMPILE[NodeTerm] = _compile_node


def _count_uses(roots) -> None:
    """Record on each branch reachable from ``roots`` how often its value
    is used: once per distinct parent, plus once per root occurrence."""
    stack = list(roots)
    while stack:
        d = stack.pop()
        if isinstance(d, Branch):
            object.__setattr__(d, "_uses", d._uses + 1)
            if d._uses == 1:
                stack += (d.left, d.right)


def derivation_key(d: Derivation, memo: dict | None = None):
    """Sort key of a derivation: type, mode string, then the left and right
    subtrees.  ``memo`` maps ``id(node)`` to its key, so a subtree shared by
    many derivations is keyed once; the nodes must stay alive while it is
    in use.  The text of each type and mode sequence comes from a cache
    keyed by the type or sequence itself."""
    if memo is None:
        memo = {}
    key = memo.get(id(d))
    if key is None:
        if isinstance(d, Leaf):
            key = ("L", d.entry.surface, _type_text(d.entry.ty))
        else:
            key = ("B", _type_text(d.ty), _modes_text(d.modes),
                   derivation_key(d.left, memo), derivation_key(d.right, memo))
        memo[id(d)] = key
    return key


def mode_count(d: Derivation) -> int:
    if isinstance(d, Leaf):
        return 0
    return len(d.modes) + mode_count(d.left) + mode_count(d.right)


# -- syntax CFG ---------------------------------------------------------------

class SyntaxCFG(Record):
    """A syntactic CFG.  Each category set is a tuple in the order the
    parser visits it, sorted by the categories' text."""

    binary: dict  # (cat, cat) -> tuple of LHS
    unary: dict   # terminal category -> tuple of categories (closure, incl. self)

    def leaf_categories(self, cat) -> tuple:
        return self.unary.get(cat, (cat,))


def load_syntax_text(text: str) -> SyntaxCFG:
    binary: dict = {}
    edges: dict = {}

    def rule(form, line):
        cats = [_symbol(x, line) for x in form.items[1:]]
        if len(cats) == 3:
            binary.setdefault((cats[1], cats[2]), set()).add(cats[0])
        elif len(cats) == 2:
            edges.setdefault(cats[1], set()).add(cats[0])
        else:
            raise LanguageParseError(
                "rule forms are (rule LHS RHS1 RHS2) or (rule LHS CAT)", line)

    load_forms(text, {"rule": rule},
               unknown="syntax files contain only (rule ...) forms")
    unary = {}
    for cat in set(edges) | {c for tgts in edges.values() for c in tgts}:
        seen = {cat}
        frontier = [cat]
        while frontier:
            nxt = frontier.pop()
            for lhs in edges.get(nxt, ()):
                if lhs not in seen:
                    seen.add(lhs)
                    frontier.append(lhs)
        unary[cat] = tuple(sorted(seen, key=str))
    return SyntaxCFG(binary={k: tuple(sorted(v, key=str)) for k, v in binary.items()},
                     unary=unary)


def load_syntax(path) -> SyntaxCFG:
    return load_file(path, load_syntax_text)


# -- chart parsing -------------------------------------------------------------

class _Item(Record, frozen=False):
    """A chart item.  Each of its ``sources`` is a :class:`LexEntry` seeded
    over the item's span or a packed back-pointer ``(seqs, left, right)``:
    every mode sequence in ``seqs`` combines the two child items into this
    item's type.  Back-pointers are plain tuples because a long sentence
    makes thousands of them."""

    span: tuple
    cat: object
    ty: Ty
    sources: list

    def __init__(self, span, cat, ty):
        self.span, self.cat, self.ty, self.sources = span, cat, ty, []

    @cached_property
    def key(self):
        """Sort key; span, category and type never change once made."""
        return (self.span, "" if self.cat is None else str(self.cat), _type_text(self.ty))


class Forest(Record, frozen=False):
    """A packed chart over ``n`` tokens: ``chart[(i, j)]`` is the cell of
    span ``(i, j)``, which maps ``(category, type)`` to its :class:`_Item`;
    types are interned, so the key hashes and compares in C."""

    n: int
    chart: dict

    def root_items(self):
        return list(self.chart.get((0, self.n), {}).values())

    def packed_node_count(self) -> int:
        return sum(len(item.sources)
                   for cell in self.chart.values() for item in cell.values())

    def derivations(self, limit: int = 64):
        """The first ``limit`` derivations in key order: the first
        ``limit`` of each root item, sorted by :func:`derivation_key` and
        cut.  A branch's key starts with its type text and every leaf's key
        sorts after every branch's, so root items are unpacked a type text
        at a time, in sorted order, only until complete types hold
        ``limit`` branches; no later root can reach the list.  Each branch
        records how often evaluating the list in order uses its value
        (see :func:`_count_uses`)."""
        memo: dict = {}
        by_type: dict = {}
        for item in sorted(self.root_items(), key=lambda it: it.key):
            by_type.setdefault(_type_text(item.ty), []).append(item)
        out = []
        branches = 0
        for text in sorted(by_type):
            if branches >= limit:
                break
            for item in by_type[text]:
                found = _unpack(item, limit, memo)
                out.extend(found)
                branches += sum(isinstance(d, Branch) for d in found)
        keys: dict = {}
        out.sort(key=lambda d: derivation_key(d, keys))
        derivs = tuple(out[:limit])
        _count_uses(derivs)
        return derivs


def _unpack(item: _Item, limit: int, memo: dict):
    """The item's first ``limit`` derivations in packed-source order.
    ``memo`` maps ``id(item)`` to them."""
    key = id(item)
    if key in memo:
        return memo[key]
    memo[key] = []  # cycle guard; charts are acyclic but be safe
    out = []
    entries = sorted((s for s in item.sources if isinstance(s, LexEntry)),
                     key=lambda e: e.surface)
    bin_srcs = sorted((s for s in item.sources if not isinstance(s, LexEntry)),
                      key=lambda s: (_modes_text(s[0][0]), s[1].key, s[2].key))
    for entry in entries:
        out.append(Leaf(entry))
        if len(out) >= limit:
            break
    for seqs, left, right in bin_srcs:
        if len(out) >= limit:
            break
        for seq in seqs:
            for l in _unpack(left, limit, memo):
                for r in _unpack(right, limit, memo):
                    out.append(Branch(item.ty, seq, l, r))
                    if len(out) >= limit:
                        break
                if len(out) >= limit:
                    break
            if len(out) >= limit:
                break
    memo[key] = out[:limit]
    return memo[key]


def parse_forest(tokens, lex: Lexicon, syntax: SyntaxCFG | None = None,
                 prune_seqs: bool = True, seq_cap: int | None = None) -> Forest:
    """The packed CKY chart of ``tokens``.  A cell keys its items by
    ``(category, type)``, and the mode sequences of each pair of child
    types are looked up once per parse; types are interned, so neither
    lookup hashes or compares a deep type.  ``seq_cap`` caps each group of
    mode sequences (see :func:`modes_by_type`)."""
    if seq_cap is not None and seq_cap < 1:
        raise ValueError(f"seq_cap must be at least 1, got {seq_cap}")
    reg = lex.registry
    n = len(tokens)
    folded = tuple(t.casefold() for t in tokens)
    chart: dict = {(i, j): {} for j in range(1, n + 1) for i in range(j)}

    def add_item(cell, span, cat, ty, source):
        it = cell.get((cat, ty))
        if it is None:
            it = cell[(cat, ty)] = _Item(span, cat, ty)
        it.sources.append(source)

    # each entry is seeded over every span its tokens match, so each leaf
    # cell receives its entries in lexicon order
    covered = [False] * n
    for e in lex.entries:
        k = len(e.tokens)
        for i in range(n - k + 1):
            if folded[i:i + k] == e.tokens:
                for cat in syntax.leaf_categories(e.category) if syntax else (e.category,):
                    add_item(chart[(i, i + k)], (i, i + k), cat, e.ty, e)
                covered[i:i + k] = [True] * k
    if not all(covered):
        p = covered.index(False)
        raise UnknownTokenError(tokens[p], p)

    combos_of: dict = {}
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell = chart[(i, j)]
            for k in range(i + 1, j):
                right_items = chart[(k, j)].items()
                for (lcat, lty), litem in chart[(i, k)].items():
                    for (rcat, rty), ritem in right_items:
                        targets = ((None,) if syntax is None
                                   else syntax.binary.get((lcat, rcat), ()))
                        if not targets:
                            continue
                        combos = combos_of.get((lty, rty))
                        if combos is None:
                            combos = combos_of[(lty, rty)] = modes_by_type(
                                reg, lty, rty, pruned=prune_seqs, seq_cap=seq_cap).items()
                        for ty, seqs in combos:
                            src = (seqs, litem, ritem)
                            for cat in targets:  # add_item, inlined in the hot loop
                                it = cell.get((cat, ty))
                                if it is None:
                                    it = cell[(cat, ty)] = _Item((i, j), cat, ty)
                                it.sources.append(src)
    return Forest(n=n, chart=chart)


def parse(tokens, lex: Lexicon, syntax: SyntaxCFG | None = None,
          prune_seqs: bool = True, max_derivations: int = 64):
    """CKY parse; returns the (capped, deterministically ordered) tuple of
    whole-input derivations.

    Sequence groups inside the forest are capped at ``max_derivations``
    too: the output can never contain more alternatives than that, so
    larger groups are unreachable anyway.
    """
    if max_derivations < 1:
        raise ValueError(f"max_derivations must be at least 1, got {max_derivations}")
    if not tokens:
        return ()
    forest = parse_forest(tokens, lex, syntax=syntax, prune_seqs=prune_seqs,
                          seq_cap=max_derivations)
    return forest.derivations(limit=max_derivations)
