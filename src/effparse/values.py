"""Runtime values, extensional equality, and deterministic rendering.

Plain data (booleans, entities, pairs, finite sets, optionals, entity
sequences) compares structurally with ``==``, and function-like carriers
(closures, readers, state transformers, continuations) compare by
identity; a finite set holds each element once under that equality, in
the order first given, and compares as a set.  :func:`values_equal`
compares function-like carriers extensionally instead, over a finite
probe domain derived from the model: all entities, both booleans,
characteristic predicates of entity subsets (every subset on models of at
most five entities, singletons and their complements on larger ones), and
every assignment/state sequence of length at most two.  That truncation
makes value equality decidable at desk scale, which the law suites rely on.

A state transformer runs once per distinct state: each ``StateV`` is one
object that holds a first-order step function, the operand the step reads
and its own memo of runs, keyed by the state, for as long as the value
lives, so values that several derivations share do not repeat their runs
when forced.
Truth values are immutable, so code that makes them at a high rate hands
out :data:`TRUE` and :data:`FALSE` instead of allocating a ``B`` each time.
"""

from __future__ import annotations

from itertools import product

from .model import Model
from .record import Record, cached_hash


class ValueError_(Exception):
    """Raised when values cannot be compared or are shape-mismatched."""


class _Absent:
    __slots__ = ()

    def __repr__(self):
        return "#"


ABSENT = _Absent()


class Value(Record):
    """A runtime value.  Plain data compares structurally: each record
    class compares its fields, and ``SetV`` compares its elements as a
    set.  The function-like carriers are declared ``eq=False``, so they
    compare by identity; :func:`values_equal` compares them
    extensionally.  Every value class stores its fields in its own
    constructor, as values are built at a high rate (see
    :mod:`effparse.record`)."""


class B(Value):
    value: bool

    def __init__(self, value):
        object.__setattr__(self, "value", value)


TRUE, FALSE = B(True), B(False)


class E(Value):
    name: str

    def __init__(self, name):
        object.__setattr__(self, "name", name)


class PairV(Value):
    left: Value
    right: Value

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class MaybeV(Value):
    payload: object  # Value or ABSENT

    def __init__(self, payload):
        object.__setattr__(self, "payload", payload)

    @property
    def absent(self) -> bool:
        return self.payload is ABSENT


class SeqV(Value):
    """Assignment / discourse-state sequence.  Its hash is computed once,
    as states are the keys of every ``StateV`` memo."""

    items: tuple = ()

    def __init__(self, items=()):
        object.__setattr__(self, "items", items)

    __hash__ = cached_hash(lambda s: hash(s.items))


class SetV(Value):
    """Finite set under the values' own equality.

    ``elems`` holds the first occurrence of each element, in the order
    given, so equal data is kept once and a function-like element is a
    duplicate only of itself.  A set of 0 or 1 element keeps it as given
    without hashing it.  Two sets are equal when they hold the same
    elements, whatever their order; :func:`render` sorts the elements'
    texts, so printing does not depend on the order either.
    """

    __slots__ = ("elems",)

    def __init__(self, elems=()):
        elems = tuple(elems)
        if len(elems) > 1:
            elems = tuple(dict.fromkeys(elems))
        object.__setattr__(self, "elems", elems)

    def __setattr__(self, *a):
        raise AttributeError("SetV is immutable")

    def __repr__(self):
        return f"SetV({list(self.elems)!r})"

    def __eq__(self, other):
        if not isinstance(other, SetV):
            return NotImplemented
        return frozenset(self.elems) == frozenset(other.elems)

    def __hash__(self):
        return hash(frozenset(self.elems))


class Fn(Value, eq=False):
    run: object  # Value -> Value
    label: str = "fn"

    def __init__(self, run, label="fn"):
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "label", label)


class ReaderV(Value, eq=False):
    run: object  # SeqV -> Value

    def __init__(self, run):
        object.__setattr__(self, "run", run)


class StateV(Value, eq=False):
    """A state transformer: ``run`` maps a state ``SeqV`` to a ``SetV`` of
    ``PairV(value, state)`` outcomes.

    A state is one object, with no closure: it holds a first-order
    ``step``, the ``operand`` the step reads, and its own memo.
    ``run(s)`` looks ``s`` up in the memo, keyed by the state's structural
    equality and hash, and on a miss stores ``step(operand, s)``, so each
    ``StateV`` runs its step once per distinct state and returns the same
    outcome set at every later call on an equal state.  That is sound
    because a run is a pure function of its state under the model and
    registry the value was built with, and outcomes are immutable.  A run
    that raises stores nothing.  ``StateV(run)`` is the state whose step
    calls ``run``; :meth:`of` takes the step and its operand, as the state
    transformers of :mod:`effparse.lambda_eval` do, whose steps also check
    their outcomes.  The step is given the operand, not the ``StateV``,
    so the memo adds no reference cycle and is freed with the value."""

    step: object  # (operand, SeqV) -> SetV of PairV(Value, SeqV)
    operand: object

    def __init__(self, run):
        object.__setattr__(self, "step", _call)
        object.__setattr__(self, "operand", run)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def of(cls, step, operand):
        """The state that runs ``step(operand, s)`` on a state ``s``."""
        st = cls.__new__(cls)
        object.__setattr__(st, "step", step)
        object.__setattr__(st, "operand", operand)
        object.__setattr__(st, "_memo", {})
        return st

    def run(self, s):
        out = self._memo.get(s)
        if out is None:
            out = self._memo[s] = self.step(self.operand, s)
        return out


def _call(run, s):
    return run(s)


class ContV(Value, eq=False):
    run: object  # (Value -> B) -> B

    def __init__(self, run):
        object.__setattr__(self, "run", run)


def render(v) -> str:
    """Deterministic human-readable form (used by the CLI)."""
    if isinstance(v, B):
        return "T" if v.value else "F"
    if isinstance(v, E):
        return v.name
    if isinstance(v, MaybeV):
        return "#" if v.absent else render(v.payload)
    if isinstance(v, PairV):
        return f"<{render(v.left)}, {render(v.right)}>"
    if isinstance(v, SeqV):
        return "[" + " ".join(render(x) for x in v.items) + "]"
    if isinstance(v, SetV):
        return "{" + ", ".join(sorted(render(x) for x in v.elems)) + "}"
    if isinstance(v, Fn):
        return f"<{v.label}>"
    if isinstance(v, ReaderV):
        return "<reader>"
    if isinstance(v, StateV):
        return "<state>"
    if isinstance(v, ContV):
        return "<cont>"
    return repr(v)


# -- probe domains -------------------------------------------------------

_MAX_PROBE_DEPTH = 4


def probe_sequences(model: Model) -> tuple:
    """All entity sequences of length <= 2, plus the model's own."""
    seqs = [SeqV(())]
    ents = model.entities
    seqs.extend(SeqV((E(e),)) for e in ents)
    seqs.extend(SeqV((E(a), E(b))) for a, b in product(ents, repeat=2))
    for extra in (model.initial_assignment, model.initial_state):
        s = SeqV(tuple(E(e) for e in extra))
        if s not in seqs:
            seqs.append(s)
    return tuple(seqs)


def probe_continuations(model: Model) -> tuple:
    """Constant continuations, boolean passthrough, and characteristic
    predicates of entity subsets: every subset on models of at most five
    entities, else each singleton and its complement, which still tell a
    universal from an existential continuation."""
    conts = [lambda v: B(True), lambda v: B(False),
             lambda v: v if isinstance(v, B) else B(False)]
    ents = model.entities
    if len(ents) <= 5:
        subsets = [frozenset(e for i, e in enumerate(ents) if mask >> i & 1)
                   for mask in range(1 << len(ents))]
    else:
        subsets = [frozenset([e]) for e in ents]
        subsets += [frozenset(ents) - s for s in subsets]
    for chosen in subsets:
        conts.append(lambda v, s=chosen: B(isinstance(v, E) and v.name in s))
    return tuple(conts)


def probe_arguments(model: Model) -> tuple:
    args = [B(True), B(False)]
    args.extend(E(e) for e in model.entities)
    for c in probe_continuations(model):
        args.append(Fn(c, label="probe"))
    return tuple(args)


def values_equal(a, b, model: Model, depth: int = 0) -> bool:
    """Structural on data, extensional (over the model probes) on
    function-like carriers."""
    if depth > _MAX_PROBE_DEPTH:
        raise ValueError_("value comparison exceeded probe depth")
    if isinstance(a, B) and isinstance(b, B):
        return a == b
    if isinstance(a, E) and isinstance(b, E):
        return a == b
    if isinstance(a, MaybeV) and isinstance(b, MaybeV):
        if a.absent or b.absent:
            return a.absent and b.absent
        return values_equal(a.payload, b.payload, model, depth)
    if isinstance(a, PairV) and isinstance(b, PairV):
        return (values_equal(a.left, b.left, model, depth)
                and values_equal(a.right, b.right, model, depth))
    if isinstance(a, SeqV) and isinstance(b, SeqV):
        return (len(a.items) == len(b.items)
                and all(values_equal(x, y, model, depth) for x, y in zip(a.items, b.items)))
    if isinstance(a, SetV) and isinstance(b, SetV):
        return (_set_includes(a, b, model, depth)
                and _set_includes(b, a, model, depth))
    if isinstance(a, ReaderV) and isinstance(b, ReaderV):
        return _probes_agree(a.run, b.run, probe_sequences(model), model, depth)
    if isinstance(a, StateV) and isinstance(b, StateV):
        return _probes_agree(a.run, b.run, probe_sequences(model), model, depth)
    if isinstance(a, ContV) and isinstance(b, ContV):
        return _probes_agree(a.run, b.run, probe_continuations(model), model, depth)
    if isinstance(a, Fn) and isinstance(b, Fn):
        return _probes_agree(a.run, b.run, probe_arguments(model), model, depth)
    return False


def _probed(f, x):
    """Apply a probe; collapse an evaluation error to a comparable token."""
    from .lambda_eval import EVAL_ERRORS
    try:
        return f(x)
    except EVAL_ERRORS as exc:
        # probes may be ill-typed on purpose
        return f"!{type(exc).__name__}"


def _probes_agree(fa, fb, probes, model, depth) -> bool:
    for x in probes:
        ra, rb = _probed(fa, x), _probed(fb, x)
        if isinstance(ra, str) or isinstance(rb, str):
            if ra != rb:
                return False
        elif not values_equal(ra, rb, model, depth + 1):
            return False
    return True


def _set_includes(a: SetV, b: SetV, model, depth) -> bool:
    return all(any(values_equal(x, y, model, depth + 1) for y in a.elems)
               for x in b.elems)
