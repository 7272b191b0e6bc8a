"""Lambda-term IR for word denotations.

Terms are immutable trees.  Effect operations (fmap, unit, join, ap,
counit, internalisation, lowering, named transformations) appear as
explicit nodes whose functor arguments are effect names resolved against
the registry at evaluation time.  ``Coerce`` is internal: the type checker
inserts it where a literal carrier term (a lambda over assignments,
states, or continuations) stands for an effect-typed value.  Combination
modes have no terms here: ``combine.MODE_RULES`` gives each one's meaning
as a combinator over values.
"""

from __future__ import annotations

import itertools

from .record import Record


class Term(Record):
    pass


class Var(Term):
    name: str


class Lam(Term):
    param: str
    body: Term


class App(Term):
    fn: Term
    arg: Term


class Pair(Term):
    left: Term
    right: Term


class Pred(Term):
    name: str
    args: tuple


class Const(Term):
    entity: str


class BoolLit(Term):
    value: bool


class Not(Term):
    arg: Term


class And(Term):
    left: Term
    right: Term


class Or(Term):
    left: Term
    right: Term


class Eq(Term):
    left: Term
    right: Term


class If(Term):
    cond: Term
    then: Term
    other: Term


class Forall(Term):
    var: str
    body: Term


class Exists(Term):
    var: str
    body: Term


class SetBuilder(Term):
    """{ yields | var ranges over entities, guard holds }"""

    var: str
    guard: Term
    yields: Term


class Push(Term):
    """Prepend an element to a discourse-state sequence."""

    item: Term
    seq: Term


class Idx(Term):
    """Read a position of an assignment/state sequence."""

    seq: Term
    index: int


class Fmap(Term):
    functor: str
    fn: Term
    arg: Term


class Eta(Term):
    functor: str
    arg: Term


class Mu(Term):
    functor: str
    arg: Term


class ApOp(Term):
    functor: str
    fn: Term
    arg: Term


class Eps(Term):
    left: str
    right: str
    arg: Term


class Upsilon(Term):
    functor: str
    fn: Term


class Lower(Term):
    arg: Term


class ApplyNat(Term):
    """Apply a registered natural transformation (handlers included)."""

    name: str
    arg: Term


class Coerce(Term):
    """Internal: wrap the value of ``body`` as the carrier of ``functor``."""

    functor: str
    body: Term


_counter = itertools.count()


def fresh_var(stem: str = "v") -> str:
    """A variable name that cannot collide with language-file symbols."""
    return f"_{stem}{next(_counter)}"


def var_stem(name: str) -> str:
    """``name`` without the counter :func:`fresh_var` appends, so printed
    output does not depend on how many terms the process built before."""
    return name.rstrip("0123456789") if name.startswith("_") else name
