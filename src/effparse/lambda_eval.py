"""Call-by-value evaluation of denotation terms.

``eval_term`` compiles each term once to a Python closure and keeps it on
the term: ``COMPILE`` holds one rule per term class, and a term's closure
calls its subterms' closures directly instead of walking the tree on each
evaluation.  Lexical terms are long-lived, so they are compiled once per
process.  The closures take the environment, model and registry
on every call and capture none of them, so one compiled term serves any
model; errors (unbound variables, terms no rule compiles) are raised when
the term is evaluated, not when it is compiled.  ``combine`` adds the rule
for derivation nodes: a branch's term evaluates through a memo kept on the
branch, so a subtree shared by many derivations of one list is evaluated
once, and the branch's modes combine its children's values through the
functor operations defined here, with no term of their own.  The memo
keeps the branch's outcome, its value or the error its evaluation
raised, and drops it after its last use.  ``EVAL_ERRORS`` lists the
errors evaluation raises because of the language or model it runs on;
they are kept without their tracebacks and printed as ``<error: ...>``,
and any other exception is a fault in the program and propagates.  Every
state transformer built here is one ``StateV`` object, with no closure: a
first-order step, the operands it reads and the object's own memo.  On a
miss the state runs its step, which computes and checks the outcomes, and
stores what the step returns, so each stored run is checked once and a
run that fails stores nothing.

Evaluation is deterministic and left-to-right; quantifiers and set
builders range over the model's entities; predicates read the model's
extensions.  Each registered effect functor is backed by the value
carrier that ``CARRIERS`` defines for its name.  ``P`` is the left
adjoint of ``G``; the counit applies the reader inside a pair to the
paired assignment.  Functors registered under other names type-check and
appear in diagrams but have no runtime carrier: evaluating them raises
``UnknownEffectError``, one of ``EVAL_ERRORS``.
"""

from __future__ import annotations

from typing import Callable

from . import terms as T
from .model import Model, ModelError
from .record import Record
from .typesys import (Arrow, CapabilityError, Eff, NatDef, Prod, Registry,
                      TypeSysError, UnknownEffectError)
from .values import (ABSENT, FALSE, TRUE, B, ContV, E, Fn, MaybeV, PairV, ReaderV,
                     SeqV, SetV, StateV, ValueError_, render, values_equal)


class EvalError(Exception):
    pass


class UnboundVariableError(EvalError):
    pass


class NotAFunctionError(EvalError):
    pass


class ShapeError(EvalError):
    """A value does not have the carrier shape an operation expects."""


# what evaluation may raise because of the language or model it runs on:
# a value of the wrong shape, a predicate or entity the model lacks, a
# functor with no runtime carrier, or values that cannot be compared
EVAL_ERRORS = (EvalError, ModelError, TypeSysError, ValueError_)


def apply_value(fn, arg):
    if isinstance(fn, Fn):
        return fn.run(arg)
    raise NotAFunctionError(f"cannot apply non-function value {render(fn)}")


def _as_bool(v) -> bool:
    if not isinstance(v, B):
        raise ShapeError(f"expected a truth value, got {render(v)}")
    return v.value


def _as_entity(v) -> str:
    if not isinstance(v, E):
        raise ShapeError(f"expected an entity, got {render(v)}")
    return v.name


# -- the compiler --------------------------------------------------------

def eval_term(term, env: dict, model: Model, reg: Registry):
    """Evaluate a term under ``env``, which binds its free variables."""
    return _compiled(term)(env, model, reg)


def _compiled(term):
    """The term's code: a closure ``(env, model, reg) -> value``.  It is
    built on first use and kept on the term, which is immutable; it holds
    no model, registry or environment, so one code serves every call."""
    code = getattr(term, "_code", None)
    if code is None:
        rule = COMPILE.get(type(term))
        if rule is None:
            return _cannot_evaluate(term)
        code = rule(term)
        object.__setattr__(term, "_code", code)
    return code


def _cannot_evaluate(term):
    def run(env, model, reg):
        raise EvalError(f"cannot evaluate {term!r}")
    return run


def _var(t):
    name = t.name

    def run(env, model, reg):
        try:
            return env[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name}") from None
    return run


def _lam(t):
    param, body, label = t.param, _compiled(t.body), f"\\{T.var_stem(t.param)}"

    def run(env, model, reg):
        return Fn(lambda v: body({**env, param: v}, model, reg), label=label)
    return run


def _app(t):
    fn, arg = _compiled(t.fn), _compiled(t.arg)

    def run(env, model, reg):
        f = fn(env, model, reg)
        v = arg(env, model, reg)
        if isinstance(f, Fn):
            return f.run(v)
        return apply_value(f, v)
    return run


def _bool_lit(t):
    v = B(t.value)
    return lambda env, model, reg: v


def _const(t):
    name, v = t.entity, E(t.entity)

    def run(env, model, reg):
        model.entity_index(name)
        return v
    return run


def _pred(t):
    name, args, arity = t.name, tuple(_compiled(a) for a in t.args), len(t.args)

    def run(env, model, reg):
        ents = []
        for a in args:
            v = a(env, model, reg)
            ents.append(v.name if isinstance(v, E) else _as_entity(v))
        return TRUE if tuple(ents) in model.extension(name, arity) else FALSE
    return run


def _on(field: str, op):
    """A node with one subterm: ``op(t, v, model, reg)`` finishes it from
    the subterm's value ``v``."""
    def rule(t):
        sub = _compiled(getattr(t, field))
        return lambda env, model, reg: op(t, sub(env, model, reg), model, reg)
    return rule


def _on2(first: str, second: str, op):
    """A node with two subterms, evaluated left to right."""
    def rule(t):
        a, b = _compiled(getattr(t, first)), _compiled(getattr(t, second))
        return lambda env, model, reg: op(t, a(env, model, reg), b(env, model, reg),
                                          model, reg)
    return rule


def _connective(both: bool):
    """And (``both``) or Or; the right operand runs only when needed."""
    def rule(t):
        left, right = _compiled(t.left), _compiled(t.right)

        def run(env, model, reg):
            if bool(_as_bool(left(env, model, reg))) is both:
                return TRUE if _as_bool(right(env, model, reg)) else FALSE
            return FALSE if both else TRUE
        return run
    return rule


def _if(t):
    cond, then, other = _compiled(t.cond), _compiled(t.then), _compiled(t.other)
    return lambda env, model, reg: (
        then if _as_bool(cond(env, model, reg)) else other)(env, model, reg)


def _quantifier(over):
    """Forall (``all``) or Exists (``any``) over the model's entities."""
    def rule(t):
        var, body = t.var, _compiled(t.body)
        return lambda env, model, reg: TRUE if over(
            _as_bool(body({**env, var: E(e)}, model, reg)) for e in model.entities) else FALSE
    return rule


def _set_builder(t):
    var, guard, yields = t.var, _compiled(t.guard), _compiled(t.yields)

    def run(env, model, reg):
        out = []
        for e in model.entities:
            inner = {**env, var: E(e)}
            if _as_bool(guard(inner, model, reg)):
                out.append(yields(inner, model, reg))
        return SetV(out)
    return run


def _push(t, item, seq, model, reg):
    if not isinstance(seq, SeqV):
        raise ShapeError("push expects a sequence")
    return SeqV((item,) + seq.items)


def _idx(t, seq, model, reg):
    if not isinstance(seq, SeqV):
        raise ShapeError("idx expects a sequence")
    if t.index >= len(seq.items):
        raise EvalError(f"sequence has no position {t.index}")
    return seq.items[t.index]


def _apply_nat(t):
    name, arg = t.name, _compiled(t.arg)

    def run(env, model, reg):
        nat = reg.nat(name)
        return apply_nat(reg, nat, arg(env, model, reg), model)
    return run


# one compile rule per term class
COMPILE = {
    T.Var: _var,
    T.Lam: _lam,
    T.App: _app,
    T.Pair: _on2("left", "right", lambda t, a, b, model, reg: PairV(a, b)),
    T.Pred: _pred,
    T.Const: _const,
    T.BoolLit: _bool_lit,
    T.Not: _on("arg", lambda t, v, model, reg: FALSE if _as_bool(v) else TRUE),
    T.And: _connective(True),
    T.Or: _connective(False),
    T.Eq: _on2("left", "right",
               lambda t, a, b, model, reg: B(values_equal(a, b, model))),
    T.If: _if,
    T.Forall: _quantifier(all),
    T.Exists: _quantifier(any),
    T.SetBuilder: _set_builder,
    T.Push: _on2("item", "seq", _push),
    T.Idx: _on("seq", _idx),
    T.Fmap: _on2("fn", "arg",
                 lambda t, fn, v, model, reg: fmap_apply(reg, t.functor, fn, v)),
    T.Eta: _on("arg", lambda t, v, model, reg: eta(reg, t.functor, v)),
    T.Mu: _on("arg", lambda t, v, model, reg: join(reg, t.functor, v)),
    T.ApOp: _on2("fn", "arg", lambda t, fn, v, model, reg: ap(reg, t.functor, fn, v)),
    T.Eps: _on("arg", lambda t, v, model, reg: counit(reg, t.left, t.right, v)),
    T.Upsilon: _on("fn", lambda t, v, model, reg: upsilon(reg, t.functor, v)),
    T.Lower: _on("arg", lambda t, v, model, reg: lower(v)),
    T.ApplyNat: _apply_nat,
    T.Coerce: _on("body", lambda t, v, model, reg: _coerce(t.functor, v)),
}


def _coerce(functor: str, v):
    """Wrap a literal carrier term's value as the proper carrier."""
    c = CARRIERS.get(functor)
    if isinstance(v, Fn) and c is not None and c.coerce is not None:
        return c.coerce(v)
    return v


# -- carriers ------------------------------------------------------------

def _expect(f: str, v, cls):
    if not isinstance(v, cls):
        raise ShapeError(f"value {render(v)} is not a {f}-carrier")
    return v


def _run_state(v, s):
    return _expect("D", v, StateV).run(s)


def _checked(out):
    """``out``, checked to be a set of ``(value, state)`` outcomes: the
    check every state step of this module ends with."""
    if not isinstance(out, SetV):
        raise ShapeError("a state carrier must yield a set of outcomes")
    for pr in out.elems:
        if not isinstance(pr, PairV) or not isinstance(pr.right, SeqV):
            raise ShapeError("state outcomes must be (value, state) pairs")
    return out


def _run_checked(run, s):
    return _checked(run(s))


def _state(run):
    """The ``StateV`` whose step calls ``run`` and checks the outcomes, so
    each run it stores is checked once.  A run that raises or fails the
    check stores nothing."""
    return StateV.of(_run_checked, run)


class Carrier(Record):
    """The runtime carrier of one effect functor.

    ``fmap(fn, v)`` and ``join(vv)`` take a value already checked against
    ``cls``; ``eta(v)`` takes any value.  ``literal(reg, a)`` is the type a
    literal term of type ``F a`` is checked against, and ``coerce`` wraps
    the closure such a literal evaluates to.  A field left ``None`` is an
    operation the carrier does not have.
    """

    cls: type
    fmap: Callable
    eta: Callable | None = None
    join: Callable | None = None
    literal: Callable | None = None
    coerce: Callable | None = None


def _fmap_pair(fn, p):
    return PairV(apply_value(fn, p.left), p.right)


def _join_writer(outer):
    inner = _expect("W", outer.left, PairV)
    p, q = _as_bool(outer.right), _as_bool(inner.right)
    return PairV(inner.left, B(p and q))


def _eta_step(v, s):
    return _checked(SetV([PairV(v, s)]))


def _map_left(op, s):
    """The step of the state that maps ``f(a, y)`` over the values ``a``
    of the outcomes of ``st``, for ``op = (f, y, st)``; writes pass
    through unmapped, as mapping them too would break the monad unit law
    on the full carrier."""
    f, y, st = op
    return _checked(SetV([PairV(f(pr.left, y), pr.right) for pr in st.run(s).elems]))


def _map_right(op, s):
    """As :func:`_map_left`, mapping ``f(x, a)`` for ``op = (f, x, st)``."""
    f, x, st = op
    return _checked(SetV([PairV(f(x, pr.left), pr.right) for pr in st.run(s).elems]))


def _join_step(st, s):
    out = []
    for pr in st.run(s).elems:
        out.extend(_run_state(pr.left, pr.right).elems)
    return _checked(SetV(out))


def _state_type(reg, a):
    s = reg.base_type("s")
    return Arrow(s, Eff("S", Prod(a, s)))


CARRIERS = {
    # reader over assignments
    "G": Carrier(ReaderV,
                 fmap=lambda fn, r: ReaderV(lambda g: apply_value(fn, r.run(g))),
                 eta=lambda v: ReaderV(lambda g: v),
                 join=lambda r: ReaderV(
                     lambda g: _expect("G", r.run(g), ReaderV).run(g)),
                 literal=lambda reg, a: Arrow(reg.base_type("g"), a),
                 coerce=lambda fn: ReaderV(fn.run)),
    # writer with (t, and, true)
    "W": Carrier(PairV, fmap=_fmap_pair, eta=lambda v: PairV(v, TRUE),
                 join=_join_writer,
                 literal=lambda reg, a: Prod(a, reg.base_type("t"))),
    # finite nondeterminism
    "S": Carrier(SetV,
                 fmap=lambda fn, s: SetV(apply_value(fn, x) for x in s.elems),
                 eta=lambda v: SetV([v]),
                 join=lambda s: SetV(y for x in s.elems
                                     for y in _expect("S", x, SetV).elems)),
    # continuation into truth values
    "C": Carrier(ContV,
                 fmap=lambda fn, k: ContV(
                     lambda c: k.run(lambda a: c(apply_value(fn, a)))),
                 eta=lambda v: ContV(lambda c: c(v)),
                 join=lambda k: ContV(
                     lambda c: k.run(lambda m: _expect("C", m, ContV).run(c))),
                 literal=lambda reg, a: Arrow(Arrow(a, reg.base_type("t")),
                                              reg.base_type("t")),
                 coerce=lambda fn: ContV(lambda c: fn.run(Fn(c, label="cont")))),
    # state over discourse sequences: state -> set of (value, state) pairs
    "D": Carrier(StateV,
                 fmap=lambda fn, st: StateV.of(_map_right, (apply_value, fn, st)),
                 eta=lambda v: StateV.of(_eta_step, v),
                 join=lambda st: StateV.of(_join_step, st), literal=_state_type,
                 coerce=lambda fn: _state(fn.run)),
    # optionality with absent #
    "M": Carrier(MaybeV,
                 fmap=lambda fn, m: (m if m.absent
                                     else MaybeV(apply_value(fn, m.payload))),
                 eta=MaybeV,
                 join=lambda m: m if m.absent else _expect("M", m.payload, MaybeV)),
    # pairing with an assignment
    "P": Carrier(PairV, fmap=_fmap_pair,
                 literal=lambda reg, a: Prod(a, reg.base_type("g"))),
}


def _carrier(f: str, op: str) -> Carrier:
    """The carrier of ``f``; raises when it lacks the operation ``op``."""
    c = CARRIERS.get(f)
    if c is None or getattr(c, op) is None:
        raise UnknownEffectError(f"functor {f} has no runtime carrier")
    return c


def check_shape(f: str, v) -> None:
    _expect(f, v, _carrier(f, "cls").cls)


# -- functor operations --------------------------------------------------

def fmap_apply(reg: Registry, f: str, fn, v):
    """Map a function over an effectful value, per carrier."""
    reg.require_cap(f, "functor")
    c = _carrier(f, "fmap")
    return c.fmap(fn, _expect(f, v, c.cls))


def eta(reg: Registry, f: str, v):
    reg.require_cap(f, "applicative")
    return _carrier(f, "eta").eta(v)


def join(reg: Registry, f: str, vv):
    reg.require_cap(f, "monad")
    c = _carrier(f, "join")
    return c.join(_expect(f, vv, c.cls))


def ap(reg: Registry, f: str, vf, vx):
    """Left-to-right applicative combination: join . fmap (fmap)."""
    reg.require_cap(f, "applicative")
    if not reg.has_cap(f, "monad"):
        raise CapabilityError(
            f"functor {f} is applicative-only and ships no bespoke ap")
    applied = fmap_apply(
        reg, f, Fn(lambda fn: fmap_apply(reg, f, fn, vx), label="ap-inner"), vf)
    return join(reg, f, applied)


def counit(reg: Registry, left: str, right: str, v):
    """Adjunction counit; the shipped pair is (P, G)."""
    if not reg.is_adjunction(left, right):
        raise UnknownEffectError(f"({left}, {right}) is not a registered adjunction")
    if (left, right) == ("P", "G"):
        p = _expect("P", v, PairV)
        r = _expect("G", p.left, ReaderV)
        return r.run(p.right)
    raise UnknownEffectError(f"no value-level counit for ({left}, {right})")


def adjunction_unit(reg: Registry, left: str, right: str, v):
    """Adjunction unit into R(L tau); dual of :func:`counit`."""
    if not reg.is_adjunction(left, right):
        raise UnknownEffectError(f"({left}, {right}) is not a registered adjunction")
    if (left, right) == ("P", "G"):
        return ReaderV(lambda g: PairV(v, g))
    raise UnknownEffectError(f"no value-level unit for ({left}, {right})")


def upsilon(reg: Registry, r: str, fnv):
    """Internalise R(a -> b) as a -> R b."""
    check_shape(r, fnv)

    def run(a):
        return fmap_apply(reg, r, Fn(lambda f: apply_value(f, a), label="ups"), fnv)
    return Fn(run, label=f"ups_{r}")


def lower(v):
    """Apply a continuation computation to the identity continuation."""
    k = _expect("C", v, ContV)

    def ident(p):
        if not isinstance(p, B):
            raise ShapeError("lowering a computation whose core is not a truth value")
        return p
    out = k.run(ident)
    if not isinstance(out, B):
        raise ShapeError("lowering produced a non-truth value")
    return out


# -- natural transformations and handlers --------------------------------

def _nat_lower(reg, nat, v, model):
    return lower(v)


def _nat_identity(reg, nat, v, model):
    return v


def _choice_key(v, model: Model):
    if isinstance(v, E):
        return (0, model.entity_index(v.name))
    return (1, render(v))


def _nat_choose_min(reg, nat, v, model):
    s = _expect("S", v, SetV)
    if not s.elems:
        raise EvalError("cannot choose from an empty outcome set")
    return min(s.elems, key=lambda x: _choice_key(x, model))


def _nat_choose_min_state(reg, nat, v, model):
    s0 = SeqV(tuple(E(e) for e in model.initial_state))
    outcomes = _run_state(v, s0).elems
    if not outcomes:
        raise EvalError("cannot choose from an empty outcome set")
    best = min(outcomes, key=lambda pr: _choice_key(pr.left, model))
    return best.left


def _nat_maybe_default(reg, nat, v, model):
    m = _expect("M", v, MaybeV)
    if not m.absent:
        return m.payload
    if nat.default is None:
        raise EvalError(f"handler {nat.name} hit # and declares no default")
    return eval_term(nat.default, {}, model, reg)


def _nat_iota(reg, nat, v, model):
    """Definedness selection: a singleton set yields its member, anything
    else yields the absent marker."""
    s = _expect("S", v, SetV)
    if len(s.elems) == 1:
        return MaybeV(s.elems[0])
    return MaybeV(ABSENT)


def _nat_set_to_cont(reg, nat, v, model):
    s = _expect("S", v, SetV)
    return ContV(lambda c: B(any(_as_bool(c(x)) for x in s.elems)))


# each builtin transformation: its component, and the (source, target)
# word it maps between, None for the identity, which maps any word to itself
BUILTIN_NATS = {
    "lower": (_nat_lower, (("C",), ())),
    "identity": (_nat_identity, None),
    "choose-min": (_nat_choose_min, (("S",), ())),
    "choose-min-state": (_nat_choose_min_state, (("D",), ())),
    "maybe-default": (_nat_maybe_default, (("M",), ())),
    "iota": (_nat_iota, (("S",), ("M",))),
    "set-to-cont": (_nat_set_to_cont, (("S",), ("C",))),
}

# payloads each builtin's handler law is spot-checked on at load time
SPOT_PAYLOADS = {
    "lower": lambda model: [B(True), B(False), B(True)],
    None: lambda model: [B(True), B(False),
                         E(model.entities[0]) if model.entities else B(True)],
}


def apply_nat(reg: Registry, nat: NatDef, v, model: Model):
    """Apply a registered transformation's component to a value."""
    if nat.source:
        check_shape(nat.source[0], v)
    try:
        impl, _ = BUILTIN_NATS[nat.component]
    except KeyError:
        raise UnknownEffectError(
            f"nat {nat.name}: no builtin named {nat.component}") from None
    return impl(reg, nat, v, model)


def run_handler(reg: Registry, h: NatDef, v, model: Model):
    """Apply a handler (a nat into the identity functor)."""
    if not h.is_handler:
        raise CapabilityError(f"nat {h.name} is not a handler")
    return apply_nat(reg, h, v, model)
