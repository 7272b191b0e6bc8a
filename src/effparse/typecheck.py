"""Bidirectional type checking for denotation terms.

Lexical entries declare their types, so no inference over bare lambdas is
needed.  Each term form has one typing rule, in :func:`_type`, which
either checks the term against a wanted type or infers its type; a
lambda, pair, set builder, conditional, ``fmap`` or ``eta`` reads the
wanted type, and every other rule infers and leaves the comparison to
:func:`_check`.  When a lambda (or pair) is checked against an effect
type whose carrier is a function or pair shape, the checker accepts the
literal carrier form and marks a lambda with ``Coerce`` so evaluation can
wrap the closure in the right carrier.  Each effect operation checks the
capability of its functor, in either position.  Predicate arities are a
model concern and are checked at evaluation time, not here.
"""

from __future__ import annotations

from . import terms as T
from .lambda_eval import CARRIERS
from .typesys import Arrow, Base, Eff, MalformedTypeError, Prod, Registry, Ty


class TypeCheckError(Exception):
    pass


def _carrier_expansion(reg: Registry, ty: Eff):
    """The literal carrier type of an effect type, when expressible."""
    c = CARRIERS.get(ty.functor)
    if c is None or c.literal is None:
        return None
    try:
        return c.literal(reg, ty.inner)
    except MalformedTypeError:
        return None


def check_term(reg: Registry, term: T.Term, ty: Ty) -> T.Term:
    """Check closed ``term`` against ``ty``; returns the coercion-annotated term."""
    reg.well_formed(ty)
    return _check(reg, term, ty, {})


def _fail(msg: str):
    raise TypeCheckError(msg)


def _check(reg, term, want, env) -> T.Term:
    got, annotated = _type(reg, term, env, want)
    if got != want:
        _fail(f"expected {want}, found {got}")
    return annotated


def _infer_fn(reg, fnterm, dom: Ty, env):
    """Infer the codomain of a function term applied at ``dom``."""
    if isinstance(fnterm, T.Lam):
        cod, body = _type(reg, fnterm.body, {**env, fnterm.param: dom})
        return cod, T.Lam(fnterm.param, body)
    got, annotated = _type(reg, fnterm, env)
    if not isinstance(got, Arrow):
        _fail(f"cannot apply non-function of type {got}")
    if got.dom != dom:
        _fail(f"function of type {got} applied to {dom}")
    return got.cod, annotated


def _type(reg, term, env, want: Ty | None = None):
    """The type and the annotated term of ``term`` by its form's one rule.

    ``want`` is the type ``term`` is checked against, or None where its
    type is inferred.  Most rules ignore it and :func:`_check` compares
    what they find; a lambda, pair, set builder, conditional, ``fmap`` or
    ``eta`` reads it to type a subterm against its part, and a lambda or
    a conditional can only be checked.  Each effect head checks the
    capability its operation needs, in either position.
    """
    t = reg.base_type
    if isinstance(term, T.Var):
        if term.name not in env:
            _fail(f"unbound variable {term.name}")
        return env[term.name], term
    if isinstance(term, T.Const):
        return t("e"), term
    if isinstance(term, T.BoolLit):
        return t("t"), term
    if isinstance(term, T.Lam):
        if isinstance(want, Arrow):
            body = _check(reg, term.body, want.cod, {**env, term.param: want.dom})
            return want, T.Lam(term.param, body)
        exp = _carrier_expansion(reg, want) if isinstance(want, Eff) else None
        if isinstance(exp, Arrow):
            return want, T.Coerce(want.functor, _check(reg, term, exp, env))
        _fail("cannot infer the type of a bare lambda" if want is None
              else f"a lambda cannot have type {want}")
    if isinstance(term, T.Pred):
        args = tuple(_check(reg, a, t("e"), env) for a in term.args)
        return t("t"), T.Pred(term.name, args)
    if isinstance(term, T.App):
        fnty, fn = _type(reg, term.fn, env)
        if not isinstance(fnty, Arrow):
            _fail(f"cannot apply non-function of type {fnty}")
        arg = _check(reg, term.arg, fnty.dom, env)
        return fnty.cod, T.App(fn, arg)
    if isinstance(term, T.Pair):
        if isinstance(want, Eff):
            exp = _carrier_expansion(reg, want)
            if not isinstance(exp, Prod):
                _fail(f"a pair cannot have type {want}")
            return want, _check(reg, term, exp, env)
        if isinstance(want, Prod):
            return want, T.Pair(_check(reg, term.left, want.left, env),
                                _check(reg, term.right, want.right, env))
        lty, left = _type(reg, term.left, env)
        rty, right = _type(reg, term.right, env)
        return Prod(lty, rty), T.Pair(left, right)
    if isinstance(term, T.If) and want is not None:
        cond = _check(reg, term.cond, t("t"), env)
        return want, T.If(cond, _check(reg, term.then, want, env),
                          _check(reg, term.other, want, env))
    if isinstance(term, T.Not):
        return t("t"), T.Not(_check(reg, term.arg, t("t"), env))
    if isinstance(term, (T.And, T.Or)):
        cls = type(term)
        return t("t"), cls(_check(reg, term.left, t("t"), env),
                           _check(reg, term.right, t("t"), env))
    if isinstance(term, T.Eq):
        lty, left = _type(reg, term.left, env)
        right = _check(reg, term.right, lty, env)
        return t("t"), T.Eq(left, right)
    if isinstance(term, (T.Forall, T.Exists)):
        cls = type(term)
        body = _check(reg, term.body, t("t"), {**env, term.var: t("e")})
        return t("t"), cls(term.var, body)
    if isinstance(term, T.SetBuilder):
        inner_env = {**env, term.var: t("e")}
        guard = _check(reg, term.guard, t("t"), inner_env)
        if isinstance(want, Eff) and want.functor == "S":
            yields = _check(reg, term.yields, want.inner, inner_env)
            return want, T.SetBuilder(term.var, guard, yields)
        yty, yields = _type(reg, term.yields, inner_env)
        return Eff("S", yty), T.SetBuilder(term.var, guard, yields)
    if isinstance(term, T.Push):
        item = _check(reg, term.item, t("e"), env)
        seq = _check(reg, term.seq, t("s"), env)
        return t("s"), T.Push(item, seq)
    if isinstance(term, T.Idx):
        sty, seq = _type(reg, term.seq, env)
        if sty not in (Base("g"), Base("s")):
            _fail(f"idx expects an assignment or state, found {sty}")
        return t("e"), T.Idx(seq, term.index)
    if isinstance(term, T.Fmap):
        f = term.functor
        reg.require_cap(f, "functor")
        aty, arg = _type(reg, term.arg, env)
        if not (isinstance(aty, Eff) and aty.functor == f):
            _fail(f"fmap {f}: argument has type {aty}")
        if isinstance(want, Eff) and want.functor == f:
            return want, T.Fmap(f, _check(reg, term.fn, Arrow(aty.inner, want.inner), env), arg)
        cod, fn = _infer_fn(reg, term.fn, aty.inner, env)
        return Eff(f, cod), T.Fmap(f, fn, arg)
    if isinstance(term, T.Eta):
        f = term.functor
        reg.require_cap(f, "applicative")
        if isinstance(want, Eff) and want.functor == f:
            return want, T.Eta(f, _check(reg, term.arg, want.inner, env))
        aty, arg = _type(reg, term.arg, env)
        return reg.apply_functor(f, aty), T.Eta(f, arg)
    if isinstance(term, T.Mu):
        f = term.functor
        reg.require_cap(f, "monad")
        aty, arg = _type(reg, term.arg, env)
        if not (isinstance(aty, Eff) and aty.functor == f
                and isinstance(aty.inner, Eff) and aty.inner.functor == f):
            _fail(f"join {f}: argument has type {aty}")
        return aty.inner, T.Mu(f, arg)
    if isinstance(term, T.ApOp):
        f = term.functor
        reg.require_cap(f, "applicative")
        fty, fn = _type(reg, term.fn, env)
        if not (isinstance(fty, Eff) and fty.functor == f
                and isinstance(fty.inner, Arrow)):
            _fail(f"ap {f}: function side has type {fty}")
        arg = _check(reg, term.arg, Eff(f, fty.inner.dom), env)
        return Eff(f, fty.inner.cod), T.ApOp(f, fn, arg)
    if isinstance(term, T.Eps):
        if not reg.is_adjunction(term.left, term.right):
            _fail(f"({term.left}, {term.right}) is not a registered adjunction")
        aty, arg = _type(reg, term.arg, env)
        if not (isinstance(aty, Eff) and aty.functor == term.left
                and isinstance(aty.inner, Eff) and aty.inner.functor == term.right):
            _fail(f"counit ({term.left}, {term.right}): argument has type {aty}")
        return aty.inner.inner, T.Eps(term.left, term.right, arg)
    if isinstance(term, T.Upsilon):
        r = term.functor
        fty, fn = _type(reg, term.fn, env)
        if not (isinstance(fty, Eff) and fty.functor == r
                and isinstance(fty.inner, Arrow)):
            _fail(f"upsilon {r}: argument has type {fty}")
        # after the shape check, so an undeclared R still reads as a bad argument
        reg.require_cap(r, "functor")
        return Arrow(fty.inner.dom, Eff(r, fty.inner.cod)), T.Upsilon(r, fn)
    if isinstance(term, T.Lower):
        aty, arg = _type(reg, term.arg, env)
        if not (isinstance(aty, Eff) and reg.lowering_for(aty.functor)
                and aty.inner == t("t")):
            _fail(f"lower: argument has type {aty}")
        return aty.inner, T.Lower(arg)
    if isinstance(term, T.ApplyNat):
        nat = reg.nat(term.name)
        aty, arg = _type(reg, term.arg, env)
        inner = aty
        for f in nat.source:
            if not (isinstance(inner, Eff) and inner.functor == f):
                _fail(f"nat {nat.name}: argument {aty} does not start with {nat.source}")
            inner = inner.inner
        out = inner
        for f in reversed(nat.target):
            out = reg.apply_functor(f, out)
        return out, T.ApplyNat(term.name, arg)
    if isinstance(term, T.Coerce):
        _fail("internal coercion nodes cannot be re-inferred")
    _fail(f"cannot infer a type for {term!r}")
