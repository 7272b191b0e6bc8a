"""Bidirectional type checking for denotation terms.

Lexical entries declare their types, so no inference over bare lambdas is
needed: lambdas are checked against arrows, everything else infers.  When
a lambda (or pair, or set builder) is checked against an effect type whose
carrier is a function or pair shape, the checker accepts the literal
carrier form and marks it with ``Coerce`` so evaluation can wrap the
closure in the right carrier.  Predicate arities are a model concern and
are checked at evaluation time, not here.
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


def _check(reg, term, ty, env) -> T.Term:
    if isinstance(term, T.Lam):
        if isinstance(ty, Arrow):
            body = _check(reg, term.body, ty.cod, {**env, term.param: ty.dom})
            return T.Lam(term.param, body)
        if isinstance(ty, Eff):
            exp = _carrier_expansion(reg, ty)
            if exp is not None and isinstance(exp, Arrow):
                checked = _check(reg, term, exp, env)
                return T.Coerce(ty.functor, checked)
        _fail(f"a lambda cannot have type {ty}")
    if isinstance(term, T.Pair) and isinstance(ty, Eff):
        exp = _carrier_expansion(reg, ty)
        if exp is not None and isinstance(exp, Prod):
            return _check(reg, term, exp, env)
        _fail(f"a pair cannot have type {ty}")
    if isinstance(term, T.Pair) and isinstance(ty, Prod):
        return T.Pair(_check(reg, term.left, ty.left, env),
                      _check(reg, term.right, ty.right, env))
    if isinstance(term, T.SetBuilder) and isinstance(ty, Eff) and ty.functor == "S":
        e = reg.base_type("e")
        inner_env = {**env, term.var: e}
        guard = _check(reg, term.guard, reg.base_type("t"), inner_env)
        yields = _check(reg, term.yields, ty.inner, inner_env)
        return T.SetBuilder(term.var, guard, yields)
    if isinstance(term, T.If):
        cond = _check(reg, term.cond, reg.base_type("t"), env)
        return T.If(cond, _check(reg, term.then, ty, env),
                    _check(reg, term.other, ty, env))
    if isinstance(term, T.Fmap) and isinstance(ty, Eff) and ty.functor == term.functor:
        got, arg = _infer(reg, term.arg, env)
        if not (isinstance(got, Eff) and got.functor == term.functor):
            _fail(f"fmap {term.functor}: argument has type {got}")
        fn = _check_fn(reg, term.fn, got.inner, ty.inner, env)
        return T.Fmap(term.functor, fn, arg)
    if isinstance(term, T.Eta) and isinstance(ty, Eff) and ty.functor == term.functor:
        return T.Eta(term.functor, _check(reg, term.arg, ty.inner, env))
    got, annotated = _infer(reg, term, env)
    if got != ty:
        _fail(f"expected {ty}, found {got}")
    return annotated


def _check_fn(reg, fnterm, dom: Ty, cod: Ty, env) -> T.Term:
    """Check a function term against dom -> cod, allowing bare lambdas."""
    return _check(reg, fnterm, Arrow(dom, cod), env)


def _infer_fn(reg, fnterm, dom: Ty, env):
    """Infer the codomain of a function term applied at ``dom``."""
    if isinstance(fnterm, T.Lam):
        cod, body = _infer(reg, fnterm.body, {**env, fnterm.param: dom})
        return cod, T.Lam(fnterm.param, body)
    got, annotated = _infer(reg, fnterm, env)
    if not isinstance(got, Arrow):
        _fail(f"cannot apply non-function of type {got}")
    if got.dom != dom:
        _fail(f"function of type {got} applied to {dom}")
    return got.cod, annotated


def _infer(reg, term, env):
    """Returns (type, annotated term)."""
    t = reg.base_type
    if isinstance(term, T.Var):
        if term.name not in env:
            _fail(f"unbound variable {term.name}")
        return env[term.name], term
    if isinstance(term, T.Const):
        return t("e"), term
    if isinstance(term, T.BoolLit):
        return t("t"), term
    if isinstance(term, T.Pred):
        args = tuple(_check(reg, a, t("e"), env) for a in term.args)
        return t("t"), T.Pred(term.name, args)
    if isinstance(term, T.App):
        fnty, fn = _infer(reg, term.fn, env)
        if not isinstance(fnty, Arrow):
            _fail(f"cannot apply non-function of type {fnty}")
        arg = _check(reg, term.arg, fnty.dom, env)
        return fnty.cod, T.App(fn, arg)
    if isinstance(term, T.Pair):
        lty, left = _infer(reg, term.left, env)
        rty, right = _infer(reg, term.right, env)
        return Prod(lty, rty), T.Pair(left, right)
    if isinstance(term, T.Not):
        return t("t"), T.Not(_check(reg, term.arg, t("t"), env))
    if isinstance(term, (T.And, T.Or)):
        cls = type(term)
        return t("t"), cls(_check(reg, term.left, t("t"), env),
                           _check(reg, term.right, t("t"), env))
    if isinstance(term, T.Eq):
        lty, left = _infer(reg, term.left, env)
        right = _check(reg, term.right, lty, env)
        return t("t"), T.Eq(left, right)
    if isinstance(term, (T.Forall, T.Exists)):
        cls = type(term)
        body = _check(reg, term.body, t("t"), {**env, term.var: t("e")})
        return t("t"), cls(term.var, body)
    if isinstance(term, T.SetBuilder):
        inner_env = {**env, term.var: t("e")}
        guard = _check(reg, term.guard, t("t"), inner_env)
        yty, yields = _infer(reg, term.yields, inner_env)
        return Eff("S", yty), T.SetBuilder(term.var, guard, yields)
    if isinstance(term, T.Push):
        item = _check(reg, term.item, t("e"), env)
        seq = _check(reg, term.seq, t("s"), env)
        return t("s"), T.Push(item, seq)
    if isinstance(term, T.Idx):
        sty, seq = _infer(reg, term.seq, env)
        if sty not in (Base("g"), Base("s")):
            _fail(f"idx expects an assignment or state, found {sty}")
        return t("e"), T.Idx(seq, term.index)
    if isinstance(term, T.Fmap):
        reg.require_cap(term.functor, "functor")
        aty, arg = _infer(reg, term.arg, env)
        if not (isinstance(aty, Eff) and aty.functor == term.functor):
            _fail(f"fmap {term.functor}: argument has type {aty}")
        cod, fn = _infer_fn(reg, term.fn, aty.inner, env)
        return Eff(term.functor, cod), T.Fmap(term.functor, fn, arg)
    if isinstance(term, T.Eta):
        reg.require_cap(term.functor, "applicative")
        aty, arg = _infer(reg, term.arg, env)
        return reg.apply_functor(term.functor, aty), T.Eta(term.functor, arg)
    if isinstance(term, T.Mu):
        reg.require_cap(term.functor, "monad")
        aty, arg = _infer(reg, term.arg, env)
        f = term.functor
        if not (isinstance(aty, Eff) and aty.functor == f
                and isinstance(aty.inner, Eff) and aty.inner.functor == f):
            _fail(f"join {f}: argument has type {aty}")
        return aty.inner, T.Mu(f, arg)
    if isinstance(term, T.ApOp):
        reg.require_cap(term.functor, "applicative")
        f = term.functor
        fty, fn = _infer(reg, term.fn, env)
        if not (isinstance(fty, Eff) and fty.functor == f
                and isinstance(fty.inner, Arrow)):
            _fail(f"ap {f}: function side has type {fty}")
        arg = _check(reg, term.arg, Eff(f, fty.inner.dom), env)
        return Eff(f, fty.inner.cod), T.ApOp(f, fn, arg)
    if isinstance(term, T.Eps):
        if not reg.is_adjunction(term.left, term.right):
            _fail(f"({term.left}, {term.right}) is not a registered adjunction")
        aty, arg = _infer(reg, term.arg, env)
        if not (isinstance(aty, Eff) and aty.functor == term.left
                and isinstance(aty.inner, Eff) and aty.inner.functor == term.right):
            _fail(f"counit ({term.left}, {term.right}): argument has type {aty}")
        return aty.inner.inner, T.Eps(term.left, term.right, arg)
    if isinstance(term, T.Upsilon):
        fty, fn = _infer(reg, term.fn, env)
        r = term.functor
        if not (isinstance(fty, Eff) and fty.functor == r
                and isinstance(fty.inner, Arrow)):
            _fail(f"upsilon {r}: argument has type {fty}")
        return Arrow(fty.inner.dom, Eff(r, fty.inner.cod)), T.Upsilon(r, fn)
    if isinstance(term, T.Lower):
        aty, arg = _infer(reg, term.arg, env)
        if not (isinstance(aty, Eff) and reg.lowering_for(aty.functor)
                and aty.inner == t("t")):
            _fail(f"lower: argument has type {aty}")
        return aty.inner, T.Lower(arg)
    if isinstance(term, T.ApplyNat):
        nat = reg.nat(term.name)
        aty, arg = _infer(reg, term.arg, env)
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
    if isinstance(term, T.Lam):
        _fail("cannot infer the type of a bare lambda")
    _fail(f"cannot infer a type for {term!r}")
