"""The typing rules of :mod:`effparse.typecheck`, one per term form.

Each form is typed in checking position, against a wanted type, and in
inferring position, with none.  A form that reads the wanted type (a
lambda, pair, set builder, conditional, ``fmap`` or ``eta``) must give the
same annotated term and the same error in both positions wherever both
apply, and each effect head must check its functor's capability in both.
"""

import re

import pytest

from effparse import sexpr, typecheck
from effparse import terms as T
from effparse.lexicon import LanguageSemanticError, load_language_text, parse_term, parse_type
from effparse.typecheck import TypeCheckError
from effparse.typesys import TypeSysError

from .test_lexicon import HEAD_FORMS

# each form of HEAD_FORMS: the types of its free variables, a type it
# checks against, and what it infers under them
CASES = {
    "(lam x y)": ({"y": "e"}, "(-> e e)", "error: cannot infer the type of a bare lambda"),
    "(app f x)": ({"f": "(-> e t)", "x": "e"}, "t", "t"),
    "(pair x y)": ({"x": "e", "y": "t"}, "(* e t)", "(e * t)"),
    "(pred near x y)": ({"x": "e", "y": "e"}, "t", "t"),
    "(const a)": ({}, "e", "e"),
    "(set x :where (pred cat x) :yield x)": ({}, "(S e)", "S e"),
    "(if true x false)": ({"x": "t"}, "t",
                          "error: cannot infer a type for If(cond=BoolLit(value=True), "
                          "then=Var(name='x'), other=BoolLit(value=False))"),
    "(forall x p)": ({"p": "t"}, "t", "t"),
    "(exists x p)": ({"p": "t"}, "t", "t"),
    "(not p)": ({"p": "t"}, "t", "t"),
    "(and p q)": ({"p": "t", "q": "t"}, "t", "t"),
    "(or p q)": ({"p": "t", "q": "t"}, "t", "t"),
    "(eq x y)": ({"x": "e", "y": "e"}, "t", "t"),
    "(push x s)": ({"x": "e", "s": "s"}, "s", "s"),
    "(idx g 0)": ({"g": "g"}, "e", "e"),
    "(fmap S f x)": ({"f": "(-> e t)", "x": "(S e)"}, "(S t)", "S t"),
    "(eta G x)": ({"x": "e"}, "(G e)", "G e"),
    "(mu D x)": ({"x": "(D (D e))"}, "(D e)", "D e"),
    "(ap M f x)": ({"f": "(M (-> e t))", "x": "(M e)"}, "(M t)", "M t"),
    "(eps P G x)": ({"x": "(P (G e))"}, "e", "e"),
    "(upsilon G f)": ({"f": "(G (-> e t))"}, "(-> e (G t))", "e -> G t"),
    "(lower x)": ({"x": "(C t)"}, "t", "t"),
    "(handler iota x)": ({"x": "(S e)"}, "(M e)", "M e"),
}

# each form with every variable of type e: what checking against its type
# of CASES gives, and what inferring gives ("term" for the form unchanged)
ALL_E = {
    "(lam x y)": ("term", "error: cannot infer the type of a bare lambda"),
    "(app f x)": ("error: cannot apply non-function of type e",) * 2,
    "(pair x y)": ("error: expected t, found e", "(e * e)"),
    "(pred near x y)": ("term", "t"),
    "(const a)": ("term", "e"),
    "(set x :where (pred cat x) :yield x)": ("term", "S e"),
    "(if true x false)": ("error: expected t, found e", CASES["(if true x false)"][2]),
    "(forall x p)": ("error: expected t, found e",) * 2,
    "(exists x p)": ("error: expected t, found e",) * 2,
    "(not p)": ("error: expected t, found e",) * 2,
    "(and p q)": ("error: expected t, found e",) * 2,
    "(or p q)": ("error: expected t, found e",) * 2,
    "(eq x y)": ("term", "t"),
    "(push x s)": ("error: expected s, found e",) * 2,
    "(idx g 0)": ("error: idx expects an assignment or state, found e",) * 2,
    "(fmap S f x)": ("error: fmap S: argument has type e",) * 2,
    "(eta G x)": ("term", "G e"),
    "(mu D x)": ("error: join D: argument has type e",) * 2,
    "(ap M f x)": ("error: ap M: function side has type e",) * 2,
    "(eps P G x)": ("error: counit (P, G): argument has type e",) * 2,
    "(upsilon G f)": ("error: upsilon G: argument has type e",) * 2,
    "(lower x)": ("error: lower: argument has type e",) * 2,
    "(handler iota x)": ("error: nat iota: argument e does not start with ('S',)",) * 2,
}


def ty(reg, text):
    return parse_type(sexpr.parse(text)[0], reg)


def term(text):
    return parse_term(sexpr.parse(text)[0])


def outcome(f):
    """``f()``, or the text of the type error it raised as ``error: ...``."""
    try:
        return f()
    except (TypeCheckError, TypeSysError) as exc:
        return f"error: {exc}"


def check(reg, form, want, env):
    return outcome(lambda: typecheck._check(reg, form, want, env))


def infer(reg, form, env):
    return outcome(lambda: str(typecheck._type(reg, form, env)[0]))


def test_every_term_head_has_a_case():
    assert set(CASES) == set(ALL_E) == set(HEAD_FORMS)


@pytest.mark.parametrize("text", CASES)
def test_each_form_checks_and_infers(registry, text):
    types, want, inferred = CASES[text]
    env = {x: ty(registry, t) for x, t in types.items()}
    form = HEAD_FORMS[text]
    assert check(registry, form, ty(registry, want), env) == form
    assert infer(registry, form, env) == inferred


@pytest.mark.parametrize("text", CASES)
def test_each_form_against_the_wrong_type(registry, text):
    types, _, _ = CASES[text]
    env = {x: ty(registry, t) for x, t in types.items()}
    got = check(registry, HEAD_FORMS[text], ty(registry, "g"), env)
    if text == "(lam x y)":
        assert got == "error: a lambda cannot have type g"
    elif text == "(if true x false)":
        assert got == "error: expected g, found t"
    else:
        assert got == f"error: expected g, found {CASES[text][2]}"


@pytest.mark.parametrize("text", ALL_E)
def test_each_form_with_ill_typed_variables(registry, text):
    env = {x: ty(registry, "e") for x in "xypqfsg"}
    form = HEAD_FORMS[text]
    checked, inferred = ALL_E[text]
    got = check(registry, form, ty(registry, CASES[text][1]), env)
    assert got == (form if checked == "term" else checked)
    assert infer(registry, form, env) == inferred


def _coerced(f, text):
    return T.Coerce(f, term(text))


@pytest.mark.parametrize("text, want, checked", [
    # a lambda stands for an effect value when its carrier's literal type
    # is an arrow, and is marked with Coerce
    ("(lam v (const j))", "(G e)", _coerced("G", "(lam v (const j))")),
    ("(lam q (eta S (pair (const j) q)))", "(D e)",
     _coerced("D", "(lam q (eta S (pair (const j) q)))")),
    ("(lam k (app k (const j)))", "(C e)", _coerced("C", "(lam k (app k (const j)))")),
    ("(lam x (lam v x))", "(-> e (G e))", T.Lam("x", _coerced("G", "(lam v x)"))),
    # a pair stands for one when the literal type is a product, unmarked
    ("(pair (const j) true)", "(W e)", "term"),
    ("(lam v (pair (const j) v))", "(-> g (P e))", "term"),
    # the forms that read the wanted type pass it on to the literal
    ("(set x :where true :yield (lam v x))", "(S (G e))",
     T.SetBuilder("x", T.BoolLit(True), _coerced("G", "(lam v x)"))),
    ("(if true (lam v (const j)) (eta G (const j)))", "(G e)",
     T.If(T.BoolLit(True), _coerced("G", "(lam v (const j))"), term("(eta G (const j))"))),
    ("(fmap S (lam x (lam v x)) (set x :where true :yield x))", "(S (G e))",
     T.Fmap("S", T.Lam("x", _coerced("G", "(lam v x)")), term("(set x :where true :yield x)"))),
    ("(eta S (lam v (const j)))", "(S (G e))", T.Eta("S", _coerced("G", "(lam v (const j))"))),
    ("(pair (lam v (const j)) true)", "(* (G e) t)",
     T.Pair(_coerced("G", "(lam v (const j))"), T.BoolLit(True))),
    # where the literal type is not of the literal's shape, it is refused
    ("(lam v (const j))", "(W e)", "error: a lambda cannot have type W e"),
    ("(lam v (const j))", "(P e)", "error: a lambda cannot have type P e"),
    ("(lam v (const j))", "(S e)", "error: a lambda cannot have type S e"),
    ("(pair (const j) true)", "(G e)", "error: a pair cannot have type G e"),
    ("(pair (const j) true)", "(S e)", "error: a pair cannot have type S e"),
    ("(pair (const j) (const j))", "(W e)", "error: expected t, found e"),
    ("(pair (lam v (const j)) true)", "t", "error: cannot infer the type of a bare lambda"),
])
def test_literal_carriers_are_coerced_where_checked(registry, text, want, checked):
    form = term(text)
    assert check(registry, form, ty(registry, want), {}) == (
        form if checked == "term" else checked)


@pytest.mark.parametrize("types, want, checked, inferred", [
    # a lambda is typed at the argument's inner type in both positions
    ({"v": "(S e)"}, "(S t)", "term", "S t"),
    ({"v": "(S t)"}, "(S t)", "error: expected e, found t", "error: expected e, found t"),
])
def test_fmap_types_its_function_in_both_positions(registry, types, want, checked,
                                                   inferred):
    form = term("(fmap S (lam y (pred cat y)) v)")
    env = {x: ty(registry, t) for x, t in types.items()}
    got = check(registry, form, ty(registry, want), env)
    assert got == (form if checked == "term" else checked)
    assert infer(registry, form, env) == inferred


def test_fmap_checks_a_named_function_against_the_wanted_type_only_when_checked(registry):
    form = term("(fmap S f v)")
    env = {"f": ty(registry, "(-> e e)"), "v": ty(registry, "(S e)")}
    assert check(registry, form, ty(registry, "(S t)"), env) == (
        "error: expected e -> t, found e -> e")
    assert infer(registry, form, env) == "S e"


CAPS = """
(base-type e) (base-type t) (base-type g)
(functor X :applies-to *)
(functor P :caps (functor) :applies-to *)
(functor A :caps (functor applicative) :applies-to *)
"""


@pytest.mark.parametrize("text, types, want, message", [
    ("(fmap X (lam y y) v)", {"v": "(X e)"}, "(X e)", "functor X lacks the functor capability"),
    ("(upsilon X f)", {"f": "(X (-> e t))"}, "(-> e (X t))",
     "functor X lacks the functor capability"),
    ("(eta P (const j))", {}, "(P e)", "functor P lacks the applicative capability"),
    ("(ap P f v)", {"f": "(P (-> e t))", "v": "(P e)"}, "(P t)",
     "functor P lacks the applicative capability"),
    ("(mu A v)", {"v": "(A (A e))"}, "(A e)", "functor A lacks the monad capability"),
    ("(eps X P v)", {"v": "(X (P e))"}, "e", "(X, P) is not a registered adjunction"),
    ("(lower v)", {"v": "(A t)"}, "t", "lower: argument has type A t"),
], ids=["fmap", "upsilon", "eta", "ap", "mu", "eps", "lower"])
def test_each_effect_head_checks_its_capability_in_both_positions(text, types, want,
                                                                   message):
    reg = load_language_text(CAPS).registry
    env = {x: ty(reg, t) for x, t in types.items()}
    form = term(text)
    assert check(reg, form, ty(reg, want), env) == f"error: {message}"
    assert infer(reg, form, env) == f"error: {message}"
    # as a word, the term closed over its variables fails at load
    for x, t in reversed(types.items()):
        text, want = f"(lam {x} {text})", f"(-> {t} {want})"
    with pytest.raises(LanguageSemanticError,
                       match=f'^word "w" \\(line 6\\): {re.escape(message)}$'):
        load_language_text(CAPS + f'(word "w" :type {want} :term {text})\n')
