import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from effparse.combine import UnknownTokenError, parse_forest
from effparse.lambda_eval import BUILTIN_NATS, eta, run_handler
from effparse import sexpr
from effparse import terms as T
from effparse.lexicon import (TERM_HEADS, LanguageParseError, LanguageSemanticError,
                              load_language_text, load_model_text, parse_term)
from effparse.typesys import Arrow, Base, Eff, deep_effect_count
from effparse.values import B, E, values_equal

from . import strategies as S
from .conftest import entry

MINI = """
(base-type e) (base-type t) (base-type g) (base-type s)
(functor M :caps (functor applicative monad) :commutative true :applies-to *)
(functor S :caps (functor applicative monad) :commutative true :applies-to *)
(nat iota :from (S) :to (M) :handler false :impl iota)
(word "the" :type (-> (-> e t) (M e))
      :term (lam p (handler iota (set x :where (app p x) :yield x))))
(word "cat" :type (-> e t) :term (lam x (pred cat x)) :cat N)
"""


def test_load_appendix_lexicon_types(english):
    e, t = Base("e"), Base("t")
    assert entry(english, "the").ty == Arrow(Arrow(e, t), Eff("M", e))
    assert entry(english, "it").ty == Eff("G", e)
    assert entry(english, "a").ty == Arrow(Arrow(e, t), Eff("D", e))


# -- seeding: the parser puts each entry on the spans its tokens match ---------

def _leaf_cells(forest):
    """Each one-token cell's items, as (category, type, sources)."""
    return [[(it.cat, it.ty, it.sources) for it in forest.chart[(i, i + 1)].values()]
            for i in range(forest.n)]


def _seeded_spans(forest, e):
    return {span for span, cell in forest.chart.items() for it in cell.values()
            if any(src is e for src in it.sources)}


def test_capitalised_tokens_seed_the_same_items(english, syntax):
    for grammar in (None, syntax):
        lower = parse_forest("jupiter chases the cat".split(), english, syntax=grammar)
        upper = parse_forest("JUPITER Chases THE Cat".split(), english, syntax=grammar)
        assert _leaf_cells(upper) == _leaf_cells(lower)
        assert all(_leaf_cells(lower))
        assert _seeded_spans(upper, entry(english, "the")) == {(2, 3)}


def test_a_multi_token_entry_seeds_only_its_full_span(english):
    comma_a = entry(english, ", a")
    forest = parse_forest("jupiter , a planet , a planet".split(), english)
    assert _seeded_spans(forest, comma_a) == {(1, 3), (4, 6)}
    assert _seeded_spans(forest, entry(english, "a")) == {(2, 3), (5, 6)}
    # "," has no entry of its own, so its cells hold nothing
    assert forest.chart[(1, 2)] == forest.chart[(4, 5)] == {}
    assert _seeded_spans(parse_forest("a cat".split(), english), comma_a) == set()


@pytest.mark.parametrize("sentence, token, position", [
    ("the Xyzzy sleeps xyzzy", "Xyzzy", 1),
    # a token only a multi-token entry holds is unknown on its own
    ("jupiter , planet", ",", 1),
    ("jupiter , a planet ,", ",", 4),
], ids=["unknown word", "lone comma", "trailing comma"])
def test_an_unknown_token_is_reported_at_its_first_position(english, sentence, token,
                                                            position):
    with pytest.raises(UnknownTokenError) as info:
        parse_forest(sentence.split(), english)
    assert (info.value.token, info.value.position) == (token, position)


def test_type_check_failure_names_entry():
    bad = MINI + '(word "dog" :type (-> e t) :term (lam x x))\n'
    with pytest.raises(LanguageSemanticError, match="dog"):
        load_language_text(bad)


def test_undeclared_adjoint_rejected():
    bad = MINI + "(adjunction M Q)\n"
    with pytest.raises(LanguageSemanticError, match="Q"):
        load_language_text(bad)


@pytest.mark.parametrize("form", [
    "(functor Q :caps (functor) :external true)",
    '(word "dog" :type (-> e t) :term (lam x (pred dog x)) :kind N)',
])
def test_unknown_keyword_rejected(form):
    with pytest.raises(LanguageParseError, match="unknown keys"):
        load_language_text(MINI + form + "\n")


def test_max_effect_rank_counts_deep_effects(english):
    assert english.max_effect_rank == 1
    assert english.max_effect_rank == max(
        deep_effect_count(e.ty) for e in english.entries)


x, y, p, q, f = map(T.Var, "xypqf")

# each term head's form, and the term it reads as
HEAD_FORMS = {
    "(lam x y)": T.Lam("x", y), "(app f x)": T.App(f, x), "(pair x y)": T.Pair(x, y),
    "(pred near x y)": T.Pred("near", (x, y)), "(const a)": T.Const("a"),
    "(set x :where (pred cat x) :yield x)": T.SetBuilder("x", T.Pred("cat", (x,)), x),
    "(if true x false)": T.If(T.BoolLit(True), x, T.BoolLit(False)),
    "(forall x p)": T.Forall("x", p), "(exists x p)": T.Exists("x", p),
    "(not p)": T.Not(p), "(and p q)": T.And(p, q), "(or p q)": T.Or(p, q),
    "(eq x y)": T.Eq(x, y), "(push x s)": T.Push(x, T.Var("s")),
    "(idx g 0)": T.Idx(T.Var("g"), 0), "(fmap S f x)": T.Fmap("S", f, x),
    "(eta G x)": T.Eta("G", x), "(mu D x)": T.Mu("D", x), "(ap M f x)": T.ApOp("M", f, x),
    "(eps P G x)": T.Eps("P", "G", x), "(upsilon G f)": T.Upsilon("G", f),
    "(lower x)": T.Lower(x), "(handler iota x)": T.ApplyNat("iota", x),
}

ARITY = {"lam": 2, "app": 2, "pair": 2, "const": 1, "if": 3, "forall": 2,
         "exists": 2, "not": 1, "and": 2, "or": 2, "eq": 2, "push": 2,
         "idx": 2, "fmap": 3, "eta": 2, "mu": 2, "ap": 3, "eps": 3,
         "upsilon": 2, "lower": 1, "handler": 2}


def test_head_cases_cover_every_term_head():
    heads = {sexpr.parse(text)[0].items[0] for text in HEAD_FORMS}
    assert heads == set(TERM_HEADS) | {"pred", "set", "idx"}
    assert set(ARITY) == set(TERM_HEADS) | {"idx"}


@pytest.mark.parametrize("text", HEAD_FORMS)
def test_every_term_head_roundtrips(text):
    """The form reads back to its text, and parses to its head's class
    with each argument in its field."""
    [form] = sexpr.parse(text)
    assert sexpr.unparse(form) == text
    assert parse_term(form) == HEAD_FORMS[text]


@pytest.mark.parametrize("head", sorted(ARITY))
def test_term_head_arity_is_checked(head):
    [form] = sexpr.parse(f"({head}{' x' * (ARITY[head] + 1)})")
    with pytest.raises(LanguageParseError, match=f"^line 1: {head} expects "
                                                 f"{ARITY[head]} arguments$"):
        parse_term(form)


def test_idx_rejects_a_negative_position():
    [form] = sexpr.parse("(idx g -1)")
    with pytest.raises(LanguageParseError,
                       match=r"^line 1: idx expects a literal position of 0 or more$"):
        parse_term(form)


@pytest.mark.parametrize("seq_base", ["g", "s"])
def test_idx_needs_only_the_sequence_type_it_reads(seq_base):
    # the language declares one of the two sequence types, not both
    lex = load_language_text(
        f"(base-type e) (base-type t) (base-type {seq_base})\n"
        f'(word "first" :type (-> {seq_base} e) :term (lam q (idx q 0)) :cat NP)\n')
    assert entry(lex, "first").ty == Arrow(Base(seq_base), Base("e"))


@pytest.mark.parametrize("functor, decls", [
    ("G", "(functor G :caps (functor applicative monad))"),  # no base type g
    ("Q", "(base-type g) (functor Q :caps (functor applicative monad))"),
])
def test_lambda_without_a_literal_carrier_type_is_rejected(functor, decls):
    text = (f"(base-type e) (base-type t) {decls}\n"
            f'(word "w" :type ({functor} e) :term (lam x x))\n')
    with pytest.raises(LanguageSemanticError,
                       match=f"a lambda cannot have type {functor} e"):
        load_language_text(text)


def test_model_readback():
    m = load_model_text("(entity j)(entity c1)(entity m1)"
                        "(pred cat 1 (c1))(assignment j)(state)")
    assert m.predicates[("cat", 1)] == frozenset({("c1",)})


def test_model_rejects_undeclared_entity_in_extension():
    with pytest.raises(LanguageSemanticError):
        load_model_text("(entity c1)(pred cat 1 (c9))")


def test_an_entity_may_be_declared_after_its_use():
    m = load_model_text("(pred cat 1 (c1))\n(assignment c1)\n(state c1)\n(entity c1)")
    assert m.entities == ("c1",)
    assert m.predicates[("cat", 1)] == frozenset({("c1",)})
    assert m.initial_assignment == m.initial_state == ("c1",)


def test_model_allows_empty_extension():
    m = load_model_text("(entity c1)(pred cat 1)")
    assert m.predicates[("cat", 1)] == frozenset()


def test_a_nat_with_no_builtin_is_rejected_on_its_line():
    bad = MINI + "(nat n :from (S) :to (M) :handler false :impl nosuch)\n"
    line = bad.count("\n")
    with pytest.raises(LanguageSemanticError,
                       match=f"^line {line}: nat n: no builtin named nosuch$"):
        load_language_text(bad)


@pytest.mark.parametrize("impl", sorted(BUILTIN_NATS))
def test_each_builtin_loads_on_its_own_word_and_no_other(impl):
    decls = ("(base-type e) (base-type t) (base-type g) (base-type s)\n" + "".join(
        f"(functor {f} :caps (functor applicative monad))\n" for f in "CDMS"))
    word = BUILTIN_NATS[impl][1] or (("S",), ("S",))
    src, tgt = map(sexpr.unparse, word)
    handler = "true" if not word[1] else "false"
    nat = f"(nat n :from {{}} :to {{}} :handler {handler} :impl {impl})\n"
    assert load_language_text(decls + nat.format(src, tgt)).registry.nat("n").source == word[0]
    line = decls.count("\n") + 1
    for other in ("(S S)", "(C D)"):
        with pytest.raises(LanguageSemanticError, match=re.escape(
                f"line {line}: nat n: :from {other} :to {tgt} does not match builtin {impl}, ")):
            load_language_text(decls + nat.format(other, tgt))


def test_handler_law_violation_rejected():
    bad = MINI + "(nat broken :from (M) :to () :handler true :impl choose-min)\n"
    with pytest.raises(LanguageSemanticError):
        load_language_text(bad)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_loaded_handlers_satisfy_unit_law(english, law_model, data):
    reg = english.registry
    for nat in reg.nats():
        if not nat.is_handler:
            continue
        f = nat.source[0]
        v = data.draw(st.sampled_from([B(True), B(False)])
                      if nat.component == "lower" else S.payloads())
        out = run_handler(reg, nat, eta(reg, f, v), law_model)
        assert values_equal(out, v, law_model)
