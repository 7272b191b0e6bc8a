import collections
import gc
import hashlib
import importlib.util
import traceback

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from effparse import terms as T
from effparse.combine import (MODE_RULES, Branch, Leaf, Mode, ModeError,
                              UnknownTokenError, _combinator, _unpack, branch_value,
                              derivation_term, enumerate_modes, load_syntax_text,
                              mode_count, modes_by_type, outcome, parse, parse_forest,
                              parse_mode, parse_modes, prune, render_modes,
                              replay_modes, value_of)
from effparse.lambda_eval import (EVAL_ERRORS, EvalError, ShapeError, eval_term, fmap_apply,
                                  join)
from effparse import sexpr
from effparse.lexicon import load_language, load_language_text, parse_type
from effparse.model import Model, ModelError
from effparse.typesys import (Arrow, Base, CapabilityError, Eff, FunctorDef, Registry,
                               UnknownEffectError)
from effparse.values import (ABSENT, B, ContV, E, Fn, MaybeV, PairV, ReaderV, SeqV,
                             SetV, StateV, render as render_value, values_equal)

from .conftest import DATA, entry
from .mode_terms import denote, folded_term, mode_sequence_term
from .test_cli_matrix import SENTENCES

e, t = Base("e"), Base("t")


def seqs_with_type(results, ty):
    return [seq for seq, out in results if out == ty]


# -- enumerate_modes ----------------------------------------------------------

def test_enumerate_ml_then_backward(registry):
    results = enumerate_modes(registry, Eff("M", e), Arrow(e, t))
    assert (parse_modes("ML_M <"), Eff("M", t)) in results


def test_enumerate_reaches_m_over_d(registry):
    results = enumerate_modes(registry, Eff("M", e), Eff("D", Arrow(e, t)))
    assert any(out == Eff("M", Eff("D", t)) for _, out in results)


def test_enumerate_conjunction(registry):
    results = enumerate_modes(registry, Arrow(e, t), Arrow(e, t))
    assert (parse_modes("&"), Arrow(e, t)) in results
    assert (parse_modes("|"), Arrow(e, t)) in results


def test_enumerate_requires_pure_argument(registry):
    # an effectful argument must go through wrapper modes, not plain application
    results = enumerate_modes(registry, Arrow(Eff("M", e), t), Eff("M", e))
    assert not seqs_with_type(results, t)


def test_enumerate_empty_when_no_combination(registry):
    assert enumerate_modes(registry, e, e) == frozenset()


@pytest.mark.parametrize("caps, offered", [
    ("", {}),
    (":caps (functor)", {Eff("X", t): ("ML_X <",), Eff("R", t): ("EL_R >", "ML_R >")}),
])
def test_map_and_internalise_modes_need_the_functor_capability(caps, offered):
    """ML/MR and EL/ER map over their functor, so they are offered only
    for a functor with the ``functor`` capability."""
    reg = load_language_text(f"(base-type e) (base-type t) (functor X {caps}) "
                             f"(functor L {caps}) (functor R {caps}) (adjunction L R)"
                             ).registry
    found = {**modes_by_type(reg, Eff("X", e), Arrow(e, t)),
             **modes_by_type(reg, Eff("R", Arrow(e, t)), e)}
    assert {ty: tuple(map(render_modes, seqs)) for ty, seqs in found.items()} == offered


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_enumerated_sequences_replay_to_their_type(registry, data):
    from .strategies import types
    lty = data.draw(types(registry, max_depth=3))
    rty = data.draw(types(registry, max_depth=3))
    for seq, ty in enumerate_modes(registry, lty, rty):
        assert replay_modes(registry, seq, lty, rty) == ty


def test_replay_rejects_internalising_a_non_adjoint(registry):
    # M is no right adjoint, so EL_M does not apply, as in enumeration
    with pytest.raises(ModeError):
        replay_modes(registry, parse_modes("EL_M >"), Eff("M", Arrow(e, t)), e)


def test_replay_rejects_sequences_without_a_base_mode(registry):
    with pytest.raises(ModeError):
        replay_modes(registry, parse_modes("ML_M"), Eff("M", e), Arrow(e, t))


# -- prune --------------------------------------------------------------------

def test_prune_blocks_ml_join_mr(registry):
    assert prune(parse_modes("ML_D J_D MR_D <"), registry) is False


def test_prune_keeps_plain_ml(registry):
    assert prune(parse_modes("ML_M <"), registry) is True


def test_prune_commutative_extra(registry):
    # S is commutative in the shipped registry, D is not
    assert prune(parse_modes("MR_S J_S ML_S <"), registry) is False
    assert prune(parse_modes("MR_D J_D ML_D <"), registry) is True


def test_prune_mr_before_ml_same_functor(registry):
    assert prune(parse_modes("MR_M ML_M <"), registry) is False
    assert prune(parse_modes("ML_M MR_M <"), registry) is True


def test_prune_unit_right_after_strip(registry):
    assert prune(parse_modes("UL_M ML_M >"), registry) is False
    assert prune(parse_modes("ML_M UL_M >"), registry) is True


def test_prune_dn_with_counit(registry):
    assert prune(parse_modes("DN C_P:G >"), registry) is False


def test_syntax_files_load_their_binary_and_unary_rules(syntax):
    assert syntax.binary == {
        ("NP", "VP"): ("S",), ("Det", "N"): ("NP",), ("V", "NP"): ("VP",),
        ("BE", "A"): ("VP",), ("P", "NP"): ("PP",), ("N", "PP"): ("N",),
        ("ADJ", "N"): ("N",), ("NP", "APP"): ("APP1",), ("APP1", "N"): ("NP",)}
    assert syntax.unary == {}
    relabel = load_syntax_text("(rule NP N)\n(rule S NP)\n")
    assert relabel.binary == {}
    assert relabel.unary == {"N": ("N", "NP", "S"), "NP": ("NP", "S"), "S": ("S",)}


def test_pruned_enumeration_equals_post_filtering(syntax):
    """The pruning rules are local, so filtering inside the recursion keeps
    exactly the sequences that filtering afterwards keeps."""
    lex = load_language(DATA / "english.lang")  # a fresh combination cache
    reg = lex.registry
    for sent in SENTENCES:
        parse(sent.split(), lex)
        parse(sent.split(), lex, syntax=syntax)
    pairs = {(key[0], key[1]) for key in reg._combo_cache}
    assert len(pairs) > 200
    for lty, rty in pairs:
        unpruned = enumerate_modes(reg, lty, rty)
        assert enumerate_modes(reg, lty, rty, pruned=True) == {
            (seq, ty) for seq, ty in unpruned if prune(seq, reg)}


# -- mode denotations ----------------------------------------------------------

def test_forward_application_term(registry):
    term = denote(Mode("fwd"))
    assert isinstance(term, T.Lam)
    body = term.body
    assert isinstance(body, T.Lam)
    assert body.body == T.App(T.Var(term.param), T.Var(body.param))


def test_dn_denotation_wraps_lower(registry):
    tr = denote(Mode("dn"))
    inner = denote(Mode("fwd"))
    wrapped = tr(inner)
    assert isinstance(wrapped, T.Lam)
    assert isinstance(wrapped.body.body, T.Lower)


def test_join_mode_matches_explicit_join(registry, law_model):
    # J over forward application equals evaluating the application first
    # and joining the nested set by hand
    tr = denote(Mode("j", functor="S"))
    term = tr(denote(Mode("fwd")))
    phi = T.Lam("v", T.Eta("S", T.Eta("S", T.Var("v"))))  # e -> S (S e)
    got = eval_term(T.App(T.App(term, phi), T.Const("a")), {}, law_model, registry)
    nested = eval_term(T.App(phi, T.Const("a")), {}, law_model, registry)
    naive = join(registry, "S", nested)
    assert values_equal(got, naive, law_model)
    assert got == SetV([E("a")])


def _is(*names):
    """A predicate of entities: true of ``names``."""
    return Fn(lambda v: B(v.name in names))


def _states(*outcomes):
    """A state transformer of ``(value, pushes the value?)`` outcomes."""
    return StateV(lambda s: SetV(PairV(v, SeqV((v,) + s.items) if push else s)
                                 for v, push in outcomes))


_EVERY = ContV(lambda c: B(all(c(E(x)).value for x in "abcd")))
_SOME = ContV(lambda c: B(any(c(E(x)).value for x in "abcd")))
_FIRST = ReaderV(lambda g: g.items[0])
_RED = _is("a", "c")

# (modes, left value, right value, fails): every mode kind, on hand-built
# values of each carrier; ``fails`` rows raise an evaluation error
MODE_CASES = [
    (">", _RED, E("a"), False),
    (">", E("a"), E("b"), True),
    ("<", E("b"), _RED, False),
    ("&", _RED, _is("a", "b"), False),
    ("|", _RED, _is("a", "b"), False),
    ("&", Fn(lambda v: v), _RED, True),  # a pointwise operand yields no truth value
    ("|", _RED, Fn(lambda v: v), True),
    ("ML_S <", SetV([E("a"), E("b")]), _RED, False),
    ("MR_M >", _RED, MaybeV(E("c")), False),
    ("MR_M >", _RED, MaybeV(ABSENT), False),
    ("ML_G <", _FIRST, _RED, False),
    ("MR_D >", _RED, _states((E("a"), True), (E("b"), False)), False),
    ("ML_P <", PairV(E("b"), SeqV((E("a"),))), _RED, False),
    ("MR_W >", _RED, PairV(E("c"), B(True)), False),
    ("ML_C <", _EVERY, _RED, False),
    ("MR_C >", _RED, _SOME, False),
    ("A_S <", SetV([E("a"), E("b")]), SetV([_RED, _is("b")]), False),
    ("A_D >", _states((_RED, True)), _states((E("c"), True), (E("d"), False)), False),
    ("A_M <", E("a"), MaybeV(_RED), True),  # not an M-carrier
    ("UL_M <", E("a"), Fn(lambda m: B(not m.absent and m.payload == E("a"))), False),
    ("UR_M >", Fn(lambda m: B(m.payload == E("b"))), E("b"), False),
    ("UR_S >", Fn(lambda s: _is(*(x.name for x in s.elems))), E("c"), False),
    ("EL_G >", ReaderV(lambda g: _is(g.items[0].name)), E("a"), False),
    ("ER_G <", E("b"), ReaderV(lambda g: _is(g.items[0].name)), False),
    ("EL_G >", _RED, E("a"), True),  # not a G-carrier
    ("J_S >", Fn(lambda x: SetV([SetV([x]), SetV([E("b")])])), E("a"), False),
    ("J_D MR_D >", Fn(lambda x: _states((x, True))), _states((E("c"), True)), False),
    ("DN MR_C >", _RED, _EVERY, False),
    ("DN MR_C >", _RED, _SOME, False),
    ("C_P:G >", Fn(lambda x: PairV(ReaderV(lambda g: B(g.items[0] == x)), SeqV((E("a"),)))),
     E("a"), False),
    ("C_P:G >", Fn(lambda x: x), E("a"), True),  # not a P-carrier
    ("ML_D <", ReaderV(lambda g: E("a")), _RED, True),  # not a D-carrier
]


def _forced(make, force):
    """``(False, forced value)``, or ``(True, (error class, message))``."""
    try:
        return False, force(make())
    except EVAL_ERRORS as exc:
        return True, (type(exc), str(exc))


@pytest.mark.parametrize("modes, left, right, fails", MODE_CASES,
                         ids=[f"{c[0]}-{n}" for n, c in enumerate(MODE_CASES)])
def test_each_mode_combinator_evaluates_like_its_term(english, law_model, modes, left,
                                                      right, fails):
    """``branch_value`` applies the combinators of ``MODE_RULES``
    composed, built once per sequence and registry; the reference is the
    λ-term of ``tests/mode_terms.py`` applied to the same values.  Both
    give equal forced data, or the same error, at every application."""
    reg, force = english.registry, _benchmark_forcer(law_model)
    seq = parse_modes(modes)
    values = {"l": left, "r": right}
    term = T.App(T.App(mode_sequence_term(seq), T.Var("l")), T.Var("r"))
    want = _forced(lambda: eval_term(term, values, law_model, reg), force)
    for _ in range(2):
        got = _forced(lambda: branch_value(Branch(None, seq, "l", "r"), reg, values.get),
                      force)
        assert got == want
    assert got[0] is fails
    assert _combinator(seq, reg) is _combinator(parse_modes(modes), reg)


def test_mode_cases_cover_every_mode_kind():
    kinds = {m.kind for c in MODE_CASES for m in parse_modes(c[0])}
    assert kinds == set(MODE_RULES)


def _registry(**caps):
    """A registry of the named functors, each with the given capabilities."""
    reg = Registry()
    reg.add_base_type("e")
    reg.add_base_type("t")
    for f, fcaps in caps.items():
        reg.add_functor(FunctorDef(id=f, capabilities=frozenset(fcaps)))
    return reg


@pytest.mark.parametrize("modes, caps, error, message", [
    ("ML_S <", {"S": ()}, CapabilityError, "functor S lacks the functor capability"),
    ("MR_S >", {}, UnknownEffectError, "unknown effect functor S"),
    ("ML_X <", {"X": ("functor",)}, UnknownEffectError, "functor X has no runtime carrier"),
])
def test_a_missing_capability_or_carrier_raises_when_the_combinator_is_applied(
        modes, caps, error, message):
    reg, seq = _registry(**caps), parse_modes(modes)
    fn = _combinator(seq, reg)  # building raises nothing
    values = {"l": SetV([E("a")]), "r": SetV([_RED]), "bad": EvalError("a child fails")}
    with pytest.raises(error, match=f"^{message}$"):
        fn(values["l"], values["r"])
    with pytest.raises(error, match=f"^{message}$"):
        branch_value(Branch(None, seq, "l", "r"), reg, values.get)
    # the children's errors come first, in call-by-value order
    for left, right in (("bad", "r"), ("bad", "bad"), ("l", "bad")):
        with pytest.raises(EvalError, match="^a child fails$"):
            branch_value(Branch(None, seq, left, right), reg, values.get)


@pytest.mark.parametrize("modes, child, other", [
    ("ML_D >", ReaderV(lambda g: _RED), E("a")),
    ("MR_D <", MaybeV(_RED), E("a")),
    ("ML_D >", _RED, E("a")),
])
def test_a_state_mapping_combinator_on_a_non_state_child_raises_what_fmap_apply_raises(
        english, modes, child, other):
    reg = english.registry
    with pytest.raises(ShapeError) as want:
        fmap_apply(reg, "D", _RED, child)
    fn = _combinator(parse_modes(modes), reg)
    with pytest.raises(ShapeError) as got:
        fn(child, other) if modes.startswith("ML") else fn(other, child)
    message = f"value {render_value(child)} is not a D-carrier"
    assert str(got.value) == str(want.value) == message


# -- parse ---------------------------------------------------------------------

def test_parse_the_cat_sleeps(english):
    derivs = parse("the cat sleeps".split(), english)
    assert any(d.ty == Eff("M", t) for d in derivs)


def test_parse_the_cat_sleeps_with_syntax_is_unambiguous(english, syntax):
    derivs = parse("the cat sleeps".split(), english, syntax=syntax)
    assert len(derivs) == 1
    assert derivs[0].ty == Eff("M", t)
    assert render_modes(derivs[0].modes) == "ML_M <"


def test_parse_a_cat_in_a_box(english):
    derivs = parse("a cat in a box".split(), english, max_derivations=128)
    assert any(d.ty == Eff("D", e) for d in derivs)


def test_parse_rejects_scrambled_sentence_under_syntax(english, syntax):
    assert parse("cat sleeps the".split(), english, syntax=syntax) == ()


def test_parse_unknown_token(english):
    with pytest.raises(UnknownTokenError) as exc:
        parse("colorless xyzzy".split(), english)
    assert exc.value.token == "colorless"
    assert exc.value.position == 0


def test_parse_empty_input(english):
    assert parse([], english) == ()


def test_parse_rejects_nonpositive_derivation_cap(english):
    with pytest.raises(ValueError):
        parse("the cat sleeps".split(), english, max_derivations=0)


@pytest.mark.parametrize("limit", [{"seq_cap": 0}])
def test_parse_forest_rejects_nonpositive_limits(english, limit):
    with pytest.raises(ValueError):
        parse_forest("the cat sleeps".split(), english, **limit)


def test_parse_appositive_multi_token(english):
    derivs = parse("jupiter , a planet".split(), english, max_derivations=64)
    assert any(d.ty == Eff("W", e) for d in derivs)


def test_replay_soundness_of_parses(english):
    reg = english.registry
    for sent in ("the cat sleeps", "a cat in a box", "no cat sleeps"):
        for d in parse(sent.split(), english, max_derivations=64):
            def check(node):
                if isinstance(node, Branch):
                    assert replay_modes(reg, node.modes, node.left.ty,
                                        node.right.ty) == node.ty
                    check(node.left)
                    check(node.right)
            check(d)


def test_budget_bound_respected(english):
    # type structure alone bounds enumeration; check that sequences stay
    # within (2 + c)·m·(n + 1) + 1 for c adjunctions and effect rank m
    c = len(english.registry.adjunctions())
    m = max(english.max_effect_rank, 1)
    for sent in ("the cat sleeps", "the cat eats a mouse", "a cat in a box"):
        n = len(sent.split())
        bound = (2 + c) * m * (n + 1) + 1
        for d in parse(sent.split(), english, max_derivations=64):
            def widths(node):
                if isinstance(node, Branch):
                    yield len(node.modes), node
                    yield from widths(node.left)
                    yield from widths(node.right)
            for width, _ in widths(d):
                assert width <= bound


def _english_forms():
    """The top-level forms of ``data/english.lang``, one text each."""
    return [sexpr.unparse(form) for form in sexpr.parse((DATA / "english.lang").read_text())]


def test_chart_monotonicity(english):
    extended = "\n".join(_english_forms() + [
        '(word "dog" :type (-> e t) :term (lam x (pred dog x)) :cat N)'])
    bigger = load_language_text(extended)
    for sent in ("the cat sleeps", "a cat in a box"):
        small_parses = {str(d.ty) for d in parse(sent.split(), english, max_derivations=64)}
        big_parses = {str(d.ty) for d in parse(sent.split(), bigger, max_derivations=64)}
        assert small_parses <= big_parses


def test_parse_is_order_independent(english):
    # the word declarations in reverse order
    forms = _english_forms()
    words = [f for f in forms if f.startswith("(word")]
    rest = [f for f in forms if not f.startswith("(word")]
    other = load_language_text("\n".join(rest + words[::-1]))
    assert [e.surface for e in other.entries] == [e.surface for e in english.entries][::-1]
    for sent in ("the cat sleeps", "a cat in a box"):
        a = [(str(d.ty), render_modes(d.modes))
             for d in parse(sent.split(), english, max_derivations=64)]
        b = [(str(d.ty), render_modes(d.modes))
             for d in parse(sent.split(), other, max_derivations=64)]
        assert a == b


def test_unpacking_cap_and_determinism(english):
    derivs_small = parse("the cat eats a mouse".split(), english, max_derivations=3)
    derivs_big = parse("the cat eats a mouse".split(), english, max_derivations=64)
    assert len(derivs_small) == 3
    assert list(derivs_small) == list(derivs_big[:3])


def _reference_key(d):
    if isinstance(d, Leaf):
        return ("L", d.entry.surface, str(d.entry.ty))
    return ("B", str(d.ty), render_modes(d.modes),
            _reference_key(d.left), _reference_key(d.right))


@pytest.mark.parametrize("with_syntax,ks", [(False, range(1, 7)), (True, range(1, 8))])
def test_derivation_order_is_the_key_order(english, syntax, with_syntax, ks):
    """``Forest.derivations(N)``: each root item's first N derivations in
    packed-source order, sorted by type, mode string, left and right
    subtree, cut to N."""
    for k in ks:
        tokens = ("a cat" + " in a box" * k).split()
        forest = parse_forest(tokens, english, syntax=syntax if with_syntax else None,
                              seq_cap=64)
        roots = sorted(forest.root_items(),
                       key=lambda it: ("" if it.cat is None else str(it.cat), str(it.ty)))
        memo: dict = {}
        reference = [d for it in roots for d in _unpack(it, 64, memo)]
        reference.sort(key=_reference_key)
        got = forest.derivations(64)
        assert list(got) == reference[:64], k


CUT_SENTENCES = [(s, syn) for s in SENTENCES for syn in (False, True)] + [
    ("a cat" + " in a box" * k, False) for k in range(1, 7)] + [
    ("it", False), ("it", True)]  # leaf roots only


@pytest.mark.parametrize("sentence, with_syntax", CUT_SENTENCES)
def test_the_unpacking_cut_is_exact(english, syntax, sentence, with_syntax):
    """``Forest.derivations(n)`` unpacks only the root types it needs, and
    equals unpacking every root item, sorting and cutting to n."""
    forest = parse_forest(sentence.split(), english,
                          syntax=syntax if with_syntax else None, seq_cap=64)
    roots = sorted(forest.root_items(), key=lambda it: it.key)
    for n in (1, 2, 3, 5, 7, 12, 20, 32, 64):
        memo: dict = {}
        reference = sorted((d for it in roots for d in _unpack(it, n, memo)),
                           key=_reference_key)
        assert list(forest.derivations(n)) == reference[:n], n


def test_unpacking_skips_the_root_types_the_cap_does_not_reach(english, monkeypatch):
    from effparse import combine
    tokens = ("a cat" + " in a box" * 6).split()
    forest = parse_forest(tokens, english, seq_cap=64)
    assert len(forest.root_items()) == 14
    roots = []

    def recorded(item, *args):
        if item.span == (0, len(tokens)):
            roots.append(str(item.ty))
        return _unpack(item, *args)
    monkeypatch.setattr(combine, "_unpack", recorded)
    derivs = forest.derivations(64)
    assert len(derivs) == 64
    # D^7 e sorts first by type text and alone holds 64 branches
    assert roots == ["D D D D D D D e"]


def test_chart_cell_count_closed_form(english):
    forest = parse_forest("a cat in a box".split(), english)
    n = 5
    assert set(forest.chart) == {(i, j) for j in range(1, n + 1) for i in range(j)}


def _no_cell_holds_equal_items(forest):
    for cell in forest.chart.values():
        items = [(it.cat, it.ty) for it in cell.values()]
        assert len(set(items)) == len(items)


# packed sources and items of "a cat (in a box)^k", without the syntax file
ATTACHMENT_PACKED_NODES = {1: 21, 2: 122, 3: 487, 4: 1527, 5: 4011, 6: 9228}
ATTACHMENT_ITEMS = {1: 16, 2: 51, 3: 117, 4: 223, 5: 378, 6: 591}
# sha256 of each cell's (category, type text, source count) list, in
# insertion order: pins which items each cell holds and in what order,
# which fixes derivation order
ATTACHMENT_CELL_DIGESTS = {
    1: "2cd282d753182dba9fea8d7c6dbc6bc179b2f4e5e8081dceb681d574e092057d",
    2: "b1736d9d6f2782655db16e9a485132b88c7a4791b8df0012e1e9ee0473eee289",
    3: "37a966a0cfea70d8d0d14beb4de894dbbf77224496f53c50a0d5bf8d543e74ab",
    4: "e145b8166517fcf36d6dff6ce156c9b49decf20b954870d81a91f4a05d657fec",
    5: "d890617882aec310595d1f0d47ab71bec762a6c2ee171b71024d209fdcce1690",
    6: "8fbfb5b87e31f34c7f45b96951a7ae2dac91278c237b4f4767adfd4f44218bd4",
}


@pytest.mark.parametrize("k", sorted(ATTACHMENT_PACKED_NODES))
def test_attachment_chart_sizes(english, k):
    forest = parse_forest(("a cat" + " in a box" * k).split(), english, seq_cap=64)
    assert forest.packed_node_count() == ATTACHMENT_PACKED_NODES[k]
    assert sum(len(cell) for cell in forest.chart.values()) == ATTACHMENT_ITEMS[k]
    cells = [(span, [(it.cat, str(it.ty), len(it.sources)) for it in cell.values()])
             for span, cell in forest.chart.items()]
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == ATTACHMENT_CELL_DIGESTS[k]
    _no_cell_holds_equal_items(forest)


def test_a_parsed_type_and_the_equal_built_type_are_one_object(english):
    parsed = parse_type(sexpr.parse("(D (D e))")[0], english.registry)
    forest = parse_forest("a cat in a box".split(), english)
    [item] = [it for it in forest.root_items() if str(it.ty) == "D D e"]
    assert item.ty is parsed


def test_a_seeded_type_and_an_equal_combined_type_share_one_item():
    lex = load_language_text("""
(base-type e) (base-type t)
(word "jupiter" :type e :term (const j))
(word "sleeps" :type (-> e t) :term (lam x (pred sleep x)))
(word "sleeps" :type (-> e t) :term (lam x (pred rest x)))
(word "jupiter sleeps" :type t :term (pred sleep (const j)))
""")
    forest = parse_forest("jupiter sleeps".split(), lex)
    _no_cell_holds_equal_items(forest)
    [verb] = forest.chart[(1, 2)].values()
    assert len(verb.sources) == 2
    [sentence] = forest.root_items()
    assert sentence.sources[0] is entry(lex, "jupiter sleeps")
    assert len(sentence.sources) == 2


@pytest.mark.parametrize("sentence", SENTENCES)
def test_no_cell_holds_two_items_of_one_category_and_type(english, syntax, sentence):
    for grammar in (None, syntax):
        for pruned in (True, False):
            _no_cell_holds_equal_items(
                parse_forest(sentence.split(), english, syntax=grammar, prune_seqs=pruned))


# -- derivation terms ------------------------------------------------------------

def test_leaf_term_unchanged(english):
    cat = entry(english, "cat")
    assert derivation_term(english.registry, Leaf(cat)) == cat.term


def test_tree_box_denotation(english, solar):
    reg = english.registry
    derivs = parse("a cat in a box".split(), english, max_derivations=128)
    target = [d for d in derivs if d.ty == Eff("D", e)]
    assert target
    from effparse.lambda_eval import _run_state
    from effparse.values import SeqV
    wanted = {x for x in solar.entities
              if ("cat", 1) in solar.predicates and (x,) in solar.predicates[("cat", 1)]
              and any((b,) in solar.predicates[("box", 1)]
                      and (b, x) in solar.predicates[("in", 2)]
                      for b in solar.entities)}
    got_sets = []
    for d in target:
        v = eval_term(derivation_term(reg, d), {}, solar, reg)
        outcomes = _run_state(v, SeqV(()))
        got_sets.append({pr.left.name for pr in outcomes.elems})
    assert wanted in got_sets


def test_printed_values_do_not_depend_on_process_history(english, solar):
    # the fresh variables of mode denotations print without their counter
    from effparse.render import derivation_to_text
    reg = english.registry
    derivs = parse("the cat sleeps".split(), english)
    before = [derivation_to_text(reg, d, solar) for d in derivs]
    for d in parse("a cat in a box".split(), english):
        derivation_term(reg, d)
    assert [derivation_to_text(reg, d, solar) for d in derivs] == before
    assert any("<\\_x>" in text for text in before)


@pytest.mark.parametrize("to_text", [True, False])
def test_printing_a_tree_evaluates_each_node_once(english, solar, monkeypatch,
                                                  to_text):
    from effparse import render
    reg = english.registry
    words = ("a cat" + " in a box" * 4).split()
    d = parse(words, english)[0]
    evaluated = []

    def counted(node, *args):
        evaluated.append(node)
        return branch_value(node, *args)
    monkeypatch.setattr(render, "branch_value", counted)
    if to_text:
        printed = render.derivation_to_text(reg, d, solar)
    else:
        printed = render.derivation_to_dot(reg, d, solar)
    branches = _branches([d])
    assert len(branches) == len(words) - 1
    assert sorted(map(id, evaluated)) == sorted(map(id, branches))
    assert "<error" not in printed


def test_a_printed_failure_is_the_error_of_evaluating_the_node(english, solar,
                                                                syntax):
    # "the cat" and "the box" fail with different errors, and their parent
    # with the left one's, which call-by-value order reaches first
    from effparse.render import derivation_to_text
    reg = english.registry
    model = _without(_without(solar, "cat"), "box")
    d = parse("the cat chases the box".split(), english, syntax=syntax)[0]
    printed = derivation_to_text(reg, d, model)
    lines = iter(printed.splitlines())

    def check(node):
        want = _outcome(reg, folded_term(reg, node), model, render_value)
        text = f"<error: {want[1]}>" if isinstance(want, tuple) else want
        assert next(lines).endswith(f"  = {text}")
        if isinstance(node, Branch):
            check(node.left)
            check(node.right)
    check(d)
    assert printed.splitlines()[0].endswith(
        "<error: predicate cat is not declared in the model>")
    assert "<error: predicate box is not declared in the model>" in printed


def _benchmark_forcer(model):
    """The benchmark's forcer, which turns values into plain data: state
    runs from the model's initial state, readers read its assignment,
    continuations are lowered and closures are tabulated over entities."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_pipeline", DATA.parent / "perfbench" / "pipeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Forcer(model)


def _outcome(reg, term, model, force):
    try:
        return force(eval_term(term, {}, model, reg))
    except (EvalError, ModelError) as exc:
        return type(exc), str(exc)


# -- every mode kind from a sentence ----------------------------------------------

# two words added to the shipped language, whose sentences reach UL, UR
# and C, the kinds that no sentence of the shipped language reaches
REACHING_WORDS = """
(word "hopes" :type (-> (G e) t) :term (lam g true) :cat VP)
(word "itpaired" :type (G (P (G e))) :term (lam gv (pair (lam gv2 (idx gv2 0)) gv)) :cat NP)
"""

# each sentence's readings (modes at the root, type, forced value on
# solar.model), worked out by hand.  "hopes" ignores its argument, so a
# sentence of it is true under every assignment.  "itpaired" pairs the
# reading of "it" with the assignment it reads; the C_P:G reading applies
# the one to the other, so its subject is j, the first entity of the
# model's assignment, and j does not sleep; the other reading keeps the
# pair: its reader's value, false as it reads j too, and the assignment.
REACHING_SENTENCES = {
    "it hopes": {("ML_G UL_G <", "G t", True)},
    "hopes it": {("MR_G UR_G >", "G t", True)},
    "itpaired sleeps": {("ML_G C_P:G ML_P ML_G <", "G t", False),
                        ("ML_G ML_P ML_G <", "G P G t", (False, ("j",)))},
}


@pytest.fixture(scope="module")
def reaching():
    return load_language_text((DATA / "english.lang").read_text() + REACHING_WORDS)


def test_every_mode_kind_is_reached_by_a_sentence(english, reaching):
    used = {m.kind
            for lex, sentences in ((english, SENTENCES), (reaching, REACHING_SENTENCES))
            for sentence in sentences for node in _branches(parse(sentence.split(), lex))
            for m in node.modes}
    assert used == set(MODE_RULES)


@pytest.mark.parametrize("sentence", sorted(REACHING_SENTENCES))
def test_the_reaching_sentences_read_their_hand_computed_values(reaching, solar, sentence):
    reg = reaching.registry
    force = _benchmark_forcer(solar)

    def readings(derivs):
        return {(render_modes(d.modes), str(d.ty),
                 _outcome(reg, derivation_term(reg, d), solar, force)) for d in derivs}
    derivs = parse(sentence.split(), reaching)
    for node in _branches(derivs):
        assert replay_modes(reg, node.modes, node.left.ty, node.right.ty) == node.ty
    assert readings(derivs) == REACHING_SENTENCES[sentence]
    # pruning drops sequences but keeps every (type, forced value) pair
    unpruned = readings(parse(sentence.split(), reaching, prune_seqs=False))
    assert {r[1:] for r in unpruned} == {r[1:] for r in REACHING_SENTENCES[sentence]}


EQUIVALENCE_SENTENCES = SENTENCES + tuple(
    "a cat" + " in a box" * k for k in range(1, 5))


def _moved(model):
    """The model with other cats and other things in the box, so that its
    values differ from the model's."""
    preds = dict(model.predicates)
    preds[("cat", 1)] = frozenset({("c2",), ("m1",)})
    preds[("in", 2)] = frozenset({("b1", "c2"), ("b1", "m1"), ("j", "b1")})
    return _with_predicates(model, preds)


def _without(model, pred):
    return _with_predicates(model, {k: v for k, v in model.predicates.items()
                                    if k[0] != pred})


def _with_predicates(model, predicates):
    return Model(entities=model.entities, predicates=predicates,
                 initial_assignment=model.initial_assignment,
                 initial_state=model.initial_state)


def _evaluation_orders(n):
    """(derivation index, model index) sequences: in order, reversed, each
    derivation twice in a row, interleaved across two models, and the
    first three in turn on one list, whose later passes force values and
    state runs that earlier ones memoised."""
    orders = {"in order": [(i, 0) for i in range(n)],
              "reversed": [(i, 0) for i in reversed(range(n))],
              "twice": [(i, 0) for i in range(n) for _ in range(2)],
              "two models": [(i, m) for i in range(n) for m in range(2)]}
    orders["all three"] = orders["in order"] + orders["reversed"] + orders["twice"]
    return orders


@pytest.mark.parametrize("with_syntax", [False, True])
def test_shared_mode_terms_evaluate_like_folded_terms(english, solar, syntax,
                                                      with_syntax):
    # forced data, not values_equal: probing nested state over every short
    # sequence exceeds its probe depth on D D e and takes minutes.  Each
    # order evaluates a fresh derivation list, whose node memo starts empty.
    # folded_term values share no node or state value across derivations.
    reg = english.registry
    models = (solar, _moved(solar))
    forcers = [_benchmark_forcer(model) for model in models]
    for sentence in EQUIVALENCE_SENTENCES:
        def derivations():
            return parse(sentence.split(), english,
                         syntax=syntax if with_syntax else None)
        derivs = derivations()
        want = {(n, m): _outcome(reg, folded_term(reg, d), models[m], forcers[m])
                for n, d in enumerate(derivs) for m in range(2)}
        for name, order in _evaluation_orders(len(derivs)).items():
            derivs = derivations()
            for n, m in order:
                got = _outcome(reg, derivation_term(reg, derivs[n]), models[m], forcers[m])
                assert got == want[n, m], (sentence, name, n, m)


def _branches(derivs):
    """Each distinct branch reachable from the derivations, once."""
    seen, stack = {}, list(derivs)
    while stack:
        d = stack.pop()
        if isinstance(d, Branch) and id(d) not in seen:
            seen[id(d)] = d
            stack += (d.left, d.right)
    return list(seen.values())


@pytest.mark.parametrize("sentence, with_syntax", [
    ("a cat" + " in a box" * 6, False),
    ("the cat in a box in a box eats the mouse in a box", True)])
def test_node_values_are_dropped_after_their_last_use(english, solar, syntax,
                                                      sentence, with_syntax):
    reg, force = english.registry, _benchmark_forcer(solar)
    forest = parse_forest(sentence.split(), english,
                          syntax=syntax if with_syntax else None, seq_cap=64)
    derivs = forest.derivations(64)
    branches = _branches(derivs)
    for n, d in enumerate(derivs):
        force(eval_term(derivation_term(reg, d), {}, solar, reg))
        if n == 0:  # the first derivation leaves values for later ones
            assert any(b._memo is not None for b in branches)
    assert [b for b in branches if b._memo is not None] == []
    # every use was counted and no branch was evaluated twice, which
    # would have used its children once more
    assert {b._uses for b in branches} == {0}


@pytest.mark.parametrize("sentence, with_syntax, missing", [
    ("the cat in the box sleeps", False, "sleep"),
    ("the cat in the box in the box sleeps", True, "sleep"),
    # the left child of some roots fails, and their right child is still used
    ("the cat in the box eats a mouse", False, "cat"),
    # and some branches fail on both sides
    ("a cat in the box chases the mouse in a box", False, "box")])
def test_a_failing_shared_node_fails_every_derivation_that_uses_it(
        english, solar, syntax, monkeypatch, sentence, with_syntax, missing):
    from effparse import combine
    reg = english.registry
    model = _without(solar, missing)
    force = _benchmark_forcer(model)
    derivs = parse(sentence.split(), english, syntax=syntax if with_syntax else None)
    evaluated = collections.Counter()

    def counted(node, *args):
        evaluated[id(node)] += 1
        return branch_value(node, *args)
    monkeypatch.setattr(combine, "branch_value", counted)
    raised = []
    for d in derivs:
        # one evaluation per derivation, in order, as the memo counts them
        got = _outcome(reg, derivation_term(reg, d), model, force)
        assert got == _outcome(reg, folded_term(reg, d), model, force)
        try:
            eval_term(folded_term(reg, d), {}, model, reg)
        except ModelError as exc:
            raised.append(str(exc))
    # several derivations fail in evaluation, not only when forced
    assert len(raised) > 1
    assert set(raised) == {f"predicate {missing} is not declared in the model"}
    # a failure is kept like a value: each branch is evaluated once, and
    # every counted use is spent
    branches = _branches(derivs)
    assert max(evaluated.values()) == 1
    assert set(evaluated) == {id(b) for b in branches}
    assert [b for b in branches if b._memo is not None] == []
    assert {b._uses for b in branches} == {0}


def test_a_kept_error_is_raised_afresh_and_any_other_error_propagates():
    def fail():
        raise EvalError("boom")
    kept = outcome(fail)
    assert isinstance(kept, EvalError) and kept.__traceback__ is None
    frames = []
    for _ in range(3):
        with pytest.raises(EvalError, match="boom") as info:
            value_of(kept)
        frames.append([f.name for f in traceback.extract_tb(info.value.__traceback__)])
    # raising it again does not grow its traceback
    assert frames[0] == frames[1] == frames[2]

    def bug():
        raise RuntimeError("not an evaluation error")
    with pytest.raises(RuntimeError) as info:
        outcome(bug)
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "bug"


def test_a_kept_error_holds_no_earlier_exception(english, solar, monkeypatch):
    # the model raises its errors ``from None`` inside an ``except``, so an
    # error holds the exception it replaced, and that one its frames
    from effparse import combine
    reg, model = english.registry, _without(solar, "cat")
    kept = []

    def recorded(f, *args):
        result = outcome(f, *args)
        if isinstance(result, Exception):
            kept.append(result)
        return result
    monkeypatch.setattr(combine, "outcome", recorded)
    raised = []
    for d in parse("the cat in the box eats a mouse".split(), english):
        try:
            eval_term(derivation_term(reg, d), {}, model, reg)
        except ModelError as exc:
            raised.append(exc)
    assert kept and raised
    assert [exc for exc in kept + raised if exc.__context__ is not None] == []


def test_evaluating_and_drawing_leave_no_reference_cycles(english, solar):
    """A derivation's term, its compiled closure, its node memos and its
    diagram summaries make no cycle, so they go when the list goes
    without waiting for the cyclic collector."""
    from effparse.diagrams import PlanarityError, from_derivation
    reg = english.registry
    tokens = ("a cat" + " in a box" * 3).split()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            for d in parse(tokens, english):
                outcome(eval_term, derivation_term(reg, d), {}, solar, reg)
                try:
                    from_derivation(reg, d)
                except PlanarityError:
                    pass
        gc.collect()
        left = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == collections.Counter()


def test_a_cold_parse_adds_each_distinct_mode_to_the_table_once(monkeypatch):
    lex = load_language(DATA / "english.lang")  # a new registry: a cold mode cache
    made = []
    post_init = Mode.__post_init__

    def counted(self):
        post_init(self)
        made.append((self.kind, self.functor, self.pair))
    monkeypatch.setattr(Mode, "__post_init__", counted)
    monkeypatch.setattr(Mode, "_table", {})  # the modes made so far stay apart
    forest = parse_forest(("a cat" + " in a box" * 6).split(), lex, seq_cap=64)
    assert len(made) == len(set(made)) == len(Mode._table) > 1
    used = {m for cell in forest.chart.values() for item in cell.values()
            for src in item.sources if isinstance(src, tuple) for seq in src[0] for m in seq}
    assert all(Mode._table[(m.kind, m.functor, m.pair)] is m for m in used)


def test_every_mode_kind_roundtrips():
    assert sorted(MODE_RULES) == sorted("fwd bwd conj disj ml mr a ul ur el er j dn c".split())
    index = {None: {}, "functor": {"functor": "M"}, "pair": {"pair": ("P", "G")}}
    for kind, rule in MODE_RULES.items():
        m = Mode(kind, **index[rule.indexed_by])
        assert parse_mode(m.render()) == m


@pytest.mark.parametrize("text", ["DN_M", "ML", "C_P", "FWD", "ml_M", "X_M"])
def test_parse_mode_rejects_malformed(text):
    with pytest.raises(ModeError):
        parse_mode(text)


@pytest.mark.parametrize("text", ["ML_", "A_", "J_", "ML", "C_:", "C_P:", "C_:G", "C_P"])
def test_parse_mode_rejects_an_empty_index_and_makes_no_mode(text):
    before = dict(Mode._table)
    with pytest.raises(ModeError, match="^cannot parse mode"):
        parse_mode(text)
    assert Mode._table == before


def test_every_mode_the_typing_rules_make_roundtrips(syntax, monkeypatch):
    lex = load_language(DATA / "english.lang")  # a new registry: a cold mode cache
    monkeypatch.setattr(Mode, "_table", {})  # only the modes these parses make
    for sentence in SENTENCES:
        for grammar in (None, syntax):
            for pruned in (True, False):
                parse_forest(sentence.split(), lex, syntax=grammar, prune_seqs=pruned)
    made = list(Mode._table.values())
    assert {m.kind for m in made} >= {"fwd", "bwd", "ml", "mr", "a", "j"}
    for m in made:
        assert parse_mode(m.render()) is m
    assert list(Mode._table.values()) == made


def test_mode_string_roundtrip(english):
    for sent in ("the cat sleeps", "a cat in a box", "no cat sleeps"):
        for d in parse(sent.split(), english, max_derivations=32):
            if isinstance(d, Branch):
                assert parse_modes(render_modes(d.modes)) == d.modes
