import gc
import os
import re
import pathlib
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from effparse import terms as T
from effparse.combine import _combinator, derivation_term, parse, parse_modes
from effparse.lambda_eval import (EvalError, ShapeError, UnboundVariableError,
                                  adjunction_unit, ap, apply_nat, apply_value,
                                  _state, check_shape, counit, eta, eval_term,
                                  fmap_apply, join, lower, run_handler, upsilon)
from effparse.lexicon import load_language_text
from effparse.model import Model
from effparse.typesys import NatDef, UnknownEffectError
from effparse.values import (ABSENT, B, ContV, E, Fn, MaybeV, PairV, ReaderV,
                             SeqV, SetV, StateV, values_equal)

from . import strategies as S
from .conftest import entry

FUNCTORS = ("G", "W", "S", "C", "D", "M")
MONADS = ("G", "W", "S", "C", "D", "M")


def ident():
    return Fn(lambda v: v, label="id")


@pytest.fixture(scope="module")
def one_cat_model():
    return Model(entities=("c1", "c2"),
                 predicates={("cat", 1): frozenset({("c1",)}),
                             ("sleep", 1): frozenset({("c1",)})},
                 initial_assignment=("c1",))


@pytest.fixture(scope="module")
def two_cat_model():
    return Model(entities=("c1", "c2"),
                 predicates={("cat", 1): frozenset({("c1",), ("c2",)})},
                 initial_assignment=("c1",))


def the_applied_to_cat(english):
    return T.App(entry(english, "the").term, entry(english, "cat").term)


def test_eval_the_cat_unique(english, one_cat_model):
    v = eval_term(the_applied_to_cat(english), {}, one_cat_model, english.registry)
    assert v == MaybeV(E("c1"))


def test_eval_the_cat_nonunique_is_absent(english, two_cat_model):
    v = eval_term(the_applied_to_cat(english), {}, two_cat_model, english.registry)
    assert v == MaybeV(ABSENT)


def test_one_compiled_term_serves_any_model(english, one_cat_model, two_cat_model):
    term = the_applied_to_cat(english)
    reg = english.registry
    for models in ((one_cat_model, two_cat_model), (two_cat_model, one_cat_model)):
        got = [eval_term(term, {}, model, reg) for model in models]
        want = [MaybeV(E("c1")) if model is one_cat_model else MaybeV(ABSENT)
                for model in models]
        assert got == want


def test_unbound_variable_raises_when_applied(registry, law_model):
    v = eval_term(T.Lam("x", T.Var("y")), {}, law_model, registry)
    assert isinstance(v, Fn)
    with pytest.raises(UnboundVariableError, match="unbound variable y"):
        apply_value(v, E("a"))


def test_term_without_compile_rule_raises_when_evaluated(registry, law_model):
    class Opaque(T.Term):
        pass

    with pytest.raises(EvalError, match="cannot evaluate"):
        eval_term(Opaque(), {}, law_model, registry)
    # inside a closure body it raises only once the body runs
    v = eval_term(T.Lam("x", Opaque()), {}, law_model, registry)
    with pytest.raises(EvalError, match="cannot evaluate"):
        apply_value(v, E("a"))


def test_eval_identity_application(registry, law_model):
    term = T.App(T.Lam("x", T.Var("x")), T.Const("a"))
    assert eval_term(term, {}, law_model, registry) == E("a")


def test_eval_unbound_variable(registry, law_model):
    with pytest.raises(EvalError):
        eval_term(T.Var("nope"), {}, law_model, registry)


def test_eval_is_deterministic(english, solar):
    reg = english.registry
    d = parse("the cat eats a mouse".split(), english, max_derivations=8)[0]
    term = derivation_term(reg, d)
    a = eval_term(term, {}, solar, reg)
    b = eval_term(term, {}, solar, reg)
    assert values_equal(a, b, solar)


def test_values_equal_tells_forall_from_exists_past_five_entities(solar):
    # solar.model has six entities, more than the full subset probe covers
    assert len(solar.entities) > 5
    ents = [E(x) for x in solar.entities]
    every = ContV(lambda c: B(all(c(x).value for x in ents)))
    some = ContV(lambda c: B(any(c(x).value for x in ents)))
    assert not values_equal(every, some, solar)


# -- per-carrier operation examples ------------------------------------------

def test_value_equality_hides_only_evaluation_errors(law_model):
    def broken(v):
        raise AttributeError("not an evaluation error")

    def ill_typed(v):
        raise ShapeError("ill-typed probe")

    with pytest.raises(AttributeError):
        values_equal(Fn(broken), Fn(broken), law_model)
    assert not values_equal(Fn(ill_typed), Fn(lambda v: B(True)), law_model)


def test_missing_carrier_operations_raise_unknown_effect():
    reg = load_language_text(
        "(base-type e) (base-type t) (base-type g)\n"
        "(functor P :caps (functor applicative monad))\n"
        "(functor Q :caps (functor applicative monad))\n").registry
    pair = PairV(B(True), SeqV(()))
    calls = [lambda: eta(reg, "P", B(True)),
             lambda: join(reg, "P", PairV(pair, SeqV(()))),
             lambda: fmap_apply(reg, "Q", ident(), pair),
             lambda: eta(reg, "Q", B(True)),
             lambda: join(reg, "Q", pair),
             lambda: check_shape("Q", pair)]
    for call in calls:
        with pytest.raises(UnknownEffectError, match="has no runtime carrier"):
            call()


def test_fmap_maybe_preserves_absent(registry):
    out = fmap_apply(registry, "M", ident(), MaybeV(ABSENT))
    assert out == MaybeV(ABSENT)


def test_fmap_set_id(registry):
    s = SetV([E("a"), E("b")])
    assert fmap_apply(registry, "S", ident(), s) == s


def first_occurrences(elems) -> list:
    """Each element that equals no element before it, in the order given,
    found with ``==`` alone."""
    kept = []
    for v in elems:
        if not any(v == k for k in kept):
            kept.append(v)
    return kept


def set_elements():
    """Data values (fresh objects, so equal ones are duplicates), nested
    sets, and the function-like ``Fn`` and ``StateV``."""
    return st.one_of(S.payloads(), S.maybe_values(), S.writer_values(),
                     S.env_pair_values(), S.set_values(), S.set_values(S.set_values()),
                     S.entity_funs(), S.state_values())


@given(st.lists(set_elements(), max_size=4))
@settings(max_examples=300, deadline=None)
def test_set_elems_are_the_first_occurrences_in_order(elems):
    s = SetV(elems)
    assert [id(v) for v in s.elems] == [id(v) for v in first_occurrences(elems)]
    backwards = SetV(reversed(elems))
    assert s == backwards and hash(s) == hash(backwards)


def test_a_set_holds_one_closure_once():
    f = ident()
    assert SetV([f, f]).elems == (f,)


def test_sets_of_closures_are_equal_whatever_their_order():
    f, g = ident(), Fn(lambda v: E("b"), label="kb")
    assert SetV([f, g]) == SetV([g, f])
    assert hash(SetV([f, g])) == hash(SetV([g, f]))
    assert SetV([f, g]) != SetV([f, ident()])  # closures compare by identity


def test_set_of_sets_order_does_not_depend_on_the_hash_seed():
    code = ("from effparse.values import E, SetV, render\n"
            "s = SetV([SetV([E('a'), E('b')]), SetV([E('c')]),"
            " SetV([E('b'), E('c'), E('d')])])\n"
            "print([render(x) for x in s.elems])")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           text=True, env={**os.environ, "PYTHONPATH": src,
                                           "PYTHONHASHSEED": str(seed)}).stdout
            for seed in (0, 1, 2)}
    assert outs == {"['{a, b}', '{c}', '{b, c, d}']\n"}


def test_fmap_writer_maps_first_component(registry):
    fn = Fn(lambda v: B(True), label="k")
    out = fmap_apply(registry, "W", fn, PairV(E("a"), B(True)))
    assert out == PairV(B(True), B(True))


def test_eta_examples(registry, law_model):
    assert eta(registry, "S", E("a")) == SetV([E("a")])
    assert eta(registry, "M", E("a")) == MaybeV(E("a"))
    assert lower(eta(registry, "C", B(True))) == B(True)


def test_eta_requires_applicative(registry):
    with pytest.raises(Exception):
        eta(registry, "P", E("a"))


def test_join_examples(registry):
    assert join(registry, "S", SetV([SetV([E("a")]), SetV([E("b")])])) == SetV([E("a"), E("b")])
    assert join(registry, "M", MaybeV(MaybeV(ABSENT))) == MaybeV(ABSENT)


def test_join_state_matches_explicit_two_layer_run(registry, law_model):
    mice = ("a", "b")

    def amouse_run(s):
        return SetV([PairV(E(m), SeqV((E(m),) + s.items)) for m in mice])
    amouse = StateV(amouse_run)

    def eats(m):
        return StateV(lambda s: SetV([PairV(B(m.name == "a"), s)]))

    nested = fmap_apply(registry, "D", Fn(eats, label="eats"), amouse)
    joined = join(registry, "D", nested)

    def oracle(s):
        out = []
        for pr in nested.run(s).elems:
            out.extend(pr.left.run(pr.right).elems)
        return SetV(out)

    s0 = SeqV(())
    got = joined.run(s0)
    want = oracle(s0)
    assert values_equal(got, want, law_model)
    assert len(got.elems) == 2


def test_state_runs_once_per_distinct_state():
    calls = []

    def run(s):
        calls.append(s)
        return SetV([PairV(E("a"), s)])
    st = StateV(run)
    first = st.run(SeqV((E("a"), E("b"))))
    again = st.run(SeqV((E("a"), E("b"))))  # equal, but another object
    assert again is first
    assert len(calls) == 1
    assert st.run(SeqV(())) == SetV([PairV(E("a"), SeqV(()))])
    assert len(calls) == 2


def test_a_state_run_that_raises_runs_again():
    calls = []

    def run(s):
        calls.append(s)
        if len(calls) == 1:
            raise ShapeError("first run fails")
        return SetV([PairV(B(True), s)])
    st = StateV(run)
    with pytest.raises(ShapeError):
        st.run(SeqV(()))
    assert st.run(SeqV(())) == SetV([PairV(B(True), SeqV(()))])
    assert len(calls) == 2


def _pair_with_the_state(s):
    return SetV([PairV(ident(), s)])


# operations that make a D value from a D value ``base`` whose outcome
# values are functions: its checked state, a unit, a join, a map, and
# the ML_D > and MR_D < mode combinators
STATE_MAKERS = {
    "state": lambda reg, base: _state(base.run),
    "eta": lambda reg, base: eta(reg, "D", ident()),
    "join": lambda reg, base: join(reg, "D", eta(reg, "D", base)),
    "fmap": lambda reg, base: fmap_apply(reg, "D", ident(), base),
    "ML_D >": lambda reg, base: _combinator(parse_modes("ML_D >"), reg)(base, E("a")),
    "MR_D <": lambda reg, base: _combinator(parse_modes("MR_D <"), reg)(E("a"), base),
}


def _counted_steps(st, calls):
    """``st``, with each run of its step recorded in ``calls``."""
    step = st.step

    def counted(operand, s):
        calls.append(s)
        return step(operand, s)
    object.__setattr__(st, "step", counted)
    return st


@pytest.mark.parametrize("make", STATE_MAKERS.values(), ids=list(STATE_MAKERS))
def test_an_evaluated_state_runs_once_per_distinct_state(registry, make):
    calls = []
    st = _counted_steps(make(registry, _state(_pair_with_the_state)), calls)
    assert isinstance(st, StateV)
    first = st.run(SeqV((E("a"),)))
    assert st.run(SeqV((E("a"),))) is first  # equal, but another object
    out = st.run(SeqV(()))
    assert [pr.right for pr in out.elems] == [SeqV(())]
    assert st.run(SeqV(())) is out
    assert calls == [SeqV((E("a"),)), SeqV(())]


@pytest.mark.parametrize("make", [m for name, m in STATE_MAKERS.items() if name != "eta"],
                         ids=[name for name in STATE_MAKERS if name != "eta"])
@pytest.mark.parametrize("checked, yields, message", [
    (True, lambda s: PairV(E("a"), s), "a state carrier must yield a set of outcomes"),
    (True, lambda s: SetV([PairV(E("a"), E("b"))]),
     "state outcomes must be (value, state) pairs"),
    (True, lambda s: SetV([E("a")]), "state outcomes must be (value, state) pairs"),
    # only the made state's own check sees an outcome of an unchecked state
    (False, lambda s: SetV([PairV(ident(), E("b"))]),
     "state outcomes must be (value, state) pairs"),
])
def test_an_evaluated_state_run_that_fails_its_check_is_stored_nowhere(registry, make,
                                                                      checked, yields,
                                                                      message):
    runs, steps = [], []

    def run(s):
        runs.append(s)
        return yields(s)
    st = _counted_steps(make(registry, _state(run) if checked else StateV(run)), steps)
    for n in (1, 2, 3):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            st.run(SeqV(()))
        assert len(steps) == n
        if checked:
            assert len(runs) == n
    assert st._memo == {}
    # a mapped state checks what it maps over at each run too
    mapped = fmap_apply(registry, "D", ident(), st)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        mapped.run(SeqV(()))
    assert len(steps) == 4
    assert len(runs) == (4 if checked else 1)


def test_a_unit_state_run_on_a_non_state_is_stored_nowhere(registry):
    st = eta(registry, "D", E("a"))
    for _ in range(2):
        with pytest.raises(ShapeError,
                           match=r"^state outcomes must be \(value, state\) pairs$"):
            st.run(E("b"))
    assert st._memo == {}


@pytest.mark.parametrize("make", [lambda reg, base: StateV(base.run), *STATE_MAKERS.values()],
                         ids=["StateV", *STATE_MAKERS])
def test_a_state_memo_adds_no_reference_cycle(registry, make):
    base = _state(_pair_with_the_state)
    st = make(registry, base)
    for s in (SeqV(()), SeqV((E("a"),))):
        st.run(s)
    refs = [weakref.ref(st), weakref.ref(base)]
    gc.disable()
    try:
        del st, base
        assert [ref() for ref in refs] == [None, None]  # freed by reference counts alone
    finally:
        gc.enable()


def test_ap_examples(registry, law_model):
    fn = MaybeV(ident())
    assert ap(registry, "M", fn, MaybeV(ABSENT)) == MaybeV(ABSENT)
    fns = SetV([ident(), Fn(lambda v: E("b"), label="kb")])
    out = ap(registry, "S", fns, SetV([E("a")]))
    assert values_equal(out, SetV([E("a"), E("b")]), law_model)


def test_counit_reads_paired_assignment(registry):
    v = PairV(ReaderV(lambda g: g.items[0]), SeqV((E("j"),)))
    with pytest.raises(Exception):
        counit(registry, "M", "S", v)
    # entity j is not in the law model; plain structural check suffices
    assert counit(registry, "P", "G", v) == E("j")


def test_counit_after_unit_is_identity(registry, law_model):
    x = PairV(E("a"), SeqV((E("b"),)))
    lifted = fmap_apply(registry, "P",
                        Fn(lambda v: adjunction_unit(registry, "P", "G", v)), x)
    assert values_equal(counit(registry, "P", "G", lifted), x, law_model)


def test_snake_dual_on_reader(registry, law_model):
    y = ReaderV(lambda g: B(len(g.items) % 2 == 0))
    unit_at = adjunction_unit(registry, "P", "G", y)
    collapsed = fmap_apply(registry, "G",
                           Fn(lambda p: counit(registry, "P", "G", p)), unit_at)
    assert values_equal(collapsed, y, law_model)


def test_upsilon_internalises_reader_function(registry, law_model):
    fn = Fn(lambda v: B(isinstance(v, E) and v.name == "a"), label="is-a")
    r = ReaderV(lambda g: fn)
    internal = upsilon(registry, "G", r)
    out = apply_value(internal, E("a"))
    assert values_equal(out, ReaderV(lambda g: B(True)), law_model)


def test_upsilon_on_unit_commutes_with_application(registry, law_model):
    fn = Fn(lambda v: B(isinstance(v, E) and v.name == "b"), label="is-b")
    internal = upsilon(registry, "G", eta(registry, "G", fn))
    lhs = apply_value(internal, E("b"))
    rhs = eta(registry, "G", apply_value(fn, E("b")))
    assert values_equal(lhs, rhs, law_model)


def test_upsilon_rejects_non_function_payload(registry):
    out = apply_value(upsilon(registry, "G", ReaderV(lambda g: E("a"))), E("a"))
    with pytest.raises(EvalError):
        out.run(SeqV(()))


def test_lower_quantified_continuation(law_model, registry):
    passes = frozenset({"a", "b", "c", "d"})
    v = ContV(lambda c: B(all(c(B(x in passes)).value
                              for x in law_model.entities)))
    assert lower(v) == B(True)
    assert lower(eta(registry, "C", B(False))) == B(False)
    with pytest.raises(ShapeError):
        lower(MaybeV(E("a")))


def test_run_handler_choose_min(english, law_model):
    reg = english.registry
    h = reg.nat("choose-min")
    assert run_handler(reg, h, SetV([E("b"), E("a")]), law_model) == E("a")
    assert run_handler(reg, h, eta(reg, "S", E("c")), law_model) == E("c")


def test_run_handler_maybe_default(english, solar):
    reg = english.registry
    h = reg.nat("maybe-default")
    assert run_handler(reg, h, MaybeV(ABSENT), solar) == E("j")
    assert run_handler(reg, h, MaybeV(E("c1")), solar) == E("c1")


def test_run_handler_rejects_non_handler(english, law_model):
    reg = english.registry
    with pytest.raises(Exception):
        run_handler(reg, reg.nat("iota"), SetV([E("a")]), law_model)


def test_apply_nat_set_to_cont(english, law_model):
    reg = english.registry
    out = apply_nat(reg, reg.nat("exists-cont"), SetV([E("a")]), law_model)
    direct = ContV(lambda c: c(E("a")))
    assert values_equal(out, direct, law_model)


def test_apply_nat_identity(english, law_model):
    reg = english.registry
    nat = NatDef(name="idm", source=("M",), target=("M",), component="identity")
    v = MaybeV(E("a"))
    assert apply_nat(reg, nat, v, law_model) == v


def test_handler_as_nat_matches_run_handler(english, law_model):
    reg = english.registry
    h = reg.nat("choose-min")
    v = SetV([E("b"), E("d")])
    assert apply_nat(reg, h, v, law_model) == run_handler(reg, h, v, law_model)


# -- law suites ---------------------------------------------------------------

@pytest.mark.parametrize("functor", FUNCTORS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_functor_identity_law(registry, law_model, functor, data):
    # fmap id == id
    v = data.draw(S.carrier_values(functor))
    assert values_equal(fmap_apply(registry, functor, ident(), v), v, law_model)


@pytest.mark.parametrize("functor", FUNCTORS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_functor_composition_law(registry, law_model, functor, data):
    # fmap (f . g) == fmap f . fmap g
    v = data.draw(S.carrier_values(functor, payload=S.entity_values()))
    g = data.draw(S.entity_endos())
    f = data.draw(S.entity_funs())
    comp = Fn(lambda x: f.run(g.run(x)), label="f.g")
    lhs = fmap_apply(registry, functor, comp, v)
    rhs = fmap_apply(registry, functor, f, fmap_apply(registry, functor, g, v))
    assert values_equal(lhs, rhs, law_model)


@pytest.mark.parametrize("functor", MONADS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_monad_left_unit(registry, law_model, functor, data):
    # join . eta == id
    v = data.draw(S.carrier_values(functor))
    assert values_equal(join(registry, functor, eta(registry, functor, v)),
                        v, law_model)


@pytest.mark.parametrize("functor", MONADS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_monad_right_unit(registry, law_model, functor, data):
    # join . fmap eta == id
    v = data.draw(S.carrier_values(functor))
    lifted = fmap_apply(registry, functor,
                        Fn(lambda x: eta(registry, functor, x), label="eta"), v)
    assert values_equal(join(registry, functor, lifted), v, law_model)


@pytest.mark.parametrize("functor", MONADS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_monad_associativity(registry, law_model, functor, data):
    # join . join == join . fmap join
    inner = S.carrier_values(functor, payload=S.payloads())
    middle = S.carrier_values(functor, payload=inner)
    vvv = data.draw(S.carrier_values(functor, payload=middle))
    lhs = join(registry, functor, join(registry, functor, vvv))
    rhs = join(registry, functor,
               fmap_apply(registry, functor,
                          Fn(lambda m: join(registry, functor, m), label="join"), vvv))
    assert values_equal(lhs, rhs, law_model)


@pytest.mark.parametrize("functor", MONADS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ap_agrees_with_join_fmap_oracle(registry, law_model, functor, data):
    fn = data.draw(S.entity_funs())
    vf = data.draw(S.carrier_values(functor, payload=st.just(fn)))
    vx = data.draw(S.carrier_values(functor, payload=S.entity_values()))
    got = ap(registry, functor, vf, vx)
    # oracle: collapse the function layer by hand, one fmap at a time
    applied = fmap_apply(registry, functor,
                         Fn(lambda g: fmap_apply(registry, functor, g, vx),
                            label="o"), vf)
    want = join(registry, functor, applied)
    assert values_equal(got, want, law_model)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_snake_laws_value_level(registry, law_model, data):
    x = data.draw(S.env_pair_values())
    lifted = fmap_apply(registry, "P",
                        Fn(lambda v: adjunction_unit(registry, "P", "G", v)), x)
    assert values_equal(counit(registry, "P", "G", lifted), x, law_model)
    y = data.draw(S.reader_values())
    unit_at = adjunction_unit(registry, "P", "G", y)
    collapsed = fmap_apply(registry, "G",
                           Fn(lambda p: counit(registry, "P", "G", p)), unit_at)
    assert values_equal(collapsed, y, law_model)
