"""What callers rely on of the engine's record classes: structural,
class-distinct equality with hashes that agree; one object per value of
an interned class; identity equality of closure values; immutability
with memo slots set through ``object.__setattr__``; and the exact repr
text that error messages and ``values.render`` print."""

import pytest

from effparse.combine import Branch, Leaf, Mode, ModeError, parse_mode
from effparse.lexicon import LexEntry
from effparse.model import Model
from effparse.sexpr import Node
from effparse.terms import App, Const, Lam, Var
from effparse.typesys import Arrow, Base, Eff, FunctorDef, Prod, Ty
from effparse.values import B, ContV, E, Fn, MaybeV, PairV, ReaderV, SeqV, StateV

E_TY, T_TY = Base("e"), Base("t")
ENTRY = LexEntry(surface="cat", tokens=("cat",), ty=E_TY, term=Var("x"))


def _branch():
    return Branch(ty=E_TY, modes=(Mode("fwd"),), left=Leaf(ENTRY), right=Leaf(ENTRY))


EQUAL_PAIRS = [
    (lambda: Var("x"), lambda: Var(name="x")),
    (lambda: App(Lam("x", Var("x")), Const("c1")), lambda: App(Lam("x", Var("x")), Const("c1"))),
    (lambda: Eff("G", Arrow(E_TY, T_TY)), lambda: Eff("G", Arrow(Base("e"), Base("t")))),
    (lambda: Mode("ml", "G"), lambda: Mode("ml", functor="G")),
    (lambda: PairV(E("c1"), SeqV((E("c2"),))), lambda: PairV(left=E("c1"), right=SeqV((E("c2"),)))),
    (lambda: MaybeV(B(True)), lambda: MaybeV(B(True))),
    (lambda: SeqV(), lambda: SeqV(items=())),
    (_branch, _branch),
    (lambda: Node(("word", "cat"), 3), lambda: Node(items=("word", "cat"), line=3)),
    (lambda: FunctorDef(id="M"), lambda: FunctorDef("M", frozenset())),
    (lambda: Model(entities=("c1",)), lambda: Model(("c1",), {})),
]


@pytest.mark.parametrize("make_a, make_b", EQUAL_PAIRS)
def test_records_with_equal_fields_are_equal_and_hash_alike(make_a, make_b):
    a, b = make_a(), make_b()
    assert (a is b) == isinstance(a, (Ty, Mode))  # the interned classes
    assert a == b and not a != b
    if type(a) is not Model:  # a model holds a dict
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("build", [
    lambda: Var(), lambda: Var("x", "y"), lambda: Var(nam="x"),
    lambda: Lam("x", Var("x"), param="y"), lambda: FunctorDef(capabilities=frozenset()),
    lambda: Model((), {}, (), (), ()),
])
def test_a_constructor_call_that_misses_or_repeats_a_field_raises(build):
    with pytest.raises(TypeError):
        build()


def test_equality_tells_classes_and_fields_apart():
    assert Var("x") != Const("x")
    assert Var("x") != Var("y")
    assert E("c1") != E("c2") and B(True) != B(False)
    assert Eff("G", E_TY) != Eff("W", E_TY)
    assert Arrow(E_TY, T_TY) != Arrow(T_TY, E_TY)
    assert Mode("ml", "G") != Mode("mr", "G") and Mode("fwd") != Mode("bwd")
    # no record equals a bare tuple or a bare field value
    assert Var("x") != ("x",) and Var("x") != "x"
    assert PairV(B(True), E("c1")) != (B(True), E("c1"))
    assert SeqV(()) != () and E("c1") != "c1"
    assert len({Var("x"), Const("x"), ("x",)}) == 3


def test_closure_values_compare_by_identity():
    def f(v):
        return v
    for cls in (Fn, ReaderV, StateV, ContV):
        a, b = cls(f), cls(f)
        assert a == a and hash(a) == hash(a)
        assert a != b
        assert len({a, b}) == 2
    # a record that holds a closure value compares it by identity too
    fn = Fn(f)
    assert PairV(fn, B(True)) == PairV(fn, B(True))
    assert PairV(Fn(f), B(True)) != PairV(Fn(f), B(True))


@pytest.mark.parametrize("record, field", [
    (Var("x"), "name"), (Eff("G", E_TY), "inner"), (Mode("fwd"), "kind"),
    (B(True), "value"), (SeqV(()), "items"), (Fn(lambda v: v), "label"),
    (Leaf(ENTRY), "entry"), (ENTRY, "surface"), (Model(), "entities"),
])
def test_assigning_to_a_frozen_record_raises(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.memo = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_memo_slots_are_set_through_object_setattr():
    term, mode, branch = Var("x"), Mode("j", "D"), _branch()
    object.__setattr__(term, "_code", len)
    object.__setattr__(branch, "_uses", 2)
    object.__setattr__(branch, "_memo", None)
    assert term._code is len and branch._uses == 2
    assert mode.rendered == "J_D"
    # a memo slot is not a field: equality and hashes ignore it
    assert term == Var("x") and hash(term) == hash(Var("x"))
    assert branch == _branch() and _branch()._uses == 0


def test_an_interned_class_makes_one_object_per_value():
    assert Mode("ml", "G") is Mode("ml", functor="G") is parse_mode("ML_G")
    assert Mode("fwd") is Mode("fwd", None, None) is Mode(kind="fwd", pair=None)
    assert Arrow(E_TY, Eff("D", T_TY)) is Arrow(cod=Eff("D", Base("t")), dom=Base("e"))
    # each class has its own table, so equal fields of two classes stay apart
    assert Arrow(E_TY, T_TY) is not Prod(E_TY, T_TY)
    before = dict(Mode._table)
    with pytest.raises(ModeError):
        Mode("zz")
    assert Mode._table == before  # a failed __post_init__ stores nothing
    with pytest.raises(TypeError):
        Mode("ml", "G", None, "extra")


def test_reprs_are_exact():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Eff("G", Arrow(E_TY, T_TY))) == (
        "Eff(functor='G', inner=Arrow(dom=Base(name='e'), cod=Base(name='t')))")
    assert repr(Mode("c", pair=("L", "R"))) == "Mode(kind='c', functor=None, pair=('L', 'R'))"
    assert repr(PairV(left=E(name="c1"), right=SeqV(items=()))) == (
        "PairV(left=E(name='c1'), right=SeqV(items=()))")
    leaf = ("Leaf(entry=LexEntry(surface='cat', tokens=('cat',), ty=Base(name='e'), "
            "term=Var(name='x'), category=None))")
    assert repr(_branch()) == (
        "Branch(ty=Base(name='e'), modes=(Mode(kind='fwd', functor=None, pair=None),), "
        f"left={leaf}, right={leaf})")
