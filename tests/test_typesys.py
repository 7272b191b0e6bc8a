import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from effparse.typesys import (Base, Eff, FunctorDef, InapplicableFunctorError,
                              MalformedTypeError, Registry, RegistryError)

from .strategies import types

e, t = Base("e"), Base("t")


def test_well_formed_rejects_an_undeclared_base_type(registry):
    with pytest.raises(MalformedTypeError):
        registry.well_formed(Base("zz"))


def test_apply_functor(registry):
    assert registry.apply_functor("M", e) == Eff("M", e)
    assert registry.apply_functor("D", Eff("D", e)) == Eff("D", Eff("D", e))


def test_apply_functor_respects_applicability():
    reg = Registry()
    reg.add_base_type("e")
    reg.add_base_type("t")
    reg.add_functor(FunctorDef(id="Q", capabilities=frozenset({"functor"}),
                               applies_to=(Base("e"),)))
    assert reg.apply_functor("Q", Base("e")) == Eff("Q", Base("e"))
    with pytest.raises(InapplicableFunctorError):
        reg.apply_functor("Q", Base("t"))


def test_capability_implications_enforced():
    with pytest.raises(RegistryError):
        FunctorDef(id="X", capabilities=frozenset({"monad"}))
    with pytest.raises(RegistryError):
        FunctorDef(id="X", capabilities=frozenset({"applicative"}))
    with pytest.raises(RegistryError):
        FunctorDef(id="X", capabilities=frozenset({"functor"}), commutative=True)


def test_adjunction_requires_registered_partner():
    reg = Registry()
    reg.add_functor(FunctorDef(id="L0", capabilities=frozenset({"functor"})))
    with pytest.raises(RegistryError):
        reg.add_adjunction("L0", "R0")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_apply_functor_strictly_grows(registry, data):
    ty = data.draw(types(registry))
    f = data.draw(st.sampled_from(registry.functor_names()))
    assert registry.apply_functor(f, ty) != ty
