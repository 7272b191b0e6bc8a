import pathlib

import pytest

from effparse.combine import load_syntax
from effparse.lexicon import load_language, load_model
from effparse.model import Model
from effparse.typesys import FunctorDef, NatDef, Registry

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def entry(lex, surface):
    """The lexicon's one entry with ``surface``."""
    [e] = [e for e in lex.entries if e.surface == surface]
    return e


@pytest.fixture(scope="session")
def english():
    return load_language(DATA / "english.lang")


@pytest.fixture(scope="session")
def registry(english):
    return english.registry


@pytest.fixture(scope="session")
def solar():
    return load_model(DATA / "solar.model")


@pytest.fixture(scope="session")
def syntax():
    return load_syntax(DATA / "english.cfg")


@pytest.fixture(scope="session")
def law_model():
    """Four entities and a couple of extensions; enough for law testing."""
    return Model(
        entities=("a", "b", "c", "d"),
        predicates={("red", 1): frozenset({("a",), ("c",)}),
                    ("near", 2): frozenset({("a", "b"), ("c", "d")})},
        initial_assignment=("a",),
        initial_state=(),
    )


@pytest.fixture(scope="session")
def diagram_registry():
    """Two monads, one adjunction, one handler; for synthetic diagrams."""
    reg = Registry()
    fam = frozenset({"functor", "applicative", "monad"})
    reg.add_functor(FunctorDef(id="F1", capabilities=fam))
    reg.add_functor(FunctorDef(id="F2", capabilities=fam))
    reg.add_functor(FunctorDef(id="L", capabilities=frozenset({"functor"})))
    reg.add_functor(FunctorDef(id="R", capabilities=frozenset({"functor"})))
    reg.add_adjunction("L", "R")
    reg.add_nat(NatDef(name="h1", source=("F1",), target=(), is_handler=True,
                       component="identity"))
    return reg
