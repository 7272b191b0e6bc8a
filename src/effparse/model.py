"""Finite evaluation models.

A model fixes the entity domain, predicate extensions, and the initial
assignment (for the reader effect) and discourse state (for the state
effect).  Entity declaration order doubles as the total order used by the
deterministic choice handler.
"""

from __future__ import annotations

from .record import Record


class ModelError(Exception):
    pass


class Model(Record):
    entities: tuple = ()
    predicates: dict = {}  # (name, arity) -> frozenset of tuples; never mutated
    initial_assignment: tuple = ()
    initial_state: tuple = ()

    def __post_init__(self):
        declared = set()
        for e in self.entities:
            check_new_entity(e, declared)
            declared.add(e)
        for (name, arity), ext in self.predicates.items():
            for row in ext:
                check_arity(name, arity, row)
                for e in row:
                    if e not in declared:
                        raise ModelError(f"predicate {name}: undeclared entity {e}")
        for e in (*self.initial_assignment, *self.initial_state):
            if e not in declared:
                raise ModelError(f"undeclared entity {e} in assignment/state")

    def entity_index(self, name: str) -> int:
        try:
            return self.entities.index(name)
        except ValueError:
            raise ModelError(f"undeclared entity {name}") from None

    def extension(self, name: str, arity: int):
        try:
            return self.predicates[(name, arity)]
        except KeyError:
            for (other, a) in self.predicates:
                if other == name:
                    raise ModelError(
                        f"predicate {name} used with arity {arity} but declared with {a}") from None
            raise ModelError(f"predicate {name} is not declared in the model") from None


def check_new_entity(name: str, declared) -> None:
    """Raises :class:`ModelError` if ``name`` is among the entities
    ``declared`` so far."""
    if name in declared:
        raise ModelError(f"duplicate entity {name}")


def check_arity(name: str, arity: int, row: tuple) -> None:
    """Raises :class:`ModelError` unless the extension row ``row`` of
    predicate ``name`` has ``arity`` entities."""
    if len(row) != arity:
        raise ModelError(f"predicate {name}: tuple {row} does not match arity {arity}")
