"""Reference values computed from the model's predicate sets alone.

Nothing here calls the engine: the oracles read the entity list, the
predicate extensions, the assignment and the initial state of a loaded
model and compute, by brute force, what a forced derivation value must
be.  The encoding of forced values is the one ``pipeline.force`` writes.
"""

from __future__ import annotations

import itertools


class World:
    """The plain-data view of a model that the oracles use."""

    def __init__(self, model):
        self.entities = tuple(model.entities)
        self.ext = {name: frozenset(rows) for (name, _), rows in model.predicates.items()}
        self.assignment = tuple(model.initial_assignment)
        self.state = tuple(model.initial_state)

    def holds(self, pred: str, *args) -> bool:
        return tuple(args) in self.ext.get(pred, frozenset())

    def noun(self, words: tuple) -> frozenset:
        """Extension of ``[skillful] N``."""
        *adjs, n = words
        return frozenset(x for x in self.entities
                         if self.holds(n, x) and all(self.holds(a, x) for a in adjs))

    def vp(self, words: tuple, x: str) -> bool:
        """Truth of a pure verb phrase (sleeps / be carnivorous / V jupiter)
        of subject ``x``."""
        if words == ("sleeps",):
            return self.holds("sleep", x)
        if words == ("be", "carnivorous"):
            return self.holds("carnivorous", x)
        verb, obj = words
        pred = {"chases": "chase", "eats": "eats"}[verb]
        return self.holds(pred, {"jupiter": "j"}[obj], x)


def corpus_oracle(world: World, reading: tuple):
    """(root type, forced value) of a template with a fixed reading."""
    kind, noun, vp = reading
    if kind == "the":
        ext = world.noun(noun)
        if len(ext) != 1:
            return "M t", "#"
        (x,) = ext
        return "M t", ("just", world.vp(vp, x))
    if kind == "a":
        return "D t", frozenset((world.vp(vp, x), (x,) + world.state)
                                for x in world.noun(noun))
    if kind == "no":
        return "C t", not any(world.vp(vp, x) for x in world.noun(noun))
    if kind == "everyone":
        return "C t", all(world.vp(vp, x) for x in world.entities)
    if kind == "it":
        return "G t", world.vp(vp, world.assignment[0])
    if kind == "name":
        return "t", world.vp(vp, "j")
    if kind == "appositive":
        return "W t", (world.vp(vp, "j"), "j" in world.noun(noun))
    raise ValueError(f"no oracle for reading {kind}")


def _attachments(k: int):
    """Every projective way to attach PPs 1..k, PP i to one of the nouns
    0..i-1 (noun 0 is the head, noun i the object of PP i)."""
    for att in itertools.product(*(range(i) for i in range(1, k + 1))):
        arcs = [(att[i - 1], i) for i in range(1, k + 1)]
        if not any(a < c < b < d for a, b in arcs for c, d in arcs):
            yield att


def attachment_entity_sets(world: World, k: int) -> frozenset:
    """Entity sets of "a cat (in a box)^k", one per PP attachment.

    Each noun's satisfiers are computed bottom-up: an entity satisfies
    noun j if it has the noun's predicate and, for every PP attached to
    j, is "in" some satisfier of that PP's noun.
    """
    nouns = ("cat",) + ("box",) * k
    sets = set()
    for att in _attachments(k):
        sat = {}
        for j in range(k, -1, -1):
            pps = [i for i in range(1, k + 1) if att[i - 1] == j]
            sat[j] = frozenset(
                x for x in world.entities
                if world.holds(nouns[j], x)
                and all(any(world.holds("in", y, x) for y in sat[i]) for i in pps))
        sets.add(sat[0])
    return frozenset(sets)
