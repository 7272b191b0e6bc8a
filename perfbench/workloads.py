"""The three workloads: what a round is, what one operation does and how
its result is checked.

A workload object is made once per run; ``fresh(tracer)`` loads the files
anew (so the mode-combination cache starts cold), ``round(r)`` yields one
payload per operation, and ``check(payload)`` returns (failed, problems).
"""

from __future__ import annotations

from effparse.combine import load_syntax
from effparse.lexicon import load_language, load_model

from corpus import corpus_round
from pipeline import (SentencePipeline, check_confluence, check_exchange_enumeration,
                      check_sentence, confluence_ops)
from reference import World, attachment_entity_sets, corpus_oracle

AMBIGUITY_K = range(1, 7)


class _Sentences:
    """One operation is one sentence through the whole pipeline."""

    syntax = False

    def __init__(self, root, seed: int):
        self.data, self.seed = root / "data", seed

    def fresh(self, tracer):
        lex = load_language(self.data / "english.lang")
        model = load_model(self.data / "solar.model")
        syntax = load_syntax(self.data / "english.cfg") if self.syntax else None
        self.pipeline = SentencePipeline(lex, model, syntax, tracer)
        self.world = World(model)

    def preflight(self) -> list:
        return []

    def round(self, r: int):
        for item, tokens in self.items(r):
            try:
                yield item, self.pipeline.run(list(tokens))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                yield item, exc

    def check(self, payload):
        item, result = payload
        if isinstance(result, Exception):
            return True, [f"{item}: {result!r}"]
        if not result[0]:
            return True, [f"{item}: no derivation"]
        return False, [f"{item}: {p}" for p in self.problems(item, result)]


class Corpus(_Sentences):
    """Seeded template sentences, parsed with the syntax file."""

    syntax = True

    def items(self, r: int):
        return [(s, s.tokens) for s in corpus_round(self.seed, r)]

    def problems(self, item, result) -> list:
        expected = (corpus_oracle(self.world, item.reading)
                    if item.reading is not None else None)
        return check_sentence(result, self.world.entities, expected=expected)


class Ambiguity(_Sentences):
    """"a cat (in a box)^k" for k = 1..6, without the syntax file; the
    family is fixed, so the seed does not change it."""

    def fresh(self, tracer):
        super().fresh(tracer)
        self.attachments = {k: attachment_entity_sets(self.world, k)
                            for k in AMBIGUITY_K}

    def items(self, r: int):
        return [(k, ("a cat" + " in a box" * k).split()) for k in AMBIGUITY_K]

    def problems(self, item, result) -> list:
        return check_sentence(result, self.world.entities,
                              entity_sets=self.attachments[item])


class Confluence:
    """One operation is one diagram of the exhaustive sweep; a round is the
    whole sweep.  The sweep is fixed, so the seed does not change it."""

    def __init__(self, root, seed: int):
        pass

    def fresh(self, tracer):
        self.tracer = tracer

    def preflight(self) -> list:
        return check_exchange_enumeration()

    def round(self, r: int):
        try:
            yield from confluence_ops(self.tracer)
        except Exception as exc:  # noqa: BLE001 - the sweep cannot go on
            yield exc

    def check(self, payload):
        if isinstance(payload, Exception):
            return True, [repr(payload)]
        return False, check_confluence(*payload)


WORKLOADS = {"corpus": Corpus, "ambiguity": Ambiguity, "confluence": Confluence}
