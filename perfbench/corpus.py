"""Seeded template corpus over the shipped English lexicon.

A round is a fixed list of sentence shapes (template, PP depth, adjective
use); the seed and the round number only choose the words.  Every round
therefore has the same template shares, and a run is made of whole
rounds.

Templates with a fixed reading carry a ``reading`` that
``reference.corpus_oracle`` turns into the expected forced value of one
root type.  The others (nested PPs, effectful objects) carry ``None`` and
are checked by the property checks alone.

Quantified phrases ("no N", "everyone") only meet pure partners: a
continuation under another effect (``C M t``, ``C D t``) has no forcing
rule, so those sentences stay out of the corpus.

    python3 perfbench/corpus.py [--seed N] [--rounds R]

prints the template shares, the length range and the mode kinds the
shipped lexicon uses on those rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NOUNS = ("planet", "cat", "mouse", "box")
VERBS = ("chases", "eats")
PP_DETERMINERS = ("the", "a")

# (template, PP depth) -> sentences per round; the order is the order
# within a round
ROUND = (
    ("the", 0, 3),
    ("a", 0, 3),
    ("no", 0, 2),
    ("everyone", 0, 2),
    ("it", 0, 2),
    ("appositive", 0, 2),
    ("name", 0, 2),
    ("pp_subject", 1, 2),
    ("pp_subject", 2, 1),
    ("pp_subject_object", 1, 1),
    ("pp_subject_object", 2, 1),
    ("pp_subject_object", 3, 1),
    ("object", 0, 4),
    ("pp_object", 1, 2),
    ("quantified_object", 0, 2),
)
ROUND_SIZE = sum(n for _, _, n in ROUND)
MAX_TOKENS = 15


@dataclass(frozen=True)
class Sentence:
    tokens: tuple
    template: str
    reading: tuple | None  # (kind, noun, vp) for fixed readings


def _noun(rng) -> tuple:
    """A pure nominal: an optional "skillful" and a noun."""
    words = ("skillful",) if rng.random() < 0.3 else ()
    return words + (rng.choice(NOUNS),)


def _pure_vp(rng) -> tuple:
    """A pure verb phrase of type e -> t."""
    kind = rng.randrange(3)
    if kind == 0:
        return ("sleeps",)
    if kind == 1:
        return ("be", "carnivorous")
    return (rng.choice(VERBS), "jupiter")


def _pp_noun(rng, depth: int) -> tuple:
    """A nominal with ``depth`` PPs, each nested inside the previous one
    ("cat in a box in the box")."""
    words = _noun(rng)
    for _ in range(depth):
        words += ("in", rng.choice(PP_DETERMINERS)) + _noun(rng)
    return words


def _subject(rng) -> tuple:
    kind = rng.randrange(5)
    if kind == 0:
        return ("jupiter",)
    if kind == 1:
        return ("it",)
    if kind == 2:
        return ("jupiter", ",", "a") + _noun(rng)
    return (rng.choice(PP_DETERMINERS),) + _noun(rng)


def _object(rng) -> tuple:
    kind = rng.randrange(3)
    if kind == 0:
        return ("it",)
    return (rng.choice(PP_DETERMINERS),) + _noun(rng)


def _draw(rng, template: str, depth: int) -> Sentence:
    if template in ("the", "a", "no"):
        noun, vp = _noun(rng), _pure_vp(rng)
        return Sentence((template,) + noun + vp, template, (template, noun, vp))
    if template in ("everyone", "it"):
        vp = _pure_vp(rng)
        return Sentence((template,) + vp, template, (template, (), vp))
    if template == "name":
        vp = _pure_vp(rng)
        return Sentence(("jupiter",) + vp, template, ("name", (), vp))
    if template == "appositive":
        noun, vp = _noun(rng), _pure_vp(rng)
        return Sentence(("jupiter", ",", "a") + noun + vp, template,
                        ("appositive", noun, vp))
    if template in ("pp_subject", "pp_subject_object"):
        vp = (_pure_vp(rng) if template == "pp_subject"
              else (rng.choice(VERBS),) + _object(rng))
        return Sentence((rng.choice(PP_DETERMINERS),) + _pp_noun(rng, depth) + vp,
                        template, None)
    if template == "object":
        return Sentence(_subject(rng) + (rng.choice(VERBS),) + _object(rng),
                        template, None)
    if template == "pp_object":
        obj = (rng.choice(PP_DETERMINERS),) + _pp_noun(rng, depth)
        return Sentence(_subject(rng) + (rng.choice(VERBS),) + obj, template, None)
    if template == "quantified_object":
        obj = ("everyone",) if rng.random() < 0.5 else ("no",) + _noun(rng)
        return Sentence(("jupiter", rng.choice(VERBS)) + obj, template, None)
    raise ValueError(f"unknown template {template}")


def corpus_round(seed: int, index: int) -> list:
    """Round ``index`` of the corpus for ``seed``: ROUND_SIZE sentences."""
    rng = random.Random(seed * 1_000_003 + index)
    out = []
    for template, depth, count in ROUND:
        for _ in range(count):
            s = _draw(rng, template, depth)
            while len(s.tokens) > MAX_TOKENS:
                s = _draw(rng, template, depth)
            out.append(s)
    return out


def _describe(seed: int, rounds: int) -> None:
    import pathlib
    import sys
    from collections import Counter

    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from effparse.combine import load_syntax, parse_forest
    from effparse.lexicon import load_language

    lex = load_language(root / "data" / "english.lang")
    syntax = load_syntax(root / "data" / "english.cfg")
    templates, lengths, kinds = Counter(), Counter(), Counter()
    derivations = 0
    for r in range(rounds):
        for s in corpus_round(seed, r):
            templates[s.template] += 1
            lengths[len(s.tokens)] += 1
            forest = parse_forest(list(s.tokens), lex, syntax=syntax, seq_cap=64)
            for d in forest.derivations(limit=64):
                derivations += 1
                stack = [d]
                while stack:
                    node = stack.pop()
                    if hasattr(node, "modes"):
                        kinds.update(m.kind for m in node.modes)
                        stack += [node.left, node.right]
    total = sum(templates.values())
    print(f"seed {seed}, {rounds} rounds, {total} sentences, {derivations} derivations")
    for name, n in templates.items():
        print(f"  template {name:18s} {n:5d}  {100 * n / total:5.1f}%")
    print(f"  length {min(lengths)}..{max(lengths)} tokens, "
          f"median {sorted(lengths.elements())[total // 2]}")
    for kind in ("fwd", "bwd", "conj", "disj", "ml", "mr", "a", "ul", "ur",
                 "el", "er", "j", "dn", "c"):
        print(f"  mode {kind:5s} {kinds[kind]:7d}")


if __name__ == "__main__":
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10)
    a = p.parse_args()
    _describe(a.seed, a.rounds)
