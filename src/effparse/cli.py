"""Command-line front end.

    effparse <command> --language <path> --model <path> [--syntax <path>]
             [--all-parses] [--max-derivations N] [--render text|dot]
             [--eval] [--index I] [--indices I J] [--no-prune] [sentence...]

Commands: parse, eval, diagram, normalize, equal, check.  ``diagram``
prints the effect diagram of derivation ``--index`` (default 0) and
``normalize`` its equational normal form; ``equal`` compares derivations
``--indices`` (default 0 1).  A command given an option it does not
read (see ``_READ_BY``) exits 2.

Exit codes: 0 ok / at least one parse; 1 no parse; 2 a file that cannot
be read, is not UTF-8 or does not parse, or a bad command-line argument
(such as ``--max-derivations`` below 1); 3 semantic or type error in a
file; 4 unknown token; 5 derivation index out of range.  An error in a
file names the file.  A derivation whose evaluation fails, for instance
on a predicate the model lacks, prints ``<error: ...>`` in place of its
value.
"""

from __future__ import annotations

import argparse
import sys

from .combine import UnknownTokenError, derivation_term, load_syntax, outcome, parse
from .diagrams import (PlanarityError, diagram_to_dot, diagram_to_sexpr, diagrams_equal,
                       eq_normalize, from_derivation)
from .lambda_eval import eval_term
from .lexicon import (LanguageParseError, LanguageSemanticError, load_language,
                      load_model)
from .model import ModelError
from .render import derivation_to_dot, derivation_to_text, value_text

EXIT_OK = 0
EXIT_NO_PARSE = 1
EXIT_PARSE_ERROR = 2
EXIT_SEMANTIC_ERROR = 3
EXIT_UNKNOWN_TOKEN = 4
EXIT_BAD_INDEX = 5


class _BadIndex(Exception):
    """A derivation index out of range."""


# the exit code of each error a command reports; the most specific class
# of an error that is listed here gives its code
_EXIT_CODES = {
    LanguageParseError: EXIT_PARSE_ERROR,
    OSError: EXIT_PARSE_ERROR,
    LanguageSemanticError: EXIT_SEMANTIC_ERROR,
    ModelError: EXIT_SEMANTIC_ERROR,
    PlanarityError: EXIT_SEMANTIC_ERROR,
    UnknownTokenError: EXIT_UNKNOWN_TOKEN,
    _BadIndex: EXIT_BAD_INDEX,
}

# the commands that read each option that not every command reads, by the
# option's argparse destination; these options default to None
_READ_BY = {"index": ("diagram", "normalize"), "indices": ("equal",),
            "render": ("parse", "diagram", "normalize"), "evaluate": ("parse",),
            "all_parses": ("parse", "eval")}


def _argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effparse",
        description="Parse sentences into effectful denotations and compare "
                    "derivations by their effect-diagram normal forms.")
    p.add_argument("command",
                   choices=["parse", "eval", "diagram", "normalize", "equal", "check"])
    p.add_argument("--language", required=True, help="language definition file")
    p.add_argument("--model", required=True, help="finite model file")
    p.add_argument("--syntax", help="optional syntactic CFG file")
    p.add_argument("--all-parses", action="store_true", default=None,
                   help="show every retained derivation, not just the first")
    p.add_argument("--max-derivations", type=int, default=64)
    p.add_argument("--render", choices=["text", "dot"],
                   help="output format for parse, diagram and normalize (default text)")
    p.add_argument("--eval", dest="evaluate", action="store_true", default=None,
                   help="annotate each node with its evaluated value")
    p.add_argument("--index", type=int,
                   help="derivation index for diagram/normalize (default 0)")
    p.add_argument("--indices", type=int, nargs=2, metavar=("I", "J"),
                   help="derivation indices for equal (default 0 1)")
    p.add_argument("--no-prune", action="store_true",
                   help="keep mode sequences the rewrite rules would discard")
    p.add_argument("sentence", nargs="*", help="sentence tokens (or one quoted string)")
    return p


def _tokenize(words) -> list:
    text = " ".join(words)
    return text.casefold().split()


def main(argv=None) -> int:
    parser = _argparser()
    args = parser.parse_intermixed_args(argv)
    if args.max_derivations < 1:
        parser.error("argument --max-derivations: must be at least 1, "
                     f"got {args.max_derivations}")
    for option, readers in _READ_BY.items():
        if getattr(args, option) is not None and args.command not in readers:
            flag = next(a.option_strings[0] for a in parser._actions if a.dest == option)
            named = " and ".join(filter(None, (", ".join(readers[:-1]), readers[-1])))
            parser.error(f"argument {flag}: not read by {args.command}, only by {named}")
    try:
        return _run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


def _run(args) -> int:
    """Run the command and return its exit code; the errors it reports
    propagate to :func:`main`."""
    lex = load_language(args.language)
    model = load_model(args.model)
    syntax = load_syntax(args.syntax) if args.syntax else None
    if args.command == "check":
        print(f"language ok: {len(lex.entries)} entries, "
              f"{len(lex.registry.functor_names())} functors, "
              f"max effect rank {lex.max_effect_rank}")
        print(f"model ok: {len(model.entities)} entities, "
              f"{len(model.predicates)} predicates")
        return EXIT_OK

    derivs = parse(_tokenize(args.sentence), lex, syntax=syntax,
                   prune_seqs=not args.no_prune, max_derivations=args.max_derivations)
    if not derivs:
        print("no parse")
        return EXIT_NO_PARSE

    reg = lex.registry
    show = derivs if args.all_parses else derivs[:1]
    if args.command == "parse":
        values_in = model if args.evaluate else None
        for n, d in enumerate(show):
            print(f"derivation {n}: {d.ty}")
            if args.render == "dot":
                print(derivation_to_dot(reg, d, values_in))
            else:
                print(derivation_to_text(reg, d, values_in, indent="  "))
        return EXIT_OK

    if args.command == "eval":
        for n, d in enumerate(show):
            v = value_text(outcome(eval_term, derivation_term(reg, d), {}, model, reg))
            print(f"derivation {n}: {d.ty} = {v}")
        return EXIT_OK

    if args.command == "equal":
        i, j = args.indices or (0, 1)
        if not (0 <= i < len(derivs) and 0 <= j < len(derivs)):
            raise _BadIndex(f"derivation indices {i}, {j} out of range "
                            f"(found {len(derivs)})")
        same = diagrams_equal(from_derivation(reg, derivs[i]),
                              from_derivation(reg, derivs[j]))
        print("equal" if same else "distinct")
        return EXIT_OK

    # diagram and normalize
    index = args.index or 0
    if not 0 <= index < len(derivs):
        raise _BadIndex(f"derivation index {index} out of range "
                        f"(found {len(derivs)})")
    dg = from_derivation(reg, derivs[index])
    if args.command == "normalize":
        dg = eq_normalize(dg)
    print(diagram_to_dot(dg) if args.render == "dot" else diagram_to_sexpr(dg))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
