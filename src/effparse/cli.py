"""Command-line front end.

    effparse <command> --language <path> --model <path> [--syntax <path>]
             [--all-parses] [--max-derivations N] [--render text|dot]
             [--normalize] [--eval] [--index I] [--indices I J] [sentence...]

Commands: parse, eval, diagram, normalize, equal, check.

Exit codes: 0 ok / at least one parse; 1 no parse; 2 file parse error or
bad command-line argument (such as ``--max-derivations`` below 1); 3
semantic or type error in a file; 4 unknown token; 5 derivation index out
of range.  A derivation whose evaluation fails, for instance on a
predicate the model lacks, prints ``<error: ...>`` in place of its value.
"""

from __future__ import annotations

import argparse
import sys

from .combine import UnknownTokenError, load_syntax, parse
from .diagrams import diagram_to_dot, diagram_to_sexpr, eq_normalize, from_derivation
from .lexicon import (LanguageParseError, LanguageSemanticError, load_language,
                      load_model)
from .model import ModelError
from .render import derivation_to_dot, derivation_to_text
from .sexpr import SexprError

EXIT_OK = 0
EXIT_NO_PARSE = 1
EXIT_PARSE_ERROR = 2
EXIT_SEMANTIC_ERROR = 3
EXIT_UNKNOWN_TOKEN = 4
EXIT_BAD_INDEX = 5


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
    p.add_argument("--all-parses", action="store_true",
                   help="show every retained derivation, not just the first")
    p.add_argument("--max-derivations", type=int, default=64)
    p.add_argument("--render", choices=["text", "dot"], default="text")
    p.add_argument("--normalize", action="store_true",
                   help="emit the equational normal form of the diagram")
    p.add_argument("--eval", dest="evaluate", action="store_true",
                   help="annotate each node with its evaluated value")
    p.add_argument("--index", type=int, default=0,
                   help="derivation index for diagram/normalize")
    p.add_argument("--indices", type=int, nargs=2, default=(0, 1),
                   metavar=("I", "J"), help="derivation indices for equal")
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
    out = sys.stdout

    try:
        lex = load_language(args.language)
        model = load_model(args.model)
        syntax = load_syntax(args.syntax) if args.syntax else None
    except (SexprError, LanguageParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (LanguageSemanticError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    if args.command == "check":
        print(f"language ok: {len(lex.entries)} entries, "
              f"{len(lex.registry.functor_names())} functors, "
              f"max effect rank {lex.max_effect_rank}", file=out)
        print(f"model ok: {len(model.entities)} entities, "
              f"{len(model.predicates)} predicates", file=out)
        return EXIT_OK

    tokens = _tokenize(args.sentence)
    if not tokens:
        print("no parse", file=out)
        return EXIT_NO_PARSE
    try:
        derivs = parse(tokens, lex, syntax=syntax,
                       prune_seqs=not args.no_prune,
                       max_derivations=args.max_derivations)
    except UnknownTokenError as exc:
        print(f"error: unknown token {exc.token!r} at position {exc.position}",
              file=sys.stderr)
        return EXIT_UNKNOWN_TOKEN
    if not derivs:
        print("no parse", file=out)
        return EXIT_NO_PARSE

    reg = lex.registry
    if args.command == "parse":
        show = derivs if args.all_parses else derivs[:1]
        for n, d in enumerate(show):
            print(f"derivation {n}: {d.ty}", file=out)
            if args.render == "dot":
                print(derivation_to_dot(reg, d, model if args.evaluate else None),
                      file=out)
            else:
                print(derivation_to_text(reg, d, model if args.evaluate else None,
                                         indent="  "), file=out)
        return EXIT_OK

    if args.command == "eval":
        from .lambda_eval import EvalError, eval_term
        from .combine import derivation_term
        from .values import render as render_value
        show = derivs if args.all_parses else derivs[:1]
        for n, d in enumerate(show):
            try:
                v = render_value(eval_term(derivation_term(reg, d), {}, model, reg))
            except (EvalError, ModelError) as exc:
                v = f"<error: {exc}>"
            print(f"derivation {n}: {d.ty} = {v}", file=out)
        return EXIT_OK

    from .diagrams import PlanarityError

    if args.command in ("diagram", "normalize"):
        if not 0 <= args.index < len(derivs):
            print(f"error: derivation index {args.index} out of range "
                  f"(found {len(derivs)})", file=sys.stderr)
            return EXIT_BAD_INDEX
        try:
            dg = from_derivation(reg, derivs[args.index])
        except PlanarityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SEMANTIC_ERROR
        if args.command == "normalize" or args.normalize:
            dg = eq_normalize(dg)
        if args.render == "dot":
            print(diagram_to_dot(dg), file=out)
        else:
            print(diagram_to_sexpr(dg), file=out)
        return EXIT_OK

    if args.command == "equal":
        i, j = args.indices
        if not (0 <= i < len(derivs) and 0 <= j < len(derivs)):
            print(f"error: derivation indices {i}, {j} out of range "
                  f"(found {len(derivs)})", file=sys.stderr)
            return EXIT_BAD_INDEX
        from .diagrams import diagrams_equal
        try:
            same = diagrams_equal(from_derivation(reg, derivs[i]),
                                  from_derivation(reg, derivs[j]))
        except PlanarityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SEMANTIC_ERROR
        print("equal" if same else "distinct", file=out)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
