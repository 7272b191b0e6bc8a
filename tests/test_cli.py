import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from effparse import sexpr
from effparse.cli import main
from effparse.lexicon import load_language

ROOT = pathlib.Path(__file__).resolve().parent.parent
LANG = str(ROOT / "data" / "english.lang")
MODEL = str(ROOT / "data" / "solar.model")
CFG = str(ROOT / "data" / "english.cfg")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base(cmd, *extra):
    return [cmd, "--language", LANG, "--model", MODEL, *extra]


def test_parse_prints_one_tree(capsys):
    code, out, _ = run(capsys, *base("parse", "--syntax", CFG, "--eval"),
                       "the cat sleeps")
    assert code == 0
    assert "derivation 0: M t" in out
    assert "ML_M <" in out
    assert "= T" in out


def test_parse_unknown_token_exit_4(capsys):
    code, _, err = run(capsys, *base("parse"), "colorless xyzzy")
    assert code == 4
    assert "colorless" in err and "position 0" in err


def test_parse_empty_sentence_exit_1(capsys):
    code, out, _ = run(capsys, *base("parse"))
    assert code == 1
    assert "no parse" in out


def test_parse_no_parse_exit_1(capsys):
    code, out, _ = run(capsys, *base("parse", "--syntax", CFG), "cat sleeps the")
    assert code == 1
    assert "no parse" in out


def test_language_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text("(base-type e")
    code, _, err = run(capsys, "check", "--language", str(bad), "--model", MODEL)
    assert code == 2
    assert "error" in err


def test_language_semantic_error_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text(pathlib.Path(LANG).read_text()
                   + '(word "dog" :type (-> e t) :term (lam x x))\n')
    code, _, err = run(capsys, "check", "--language", str(bad), "--model", MODEL)
    assert code == 3
    assert "dog" in err


def _nested(head, depth, core):
    """``core`` inside ``depth`` forms ``(head ...)``."""
    return f"({head} " * depth + core + ")" * depth


TOO_DEEP = f"forms nest deeper than {sexpr.MAX_DEPTH} levels"


@pytest.mark.parametrize("flag, form, message", [
    ("--language", "(nat n :from S :to () :handler true :impl identity)", ":from expects a list"),
    ("--model", "(entity)", "malformed entity form"),
    ("--model", "(pred p)", "malformed pred form"),
    ("--model", "(entity a) (pred cat -1) (assignment a) (state)",
     "pred needs a literal arity of 0 or more"),
    ("--syntax", "(rule S)", "rule forms are (rule LHS RHS1 RHS2) or (rule LHS CAT)"),
    ("--syntax", "(foo S NP VP)", "syntax files contain only (rule ...) forms"),
    ("--syntax", "(rule (S) NP VP)", "expected a symbol, found (S)"),
    ("--syntax", "(rule S NP (VP x))", "expected a symbol, found (VP x)"),
    ("--syntax", "(rule S 3 VP)", "expected a symbol, found 3"),
    ("--syntax", '(rule S "NP" VP)', 'expected a symbol, found "NP"'),
    ("--language", "(", "unbalanced ("),
    ("--model", "(", "unbalanced ("),
    ("--syntax", "(", "unbalanced ("),
    ("--model", "()", "top-level forms must be lists"),
    *((flag, "(" * 3000 + ")" * 3000, TOO_DEEP)
      for flag in ("--language", "--model", "--syntax")),
    ("--language", ("(base-type e) (base-type t) "
                    f'(word "w" :type {_nested("-> e", 1200, "t")} :term true :cat S)'),
     TOO_DEEP),
], ids=["nat", "entity", "pred", "negative arity", "short rule", "not a rule",
        "list category", "list right category", "number category", "string category",
        "unbalanced language", "unbalanced model", "unbalanced syntax", "empty model form",
        "deep language", "deep model", "deep syntax", "deep type"])
def test_malformed_form_is_a_parse_error_exit_2(capsys, tmp_path, flag, form, message):
    bad = tmp_path / "bad"
    bad.write_text("\n" + form + "\n")
    files = {"--language": LANG, "--model": MODEL, flag: str(bad)}
    code, out, err = run(capsys, "check", *(x for kv in files.items() for x in kv))
    assert code == 2
    assert f"error: {bad}: line 2: {message}" in err
    assert err.count("line 2:") == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("forms, message", [
    ("(entity c1)\n(entity c1)", "line 2: duplicate entity c1"),
    ("(entity c1)\n(pred cat 1 (c1) (c1 c1))",
     "line 2: predicate cat: tuple ('c1', 'c1') does not match arity 1"),
    ("(entity c1)\n(pred cat 1 (c2))", "line 2: predicate cat: undeclared entity c2"),
    ("(entity c1)\n(assignment c2)", "line 2: undeclared entity c2 in assignment/state"),
    ("(entity c1)\n(state c1 c2)", "line 2: undeclared entity c2 in assignment/state"),
    # c1 is used before it is declared, which is allowed; c2 never is
    ("(pred cat 1 (c1))\n(entity c1)\n(state c2)\n(pred dog 1 (c2))",
     "line 3: undeclared entity c2 in assignment/state"),
], ids=["duplicate entity", "wrong arity", "undeclared in pred", "undeclared in assignment",
        "undeclared in state", "declared after use"])
def test_an_inconsistent_model_is_a_semantic_error_exit_3(capsys, tmp_path, forms,
                                                          message):
    bad = tmp_path / "bad.model"
    bad.write_text(forms + "\n")
    code, out, err = run(capsys, "check", "--language", LANG, "--model", str(bad))
    assert code == 3
    assert err == f"error: {bad}: {message}\n"
    assert out == ""


MONAD = ":caps (functor applicative monad)"


@pytest.mark.parametrize("forms, message", [
    ("(functor P :caps (functor) :applies-to *)\n"
     '(word "a" :type (P e) :term (eta P (const j)))',
     'word "a" (line 3): functor P lacks the applicative capability'),
    ("(functor X :applies-to *)\n"
     '(word "f" :type (-> (X e) (X e)) :term (lam v (fmap X (lam y y) v)))',
     'word "f" (line 3): functor X lacks the functor capability'),
    ("(functor X :applies-to *)\n"
     '(word "u" :type (-> (X (-> e t)) (-> e (X t))) :term (lam f (upsilon X f)))',
     'word "u" (line 3): functor X lacks the functor capability'),
    (f"(functor S {MONAD})\n(functor M {MONAD})\n"
     "(nat bad :from (S) :to (M) :handler false :impl identity)",
     "line 4: nat bad: :from (S) :to (M) does not match builtin identity, "
     "which maps (S) to (S)"),
    (f"(functor S {MONAD})\n(nat h :from (S S) :to () :handler true :impl choose-min)",
     "line 3: nat h: :from (S S) :to () does not match builtin choose-min, "
     "which maps (S) to ()"),
], ids=["eta", "checked fmap", "upsilon", "identity nat", "two-layer handler"])
def test_an_operation_its_effect_cannot_do_is_a_semantic_error_exit_3(capsys, tmp_path,
                                                                      forms, message):
    bad = tmp_path / "bad.lang"
    bad.write_text("(base-type e) (base-type t) (base-type g)\n" + forms + "\n")
    code, out, err = run(capsys, "check", "--language", str(bad), "--model", MODEL)
    assert code == 3
    assert err == f"error: {bad}: {message}\n"
    assert out == ""


@pytest.mark.parametrize("flag", ["--language", "--model", "--syntax"])
def test_a_file_that_is_not_utf8_is_a_parse_error_exit_2(capsys, tmp_path, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff(rule S NP VP)\n")
    files = {"--language": LANG, "--model": MODEL, "--syntax": CFG, flag: str(bad)}
    code, out, err = run(capsys, "check", *(x for kv in files.items() for x in kv))
    assert code == 2
    assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in out + err


def test_a_file_nested_to_the_bound_loads_and_evaluates(capsys, tmp_path):
    # each word form is one level; its type or term is the other MAX_DEPTH - 1
    inner = sexpr.MAX_DEPTH - 1
    lang = tmp_path / "deep.lang"
    lang.write_text(
        "(base-type e) (base-type t)\n"
        f'(word "deep" :type t :term {_nested("not", inner, "true")} :cat S)\n'
        f'(word "curried" :type {_nested("-> e", inner, "t")}'
        f' :term {_nested("lam x", inner, "true")} :cat S)\n')
    assert max(_depth(f) for f in sexpr.parse(lang.read_text())) == sexpr.MAX_DEPTH
    code, out, err = run(capsys, "eval", "--language", str(lang), "--model", MODEL, "deep")
    assert (code, err) == (0, "")
    assert out == "derivation 0: t = F\n"  # an odd number of negations of true


def _depth(form):
    if isinstance(form, sexpr.Node):
        return 1 + max((_depth(x) for x in form.items), default=0)
    return 0


@pytest.mark.parametrize("limit", [("--max-derivations", "0")])
def test_nonpositive_limit_is_a_usage_error_exit_2(capsys, limit):
    code, out, err = run(capsys, *base("eval", *limit), "the cat sleeps")
    assert code == 2
    assert limit[0] in err and "at least 1" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", [("eval",), ("parse", "--eval"),
                                     ("parse", "--eval", "--render", "dot")])
def test_missing_model_predicate_is_a_per_derivation_error(capsys, tmp_path, command):
    model = tmp_path / "sleepless.model"
    model.write_text("".join(line + "\n" for line in
                             pathlib.Path(MODEL).read_text().splitlines()
                             if not line.startswith("(pred sleep ")))
    code, out, err = run(capsys, *command, "--language", LANG, "--model", str(model),
                         "--syntax", CFG, "the cat sleeps")
    assert code == 0
    assert "derivation 0: M t" in out
    assert "<error: predicate sleep" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", [("eval",), ("parse", "--eval"),
                                     ("parse", "--eval", "--render", "dot")])
def test_an_effect_with_no_runtime_carrier_is_a_per_derivation_error(capsys, tmp_path,
                                                                     command):
    lang = tmp_path / "x.lang"
    lang.write_text("(base-type e) (base-type t)\n"
                    "(functor X :caps (functor applicative monad))\n"
                    '(word "foo" :type (X e) :term (eta X (const j)))\n')
    code, out, err = run(capsys, *command, "--language", str(lang), "--model", MODEL, "foo")
    assert code == 0
    assert "<error: functor X has no runtime carrier>" in out
    assert "Traceback" not in out + err


def test_check_ok(capsys):
    code, out, _ = run(capsys, *base("check"))
    assert code == 0
    assert "language ok" in out and "model ok" in out


def test_eval_command(capsys):
    code, out, _ = run(capsys, *base("eval", "--syntax", CFG), "the cat sleeps")
    assert code == 0
    assert "M t = T" in out


def test_diagram_command_sexpr(capsys):
    code, out, _ = run(capsys, *base("diagram", "--syntax", CFG), "the cat sleeps")
    assert code == 0
    assert out.startswith("(diagram :inputs (M)")


def test_diagram_index_out_of_range_exit_5(capsys):
    code, _, err = run(capsys, *base("diagram", "--syntax", CFG, "--index", "99"),
                       "the cat sleeps")
    assert code == 5
    assert "out of range" in err


def test_normalize_rewrites_left_nested_joins(capsys):
    # find a derivation whose raw diagram is a left-nested double join and
    # check the CLI emits its right-nested normal form
    from effparse.combine import parse
    from effparse.diagrams import from_derivation, diagram_to_sexpr, PlanarityError
    from effparse.lexicon import load_language

    lex = load_language(LANG)
    sentence = "a cat in a box in a box"
    derivs = parse(sentence.split(), lex, max_derivations=1024)
    idx = None
    for i, d in enumerate(derivs):
        try:
            dg = from_derivation(lex.registry, d)
        except PlanarityError:
            continue
        if [c.pos for c in dg.nodes if c.kind == "mu"] == [1, 0]:
            idx = i
            break
    assert idx is not None
    code, raw_out, _ = run(capsys, *base("diagram", "--max-derivations", "1024",
                                         "--index", str(idx)), sentence)
    assert code == 0
    code, norm_out, _ = run(capsys, *base("normalize", "--max-derivations", "1024",
                                          "--index", str(idx)), sentence)
    assert code == 0
    assert raw_out != norm_out
    assert "(1 (mu D)" in raw_out
    assert "(1 (mu D)" not in norm_out


def test_normalize_command(capsys):
    code, out, _ = run(capsys, *base("normalize", "--syntax", CFG), "no cat sleeps")
    assert code == 0
    assert out.startswith("(diagram")


def test_equal_same_index_reflexive(capsys):
    code, out, _ = run(capsys, *base("equal", "--indices", "0", "0"),
                       "the cat sleeps")
    assert code == 0
    assert out.strip() == "equal"


def test_equal_bad_indices_exit_5(capsys):
    code, _, err = run(capsys, *base("equal", "--indices", "0", "99", "--syntax", CFG),
                       "the cat sleeps")
    assert code == 5


@pytest.mark.parametrize("command, option", [
    ("parse", ("--index", "20")), ("eval", ("--index", "1")), ("check", ("--index", "0")),
    ("parse", ("--indices", "0", "1")), ("eval", ("--indices", "0", "1")),
    ("check", ("--indices", "0", "1")), ("equal", ("--index", "1")),
    ("diagram", ("--indices", "0", "1")), ("normalize", ("--indices", "0", "1"))])
def test_an_index_option_the_command_does_not_read_exits_2(capsys, command, option):
    code, out, err = run(capsys, *base(command, "--syntax", CFG, *option),
                         "the skillful cat in a box in a skillful box eats the box")
    assert code == 2
    assert out == ""
    assert f"argument {option[0]}: not read by {command}" in err


def test_index_options_default_to_the_first_derivations(capsys):
    sentence = "the cat eats a mouse"
    for command, option in (("diagram", ("--index", "0")), ("normalize", ("--index", "0")),
                            ("equal", ("--indices", "0", "1"))):
        given = run(capsys, *base(command, "--syntax", CFG, *option), sentence)
        assert run(capsys, *base(command, "--syntax", CFG), sentence) == given
        assert given[0] == 0


def test_equal_distinct_derivations(capsys):
    # an M t root and an M e root differ already at the boundary
    code, out, _ = run(capsys, *base("equal", "--indices", "0", "2",
                                     "--max-derivations", "16"),
                       "the cat sleeps")
    assert code == 0
    assert out.strip() in {"equal", "distinct"}


def test_render_dot(capsys):
    code, out, _ = run(capsys, *base("parse", "--syntax", CFG, "--render", "dot"),
                       "the cat sleeps")
    assert code == 0
    assert "digraph derivation" in out


def test_diagram_render_dot(capsys):
    code, out, _ = run(capsys, *base("diagram", "--render", "dot", "--syntax", CFG),
                       "no cat sleeps")
    assert code == 0
    assert "digraph effect_diagram" in out


def test_byte_identical_reruns(capsys):
    a = run(capsys, *base("parse", "--all-parses", "--eval"), "the cat eats a mouse")
    b = run(capsys, *base("parse", "--all-parses", "--eval"), "the cat eats a mouse")
    assert a == b


_RUN_CALLS = """
import contextlib, io, json, sys
from effparse.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    sys.stdout.write(f"{code}\\0{out.getvalue()}\\0{err.getvalue()}\\0")
"""


def test_output_does_not_depend_on_the_hash_seed():
    calls = [base(*command, *syntax, sentence)
             for sentence in ("everyone chases the mouse", "a box in a mouse be carnivorous",
                              "a cat in a box in a box in a box")
             for syntax in ((), ("--syntax", CFG))
             for command in (("parse", "--all-parses", "--eval"), ("normalize", "--index", "0"))]
    outs = [subprocess.run([sys.executable, "-c", _RUN_CALLS, json.dumps(calls)],
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                "PYTHONHASHSEED": str(seed)}).stdout
            for seed in (0, 1)]
    assert outs[0].count(b"\0") == 3 * len(calls)
    assert outs[0] == outs[1]


# -- fuzz ------------------------------------------------------------------------

WORDS = sorted({e.surface for e in load_language(LANG).entries}) + ["zyzzyva"]


def _maybe(draw, *args):
    return list(args) if draw(st.booleans()) else []


@st.composite
def cli_calls(draw):
    limit = st.integers(-2, 70).map(str)
    argv = base(draw(st.sampled_from(["parse", "eval", "diagram", "normalize", "equal"])))
    argv += _maybe(draw, "--syntax", CFG)
    argv += _maybe(draw, "--eval")
    argv += _maybe(draw, "--all-parses")
    argv += _maybe(draw, "--no-prune")
    argv += _maybe(draw, "--render", draw(st.sampled_from(["text", "dot"])))
    argv += _maybe(draw, "--index", draw(limit))
    argv += _maybe(draw, "--indices", draw(limit), draw(limit))
    argv += _maybe(draw, "--max-derivations", draw(st.integers(-1, 8).map(str)))
    return argv + draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(cli_calls())
def test_cli_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in range(6)
    assert "Traceback" not in out.getvalue() + err.getvalue()
