"""Language and model file loading.

A language file declares base types, effect functors, adjunctions,
natural transformations, and words; a model file declares entities,
predicate extensions, and the initial assignment and discourse state.
Both are s-expression dialects (see the README for the grammar).  Loading
is strict: every word's term must check against its declared type, every
adjunction partner must exist, every nat must map the (source, target)
word its builtin maps, and every handler passes a spot check of
``h . eta = id`` on generated values.

Each entry's surface is folded (Unicode casefold) and split into its
``tokens``; the parser seeds the entry into the chart over every span of
folded input tokens equal to them, so a surface containing spaces is a
multi-token entry, seeded only over its full span.
"""

from __future__ import annotations

from . import sexpr
from . import terms as T
from .lambda_eval import BUILTIN_NATS, EVAL_ERRORS, SPOT_PAYLOADS, eta, run_handler
from .model import Model, ModelError, check_arity, check_new_entity
from .record import Record
from .typecheck import TypeCheckError, check_term
from .typesys import (Arrow, FunctorDef, NatDef, Prod, Registry, RegistryError, Ty,
                      TypeSysError, UnknownEffectError, deep_effect_count)
from .values import values_equal


class LanguageParseError(Exception):
    def __init__(self, message, line=0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class LanguageSemanticError(Exception):
    pass


class LexEntry(Record):
    surface: str
    tokens: tuple
    ty: Ty
    term: T.Term
    category: str | None = None


class Lexicon(Record, frozen=False):
    registry: Registry
    entries: list
    max_effect_rank: int = 0


# -- type and term expression parsing --------------------------------------

def parse_type(form, reg: Registry, line=0) -> Ty:
    if isinstance(form, str):
        return reg.base_type(form)
    if isinstance(form, sexpr.Node):
        items = form.items
        if not items:
            raise LanguageParseError("empty type expression", form.line)
        head = items[0]
        if head == "->" and len(items) == 3:
            return Arrow(parse_type(items[1], reg, form.line),
                         parse_type(items[2], reg, form.line))
        if head == "*" and len(items) == 3:
            return Prod(parse_type(items[1], reg, form.line),
                        parse_type(items[2], reg, form.line))
        if isinstance(head, str) and len(items) == 2:
            inner = parse_type(items[1], reg, form.line)
            return reg.apply_functor(head, inner)
    raise LanguageParseError(f"bad type expression {sexpr.unparse(form)}", line)


# each regular term head: its class and its arguments in field order,
# "s" for a symbol and "t" for a subterm
TERM_HEADS = {
    "lam": (T.Lam, "st"), "app": (T.App, "tt"), "pair": (T.Pair, "tt"),
    "const": (T.Const, "s"), "if": (T.If, "ttt"),
    "forall": (T.Forall, "st"), "exists": (T.Exists, "st"),
    "not": (T.Not, "t"), "and": (T.And, "tt"), "or": (T.Or, "tt"),
    "eq": (T.Eq, "tt"), "push": (T.Push, "tt"),
    "fmap": (T.Fmap, "stt"), "eta": (T.Eta, "st"), "mu": (T.Mu, "st"),
    "ap": (T.ApOp, "stt"), "eps": (T.Eps, "sst"),
    "upsilon": (T.Upsilon, "st"), "lower": (T.Lower, "t"),
    "handler": (T.ApplyNat, "st"),
}


def parse_term(form, line=0) -> T.Term:
    if isinstance(form, str):
        if form == "true":
            return T.BoolLit(True)
        if form == "false":
            return T.BoolLit(False)
        return T.Var(form)
    if not isinstance(form, sexpr.Node) or not form.items:
        raise LanguageParseError(f"bad term {sexpr.unparse(form)}", line)
    items, line = form.items, form.line
    head = items[0]
    spec = TERM_HEADS.get(head)
    if spec is not None:
        cls, kinds = spec
        if len(items) != len(kinds) + 1:
            raise LanguageParseError(f"{head} expects {len(kinds)} arguments", line)
        return cls(*(_symbol(x, line) if k == "s" else parse_term(x, line)
                     for k, x in zip(kinds, items[1:])))
    if head == "pred":
        if len(items) < 2:
            raise LanguageParseError("pred needs a name", line)
        return T.Pred(_symbol(items[1], line),
                      tuple(parse_term(a, line) for a in items[2:]))
    if head == "set":
        kw = _keywords(items[2:], line)
        _expect_keys(kw, {":where", ":yield"}, set(), "set", line)
        return T.SetBuilder(_symbol(items[1], line),
                            parse_term(kw[":where"], line),
                            parse_term(kw[":yield"], line))
    if head == "idx":
        if len(items) != 3:
            raise LanguageParseError("idx expects 2 arguments", line)
        if not isinstance(items[2], int) or items[2] < 0:
            raise LanguageParseError("idx expects a literal position of 0 or more", line)
        return T.Idx(parse_term(items[1], line), items[2])
    raise LanguageParseError(f"unknown term head {head}", line)


def _symbol(x, line):
    if isinstance(x, str):
        return x
    raise LanguageParseError(f"expected a symbol, found {sexpr.unparse(x)}", line)


def _keywords(items, line) -> dict:
    if len(items) % 2:
        raise LanguageParseError("dangling keyword argument", line)
    kw = {}
    for k, v in zip(items[::2], items[1::2]):
        if not (isinstance(k, str) and k.startswith(":")):
            raise LanguageParseError(f"expected a keyword, found {sexpr.unparse(k)}", line)
        kw[k] = v
    return kw


def _expect_keys(kw, required, optional, what, line):
    missing = required - kw.keys()
    if missing:
        raise LanguageParseError(f"{what} is missing {sorted(missing)}", line)
    unknown = kw.keys() - required - optional
    if unknown:
        raise LanguageParseError(f"{what} has unknown keys {sorted(unknown)}", line)


def _symbols(x, key, line) -> tuple:
    if not isinstance(x, sexpr.Node):
        raise LanguageParseError(f"{key} expects a list", line)
    return tuple(_symbol(s, line) for s in x.items)


def _bool(x, line) -> bool:
    if x == "true":
        return True
    if x == "false":
        return False
    raise LanguageParseError(f"expected true/false, found {sexpr.unparse(x)}", line)


# -- file loading -----------------------------------------------------------

def load_forms(text: str, handlers: dict, *, unknown: str) -> None:
    """Parse ``text`` and call ``handlers[head](form, line)`` on each
    top-level form in order.

    Every file format reads through here, so each error is classified
    once: a form that is not a non-empty list, a head with no handler
    (reported as ``unknown.format(head)``) and a form too short for its
    handler (an ``IndexError``) raise :class:`LanguageParseError`; a
    handler's :class:`TypeSysError` or :class:`ModelError` is raised again
    as :class:`LanguageSemanticError`.  Every message names the form's line.
    """
    try:
        forms = sexpr.parse(text)
    except sexpr.SexprError as exc:
        raise LanguageParseError(str(exc)) from exc  # its text names the line
    for form in forms:
        line = getattr(form, "line", 0)
        if not isinstance(form, sexpr.Node) or not form.items:
            raise LanguageParseError("top-level forms must be lists", line)
        head = form.items[0]
        handler = handlers.get(head)
        if handler is None:
            raise LanguageParseError(unknown.format(head), line)
        try:
            handler(form, line)
        except (TypeSysError, ModelError) as exc:
            raise LanguageSemanticError(f"line {line}: {exc}") from exc
        except IndexError:
            raise LanguageParseError(f"malformed {head} form", line) from None


def load_file(path, load_text, *args):
    """``load_text(text, *args)`` on the UTF-8 text of the file at
    ``path``.  A parse or semantic error is raised again, as the same
    kind, with the path in front; text that is not UTF-8 is a parse
    error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load_text(fh.read(), *args)
    except LanguageSemanticError as exc:
        raise LanguageSemanticError(f"{path}: {exc}") from exc
    except (LanguageParseError, UnicodeDecodeError) as exc:
        raise LanguageParseError(f"{path}: {exc}") from exc


# -- language loading ------------------------------------------------------

def load_language_text(text: str) -> Lexicon:
    reg = Registry()
    words = []
    load_forms(text, {
        "base-type": lambda form, line: reg.add_base_type(_symbol(form.items[1], line)),
        "functor": lambda form, line: reg.add_functor(_parse_functor(form, reg)),
        "adjunction": lambda form, line: reg.add_adjunction(_symbol(form.items[1], line),
                                                            _symbol(form.items[2], line)),
        "nat": lambda form, line: reg.add_nat(_parse_nat(form)),
        "word": lambda form, line: words.append(form),
    }, unknown="unknown form {}")
    entries = [_parse_word(form, reg) for form in words]
    lex = Lexicon(registry=reg, entries=entries,
                  max_effect_rank=max((deep_effect_count(e.ty) for e in entries),
                                      default=0))
    _spot_check_handlers(reg)
    return lex


def load_language(path) -> Lexicon:
    return load_file(path, load_language_text)


def _parse_functor(form, reg) -> FunctorDef:
    line = form.line
    name = _symbol(form.items[1], line)
    kw = _keywords(form.items[2:], line)
    _expect_keys(kw, set(), {":caps", ":commutative", ":applies-to"}, "functor", line)
    caps = frozenset(_symbols(kw[":caps"], ":caps", line) if ":caps" in kw else ())
    applies = None
    if ":applies-to" in kw and kw[":applies-to"] != "*":
        applies = (parse_type(kw[":applies-to"], reg, line),)
    return FunctorDef(
        id=name,
        capabilities=caps,
        commutative=_bool(kw[":commutative"], line) if ":commutative" in kw else False,
        applies_to=applies,
    )


def _parse_nat(form) -> NatDef:
    line = form.line
    name = _symbol(form.items[1], line)
    kw = _keywords(form.items[2:], line)
    _expect_keys(kw, {":from", ":to", ":handler", ":impl"}, {":default"}, "nat", line)
    src = _symbols(kw[":from"], ":from", line)
    tgt = _symbols(kw[":to"], ":to", line)
    default = parse_term(kw[":default"], line) if ":default" in kw else None
    impl = _symbol(kw[":impl"], line)
    if impl not in BUILTIN_NATS:
        raise UnknownEffectError(f"nat {name}: no builtin named {impl}")
    word = BUILTIN_NATS[impl][1] or (src, src)
    if (src, tgt) != word:
        show = sexpr.unparse
        raise RegistryError(f"nat {name}: :from {show(src)} :to {show(tgt)} does not match "
                            f"builtin {impl}, which maps {show(word[0])} to {show(word[1])}")
    return NatDef(name=name, source=src, target=tgt,
                  is_handler=_bool(kw[":handler"], line),
                  component=impl, default=default)


def _parse_word(form, reg) -> LexEntry:
    line = form.line
    if len(form.items) < 2 or not isinstance(form.items[1], sexpr.String):
        raise LanguageParseError("word needs a quoted surface", line)
    surface = form.items[1].value
    kw = _keywords(form.items[2:], line)
    _expect_keys(kw, {":type", ":term"}, {":cat"}, f'word "{surface}"', line)
    try:
        ty = parse_type(kw[":type"], reg, line)
        term = parse_term(kw[":term"], line)
        checked = check_term(reg, term, ty)
    except (TypeCheckError, TypeSysError) as exc:
        raise LanguageSemanticError(f'word "{surface}" (line {line}): {exc}') from exc
    cat = _symbol(kw[":cat"], line) if ":cat" in kw else None
    tokens = tuple(surface.casefold().split())
    if not tokens:
        raise LanguageParseError(f'word "{surface}" has an empty surface', line)
    return LexEntry(surface=surface, tokens=tokens, ty=ty, term=checked, category=cat)


def _spot_check_handlers(reg: Registry) -> None:
    model = Model(entities=("_spot0", "_spot1"))
    for nat in reg.nats():
        if not nat.is_handler or len(nat.source) != 1:
            continue
        f = nat.source[0]
        if not reg.has_cap(f, "applicative"):
            continue
        payloads = SPOT_PAYLOADS.get(nat.component, SPOT_PAYLOADS[None])(model)
        for v in payloads[:3]:
            try:
                out = run_handler(reg, nat, eta(reg, f, v), model)
                ok = values_equal(out, v, model)
            except EVAL_ERRORS as exc:
                raise LanguageSemanticError(
                    f"handler {nat.name} failed its unit law on {v}: {exc}") from exc
            if not ok:
                raise LanguageSemanticError(
                    f"handler {nat.name} violates h . eta = id on {v}")


# -- model loading ----------------------------------------------------------

def load_model_text(text: str) -> Model:
    """The model in ``text``.  A repeated entity and a row of the wrong
    length are rejected at their form, naming its line.  An entity may be
    declared after its use, so an undeclared one is rejected once every
    form is read, on the line of its first use."""
    entities = []
    predicates = {}
    seqs = {"assignment": (), "state": ()}
    uses = {}  # entity -> (line, error message) of its first use

    def entity(form, line):
        name = _symbol(form.items[1], line)
        check_new_entity(name, entities)
        entities.append(name)

    def pred(form, line):
        name, arity = _symbol(form.items[1], line), form.items[2]
        if not isinstance(arity, int) or arity < 0:
            raise LanguageParseError("pred needs a literal arity of 0 or more", line)
        rows = set()
        for node in form.items[3:]:
            if not isinstance(node, sexpr.Node):
                raise LanguageParseError("extension rows must be lists", line)
            row = tuple(_symbol(e, line) for e in node.items)
            check_arity(name, arity, row)
            for e in row:
                uses.setdefault(e, (line, f"predicate {name}: undeclared entity {e}"))
            rows.add(row)
        predicates[name, arity] = predicates.get((name, arity), frozenset()) | rows

    def seq(form, line):
        seqs[form.items[0]] = tuple(_symbol(e, line) for e in form.items[1:])
        for e in seqs[form.items[0]]:
            uses.setdefault(e, (line, f"undeclared entity {e} in assignment/state"))

    load_forms(text, {
        "entity": entity, "pred": pred, "assignment": seq, "state": seq,
    }, unknown="unknown model form {}")
    for name, (line, message) in uses.items():
        if name not in entities:
            raise LanguageSemanticError(f"line {line}: {message}")
    # every check of Model is made above, on its line
    return Model(entities=tuple(entities), predicates=predicates,
                 initial_assignment=seqs["assignment"], initial_state=seqs["state"])


def load_model(path) -> Model:
    return load_file(path, load_model_text)
