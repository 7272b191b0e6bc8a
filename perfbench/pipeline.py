"""One operation of each workload, the forcing of values, and the checks.

Every call into the engine goes through ``tracer.call(name, fn, ...)`` so
that a traced run records a span per layer call; the untraced tracer just
calls the function.  Checks run after an operation's timer stops.
"""

from __future__ import annotations

from effparse.combine import Branch, derivation_term, parse_forest
from effparse.diagrams import (PlanarityError, all_normal_forms,
                               applicable_reductions, enumerate_diagrams,
                               eq_normalize, from_derivation, right_normalize,
                               validate)
from effparse.lambda_eval import EvalError, ShapeError, eval_term
from effparse.typesys import Arrow, Base, Eff, Prod
from effparse.values import (B, ContV, E, Fn, MaybeV, PairV, ReaderV, SeqV,
                             SetV, StateV)

MAX_DERIVATIONS = 64  # the CLI default

# the word set and cell menu of the acceptance confluence criterion
CONFLUENCE_WORDS = [(), ("F1",), ("F1", "F1"), ("F1", "F1", "F1"), ("R",), ("L",)]
CONFLUENCE_CELLS = 5


# -- forcing -------------------------------------------------------------

class Forcer:
    """Turns evaluated values into plain data (bools, entity names,
    tuples, frozensets).

    State runs from the model's initial state and threads into nested
    values; readers read the model's assignment; continuations into t are
    lowered with the identity continuation (nested ones through their
    inner lowering); functions of e are tabulated over the entities.
    """

    def __init__(self, model):
        self.entities = tuple(model.entities)
        self.assignment = SeqV(tuple(E(e) for e in model.initial_assignment))
        self.state = SeqV(tuple(E(e) for e in model.initial_state))

    def __call__(self, v):
        return self._force(v, self.state)

    def _force(self, v, state):
        if isinstance(v, B):
            return v.value
        if isinstance(v, E):
            return v.name
        if isinstance(v, MaybeV):
            return "#" if v.absent else ("just", self._force(v.payload, state))
        if isinstance(v, PairV):
            return (self._force(v.left, state), self._force(v.right, state))
        if isinstance(v, SeqV):
            return tuple(self._force(x, state) for x in v.items)
        if isinstance(v, SetV):
            return frozenset(self._force(x, state) for x in v.elems)
        if isinstance(v, Fn):
            return tuple((e, self._force(v.run(E(e)), state)) for e in self.entities)
        if isinstance(v, ReaderV):
            return self._force(v.run(self.assignment), state)
        if isinstance(v, StateV):
            out = v.run(state)
            if not isinstance(out, SetV):
                raise ShapeError("a state carrier must yield a set of outcomes")
            forced = set()
            for pr in out.elems:
                if not (isinstance(pr, PairV) and isinstance(pr.right, SeqV)):
                    raise ShapeError("state outcomes must be (value, state) pairs")
                forced.add((self._force(pr.left, pr.right), self._force(pr.right, state)))
            return frozenset(forced)
        if isinstance(v, ContV):
            return _lower(v).value
        raise ShapeError(f"no forcing rule for {type(v).__name__}")


def _lower(k):
    def ident(x):
        if isinstance(x, B):
            return x
        if isinstance(x, ContV):
            return _lower(x)
        raise ShapeError("lowering a continuation whose core is not a truth value")
    out = k.run(ident)
    if not isinstance(out, B):
        raise ShapeError("lowering produced a non-truth value")
    return out


def shape_ok(ty, x, entities) -> bool:
    """Does the forced value ``x`` have the shape root type ``ty`` demands?"""
    def state(s):
        return isinstance(s, tuple) and all(e in entities for e in s)

    def pair(p, left, right):
        return isinstance(p, tuple) and len(p) == 2 and left(p[0]) and right(p[1])

    if isinstance(ty, Base):
        if ty.name == "t":
            return isinstance(x, bool)
        if ty.name == "e":
            return x in entities
        return False
    if isinstance(ty, Arrow):
        return (ty.dom == Base("e") and isinstance(x, tuple)
                and tuple(e for e, _ in x) == entities
                and all(shape_ok(ty.cod, y, entities) for _, y in x))
    if isinstance(ty, Prod):
        return pair(x, lambda a: shape_ok(ty.left, a, entities),
                    lambda b: shape_ok(ty.right, b, entities))
    if not isinstance(ty, Eff):
        return False
    inner = lambda y: shape_ok(ty.inner, y, entities)
    f = ty.functor
    if f == "M":
        return x == "#" or (isinstance(x, tuple) and len(x) == 2
                            and x[0] == "just" and inner(x[1]))
    if f == "G":
        return inner(x)
    if f == "C":
        core = ty.inner
        while isinstance(core, Eff) and core.functor == "C":
            core = core.inner
        return core == Base("t") and isinstance(x, bool)
    if f == "D":
        return isinstance(x, frozenset) and all(pair(p, inner, state) for p in x)
    if f == "S":
        return isinstance(x, frozenset) and all(inner(y) for y in x)
    if f == "W":
        return pair(x, inner, lambda b: isinstance(b, bool))
    if f == "P":
        return pair(x, inner, state)
    return False


# -- the sentence pipeline ----------------------------------------------

class SentencePipeline:
    """Parse, unpack, evaluate, force, build diagrams, normalise and group
    one sentence at a time against loaded files."""

    def __init__(self, lex, model, syntax, tracer):
        self.lex, self.reg, self.model, self.syntax = lex, lex.registry, model, syntax
        self.force = Forcer(model)
        self.tracer = tracer

    def run(self, tokens):
        """The operation: returns (derivations, forced values, diagram
        pairs, groups); a forced value is None where evaluation failed, a
        diagram pair is None where the derivation is not planar."""
        call, reg = self.tracer.call, self.reg
        forest = call("combine.parse_forest", parse_forest, tokens, self.lex,
                      syntax=self.syntax, seq_cap=MAX_DERIVATIONS)
        derivs = call("combine.derivations", forest.derivations, limit=MAX_DERIVATIONS)
        forced = []
        for d in derivs:
            term = call("combine.derivation_term", derivation_term, reg, d)
            try:
                v = call("lambda_eval.eval_term", eval_term, term, {}, self.model, reg)
                forced.append(call("lambda_eval.force", self.force, v))
            except EvalError:
                forced.append(None)
        diagrams, stats = [], {}
        for d in derivs:
            try:
                dg = call("diagrams.from_derivation", from_derivation, reg, d)
            except PlanarityError:
                diagrams.append(None)
                continue
            diagrams.append((dg, call("diagrams.eq_normalize", eq_normalize, dg,
                                      stats=stats)))
        groups = {}
        for i, pair in enumerate(diagrams):
            if pair is not None:
                groups.setdefault(pair[1], []).append(i)
        if self.tracer.on:
            self._count(forest, derivs, forced, diagrams, groups, stats)
        return derivs, forced, diagrams, groups

    def _count(self, forest, derivs, forced, diagrams, groups, stats):
        count = self.tracer.count
        count("combine.packed_nodes", forest.packed_node_count())
        count("combine.derivations", len(derivs))
        seen, nodes = set(), 0
        for d in derivs:
            stack = [d]
            while stack:
                node = stack.pop()
                nodes += 1
                seen.add(id(node))
                if isinstance(node, Branch):
                    stack += (node.left, node.right)
        count("combine.tree_nodes", nodes)
        count("combine.shared_nodes", len(seen))
        count("lambda_eval.eval_errors", sum(v is None for v in forced))
        count("diagrams.planarity_errors", sum(p is None for p in diagrams))
        count("diagrams.cells", sum(p[0].node_count for p in diagrams if p))
        count("diagrams.reductions", stats.get("reductions", 0))
        count("diagrams.normal_forms", len(groups))
        count_max = self.tracer.count_max
        count_max("combine.mode_cache_entries", len(getattr(self.reg, "_combo_cache", ())))


def check_sentence(result, entities, expected=None, entity_sets=None):
    """Property and oracle checks of one sentence's result; returns a list
    of problems (empty when all hold).

    ``expected`` is (root type, forced value) for a fixed reading: some
    derivation of that type must force to that value.  ``entity_sets``
    holds the entity sets of the PP attachments; every D...D e derivation
    that coordinates nominals only by conjunction must yield one of them.
    Without a syntax file the type grammar also disjoins nominals
    pointwise ("cat | box"), readings that are no PP attachment.
    """
    derivs, forced, diagrams, _ = result
    problems = []
    for d, x in zip(derivs, forced):
        if x is not None and not shape_ok(d.ty, x, entities):
            problems.append(f"forced value {x!r} does not have shape {d.ty}")
    if expected is not None:
        ty, value = expected
        if not any(str(d.ty) == ty and x == value for d, x in zip(derivs, forced)):
            got = [(str(d.ty), x) for d, x in zip(derivs, forced)]
            problems.append(f"no derivation of type {ty} forces to {value!r}: {got}")
    if entity_sets is not None:
        for d, x in zip(derivs, forced):
            depth = _state_depth(d.ty)
            if (depth and x is not None and not _disjoins(d)
                    and _innermost(x, depth) not in entity_sets):
                problems.append(f"{d.ty} derivation yields entity set "
                                f"{sorted(_innermost(x, depth))}, not one of the "
                                f"attachments {[sorted(s) for s in entity_sets]}")
    for pair in diagrams:
        if pair is not None:
            problems += check_normal_form(*pair)
    return problems


def _disjoins(d) -> bool:
    """Does the derivation coordinate with pointwise disjunction anywhere?"""
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            if any(m.kind == "disj" for m in node.modes):
                return True
            stack += (node.left, node.right)
    return False


def _state_depth(ty) -> int:
    """n for a root type D^n e, else 0."""
    n = 0
    while isinstance(ty, Eff) and ty.functor == "D":
        ty, n = ty.inner, n + 1
    return n if ty == Base("e") else 0


def _innermost(x, depth: int) -> frozenset:
    if depth == 0:
        return frozenset([x])
    return frozenset().union(*(_innermost(v, depth - 1) for v, _ in x))


def check_normal_form(dg, nf) -> list:
    problems = []
    if eq_normalize(nf) != nf:
        problems.append(f"eq_normalize is not idempotent on {nf}")
    if not validate(nf):
        problems.append(f"normal form {nf} is not valid")
    elif (nf.inputs, nf.output_word()) != (dg.inputs, dg.output_word()):
        problems.append(f"normal form {nf} changes the boundary of {dg}")
    if applicable_reductions(nf):
        problems.append(f"normal form {nf} still has reductions")
    return problems


# -- the confluence sweep ------------------------------------------------

def confluence_ops(tracer):
    """One exhaustive sweep; each step enumerates the next diagram, finds
    every normal form it reduces to (one memo serves the whole sweep) and
    normalises it, then yields (diagram, normal forms, eq_normalize
    result)."""
    call = tracer.call
    memo = {}
    it = enumerate_diagrams(CONFLUENCE_WORDS, max_cells=CONFLUENCE_CELLS,
                            up_to_exchange=True)
    while True:
        d = call("diagrams.enumerate", next, it, None)
        if d is None:
            return
        nfs = call("diagrams.all_normal_forms", all_normal_forms, d, memo)
        nf = call("diagrams.eq_normalize", eq_normalize, d)
        if tracer.on:
            tracer.count("diagrams.enumerated", 1)
            tracer.count_max("diagrams.oracle_memo_entries", len(memo))
        yield d, nfs, nf


def check_confluence(d, nfs, nf) -> list:
    if len(nfs) != 1:
        return [f"{d} has {len(nfs)} normal forms"]
    if next(iter(nfs)) != nf:
        return [f"eq_normalize disagrees with the reduction oracle on {d}"]
    return []


def check_exchange_enumeration(max_cells: int = 3) -> list:
    """The exchange-skipping enumeration must give the same diagrams as the
    full enumeration after right normalisation and deduplication."""
    full = {right_normalize(d) for d in
            enumerate_diagrams(CONFLUENCE_WORDS, max_cells=max_cells)}
    skipped = set(enumerate_diagrams(CONFLUENCE_WORDS, max_cells=max_cells,
                                     up_to_exchange=True))
    if full != skipped:
        return [f"{max_cells}-cell enumeration up to exchange differs from the "
                f"full one: {len(full - skipped)} missing, {len(skipped - full)} extra"]
    return []
