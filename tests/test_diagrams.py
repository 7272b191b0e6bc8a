import gc
import importlib.util
import sys
import weakref

import pytest

from effparse import diagrams
from effparse.combine import MODE_RULES, Branch, parse, render_modes
from effparse.diagrams import (CELL_KINDS, Diagram, DiagramError, PlanarityError,
                               all_normal_forms, applicable_reductions, cell,
                               cell_menu, diagram_to_dot, diagram_to_sexpr,
                               diagrams_equal, enumerate_diagrams, eq_normalize,
                               from_derivation, right_normalize, validate,
                               first_violation)
from effparse.typesys import Base, Eff

from .conftest import ROOT, entry
from .diagram_reference import reference_diagram
from .test_cli_matrix import SENTENCES

e, t = Base("e"), Base("t")


# -- construction from derivations -------------------------------------------

def pick(derivs, ty_str, modes=None):
    out = [d for d in derivs if str(d.ty) == ty_str
           and (modes is None or render_modes(d.modes) == modes)]
    assert out, f"no derivation with type {ty_str}"
    return out[0]


def test_tree_box_diagram(english):
    derivs = parse("a cat in a box".split(), english, max_derivations=128)
    dg = from_derivation(english.registry, pick(derivs, "D e"))
    assert dg.inputs == ("D", "D")
    assert [c.kind for c in dg.nodes] == ["mu"]
    assert dg.nodes[0].params == ("D",)
    assert validate(dg)


def test_pure_leaf_diagram_is_empty(english):
    cat = entry(english, "cat")
    from effparse.combine import Leaf
    dg = from_derivation(english.registry, Leaf(cat))
    assert dg == Diagram(inputs=(), nodes=())
    assert validate(dg)


def test_lowering_sentence_has_lower_cell(english):
    derivs = parse("no cat sleeps".split(), english, max_derivations=64)
    dg = from_derivation(english.registry, pick(derivs, "t"))
    assert dg.inputs == ("C",)
    assert [c.kind for c in dg.nodes] == ["lower"]
    assert dg.output_word() == ()


def test_tree_eats_diagram_routes_without_cells(english):
    derivs = parse("the cat eats a mouse".split(), english, max_derivations=128)
    dg = from_derivation(english.registry, pick(derivs, "M D t", "ML_M MR_D <"))
    assert dg.inputs == ("M", "D")
    assert dg.nodes == ()


def _corpus_round():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module.corpus_round


def _derivation_lists(english, syntax):
    """Freshly parsed derivation lists: the CLI-matrix sentences with and
    without the syntax file, pruned and not, then corpus seed 1, rounds
    0-4, as the benchmark parses them."""
    for sentence in SENTENCES:
        for with_syntax in (None, syntax):
            for pruned in (True, False):
                yield parse(sentence.split(), english, syntax=with_syntax,
                            prune_seqs=pruned)
    corpus_round = _corpus_round()
    for r in range(5):
        for s in corpus_round(1, r):
            yield parse(list(s.tokens), english, syntax=syntax)


def _drawn(draw, d):
    """The diagram ``draw`` gives ``d``, or the message of its planarity
    error."""
    try:
        return draw(d)
    except PlanarityError as exc:
        return str(exc)


def test_summaries_draw_the_reference_diagrams(english, syntax):
    """The summary builder draws what the reference builder draws, from
    cold caches in one order and from warm ones in the other."""
    reg = english.registry
    diagrams._compose.cache_clear()
    diagrams._leaf.cache_clear()
    drawn, errors = 0, 0
    for forward in (True, False):
        lists = list(_derivation_lists(english, syntax))
        for derivs in lists if forward else lists[::-1]:
            for d in derivs if forward else derivs[::-1]:
                got = _drawn(lambda d: from_derivation(reg, d), d)
                assert got == _drawn(reference_diagram, d)
                drawn += 1
                errors += isinstance(got, str)
    assert drawn > 2 * 2000 and errors > 2 * 100


def test_nodes_whose_summaries_are_equal_hold_one_summary(english):
    """Summaries are interned: equal ones are one object, also where the
    ``_compose`` cache could not share them, their branches' modes or
    children differing."""
    objects, made_from = {}, {}
    stack = list(parse(("a cat" + " in a box" * 3).split(), english))
    while stack:
        d = stack.pop()
        s = diagrams._summary(d)
        if isinstance(s, PlanarityError):
            continue
        fields = (s.cells, s.bottom, s.top, s.logical)
        objects.setdefault(fields, set()).add(id(s))
        if isinstance(d, Branch):
            made_from.setdefault(fields, set()).add(
                (d.modes, id(diagrams._summary(d.left)), id(diagrams._summary(d.right))))
            stack += (d.left, d.right)
    assert all(len(ids) == 1 for ids in objects.values())
    assert any(len(keys) > 1 for keys in made_from.values())


def test_a_kept_planarity_error_is_raised_afresh_and_pins_nothing(english, syntax):
    derivs = parse("the skillful cat in a box in a skillful box eats the box".split(),
                   english, syntax=syntax)
    root = derivs[20]
    assert render_modes(root.modes) == "ML_D ML_D A_M <"
    raised = []
    for _ in range(2):
        with pytest.raises(PlanarityError) as info:
            from_derivation(english.registry, root)
        raised.append(info.value)
    assert [str(exc) for exc in raised] == [
        "mode ap must merge adjacent strings; derivation is not planar"] * 2
    assert raised[0] is not raised[1]
    # the error kept for the next draw holds no frame that holds the tree
    alive = weakref.ref(root)
    del derivs, root, raised, info
    gc.collect()
    assert alive() is None


# -- cell kinds -----------------------------------------------------------------

@pytest.mark.parametrize("kind, params, ins, outs", [
    ("eta", ("F1",), (), ("F1",)),
    ("mu", ("F1",), ("F1", "F1"), ("F1",)),
    ("ap", ("F2",), ("F2", "F2"), ("F2",)),
    ("lower", ("C",), ("C",), ()),
    ("epsilon", ("L", "R"), ("L", "R"), ()),
    ("eta-adj", ("L", "R"), (), ("R", "L")),
    ("handler", ("h1", "F1"), ("F1",), ()),
])
def test_each_cell_kind_has_its_boundary(kind, params, ins, outs):
    c = cell(2, kind, *params)
    assert (c.pos, c.kind, c.params, c.ins, c.outs) == (2, kind, params, ins, outs)
    assert cell(2, kind, *params) is c


def test_every_kind_drawn_or_enumerated_is_in_the_table():
    drawn = {rule.cell for rule in MODE_RULES.values() if rule.cell is not None}
    offered = {kind for kind, _ in cell_menu(lowerings=("C",))}
    assert drawn | offered <= set(CELL_KINDS)


def test_an_unknown_cell_kind_is_a_diagram_error():
    with pytest.raises(DiagramError, match="unknown cell kind nope"):
        cell(0, "nope")


# -- validate -----------------------------------------------------------------

def test_validate_rejects_interface_mismatch():
    bad = Diagram(inputs=("M",), nodes=(cell(0, "mu", "D"),))
    assert not validate(bad)
    assert first_violation(bad) is not None
    mismatch = Diagram(inputs=("M", "M"), nodes=(cell(0, "mu", "D"),))
    assert "expects" in first_violation(mismatch)


def test_validate_empty():
    assert validate(Diagram(inputs=(), nodes=()))


def test_validate_rejects_offsets():
    bad = Diagram(inputs=("F1",), nodes=(cell(3, "lower", "F1"),))
    assert not validate(bad)


# -- right normalization ---------------------------------------------------------

def test_exchange_moves_right_cell_down():
    # two independent units over an empty boundary: left-created-first is
    # not exchange-normal; the right one must end up below
    d = Diagram(inputs=(), nodes=(cell(0, "eta", "F1"), cell(0, "eta", "F2")))
    nf = right_normalize(d)
    assert validate(nf)
    assert nf.nodes == (cell(0, "eta", "F2"), cell(1, "eta", "F1"))
    assert nf.output_word() == d.output_word()


def test_single_cell_unchanged():
    d = Diagram(inputs=("F1", "F1"), nodes=(cell(0, "mu", "F1"),))
    assert right_normalize(d) == d


def test_shared_string_not_exchanged():
    d = Diagram(inputs=(), nodes=(cell(0, "eta", "F1"), cell(0, "handler", "h1", "F1")))
    assert right_normalize(d) == d


def test_exchange_is_idempotent_and_valid():
    d = Diagram(inputs=("F1", "F1", "F2", "F2"),
                nodes=(cell(2, "mu", "F1"), cell(0, "mu", "F2")))
    nf = right_normalize(d)
    assert validate(nf)
    assert right_normalize(nf) == nf
    assert nf.output_word() == d.output_word()
    # the F2 join sits lower in the normal form
    assert nf.nodes[0].params == ("F2",)


def test_exchange_normal_form_is_where_adjacent_swaps_stop():
    """The single insertion pass of ``right_normalize`` agrees with
    swapping adjacent independent cells until no swap applies."""
    from effparse.diagrams import _can_swap, _swap
    words = [(), ("F1",), ("F1", "F2"), ("L", "R"), ("R",)]
    count = 0
    for d in enumerate_diagrams(words, max_cells=3, menu=cell_menu(lowerings=("F2",))):
        nodes = list(d.nodes)
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(nodes) - 1):
                if _can_swap(nodes[i], nodes[i + 1]):
                    nodes[i], nodes[i + 1] = _swap(nodes[i], nodes[i + 1])
                    swapped = True
        assert right_normalize(d).nodes == tuple(nodes)
        count += 1
    assert count > 8000


# -- equational reduction ----------------------------------------------------------

def test_snake_cancels_to_empty():
    d = Diagram(inputs=("R",),
                nodes=(cell(1, "eta-adj", "L", "R"), cell(0, "epsilon", "L", "R")))
    assert validate(d)
    nf = eq_normalize(d)
    assert nf == Diagram(inputs=("R",), nodes=())


def test_snake_other_orientation():
    d = Diagram(inputs=("L",),
                nodes=(cell(0, "eta-adj", "L", "R"), cell(1, "epsilon", "L", "R")))
    assert validate(d)
    assert eq_normalize(d) == Diagram(inputs=("L",), nodes=())


def test_unit_then_join_cancels():
    d = Diagram(inputs=("F1",), nodes=(cell(0, "eta", "F1"), cell(0, "mu", "F1")))
    assert validate(d)
    assert eq_normalize(d) == Diagram(inputs=("F1",), nodes=())
    d2 = Diagram(inputs=("F1",), nodes=(cell(1, "eta", "F1"), cell(0, "mu", "F1")))
    assert validate(d2)
    assert eq_normalize(d2) == Diagram(inputs=("F1",), nodes=())


def test_eta_then_handler_cancels():
    d = Diagram(inputs=(), nodes=(cell(0, "eta", "F1"), cell(0, "handler", "h1", "F1")))
    assert eq_normalize(d) == Diagram(inputs=(), nodes=())


def test_eta_then_lower_cancels():
    d = Diagram(inputs=(), nodes=(cell(0, "eta", "C"), cell(0, "lower", "C")))
    assert eq_normalize(d) == Diagram(inputs=(), nodes=())


def test_associativity_rewrites_left_nesting():
    left_nested = Diagram(inputs=("F1", "F1", "F1"),
                          nodes=(cell(1, "mu", "F1"), cell(0, "mu", "F1")))
    assert validate(left_nested)
    nf = eq_normalize(left_nested)
    assert validate(nf)
    assert nf.nodes == (cell(0, "mu", "F1"), cell(0, "mu", "F1"))
    assert eq_normalize(nf) == nf


def test_boundaries_preserved_by_normalisation():
    d = Diagram(inputs=("F1", "F1", "F1", "F2"),
                nodes=(cell(2, "mu", "F1"), cell(1, "mu", "F1"), cell(0, "eta", "F2"),
                       cell(0, "mu", "F2")))
    assert validate(d)
    nf = eq_normalize(d)
    assert validate(nf)
    assert nf.inputs == d.inputs
    assert nf.output_word() == d.output_word()


def test_unsound_rewrite_is_reported(monkeypatch):
    """A rewrite that breaks the interfaces is caught by the check on the
    normal form, in the normaliser and in the oracle alike."""
    from effparse import diagrams

    def off_the_word(c1, c2):
        if c1.kind == "mu" and c2.kind == "mu" and c1.pos == c2.pos + 1:
            return ("assoc", cell(c1.pos + 5, "mu", "F1"), c2)
        return None

    monkeypatch.setattr(diagrams, "_match_rule", off_the_word)
    left_nested = Diagram(inputs=("F1", "F1", "F1"),
                          nodes=(cell(1, "mu", "F1"), cell(0, "mu", "F1")))
    with pytest.raises(DiagramError, match="broke the diagram"):
        eq_normalize(left_nested)
    with pytest.raises(DiagramError, match="broke the diagram"):
        all_normal_forms(left_nested)


# -- equality --------------------------------------------------------------------

def test_equal_up_to_exchange():
    d = Diagram(inputs=(), nodes=(cell(0, "eta", "F1"), cell(0, "eta", "F2")))
    assert diagrams_equal(d, right_normalize(d))


def test_equal_modulo_unit_insertion():
    d = Diagram(inputs=("F1", "F1"), nodes=(cell(0, "mu", "F1"),))
    padded = Diagram(inputs=("F1", "F1"),
                     nodes=(cell(0, "mu", "F1"), cell(0, "eta", "F1"), cell(0, "mu", "F1")))
    assert validate(padded)
    assert diagrams_equal(d, padded)


def test_distinct_functor_labels_differ():
    a = Diagram(inputs=("F1", "F1"), nodes=(cell(0, "mu", "F1"),))
    b = Diagram(inputs=("F2", "F2"), nodes=(cell(0, "mu", "F2"),))
    assert not diagrams_equal(a, b)


def test_equal_rejects_invalid_input():
    bad = Diagram(inputs=("M",), nodes=(cell(0, "mu", "D"),))
    with pytest.raises(DiagramError):
        diagrams_equal(bad, bad)


# -- reduction bookkeeping ----------------------------------------------------------

def test_reduction_chain_stays_valid_and_short():
    d = Diagram(inputs=("F1", "F1", "F1", "F1"),
                nodes=(cell(2, "mu", "F1"), cell(1, "mu", "F1"), cell(0, "mu", "F1"),
                       cell(0, "eta", "F1"), cell(0, "mu", "F1")))
    assert validate(d)
    stats = {}
    nf = eq_normalize(d, stats=stats)
    assert validate(nf)
    assert stats["reductions"] <= 2 * d.node_count
    # every single-step reduct along the way is valid too
    frontier = [d]
    seen = set()
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for _, nxt in applicable_reductions(cur):
            assert validate(nxt), first_violation(nxt)
            frontier.append(nxt)


def test_confluence_small_oracle():
    words = [(), ("F1",), ("F1", "F1"), ("F1", "F1", "F1"), ("R",), ("L",)]
    count = 0
    memo = {}
    for d in enumerate_diagrams(words, max_cells=3):
        nfs = all_normal_forms(d, memo)
        assert len(nfs) == 1, f"divergent: {diagram_to_sexpr(d)}"
        assert next(iter(nfs)) == eq_normalize(d)
        count += 1
    assert count > 500


# -- serialization ----------------------------------------------------------------

def test_diagram_sexpr_text():
    """The form the CLI prints, as the README gives its grammar."""
    grammar = ("(diagram :inputs (F ...) :nodes ((pos (kind params...) (ins...) "
               "(outs...)) ...))")
    assert grammar in (ROOT / "README.md").read_text()
    d = Diagram(inputs=("F1", "F2"),
                nodes=(cell(1, "eta", "F1"), cell(2, "mu", "F1"),
                       cell(0, "handler", "h1", "F2")))
    assert diagram_to_sexpr(d) == ("(diagram :inputs (F1 F2) :nodes ("
                                   "(1 (eta F1) () (F1)) "
                                   "(2 (mu F1) (F1 F1) (F1)) "
                                   "(0 (handler h1 F2) (F2) ())))")


def test_dot_output_mentions_cells():
    d = Diagram(inputs=("F1", "F1"), nodes=(cell(0, "mu", "F1"),))
    dot = diagram_to_dot(d)
    assert dot.startswith("digraph")
    assert "mu_F1" in dot
