"""The λ-term form of each mode kind's meaning, the reference the engine's
value combinators (``combine.MODE_RULES[kind].denote``) are tested
against.

``denote(m)`` is a base mode's figure term, or a wrapper or postfix
mode's term transformer; :func:`folded_term` substitutes each figure into
its wrappers' transformers, one fresh term per node, so evaluating it
shares no value with any other derivation.
"""

from effparse import terms as T
from effparse.combine import Leaf

V, L, A = T.Var, T.Lam, T.App


def _lam2(f):
    x, y = T.fresh_var("x"), T.fresh_var("y")
    return L(x, L(y, f(V(x), V(y))))


def _pointwise(op):
    def denote(m):
        p, q, x = (T.fresh_var(s) for s in "pqx")
        return L(p, L(q, L(x, op(A(V(p), V(x)), A(V(q), V(x))))))
    return denote


def _fmap_left(m):
    def tr(M):
        a = T.fresh_var("a")
        return _lam2(lambda x, y: T.Fmap(m.functor, L(a, A(A(M, V(a)), y)), x))
    return tr


def _fmap_right(m):
    def tr(M):
        b = T.fresh_var("b")
        return _lam2(lambda x, y: T.Fmap(m.functor, L(b, A(A(M, x), V(b))), y))
    return tr


def _ap_both(m):
    f = m.functor

    def tr(M):
        a, b = T.fresh_var("a"), T.fresh_var("b")
        return _lam2(lambda x, y: T.ApOp(
            f, T.Fmap(f, L(a, L(b, A(A(M, V(a)), V(b)))), x), y))
    return tr


def _unit_right(m):
    def tr(M):
        b = T.fresh_var("b")
        return _lam2(lambda x, phi: A(A(M, x), L(b, A(phi, T.Eta(m.functor, V(b))))))
    return tr


def _unit_left(m):
    def tr(M):
        a = T.fresh_var("a")
        return _lam2(lambda phi, y: A(A(M, L(a, A(phi, T.Eta(m.functor, V(a))))), y))
    return tr


def _upsilon_left(m):
    def tr(M):
        return _lam2(lambda phi, y: A(A(M, T.Upsilon(m.functor, phi)), y))
    return tr


def _upsilon_right(m):
    def tr(M):
        return _lam2(lambda x, phi: A(A(M, x), T.Upsilon(m.functor, phi)))
    return tr


def _around(wrap):
    """A postfix denotation: ``wrap(m, r)`` around the inner result r."""
    def denote(m):
        def tr(M):
            return _lam2(lambda x, y: wrap(m, A(A(M, x), y)))
        return tr
    return denote


MODE_TERMS = {
    "fwd": lambda m: _lam2(lambda phi, x: A(phi, x)),
    "bwd": lambda m: _lam2(lambda x, phi: A(phi, x)),
    "conj": _pointwise(T.And),
    "disj": _pointwise(T.Or),
    "ml": _fmap_left,
    "mr": _fmap_right,
    "a": _ap_both,
    "ul": _unit_right,
    "ur": _unit_left,
    "el": _upsilon_left,
    "er": _upsilon_right,
    "j": _around(lambda m, r: T.Mu(m.functor, r)),
    "dn": _around(lambda m, r: T.Lower(r)),
    "c": _around(lambda m, r: T.Eps(*m.pair, r)),
}


def denote(m):
    """A base mode's figure term, or a wrapper/postfix mode's term
    transformer."""
    return MODE_TERMS[m.kind](m)


def mode_sequence_term(modes):
    """``T_m1 (... (T_mk-1 T_mk))`` for the modes m1 ... mk: the term of a
    branch before it is applied to its children."""
    term = denote(modes[-1])
    for m in reversed(modes[:-1]):
        term = denote(m)(term)
    return term


def folded_term(reg, d):
    """The derivation's term with each base figure substituted into its
    wrappers' transformers, one fresh transformer term per node."""
    if isinstance(d, Leaf):
        return d.entry.term
    return T.App(T.App(mode_sequence_term(d.modes), folded_term(reg, d.left)),
                 folded_term(reg, d.right))
