"""Unguarded iteration on resumption trees.

A recursive definition f : X -> Trees(Y+X) is guarded when no first layer
exposes a bare recursive variable: every Inr(x) leaf must sit under an
operation node.  A guarded definition has a unique solution, its unfolding
sol(x) = bind(f(x), [unit, sol]).  An arbitrary f is first made guarded by
pre-iterating its first layer inside the base monad, with operation nodes
frozen as opaque atoms, and then unfolded the same way.  The resulting
operator extends base-monad iteration exactly on trees that never use
operations.
"""

from __future__ import annotations

import functools

from .core import Inl, Inr, KleisliFn, case_sum, make_kleisli, render_elem
from .resumption import ResTree, ResumptionMonad, unfold_trees


class UnguardedError(ValueError):
    def __init__(self, variable, leaf):
        self.variable = variable
        self.leaf = leaf
        super().__init__(
            "definition is unguarded: variable %s exposes the bare recursive "
            "leaf %s in its first layer" % (render_elem(variable), render_elem(leaf)))


def bare_recursive_leaf(rm: ResumptionMonad, f: KleisliFn):
    """The first (variable, leaf) whose first layer exposes the bare
    right-summand leaf Inl(Inr(leaf)), or None when f is guarded."""
    for x in f.dom.elements:
        for e in rm.base.elements(rm.out(f(x))):
            if isinstance(e, Inl) and isinstance(e.value, Inr):
                return x, e.value.value
    return None


def guard_transform(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """Make f : X -> Trees(Y+X) guarded without changing its solutions.

    The first layer of f, with operation nodes frozen as atoms, is a
    base-monad definition over X; its least fixpoint removes every bare
    recursive leaf, so the result's layers hold only Inl(Inl y) and
    Inr(node).  The fixpoint runs over a finite effective lattice because
    the frozen nodes are never inspected, only carried along; it is computed
    once, when the first layer of some point is observed.  A point's tree
    is built on its first lookup.  Guarded inputs come back bisimilar to
    themselves.
    """
    base = rm.base

    def pi(e):
        # ((Y+X) + Sigma) -> ((Y + Sigma) + X)
        if isinstance(e, Inr):
            return Inl(Inr(e.value))
        return case_sum(e.value, lambda y: Inl(Inl(y)), Inr)

    @functools.cache
    def pre_iterated() -> KleisliFn:
        return base.iterate(KleisliFn(
            base, f.dom, None,
            {x: base.map(rm.out(f(x)), pi) for x in f.dom.elements}))

    def layer(x):
        return base.map(pre_iterated()(x),
                        lambda e: case_sum(e, lambda y: Inl(Inl(y)), Inr))

    return make_kleisli(rm, f.dom, f.cod,
                        lambda x: ResTree(fn=functools.partial(layer, x)))


class _Solution(unfold_trees):
    """The one lifting t -> bind(t, [k, sol]) behind the solutions k* . sol,
    sol = lift . g of a guarded g.  A leaf Inl(y) becomes k(y)'s first layer,
    or for k None the layer base.unit(Inl(y)) directly; a leaf Inr(x)
    becomes the first layer of sol(x), which the lifting reaches through g
    in its own slot.  No closure refers back to the lifting, so it sits on
    no reference cycle of its own: a finished solve is freed as soon as its
    last tree is, unless the trees themselves form a cycle."""

    __slots__ = ("g", "k")

    def __init__(self, rm: ResumptionMonad, g: KleisliFn, k: KleisliFn | None):
        super().__init__(rm.base, rm.out, None)
        self.g = g
        self.k = k

    def elem(self, e):
        if isinstance(e, Inr):
            return unfold_trees.elem(self, e)
        v = e.value
        if isinstance(v, Inl):
            return self.base.unit(v) if self.k is None else self.k(v.value).out()
        if isinstance(v, Inr):
            return self(self.g(v.value)).out()
        raise TypeError("expected a sum value, got %r" % (v,))


def _unfold(rm: ResumptionMonad, g: KleisliFn, k: KleisliFn | None = None) -> KleisliFn:
    """k* . sol for sol(x) = bind(g(x), [unit, sol]), as lift(g(x)) for one
    shared lifting, so a subtree that several points reach lifts to one tree.
    For a guarded g every recursive call sits under an operation node, so
    the first layer of sol(x) never waits on the first layer of a solution.
    A point's solution is built on its first lookup, by the lifting
    _Solution, which sits on no reference cycle."""
    y_car = g.cod.parts[0] if g.cod is not None and g.cod.kind == "sum" else None
    lift = _Solution(rm, g, k)
    return make_kleisli(rm, g.dom, y_car if k is None else k.cod, lambda x: lift(g(x)))


def solve_guarded(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """The unique solution of a guarded f : X -> Trees(Y+X); raises
    UnguardedError when some first layer exposes a bare recursive leaf."""
    bare = bare_recursive_leaf(rm, f)
    if bare is not None:
        raise UnguardedError(*bare)
    return _unfold(rm, f)


def iterate_res(rm: ResumptionMonad, f: KleisliFn,
                k: KleisliFn | None = None) -> KleisliFn:
    """Iteration of an arbitrary f : X -> Trees(Y+X), the guarded unfolding of
    guard_transform(f), and k* . f-dagger in its one lifting if k is given.
    A point's trees are built on its first lookup and nothing is bound until
    a first layer is observed; the base fixpoint is then shared by every
    point.  Neither table nor the lifting sits on a reference cycle, so a
    finished solve whose trees form no loop is freed by reference counting."""
    if f.cod is not None and f.cod.kind == "sum":
        rec = f.cod.parts[1]
        if rec is not f.dom and rec.elements != f.dom.elements:
            raise ValueError(
                "recursive summand %s does not match the domain %s"
                % (rec.name, f.dom.name))
    return _unfold(rm, guard_transform(rm, f), k)
