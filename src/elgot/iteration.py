"""Unguarded iteration on resumption trees, by one flat-system solver.

A flat system is a step from seeds to first layers over exits Inl(Inl(y)),
bare jumps Inl(Inr(s)) to a seed s, and operation nodes Inr(node) whose
children are seeds.  It is solved as the paper builds unguarded iteration
on trees: pre_iterate takes the least fixpoint of the bare jumps inside the
base monad, with the nodes frozen as opaque results (a first layer with no
bare jump is guarded already, its own solution), and packs a seed's
solution only when that seed is looked up; solve_system unfolds the
guarded result by coit, one tree per seed.  A while program compiled to
labels (Elgot's flowchart schemes), a bsp definition, and iterate_res,
whose seeds are f's points and the subtrees below f's nodes, are all such
systems.  The operator extends base-monad iteration exactly on trees that
never use operations.
"""

from __future__ import annotations

import functools

from .base_monads import propagate
from .core import Inl, Inr, KleisliFn, make_kleisli, render_elem
from .resumption import OpNode, ResTree, ResumptionMonad, unfold_trees


class UnguardedError(ValueError):
    def __init__(self, variable, leaf):
        self.variable = variable
        self.leaf = leaf
        super().__init__(
            "definition is unguarded: variable %s exposes the bare recursive "
            "leaf %s in its first layer" % (render_elem(variable), render_elem(leaf)))


def _walk(base, v):
    """The moves of the step value v as propagate reads them, and whether
    one is a bare jump.  The jump Inl(Inr s) is the point Inr(s), and an
    exit Inl(Inl y) or a node Inr(OpNode) is the result Inl(e) of itself.
    Each step element is classified here, when its step is taken: one that
    is no exit, jump or node raises TypeError."""
    walk, jumps = [], False
    for s, e, s2 in base.moves(v):
        if isinstance(e, Inl) and isinstance(e.value, Inr):
            jumps = True
            walk.append((s, e.value, s2))
        elif isinstance(e, Inl) and isinstance(e.value, Inl) \
                or isinstance(e, Inr) and isinstance(e.value, OpNode):
            walk.append((s, Inl(e), s2))
        else:
            raise TypeError("not an exit, a bare jump or a node: %r" % (e,))
    return walk, jumps


class _Walked:
    """What propagate reads of pre_iterate's points: a point's step_at
    value is the list of its moves, already classified by _walk, so no
    step is mapped into propagate's shape."""

    @staticmethod
    def moves(walk):
        return walk


def pre_iterate(base, step):
    """The call seed -> the least fixpoint of step's bare jumps at seed, a
    base-monad value of the step's own shape: exits Inl(Inl y) and frozen
    nodes Inr(node).

    Each seed's step is taken once, and its elements are classified then.
    A step with no bare jump is kept as its seed's solution, as it is; a
    step that jumps is kept only as its _walk list.  The first seed looked
    up that jumps and has no table yet runs propagate from itself over
    those lists, and every point the run expands and that is not solved
    keeps the run's table: a point is packed from it when it is itself
    first looked up, so a point that is never looked up is never packed.
    A run's table holds the least fixpoint at every point it expands, and
    a later run walks a point again, so what is computed does not depend
    on the order in which seeds are observed."""
    walked, solved, runs = {}, {}, {}

    def taken(seed):
        v = step(seed)
        walk, jumps = _walk(base, v)
        if jumps:
            walked[seed] = walk
        else:
            solved[seed] = v
        return walk

    def moves(seed):
        walk = walked.get(seed)
        if walk is None:
            # a solved point that no run has walked is its own jump-free step
            v = solved.get(seed)
            walk = walked[seed] = taken(seed) if v is None else _walk(base, v)[0]
        return walk

    def at(seed):
        v = solved.get(seed)
        if v is None:
            if seed not in runs:
                if seed not in walked:
                    taken(seed)
                    v = solved.get(seed)
                    if v is not None:
                        return v
                first, _stable, points = propagate(_Walked, (seed,), moves)
                for p in points:
                    if p not in solved:
                        runs[p] = first
            v = solved[seed] = base.pack(runs.pop(seed), seed)
        return v

    return at


def solve_system(rm: ResumptionMonad, step) -> unfold_trees:
    """The call seed -> its tree in the solution of the flat system step,
    built on its first lookup; its layer is the pre_iterate table, whose
    exit Inl(Inl y) is the leaf base.unit(Inl y)."""
    base = rm.base
    return unfold_trees(base, pre_iterate(base, step), base.unit)


def bare_recursive_leaf(rm: ResumptionMonad, f: KleisliFn):
    """The first (variable, leaf) whose first layer exposes the bare
    right-summand leaf Inl(Inr(leaf)), or None when f is guarded."""
    for x in f.dom.elements:
        for e in rm.base.elements(rm.out(f(x))):
            if isinstance(e, Inl) and isinstance(e.value, Inr):
                return x, e.value.value
    return None


def guard_transform(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """Make f : X -> Trees(Y+X) guarded without changing its solutions:
    pre_iterate over f's points alone, with f's own nodes frozen, so the
    layers hold only Inl(Inl y) and Inr(node).  A point's tree is built on
    its first lookup, and its layer is its pre_iterate entry, taken when
    first observed.  Guarded inputs come back with their own layers."""
    pre = pre_iterate(rm.base, lambda x: f(x).out())
    return make_kleisli(rm, f.dom, f.cod,
                        lambda x: ResTree(fn=functools.partial(pre, x)))


def solve_guarded(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """The unique solution of a guarded f : X -> Trees(Y+X); raises
    UnguardedError when some first layer exposes a bare recursive leaf."""
    bare = bare_recursive_leaf(rm, f)
    if bare is not None:
        raise UnguardedError(*bare)
    return iterate_res(rm, f)


def iterate_res(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """Iteration of an arbitrary f : X -> Trees(Y+X), the flat system whose
    seeds are f's points and the subtrees below f's nodes, each stepped by
    its tree's first layer.  Nothing is bound until a first layer is
    observed, and no table sits on a reference cycle, so a finished solve
    whose trees form no loop is freed by reference counting."""
    y_car = None
    if f.cod is not None and f.cod.kind == "sum":
        y_car, rec = f.cod.parts
        if rec is not f.dom and rec.elements != f.dom.elements:
            raise ValueError(
                "recursive summand %s does not match the domain %s"
                % (rec.name, f.dom.name))

    def step(seed):
        return (seed if isinstance(seed, ResTree) else f(seed)).out()

    return make_kleisli(rm, f.dom, y_car, solve_system(rm, step))
