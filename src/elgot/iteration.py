"""Unguarded iteration on resumption trees.

A recursive definition f : X -> Trees(Y+X) is guarded when no first layer
exposes a bare recursive variable: every Inr(x) leaf must sit under an
operation node.  Guarded definitions have unique corecursive solutions; an
arbitrary f is first made guarded by pre-iterating its first layer inside
the base monad, with operation nodes frozen as opaque atoms, and then
solved.  The resulting operator extends base-monad iteration exactly on
trees that never use operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .core import Inl, Inr, KleisliFn, case_sum, render_elem
from .resumption import ResumptionMonad, memo_trees


class UnguardedError(ValueError):
    def __init__(self, variable, leaf):
        self.variable = variable
        self.leaf = leaf
        super().__init__(
            "definition is unguarded: variable %s exposes the bare recursive "
            "leaf %s in its first layer" % (render_elem(variable), render_elem(leaf)))


@dataclass
class GuardednessWitness:
    guarded: bool
    factor: Optional[dict]      # x -> base value over Y + Sigma Trees(Y+Z)
    variable: Any = None        # first offending variable, when unguarded
    leaf: Any = None            # the bare right-summand leaf it exposes


def bare_recursive_leaf(rm: ResumptionMonad, f: KleisliFn):
    """The first (variable, leaf) whose first layer exposes the bare
    right-summand leaf Inl(Inr(leaf)), or None when f is guarded."""
    for x in f.dom.elements:
        for e in rm.base.elements(rm.out(f(x))):
            if isinstance(e, Inl) and isinstance(e.value, Inr):
                return x, e.value.value
    return None


def check_guarded(rm: ResumptionMonad, f: KleisliFn) -> GuardednessWitness:
    """Decide guardedness of f : X -> Trees(Y+Z) by inspecting first layers.

    When guarded, the factorization witness u is obtained by retagging
    left-summand leaves; T(inl+id) . u recovers out . f exactly.
    """
    bare = bare_recursive_leaf(rm, f)
    if bare is not None:
        return GuardednessWitness(False, None, *bare)
    base = rm.base
    factor = {}
    for x in f.dom.elements:
        factor[x] = base.map(rm.out(f(x)), lambda e: case_sum(
            e, lambda yz: Inl(yz.value), lambda node: Inr(node)))
    return GuardednessWitness(True, factor)


def guard_transform(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """Make f : X -> Trees(Y+X) guarded without changing its solutions.

    The first layer of f, with operation nodes frozen as atoms, is a
    base-monad definition over X; its least fixpoint removes every bare
    recursive leaf.  The fixpoint runs over a finite effective lattice
    because the frozen nodes are never inspected, only carried along.
    Guarded inputs come back bisimilar to themselves.
    """
    base = rm.base
    cache = {}

    def pre_iterated():
        if "dag" not in cache:
            def pi(e):
                # ((Y+X) + Sigma) -> ((Y + Sigma) + X)
                if isinstance(e, Inr):
                    return Inl(Inr(e.value))
                return case_sum(e.value,
                                lambda y: Inl(Inl(y)),
                                lambda x: Inr(x))
            w = KleisliFn(base, f.dom, None,
                          {x: base.map(rm.out(f(x)), pi) for x in f.dom.elements})
            cache["dag"] = base.iterate(w)
        return cache["dag"]

    def transformed(x):
        return rm.tree_lazy(lambda: base.map(
            pre_iterated()(x),
            lambda e: case_sum(e, lambda y: Inl(Inl(y)), lambda node: Inr(node))))

    return KleisliFn(rm, f.dom, f.cod, {x: transformed(x) for x in f.dom.elements})


def solve_guarded(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """The unique solution of a guarded f : X -> Trees(Y+X).

    The solution is the unfolding equation read as a definition:
    sol(x) = bind(f(x), [unit, sol]), one memoised tree per variable.
    Guardedness puts every recursive call under an operation node, so the
    first layer of sol(x) never waits on the first layer of a solution.
    """
    bare = bare_recursive_leaf(rm, f)
    if bare is not None:
        raise UnguardedError(*bare)
    y_car = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None

    def glue(e):
        return case_sum(e, rm.unit, sol)

    sol = memo_trees(lambda x: rm.out(rm.bind(f(x), glue)))
    return KleisliFn(rm, f.dom, y_car, {x: sol(x) for x in f.dom.elements})


def iterate_res(rm: ResumptionMonad, f: KleisliFn) -> KleisliFn:
    """Iteration of an arbitrary f : X -> Trees(Y+X).

    Equals solve_guarded(guard_transform(f)); the per-layer base fixpoint is
    computed on first demand, when some node of the result is observed, and
    shared by every layer of the solution.
    """
    if f.cod is not None and f.cod.kind == "sum":
        if f.cod.parts[1].elements != f.dom.elements:
            raise ValueError(
                "recursive summand %s does not match the domain %s"
                % (f.cod.parts[1].name, f.dom.name))
    y_car = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None
    cache = {}

    def solved() -> KleisliFn:
        if "sol" not in cache:
            cache["sol"] = solve_guarded(rm, guard_transform(rm, f))
        return cache["sol"]

    table = {x: rm.tree_lazy(lambda x=x: rm.out(solved()(x)))
             for x in f.dom.elements}
    return KleisliFn(rm, f.dom, y_car, table)
