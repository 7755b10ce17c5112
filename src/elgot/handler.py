"""Evaluation of resumption trees into a target iteration monad.

Given a monad morphism sigma from the base into the target and a generic
effect for every signature operation, a tree is consumed one layer per step:
leaves pass through, operation nodes are replaced by their generic effect
returning the child trees.  Iterating that step from bottom over the nodes
reached is the Kleene chain `base_monads.approximants`; fuel counts its
rounds, and on trees whose reachable node set is finite the chain stabilizes
and the result is exact.  The chain is handle's specification, not its
engine: handle takes the fuel-th table from base_monads.propagate, the
engine that solves base iteration too, and the tests check it against the
chain.
Unfolding (coit), lifting (bind, map, strength) and the guarded solver build
one tree per seed, so a tree built from finitely many seeds, such as the
denotation of a while program, reaches finitely many nodes and converges.

Handling is the unique morphism extending sigma and upsilon, so the monad
morphism laws are written once here, for a possibly partial morphism, and
the handler's Kleisli and iteration triangles are those laws applied to the
evaluator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .base_monads import propagate
from .core import (SKIP, ElgotMonad, Inl, Inr, KleisliFn, LawResult,
                   SuiteReport, render_elem)
from .resumption import ResTree, ResumptionMonad


class InterpretationError(ValueError):
    """An operation the interpretation cannot handle."""


class MonadMorphism:
    """A natural family of maps between two monads' values.

    component must be element-agnostic: it may rearrange the effect
    structure but never inspect result elements.  A partial morphism's
    component gives None where it has no value.
    """

    __slots__ = ("name", "source", "target", "component")

    def __init__(self, name: str, source: ElgotMonad, target: ElgotMonad,
                 component: Callable):
        self.name = name
        self.source = source
        self.target = target
        self.component = component


def identity_morphism(m: ElgotMonad) -> MonadMorphism:
    return MonadMorphism("identity", m, m, lambda v: v)


def _choice_morphism(name: str, source, target) -> MonadMorphism:
    """The morphism that keeps a value's results and forgets its effect:
    the target value returning each element of the source value."""
    return MonadMorphism(name, source, target,
                         lambda v: target.choice(source.elements(v)))


def maybe_to_finset(source, target) -> MonadMorphism:
    return _choice_morphism("maybe-to-finset", source, target)


def finset_to_nondetstate(source, target) -> MonadMorphism:
    return _choice_morphism("finset-to-nondetstate", source, target)


def maybe_to_nondetstate(source, target) -> MonadMorphism:
    return _choice_morphism("maybe-to-nondetstate", source, target)


class EffectInterpretation:
    """Generic effects u_op : param -> S(arity) for every signature op."""

    def __init__(self, sig, target: ElgotMonad, effects: dict):
        self.sig = sig
        self.target = target
        self.effects = effects
        for op in sig.ops:
            u = effects.get(op.name)
            if u is None:
                raise InterpretationError("no generic effect for operation %s" % op.name)
            if u.dom.elements != op.param.elements:
                raise InterpretationError(
                    "generic effect for %s is defined on %s, expected the "
                    "parameter carrier %s" % (op.name, u.dom.name, op.param.name))
            for p in u.dom.elements:
                for a in target.elements(u(p)):
                    if a not in op.arity.elements:
                        raise InterpretationError(
                            "generic effect for %s yields %s outside its arity "
                            "carrier %s" % (op.name, render_elem(a), op.arity.name))

    def effect(self, op_name: str) -> KleisliFn:
        u = self.effects.get(op_name)
        if u is None:
            raise InterpretationError("unknown operation %s" % op_name)
        return u


def zeta(rm: ResumptionMonad, t: ResTree, sigma: MonadMorphism,
         upsilon: EffectInterpretation):
    """One handling step: a target value over (result + remaining tree)."""
    S = sigma.target
    v = sigma.component(rm.out(t))

    def elem(e):
        if isinstance(e, Inl):
            return S.unit(Inl(e.value))
        node = e.value
        u = upsilon.effect(node.op)
        def to_child(a):
            try:
                return Inr(node.child(a))
            except KeyError:
                raise InterpretationError(
                    "operation %s has no child at %s" % (node.op, render_elem(a)))
        return S.map(u(node.param), to_child)

    return S.bind(v, elem)


class HandleResult:
    __slots__ = ("value", "converged", "rounds", "reached")

    def __init__(self, value: object, converged: bool, rounds: int, reached: int):
        self.value = value
        self.converged = converged
        self.rounds = rounds
        self.reached = reached     # the nodes expanded, each by one handling step


def handle(rm: ResumptionMonad, t: ResTree, sigma: MonadMorphism,
           upsilon: EffectInterpretation, fuel: int) -> HandleResult:
    """The fuel-th approximant of evaluating t, with convergence detection:
    the fuel-th table at t of the Kleene chain `approximants` of zeta from
    t, computed by `propagate`, which expands only the nodes within
    fuel + 1 of t and runs zeta once per node.

    Fuel lags behind depth: a node at distance d is first valued in round
    max(d, 1), and one more round passes per edge on the way back up (n
    operations over a leaf show its result at fuel 2n and converge in round
    2n + 1).  Convergence is exact equality on the set of nodes reached, so
    a converged result is the final value, and an unconverged one is a
    sound under-approximation in the target's order.
    """
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    S = sigma.target
    if S is not upsilon.target:
        raise InterpretationError("morphism and effects target different monads")
    if not S.has_bottom:
        raise InterpretationError(
            "target %s has no bottom; approximants need one" % S.name)
    first, stable, expanded = propagate(
        S, (t,), lambda p: zeta(rm, p, sigma, upsilon), fuel)
    rounds = fuel if stable is None else min(stable, fuel)
    value = S.pack({pos: [r for r, k in got.items() if k <= rounds]
                    for pos, got in first.items() if pos[0] is t}, t)
    return HandleResult(value, stable is not None, rounds, len(expanded))


# ---------------------------------------------------------------------------
# Morphism laws.  Each checks a possibly partial morphism on one sample: the
# component may give None (no value), and a sample that leaves nothing to
# compare is SKIP.  Otherwise the outcome is None, or a witness on failure.
# ---------------------------------------------------------------------------

def morphism_unit(mor: MonadMorphism, x):
    """h(unit x) = unit x."""
    T = mor.target
    lhs = mor.component(mor.source.unit(x))
    if lhs is None:
        return SKIP
    if not T.equal(lhs, T.unit(x)):
        return "unit at %s: %s" % (render_elem(x), T.render(lhs))


def morphism_kleisli(mor: MonadMorphism, v, f: KleisliFn):
    """h(v >>= f) = h(v) >>= h . f."""
    T = mor.target
    hv = mor.component(v)
    lhs = mor.component(mor.source.bind(v, f))
    hf = {x: mor.component(f(x)) for x in f.dom.elements}
    if hv is None or lhs is None or any(h is None for h in hf.values()):
        return SKIP
    rhs = T.bind(hv, lambda x: hf[x])
    if not T.equal(lhs, rhs):
        return "lifting: %s vs %s" % (T.render(lhs), T.render(rhs))


def morphism_strength(mor: MonadMorphism, c, v):
    """h(strength(c, v)) = strength(c, h v)."""
    T = mor.target
    hv = mor.component(v)
    lhs = mor.component(mor.source.strength(c, v))
    if hv is None or lhs is None:
        return SKIP
    rhs = T.strength(c, hv)
    if not T.equal(lhs, rhs):
        return "strength: %s vs %s" % (T.render(lhs), T.render(rhs))


def morphism_iteration(mor: MonadMorphism, g: KleisliFn):
    """h . g-dagger = (h . g)-dagger, at every point where h gives a value."""
    T = mor.target
    hg = {x: mor.component(g(x)) for x in g.dom.elements}
    if any(h is None for h in hg.values()):
        return SKIP
    rhs = T.iterate(KleisliFn(T, g.dom, g.cod, hg))
    gd = mor.source.iterate(g)
    compared = 0
    for x in g.dom.elements:
        lhs = mor.component(gd(x))
        if lhs is None:
            continue
        compared += 1
        if not T.equal(lhs, rhs(x)):
            return "iteration at %s: %s vs %s" % (render_elem(x), T.render(lhs),
                                                  T.render(rhs(x)))
    return None if compared else SKIP


# ---------------------------------------------------------------------------
# Universality checks
# ---------------------------------------------------------------------------

def check_universal_triangles(rm: ResumptionMonad, sigma: MonadMorphism,
                              upsilon: EffectInterpretation, *,
                              base_values: Iterable = (),
                              op_samples: Iterable = (),
                              bind_samples: Iterable = (),
                              iter_samples: Iterable = (),
                              fuel: int = 10) -> SuiteReport:
    """Check that handling extends sigma, interprets ops by upsilon, and is a
    morphism for Kleisli lifting and iteration.

    The last two are the morphism laws on the evaluator that gives a handled
    tree's value when it converges within fuel and no value otherwise, so an
    unconverged sample is counted as skipped.  An unconverged ext or iota
    sample is a failure: those trees are finite.
    """
    S = sigma.target

    def evaluate(t: ResTree) -> object:
        r = handle(rm, t, sigma, upsilon, fuel)
        return r.value if r.converged else None

    def ext(m):
        got = evaluate(rm.ext(m))
        want = sigma.component(m)
        if got is None or not S.equal(got, want):
            return "%s handled to %s, sigma gives %s" % (
                rm.base.render(m), "divergence" if got is None else S.render(got),
                S.render(want))

    def iota(sample):
        op, param, k = sample
        got = evaluate(rm.iota(op, param, k))
        want = S.map(upsilon.effect(op)(param), lambda a: k[a])
        if got is None or not S.equal(got, want):
            return "op %s(%s) handled to %s, want %s" % (
                op, render_elem(param),
                "divergence" if got is None else S.render(got), S.render(want))

    xi = MonadMorphism("handle", rm, S, evaluate)
    report = SuiteReport("handler into %s" % S.name)
    for law, check, samples in (
            ("handle.ext", ext, base_values),
            ("handle.iota", iota, op_samples),
            ("handle.kleisli", lambda s: morphism_kleisli(xi, *s), bind_samples),
            ("handle.iteration", lambda g: morphism_iteration(xi, g), iter_samples)):
        res = LawResult(law)
        for sample in samples:
            res.note(check, sample)
        report.results.append(res)
    return report
