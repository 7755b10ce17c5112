"""Evaluation of resumption trees into a target iteration monad.

Given a monad morphism sigma from the base into the target and a generic
effect for every signature operation, a tree is consumed one layer per step:
leaves pass through, operation nodes are replaced by their generic effect
returning the child trees.  Iterating that step from bottom over the nodes reached
is the Kleene chain of base iteration (`base_monads.approximants`); on trees
whose reachable node set is finite the chain stabilizes and the result is exact.
Each round re-evaluates only the nodes just reached, the nodes whose value
moved in the last round and the nodes with a child that moved; every other
node keeps its value, so the approximants are those of re-evaluating all.
Unfolding (coit), lifting (bind, map, strength) and the guarded solver build
one tree per seed, so a tree built from finitely many seeds, such as the
denotation of a while program, reaches finitely many nodes and converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .base_monads import approximants
from .core import ElgotMonad, Inl, Inr, KleisliFn, render_elem
from .resumption import ResTree, ResumptionMonad


class InterpretationError(ValueError):
    """An operation the interpretation cannot handle."""


@dataclass
class MonadMorphism:
    """A natural family of maps between two monads' values.

    component must be element-agnostic: it may rearrange the effect
    structure but never inspect result elements.
    """

    name: str
    source: ElgotMonad
    target: ElgotMonad
    component: Callable


def identity_morphism(m: ElgotMonad) -> MonadMorphism:
    return MonadMorphism("identity", m, m, lambda v: v)


def maybe_to_finset(source, target) -> MonadMorphism:
    from .base_monads import NOTHING, finset
    def comp(v):
        return finset(() if v is NOTHING else (v.value,))
    return MonadMorphism("maybe-to-finset", source, target, comp)


def finset_to_nondetstate(source, target) -> MonadMorphism:
    from .core import Pair
    from .base_monads import finset
    def comp(v):
        return target._value(lambda s: finset(Pair(x, s) for x in v.elems))
    return MonadMorphism("finset-to-nondetstate", source, target, comp)


def maybe_to_nondetstate(source, target) -> MonadMorphism:
    from .core import Pair
    from .base_monads import NOTHING, finset
    def comp(v):
        elems = () if v is NOTHING else (v.value,)
        return target._value(lambda s: finset(Pair(x, s) for x in elems))
    return MonadMorphism("maybe-to-nondetstate", source, target, comp)


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


@dataclass
class HandleResult:
    value: Any
    converged: bool
    rounds: int


def handle(rm: ResumptionMonad, t: ResTree, sigma: MonadMorphism,
           upsilon: EffectInterpretation, fuel: int) -> HandleResult:
    """The fuel-th approximant of evaluating t, with convergence detection.

    Approximants start at bottom and apply one handling step per round;
    convergence is exact equality on the set of nodes actually reached, so
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
    chain = approximants(S, (t,), lambda tree: zeta(rm, tree, sigma, upsilon))
    value = S.bottom()
    for rounds, (table, stable) in enumerate(chain, 1):
        if rounds > fuel:
            # one probe round, not returned: converged means the next
            # approximant agrees with this one on every reached node
            return HandleResult(value, stable, fuel)
        value = table[t]
        if stable:
            return HandleResult(value, True, rounds)


# ---------------------------------------------------------------------------
# Universality checks
# ---------------------------------------------------------------------------

@dataclass
class TriangleReport:
    checked: int = 0
    skips: dict = field(default_factory=dict)      # law -> skipped samples
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def skipped(self) -> int:
        return sum(self.skips.values())

    def note(self, law: str, witness: str):
        self.failures.append((law, witness))

    def skip(self, law: str):
        self.skips[law] = self.skips.get(law, 0) + 1


def check_universal_triangles(rm: ResumptionMonad, sigma: MonadMorphism,
                              upsilon: EffectInterpretation, *,
                              base_values: Iterable = (),
                              op_samples: Iterable = (),
                              bind_samples: Iterable = (),
                              iter_samples: Iterable = (),
                              fuel: int = 10) -> TriangleReport:
    """Check that handling extends sigma, interprets ops by upsilon, and is a
    morphism for Kleisli lifting and iteration on converged samples."""
    S = sigma.target
    rep = TriangleReport()

    def evaluate(t: ResTree) -> Optional[Any]:
        r = handle(rm, t, sigma, upsilon, fuel)
        return r.value if r.converged else None

    for m in base_values:
        rep.checked += 1
        got = evaluate(rm.ext(m))
        want = sigma.component(m)
        if got is None or not S.equal(got, want):
            rep.note("handle.ext", "%s handled to %s, sigma gives %s" %
                     (rm.base.render(m), "divergence" if got is None else S.render(got),
                      S.render(want)))

    for (op, param, k) in op_samples:
        rep.checked += 1
        got = evaluate(rm.iota(op, param, k))
        u = upsilon.effect(op)
        want = S.map(u(param), lambda a: k[a])
        if got is None or not S.equal(got, want):
            rep.note("handle.iota", "op %s(%s) handled to %s, want %s" %
                     (op, render_elem(param),
                      "divergence" if got is None else S.render(got), S.render(want)))

    for (t, f) in bind_samples:
        rep.checked += 1
        lhs = evaluate(rm.bind(t, f))
        handled_f = {x: evaluate(f(x)) for x in f.dom.elements}
        rhs_t = evaluate(t)
        if lhs is None or rhs_t is None or any(v is None for v in handled_f.values()):
            rep.skip("handle.kleisli")
            continue
        rhs = S.bind(rhs_t, lambda x: handled_f[x])
        if not S.equal(lhs, rhs):
            rep.note("handle.kleisli", "lifting law failed: %s vs %s" %
                     (S.render(lhs), S.render(rhs)))

    for g in iter_samples:
        handled_g = {x: evaluate(g(x)) for x in g.dom.elements}
        converged = all(v is not None for v in handled_g.values())
        if converged:
            lhs = S.iterate(KleisliFn(S, g.dom, g.cod, handled_g))
            g_dag = rm.iterate(g)
        # the iteration law is checked at every point of the domain
        for x in g.dom.elements:
            rep.checked += 1
            rhs = evaluate(g_dag(x)) if converged else None
            if rhs is None:
                rep.skip("handle.iteration")
                continue
            if not S.equal(lhs(x), rhs):
                rep.note("handle.iteration", "at %s: %s vs %s" %
                         (render_elem(x), S.render(lhs(x)), S.render(rhs)))

    return rep
