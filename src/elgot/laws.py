"""Random finite carriers, Kleisli morphisms and trees, plus reusable suites
for every identity the package is expected to satisfy.

All generation is driven by one seeded random stream, so a fixed seed and
configuration reproduce the exact sample sequence.  Counterexamples are
rendered in the canonical truncation format so they can be pasted into
regression tests.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable

from .base_monads import _KleeneMonad, kleene_iterate
from .core import (SKIP, ElgotMonad, Inl, Inr, KleisliFn, LawResult, Pair, Carrier,
                   SuiteReport, carrier, sum_carrier, prod_carrier, case_sum,
                   dist_elem, compose_kleisli, copair, kleisli_unit,
                   make_kleisli, map_kleisli, render_elem)
from .handler import (EffectInterpretation, MonadMorphism,
                      check_universal_triangles, handle, morphism_iteration,
                      morphism_kleisli, morphism_strength, morphism_unit)
from .iteration import guard_transform, solve_guarded
from .resumption import OpNode, ResumptionMonad, TCUT, TLeaf, TOp


class GenConfig:
    __slots__ = ("seed", "max_carrier", "branch", "node_budget", "depth", "samples")

    def __init__(self, seed: int = 42, max_carrier: int = 3, branch: int = 2,
                 node_budget: int = 15, depth: int = 6, samples: int = 100):
        self.seed = seed
        self.max_carrier = max_carrier
        self.branch = branch
        self.node_budget = node_budget
        self.depth = depth
        self.samples = samples

    def replace(self, **changes) -> "GenConfig":
        """A copy with the named fields changed."""
        return GenConfig(**{**{f: getattr(self, f) for f in self.__slots__}, **changes})


# Carriers never change, and the law checks draw theirs from a small family:
# one atom carrier per (prefix, size), and sums and products of those.  Each
# is built once and shared by every sample, so compositions over one
# carrier find it by identity.  The memos live here, not in core, so they
# are bounded and hold only what the law checks build, never a user's input.

@functools.lru_cache(maxsize=64)
def _atoms(prefix: str, size: int) -> Carrier:
    return carrier(prefix, tuple("%s%d" % (prefix, i) for i in range(size)))


sum_carrier = functools.lru_cache(maxsize=256)(sum_carrier)
prod_carrier = functools.lru_cache(maxsize=64)(prod_carrier)


class Gen:
    """Deterministic sample stream for one suite run."""

    def __init__(self, config: GenConfig):
        self.cfg = config
        self.rng = random.Random(config.seed)

    def carrier(self, prefix: str, size: int | None = None) -> Carrier:
        """The carrier prefix0 .. prefix(n-1), one object per (prefix, n)."""
        return _atoms(prefix, size or self.rng.randint(1, self.cfg.max_carrier))

    def elem(self, car: Carrier):
        return self.rng.choice(car.elements)

    def pure_fn(self, dom: Carrier, cod: Carrier) -> dict:
        return {x: self.elem(cod) for x in dom.elements}

    def injection(self, dom: Carrier, cod: Carrier) -> dict:
        image = self.rng.sample(cod.elements, len(dom.elements))
        return dict(zip(dom.elements, image))

    def value(self, inst: ElgotMonad, cod: Carrier):
        """A random value of inst over cod; a tree on a resumption monad."""
        if isinstance(inst, ResumptionMonad):
            return self.tree(inst, cod)
        return inst.sample_value(self.rng, lambda: self.elem(cod), self.cfg.branch)

    def kleisli(self, inst, dom: Carrier, cod: Carrier) -> KleisliFn:
        return KleisliFn(inst, dom, cod, {x: self.value(inst, cod) for x in dom.elements})

    def tree(self, rm: ResumptionMonad, cod: Carrier,
             guard_first_layer: bool = False):
        """A finite random tree prefix within the node budget."""
        budget = [self.cfg.node_budget]

        def gen(first=False):
            budget[0] -= 1
            if budget[0] <= 0:
                return rm.unit(self.elem(cod))

            def gen_elem():
                if budget[0] > 1 and self.rng.random() < 0.5:
                    return op_elem()
                x = self.elem(cod)
                if first and guard_first_layer and isinstance(x, Inr):
                    return op_elem()
                return Inl(x)

            def op_elem():
                op = self.rng.choice(rm.sig.ops)
                kids = tuple((a, gen()) for a in op.arity.elements)
                return Inr(OpNode(op.name, self.elem(op.param), kids))

            return rm.out_inv(rm.base.sample_value(self.rng, gen_elem, self.cfg.branch))

        return gen(first=True)

    def guarded_kleisli(self, rm: ResumptionMonad, dom: Carrier, cod: Carrier) -> KleisliFn:
        """f : X -> Trees(Y+X) with no bare recursive leaf in any first layer."""
        return KleisliFn(rm, dom, cod,
                         {x: self.tree(rm, cod, guard_first_layer=True)
                          for x in dom.elements})

    def effect_interpretation(self, sig, target: ElgotMonad) -> EffectInterpretation:
        effects = {op.name: self.kleisli(target, op.param, op.arity)
                   for op in sig.ops}
        return EffectInterpretation(sig, target, effects)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _first_mismatch(inst, f: KleisliFn, g: KleisliFn) -> str | None:
    for x in f.dom.elements:
        if not inst.equal(f(x), g(x)):
            return "at %s: %s vs %s" % (render_elem(x),
                                        inst.render(f(x)), inst.render(g(x)))
    return None


def _eta_into(inst, part: Carrier, cod: Carrier, tag) -> KleisliFn:
    return make_kleisli(inst, part, cod, lambda v: inst.unit(tag(v)))


# ---------------------------------------------------------------------------
# Law checkers.  Each draws its own sample from the generator and returns a
# witness string on failure.
# ---------------------------------------------------------------------------

def law_monad_left_unit(gen: Gen, inst):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.kleisli(inst, x_car, y_car)
    x = gen.elem(x_car)
    lhs = inst.bind(inst.unit(x), f)
    if not inst.equal(lhs, f(x)):
        return "bind(unit %s, f) = %s but f(%s) = %s" % (
            render_elem(x), inst.render(lhs), render_elem(x), inst.render(f(x)))


def law_monad_right_unit(gen: Gen, inst):
    x_car = gen.carrier("x")
    v = gen.value(inst, x_car)
    lhs = inst.bind(v, inst.unit)
    if not inst.equal(lhs, v):
        return "bind(v, unit) = %s, v = %s" % (inst.render(lhs), inst.render(v))


def law_monad_assoc(gen: Gen, inst):
    x_car, y_car, z_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("z")
    f = gen.kleisli(inst, x_car, y_car)
    g = gen.kleisli(inst, y_car, z_car)
    v = gen.value(inst, x_car)
    lhs = inst.bind(inst.bind(v, f), g)
    rhs = inst.bind(v, lambda x: inst.bind(f(x), g))
    if not inst.equal(lhs, rhs):
        return "associativity: %s vs %s" % (inst.render(lhs), inst.render(rhs))


def law_str1(gen: Gen, inst):
    x_car, c_car = gen.carrier("x"), gen.carrier("c")
    v = gen.value(inst, x_car)
    c = gen.elem(c_car)
    lhs = inst.map(inst.strength(c, v), lambda p: p.snd)
    if not inst.equal(lhs, v):
        return "snd . strength: %s vs %s" % (inst.render(lhs), inst.render(v))


def law_str2(gen: Gen, inst):
    x_car = gen.carrier("x")
    c1, c2 = gen.elem(gen.carrier("c")), gen.elem(gen.carrier("b"))
    v = gen.value(inst, x_car)
    lhs = inst.map(inst.strength(Pair(c1, c2), v),
                   lambda p: Pair(p.fst.fst, Pair(p.fst.snd, p.snd)))
    rhs = inst.strength(c1, inst.strength(c2, v))
    if not inst.equal(lhs, rhs):
        return "assoc . strength: %s vs %s" % (inst.render(lhs), inst.render(rhs))


def law_str3(gen: Gen, inst):
    x_car, c_car = gen.carrier("x"), gen.carrier("c")
    x, c = gen.elem(x_car), gen.elem(c_car)
    lhs = inst.strength(c, inst.unit(x))
    rhs = inst.unit(Pair(c, x))
    if not inst.equal(lhs, rhs):
        return "strength on unit: %s vs %s" % (inst.render(lhs), inst.render(rhs))


def law_str4(gen: Gen, inst):
    x_car, y_car, c_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("c")
    f = gen.kleisli(inst, x_car, y_car)
    v = gen.value(inst, x_car)
    c = gen.elem(c_car)
    lhs = inst.bind(inst.strength(c, v), lambda p: inst.strength(p.fst, f(p.snd)))
    rhs = inst.strength(c, inst.bind(v, f))
    if not inst.equal(lhs, rhs):
        return "strength vs lifting: %s vs %s" % (inst.render(lhs), inst.render(rhs))


def law_unfolding(gen: Gen, inst):
    """The unfolding equation, and on the Kleene instances leastness too:
    the equation alone holds for every fixpoint, so the solution is also
    compared with the Kleene chain's."""
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.kleisli(inst, x_car, sum_carrier(y_car, x_car))
    fd = inst.iterate(f)
    lhs = compose_kleisli(copair(kleisli_unit(inst, y_car), fd), f)
    witness = _first_mismatch(inst, lhs, fd)
    if witness is None and isinstance(inst, _KleeneMonad):
        witness = _first_mismatch(inst, fd, kleene_iterate(f))
    return witness


def law_naturality(gen: Gen, inst):
    x_car, y_car, z_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("z")
    f = gen.kleisli(inst, x_car, sum_carrier(y_car, x_car))
    g = gen.kleisli(inst, y_car, z_car)
    lhs = compose_kleisli(g, inst.iterate(f))
    zx = sum_carrier(z_car, x_car)
    retagged = copair(map_kleisli(g, zx, Inl), _eta_into(inst, x_car, zx, Inr))
    rhs = inst.iterate(compose_kleisli(retagged, f))
    return _first_mismatch(inst, lhs, rhs)


def law_dinaturality(gen: Gen, inst):
    x_car, y_car, z_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("z")
    g = gen.kleisli(inst, x_car, sum_carrier(y_car, z_car))
    h = gen.kleisli(inst, z_car, sum_carrier(y_car, x_car))
    eta_inl_x = _eta_into(inst, y_car, sum_carrier(y_car, x_car), Inl)
    eta_inl_z = _eta_into(inst, y_car, sum_carrier(y_car, z_car), Inl)
    s = compose_kleisli(copair(eta_inl_x, h), g)
    t = compose_kleisli(copair(eta_inl_z, g), h)
    lhs = inst.iterate(s)
    rhs = compose_kleisli(copair(kleisli_unit(inst, y_car), inst.iterate(t)), g)
    return _first_mismatch(inst, lhs, rhs)


def law_codiagonal(gen: Gen, inst):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    yx = sum_carrier(y_car, x_car)
    g = gen.kleisli(inst, x_car, sum_carrier(yx, x_car))
    collapsed = map_kleisli(g, yx, lambda e: case_sum(e, lambda yx_: yx_, Inr))
    lhs = inst.iterate(collapsed)
    rhs = inst.iterate(inst.iterate(g))
    return _first_mismatch(inst, lhs, rhs)


def law_uniformity(gen: Gen, inst):
    """Two sample families: injective h with g free on Z, and arbitrary h
    with g factored through it; both satisfy the premise by construction."""
    y_car = gen.carrier("y")
    x_car = gen.carrier("x")
    if gen.rng.random() < 0.5:
        z_car = gen.carrier("z", gen.rng.randint(1, len(x_car.elements)))
        h = gen.injection(z_car, x_car)
        g = gen.kleisli(inst, z_car, sum_carrier(y_car, z_car))
        f_free = gen.kleisli(inst, x_car, sum_carrier(y_car, x_car))
        image = {h[z]: z for z in z_car.elements}

        def f_at(x):
            if x in image:
                return inst.map(g(image[x]),
                                lambda e: case_sum(e, Inl, lambda z: Inr(h[z])))
            return f_free(x)
    else:
        z_car = gen.carrier("z")
        h = gen.pure_fn(z_car, x_car)
        g0 = gen.kleisli(inst, x_car, sum_carrier(y_car, z_car))
        g = KleisliFn(inst, z_car, g0.cod, {z: g0(h[z]) for z in z_car.elements})

        def f_at(x):
            return inst.map(g0(x),
                            lambda e: case_sum(e, Inl, lambda z: Inr(h[z])))

    f = make_kleisli(inst, x_car, sum_carrier(y_car, x_car), f_at)
    fd = inst.iterate(f)
    gd = inst.iterate(g)
    for z in z_car.elements:
        if not inst.equal(fd(h[z]), gd(z)):
            return "at %s: f-dagger(h z) = %s, g-dagger(z) = %s" % (
                render_elem(z), inst.render(fd(h[z])), inst.render(gd(z)))


def law_strength_compat(gen: Gen, inst):
    x_car, y_car, c_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("c")
    f = gen.kleisli(inst, x_car, sum_carrier(y_car, x_car))
    fd = inst.iterate(f)
    cx = prod_carrier(c_car, x_car)
    inner_cod = sum_carrier(prod_carrier(c_car, y_car), cx)
    inner = make_kleisli(inst, cx, inner_cod,
                         lambda p: inst.map(inst.strength(p.fst, f(p.snd)), dist_elem))
    rhs = inst.iterate(inner)
    lhs = make_kleisli(inst, cx, prod_carrier(c_car, y_car),
                       lambda p: inst.strength(p.fst, fd(p.snd)))
    return _first_mismatch(inst, lhs, rhs)


def law_bekic(gen: Gen, inst):
    """Iterating the combined system [f, g] over Y+X equals solving g first
    and substituting its solution into f."""
    x_car, y_car, z_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("z")
    zy_car = sum_carrier(z_car, y_car)
    cod = sum_carrier(zy_car, x_car)
    f = gen.kleisli(inst, y_car, cod)
    g = gen.kleisli(inst, x_car, cod)

    def alpha(e):     # (Z+Y)+X -> Z+(Y+X)
        return case_sum(e,
                        lambda zy: case_sum(zy, Inl, lambda y: Inr(Inl(y))),
                        lambda x: Inr(Inr(x)))

    alpha_cod = sum_carrier(z_car, sum_carrier(y_car, x_car))
    lhs = inst.iterate(map_kleisli(copair(f, g), alpha_cod, alpha))
    g_dag = inst.iterate(g)                                  # X -> T(Z+Y)
    h = compose_kleisli(copair(kleisli_unit(inst, zy_car), g_dag), f)
    h_dag = inst.iterate(h)                                  # Y -> T Z
    # rhs = [eta, h_dag]* . [eta . inr, g_dag]
    rhs = compose_kleisli(copair(kleisli_unit(inst, z_car), h_dag),
                          copair(_eta_into(inst, y_car, zy_car, Inr), g_dag))
    return _first_mismatch(inst, lhs, rhs)


def law_divergence_constant(gen: Gen, inst):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    loop = _eta_into(inst, x_car, sum_carrier(y_car, x_car), Inr)
    bot = inst.iterate(loop)
    for x in x_car.elements:
        if not inst.equal(bot(x), inst.bottom()):
            return "self-loop at %s solved to %s, not bottom" % (
                render_elem(x), inst.render(bot(x)))


def law_bottom_postcomp(gen: Gen, inst):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.kleisli(inst, x_car, y_car)
    lhs = inst.bind(inst.bottom(), f)
    if not inst.equal(lhs, inst.bottom()):
        return "lifting does not preserve bottom: %s" % inst.render(lhs)


def law_bottom_strength(gen: Gen, inst):
    c = gen.elem(gen.carrier("c"))
    lhs = inst.strength(c, inst.bottom())
    if not inst.equal(lhs, inst.bottom()):
        return "strength does not preserve bottom: %s" % inst.render(lhs)


def law_bind_monotone(gen: Gen, inst):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.kleisli(inst, x_car, y_car)
    big = gen.value(inst, x_car)
    small = inst.sample_below(gen.rng, big)
    if not inst.leq(inst.bind(small, f), inst.bind(big, f)):
        return "lifting is not monotone: %s below %s" % (
            inst.render(small), inst.render(big))


def law_bind_join(gen: Gen, inst):
    """Lifting preserves binary joins where the order has them."""
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.kleisli(inst, x_car, y_car)
    v1, v2 = gen.value(inst, x_car), gen.value(inst, x_car)
    join = inst.join(v1, v2)
    if join is None:
        return SKIP
    if not inst.equal(inst.bind(join, f), inst.join(inst.bind(v1, f), inst.bind(v2, f))):
        return "lifting does not preserve joins at %s and %s" % (
            inst.render(v1), inst.render(v2))


# -- resumption-specific checks ---------------------------------------------

def _eager_bind_trunc(rm: ResumptionMonad, t, f: KleisliFn, depth: int):
    """Independent substitution oracle, computed directly on truncations."""

    def elem(e):
        if isinstance(e, Inl):
            return rm.truncate(f(e.value), depth)
        node = e.value
        if depth == 0:
            return rm.base.unit(TCUT)
        kids = tuple(_eager_bind_trunc(rm, child, f, depth - 1)
                     for _a, child in node.children)
        return rm.base.unit(TOp(node.op, node.param, kids))

    return rm.base.bind(rm.out(t), elem)


def _eager_strength_trunc(rm: ResumptionMonad, c, t, depth: int):
    # elem forces the children of t inside base.map, which walks a set in
    # hash order.  That is safe only because Gen.tree builds eager trees,
    # whose layers are stored at construction: forcing one builds no tree
    # and draws no token, so the walk's order cannot be seen.
    def elem(e):
        if isinstance(e, Inl):
            return TLeaf(Pair(c, e.value))
        node = e.value
        if depth == 0:
            return TCUT
        kids = tuple(_eager_strength_trunc(rm, c, child, depth - 1)
                     for _a, child in node.children)
        return TOp(node.op, node.param, kids)

    return rm.base.map(rm.out(t), elem)


def law_res_kleisli_eq(gen: Gen, rm):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    t = gen.tree(rm, x_car)
    f = gen.kleisli(rm, x_car, y_car)
    d = gen.cfg.depth
    lhs = rm.truncate(rm.bind(t, f), d)
    rhs = _eager_bind_trunc(rm, t, f, d)
    if lhs != rhs:
        return "lifting characteristic equation: %s vs %s" % (
            rm.base.render(lhs), rm.base.render(rhs))


def law_res_strength_eq(gen: Gen, rm):
    x_car, c_car = gen.carrier("x"), gen.carrier("c")
    t = gen.tree(rm, x_car)
    c = gen.elem(c_car)
    d = gen.cfg.depth
    lhs = rm.truncate(rm.strength(c, t), d)
    rhs = _eager_strength_trunc(rm, c, t, d)
    if lhs != rhs:
        return "strength characteristic equation: %s vs %s" % (
            rm.base.render(lhs), rm.base.render(rhs))


def law_res_extension(gen: Gen, rm):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    g = gen.kleisli(rm.base, x_car, sum_carrier(y_car, x_car))
    f = KleisliFn(rm, x_car, sum_carrier(y_car, x_car),
                  {x: rm.ext(g(x)) for x in x_car.elements})
    fd = rm.iterate(f)
    gd = rm.base.iterate(g)
    for x in x_car.elements:
        want = rm.base.map(gd(x), Inl)
        got = rm.out(fd(x))
        if got != want:
            return "first layer at %s: %s vs %s" % (
                render_elem(x), rm.base.render(got), rm.base.render(want))


def law_res_guard_fixes_guarded(gen: Gen, rm):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.guarded_kleisli(rm, x_car, sum_carrier(y_car, x_car))
    fg = guard_transform(rm, f)
    for x in x_car.elements:
        if not rm.bisimilar(f(x), fg(x), gen.cfg.depth):
            return "guarding changed a guarded definition at %s" % render_elem(x)


def law_res_guarded_unfolding(gen: Gen, rm):
    x_car, y_car = gen.carrier("x"), gen.carrier("y")
    f = gen.guarded_kleisli(rm, x_car, sum_carrier(y_car, x_car))
    sol = solve_guarded(rm, f)
    glue = copair(kleisli_unit(rm, y_car), sol)
    for x in x_car.elements:
        unfolded = rm.bind(f(x), glue)
        for d in range(1, gen.cfg.depth + 1):
            if not rm.bisimilar(unfolded, sol(x), d):
                return "solution not a fixpoint at %s, depth %d" % (render_elem(x), d)


# ---------------------------------------------------------------------------
# Registry and suites
# ---------------------------------------------------------------------------

LAW_CHECKS = {
    "monad.left_unit": (law_monad_left_unit, "all"),
    "monad.right_unit": (law_monad_right_unit, "all"),
    "monad.assoc": (law_monad_assoc, "all"),
    "strength.str1": (law_str1, "all"),
    "strength.str2": (law_str2, "all"),
    "strength.str3": (law_str3, "all"),
    "strength.str4": (law_str4, "all"),
    "elgot.unfolding": (law_unfolding, "all"),
    "elgot.naturality": (law_naturality, "all"),
    "elgot.dinaturality": (law_dinaturality, "all"),
    "elgot.codiagonal": (law_codiagonal, "all"),
    "elgot.uniformity": (law_uniformity, "all"),
    "elgot.strength": (law_strength_compat, "all"),
    "elgot.bekic": (law_bekic, "base"),
    "elgot.divergence": (law_divergence_constant, "all"),
    "omega.bottom_postcomp": (law_bottom_postcomp, "all"),
    "omega.bottom_strength": (law_bottom_strength, "all"),
    "omega.bind_monotone": (law_bind_monotone, "base"),
    "omega.bind_join": (law_bind_join, "base"),
    "resumption.kleisli_eq": (law_res_kleisli_eq, "resumption"),
    "resumption.strength_eq": (law_res_strength_eq, "resumption"),
    "resumption.extension": (law_res_extension, "resumption"),
    "resumption.guard_fix": (law_res_guard_fixes_guarded, "resumption"),
    "resumption.guarded_unfolding": (law_res_guarded_unfolding, "resumption"),
}

MORPHISM_LAWS = ("morphism.unit", "morphism.kleisli", "morphism.strength",
                 "morphism.iteration")
HANDLER_LAWS = ("handle.ext", "handle.iota", "handle.kleisli",
                "handle.iteration", "handle.fuel_monotone")

# every identity in scope must be reachable from some suite
REQUIRED_IDENTITIES = frozenset({
    "monad.left_unit", "monad.right_unit", "monad.assoc",
    "strength.str1", "strength.str2", "strength.str3", "strength.str4",
    "elgot.unfolding", "elgot.naturality", "elgot.dinaturality",
    "elgot.codiagonal", "elgot.uniformity", "elgot.strength", "elgot.bekic",
    "elgot.divergence",
    "omega.bottom_postcomp", "omega.bottom_strength", "omega.bind_monotone",
    "omega.bind_join",
    "resumption.kleisli_eq", "resumption.strength_eq", "resumption.extension",
    "resumption.guard_fix", "resumption.guarded_unfolding",
}) | frozenset(MORPHISM_LAWS) | frozenset(HANDLER_LAWS)

_covered = set(LAW_CHECKS) | set(MORPHISM_LAWS) | set(HANDLER_LAWS)
missing = REQUIRED_IDENTITIES - _covered
assert not missing, "identities without a registered check: %s" % sorted(missing)
del missing, _covered

ELGOT_AXIOMS = ("elgot.unfolding", "elgot.naturality", "elgot.dinaturality",
                "elgot.codiagonal", "elgot.uniformity", "elgot.strength")


def _applicable(kind: str, inst) -> bool:
    if kind == "all":
        return True
    if kind == "resumption":
        return isinstance(inst, ResumptionMonad)
    return not isinstance(inst, ResumptionMonad)


def run_axiom_suite(inst, config: GenConfig,
                    laws: Iterable[str] | None = None) -> SuiteReport:
    """Per-law pass/fail counts on fresh random samples for one instance."""
    names = list(laws) if laws is not None else [
        name for name, (_fn, kind) in LAW_CHECKS.items() if _applicable(kind, inst)]
    report = SuiteReport(inst.name, config.seed)
    for name in names:
        fn, kind = LAW_CHECKS[name]
        if not _applicable(kind, inst):
            continue
        gen = Gen(config.replace(seed=_subseed(config.seed, name)))
        res = LawResult(name)
        for _ in range(config.samples):
            res.note(fn(gen, inst))
        report.results.append(res)
    return report


def _subseed(seed: int, name: str) -> int:
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) % (2 ** 31)
    return (seed * 2654435761 + h) % (2 ** 63)


def run_morphism_suite(mor: MonadMorphism, config: GenConfig) -> SuiteReport:
    """The four morphism laws on random samples.  A sample on which the
    component gives no value (None) is counted as skipped."""
    src = mor.source
    gen = Gen(config)
    results = [LawResult(law) for law in MORPHISM_LAWS]
    unit_res, kleisli_res, strength_res, iter_res = results
    for _ in range(config.samples):
        x_car, y_car, c_car = gen.carrier("x"), gen.carrier("y"), gen.carrier("c")
        x, c = gen.elem(x_car), gen.elem(c_car)
        unit_res.note(morphism_unit(mor, x))
        f = gen.kleisli(src, x_car, y_car)
        v = gen.value(src, x_car)
        kleisli_res.note(morphism_kleisli(mor, v, f))
        strength_res.note(morphism_strength(mor, c, v))
        g = gen.kleisli(src, x_car, sum_carrier(y_car, x_car))
        iter_res.note(morphism_iteration(mor, g))
    return SuiteReport("morphism %s: %s -> %s" % (mor.name, src.name, mor.target.name),
                       config.seed, results)


def run_handler_suite(rm: ResumptionMonad, sigma: MonadMorphism,
                      upsilon: EffectInterpretation, config: GenConfig,
                      fuel: int = 10) -> SuiteReport:
    """Universal-property triangles plus fuel monotonicity."""
    gen = Gen(config)
    S = sigma.target
    x_car = gen.carrier("x", config.max_carrier)

    base_values = [gen.value(rm.base, x_car) for _ in range(config.samples)]
    op_samples = []
    for _ in range(config.samples):
        op = gen.rng.choice(rm.sig.ops)
        k = {a: gen.elem(x_car) for a in op.arity.elements}
        op_samples.append((op.name, gen.elem(op.param), k))
    bind_samples = []
    iter_samples = []
    for _ in range(config.samples):
        y_car = gen.carrier("y")
        f = gen.kleisli(rm, x_car, y_car)
        bind_samples.append((gen.tree(rm, x_car), f))
        iter_samples.append(gen.kleisli(rm, x_car, sum_carrier(y_car, x_car)))

    tri = check_universal_triangles(rm, sigma, upsilon,
                                    base_values=base_values,
                                    op_samples=op_samples,
                                    bind_samples=bind_samples,
                                    iter_samples=iter_samples,
                                    fuel=fuel)

    def fuel_monotone():
        t = gen.tree(rm, x_car)
        n = gen.rng.randint(0, fuel)
        lo = handle(rm, t, sigma, upsilon, n)
        hi = handle(rm, t, sigma, upsilon, n + 1 + gen.rng.randint(0, 3))
        if not S.leq(lo.value, hi.value):
            return "fuel %d gave %s, more fuel gave %s" % (
                n, S.render(lo.value), S.render(hi.value))

    mono = LawResult("handle.fuel_monotone")
    for _ in range(config.samples):
        mono.note(fuel_monotone())
    return SuiteReport(tri.instance, config.seed, tri.results + [mono])
