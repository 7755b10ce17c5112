import gc
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from elgot import iteration
from elgot.core import Inl, Inr, Pair, carrier, copair, kleisli_unit, make_kleisli, \
    sum_carrier, KleisliFn
from elgot.base_monads import (FinSetMonad, Just, NOTHING, NdState, elgot_instance, finset,
                               propagate)
from elgot.iteration import (UnguardedError, bare_recursive_leaf,
                             guard_transform, pre_iterate, solve_guarded, solve_system)
from elgot.resumption import OpNode, ResTree, ResumptionMonad, TOp, TCUT, TLeaf

from conftest import resumption, tokens_drawn, two_op_signature


def _xy(rm, xs=("a", "b"), ys=("y0",)):
    x = carrier("x", xs)
    y = carrier("y", ys)
    return x, y, sum_carrier(y, x)


def test_guarded_when_all_leaves_are_results(rm_maybe):
    x, y, cod = _xy(rm_maybe)
    f = make_kleisli(rm_maybe, x, cod, lambda v: rm_maybe.unit(Inl("y0")))
    assert bare_recursive_leaf(rm_maybe, f) is None


def test_unguarded_with_witness(rm_maybe):
    x, y, cod = _xy(rm_maybe)
    f = make_kleisli(rm_maybe, x, cod, lambda v: rm_maybe.unit(Inr(v)))
    assert bare_recursive_leaf(rm_maybe, f) == ("a", "a")


def test_guarded_when_recursion_sits_under_operations(rm_maybe):
    x, y, cod = _xy(rm_maybe)
    f = make_kleisli(
        rm_maybe, x, cod,
        lambda v: rm_maybe.op_call("act", "p0", {"*": rm_maybe.unit(Inr(v))}))
    assert bare_recursive_leaf(rm_maybe, f) is None


def test_guard_transform_fixes_guarded(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=23))
    for _ in range(25):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.guarded_kleisli(rm_finset, x, sum_carrier(y, x))
        fg = guard_transform(rm_finset, f)
        for v in x.elements:
            assert rm_finset.bisimilar(f(v), fg(v), 6)


def test_guard_transform_self_loop_becomes_deadlock(rm_maybe):
    x, y, cod = _xy(rm_maybe, xs=("a",))
    f = make_kleisli(rm_maybe, x, cod, lambda v: rm_maybe.unit(Inr(v)))
    fg = guard_transform(rm_maybe, f)
    assert rm_maybe.out(fg("a")) is NOTHING


def test_guard_transform_drops_bare_loop_keeps_guarded_branch(rm_finset):
    x, y, cod = _xy(rm_finset, xs=("a",))
    guarded_branch = rm_finset.op_call("act", "p0", {"*": rm_finset.unit(Inl("y0"))})

    def at(v):
        loop = rm_finset.unit(Inr(v))
        return rm_finset.out_inv(finset(
            tuple(rm_finset.base.elements(rm_finset.out(loop))) +
            tuple(rm_finset.base.elements(rm_finset.out(guarded_branch)))))

    f = make_kleisli(rm_finset, x, cod, at)
    fg = guard_transform(rm_finset, f)
    step = rm_finset.out(fg("a"))
    els = rm_finset.base.elements(step)
    assert len(els) == 1 and isinstance(els[0], Inr)
    assert els[0].value.op == "act"


def test_iterate_requires_the_recursive_summand_to_be_the_domain(rm_maybe):
    x, y, _cod = _xy(rm_maybe)
    z = carrier("z", ("a", "c"))
    f = make_kleisli(rm_maybe, x, sum_carrier(y, z), lambda v: rm_maybe.unit(Inr("a")))
    with pytest.raises(ValueError, match="recursive summand z does not match the domain x"):
        rm_maybe.iterate(f)


def test_solve_guarded_without_recursion(rm_maybe):
    x, y, cod = _xy(rm_maybe, ys=("y0", "y1"))
    u = {"a": "y1", "b": "y0"}
    f = make_kleisli(rm_maybe, x, cod, lambda v: rm_maybe.unit(Inl(u[v])))
    sol = solve_guarded(rm_maybe, f)
    for v in x.elements:
        assert rm_maybe.bisimilar(sol(v), rm_maybe.unit(u[v]), 8)


def test_solve_guarded_spine(rm_maybe):
    x, y, cod = _xy(rm_maybe, xs=("a",))
    f = make_kleisli(
        rm_maybe, x, cod,
        lambda v: rm_maybe.op_call("act", "p0", {"*": rm_maybe.unit(Inr(v))}))
    sol = solve_guarded(rm_maybe, f)
    got = rm_maybe.truncate(sol("a"), 4)
    want = Just(TCUT)
    for _ in range(4):
        want = Just(TOp("act", "p0", (want,)))
    assert got == want


def test_solve_guarded_two_state_system(rm_finset):
    # a: does p0 then continues as b; b: either stops with y0 or does p1 to a
    x, y, cod = _xy(rm_finset)
    table = {
        "a": rm_finset.op_call("act", "p0", {"*": rm_finset.unit(Inr("b"))}),
        "b": rm_finset.out_inv(finset([
            Inl(Inl("y0")),
            list(rm_finset.base.elements(rm_finset.out(
                rm_finset.op_call("act", "p1", {"*": rm_finset.unit(Inr("a"))}))))[0],
        ])),
    }
    f = KleisliFn(rm_finset, x, cod, table)
    sol = solve_guarded(rm_finset, f)
    got = rm_finset.truncate(sol("a"), 2)
    # hand-drawn: p0 then (stop | p1 then cut)
    want = finset([TOp("act", "p0",
                       (finset([TLeaf("y0"), TOp("act", "p1", (finset([TCUT]),))]),))])
    assert got == want


def test_solve_guarded_rejects_unguarded(rm_maybe):
    x, y, cod = _xy(rm_maybe)
    f = make_kleisli(rm_maybe, x, cod, lambda v: rm_maybe.unit(Inr(v)))
    with pytest.raises(UnguardedError) as exc:
        solve_guarded(rm_maybe, f)
    assert "a" in str(exc.value)


def test_solving_a_guarded_definition_binds_nothing_up_front():
    class Counting(FinSetMonad):
        binds = 0

        def bind(self, v, f):
            self.binds += 1
            return super().bind(v, f)

    rm = ResumptionMonad(Counting(), two_op_signature(), depth=6)
    x, y, cod = _xy(rm)
    f = make_kleisli(
        rm, x, cod, lambda v: rm.op_call("act", "p0", {"*": rm.unit(Inr(v))}))
    assert bare_recursive_leaf(rm, f) is None
    before = rm.base.binds
    solve_guarded(rm, f)
    # the guardedness scan builds no factorization witness
    assert rm.base.binds == before
    g = make_kleisli(rm, x, cod, lambda v: rm.unit(Inr("b" if v == "a" else v)))
    assert bare_recursive_leaf(rm, g) == ("a", "b")


def test_a_solution_builds_no_unit_tree_per_leaf(rm_finset):
    # each first layer holds three leaves, written directly as layers: the
    # solution and its forcing draw one token per point, its own tree's; f
    # is applied everywhere first, so its own trees are not counted
    x, y, cod = _xy(rm_finset, ys=("y0", "y1", "y2"))
    f = make_kleisli(rm_finset, x, cod, lambda v: rm_finset.out_inv(
        finset([Inl(Inl(w)) for w in y.elements])))
    for v in x.elements:
        f(v)

    def solve_and_force():
        sol = solve_guarded(rm_finset, f)
        return [rm_finset.out(sol(v)) for v in x.elements]

    drawn, layers = tokens_drawn(solve_and_force)
    assert drawn == len(x.elements)
    assert layers == [finset([Inl(w) for w in y.elements])] * len(x.elements)


def test_iterate_binds_on_demand_and_shares_the_base_fixpoint(monkeypatch):
    class Counting(FinSetMonad):
        binds = 0

        def bind(self, v, f):
            self.binds += 1
            return super().bind(v, f)

    runs = []

    def counted(m, roots, step_at):
        runs.append(tuple(roots))
        return propagate(m, roots, step_at)

    monkeypatch.setattr(iteration, "propagate", counted)
    rm = ResumptionMonad(Counting(), two_op_signature(), depth=6)
    x, y, cod = _xy(rm, xs=("a", "b", "c"))
    below_b = rm.unit(Inr("c"))
    step = {"a": rm.unit(Inr("b")),
            "b": rm.op_call("act", "p0", {"*": below_b}),
            "c": rm.out_inv(finset([Inl(Inl("y0")), Inl(Inr("a"))]))}
    fd = rm.iterate(KleisliFn(rm, x, cod, step))
    assert rm.base.binds == 0 and runs == []
    rm.out(fd("a"))
    assert runs == [("a",)]
    for v in x.elements:
        rm.truncate(fd(v), 4)
    # one base fixpoint per bare-jump component: a's jump to b is solved in
    # a's run, and c in the run of the subtree below b's node that jumps to
    # it; every point either run expands is kept
    assert runs == [("a",), (below_b,)]
    # a's bare call to b was iterated away inside the base monad
    assert rm.bisimilar(fd("a"), fd("b"), 4)


def test_a_guarded_definition_runs_no_base_fixpoint(monkeypatch):
    # no first layer of f, nor of any subtree below its nodes, holds a bare
    # leaf: each is its own solution, and nothing is iterated
    runs = []

    def counted(m, roots, step_at):
        runs.append(tuple(roots))
        return propagate(m, roots, step_at)

    monkeypatch.setattr(iteration, "propagate", counted)
    rm = resumption("finset")
    x, y, cod = _xy(rm)
    spin = ResTree(fn=lambda: finset([Inr(OpNode("act", "p1", (("*", spin),)))]))
    step = {"a": rm.op_call("ask", "*", {"l": rm.unit(Inl("y0")), "r": spin}),
            "b": rm.out_inv(finset([Inl(Inl("y0")),
                                    Inr(OpNode("act", "p0", (("*", spin),)))]))}
    fd = rm.iterate(KleisliFn(rm, x, cod, step))
    assert rm.render(fd("a"), 3) == \
        "{(op ask * {(leaf y0)} {(op act p1 {(op act p1 {(cut)})})})}"
    assert rm.render(fd("b"), 2) == "{(leaf y0) (op act p0 {(op act p1 {(cut)})})}"
    assert runs == []


def test_a_jump_free_step_is_its_own_solution():
    node = OpNode("act", "p0", (("*", "b"),))
    steps = {"a": finset([Inl(Inl("y0")), Inr(node)]), "b": finset([Inl(Inr("a"))])}
    # in either order of observation, a's entry is a's step itself, and b,
    # which jumps to a, holds a's layer
    for order in ("ab", "ba"):
        pre = pre_iterate(FinSetMonad(), steps.__getitem__)
        got = {seed: pre(seed) for seed in order}
        assert got["a"] is steps["a"]
        assert got["b"] == steps["a"]


@pytest.mark.parametrize("bad", ["junk", Inr("notanode"), Inl("y")],
                         ids=["non-sum", "non-node", "non-sum-inl"])
def test_a_malformed_step_element_is_refused_when_first_observed(rm_finset, bad):
    # on its own seed's step, and on a step a bare jump reaches
    steps = {"alone": finset([Inl(Inl("y0")), bad]),
             "jumps": finset([Inl(Inl("y0")), Inl(Inr("bad"))]),
             "bad": finset([bad])}
    for seed in ("alone", "jumps"):
        sol = solve_system(rm_finset, steps.__getitem__)
        for _ in range(2):
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                rm_finset.out(sol(seed))


def test_points_that_reach_one_subtree_share_its_lifting(rm_maybe):
    # x0 falls through to x1 unguarded, so both first layers hold x1's node
    x, y, cod = _xy(rm_maybe, xs=("x0", "x1"))
    step = {"x0": rm_maybe.unit(Inr("x1")),
            "x1": rm_maybe.op_call("act", "p1", {"*": rm_maybe.unit(Inl("y0"))})}
    sol = rm_maybe.iterate(KleisliFn(rm_maybe, x, cod, step))
    kids = [rm_maybe.out(sol(v)).value.value.child("*") for v in x.elements]
    assert kids[0] is kids[1]


def test_iterate_builds_a_point_on_first_observation(rm_maybe):
    # f is built everywhere first, so its own trees are not counted
    x, y, cod = _xy(rm_maybe, xs=tuple("x%d" % i for i in range(8)))
    f = KleisliFn(rm_maybe, x, cod, {
        v: rm_maybe.op_call("act", "p0", {"*": rm_maybe.unit(Inr(v))})
        for v in x.elements})
    drawn, sol = tokens_drawn(lambda: rm_maybe.iterate(f))
    assert drawn == 0
    # x3's solution and the solution's one child: the subtree below f's
    # node is a seed of the system, so no guarded tree is drawn in between
    drawn, _layer = tokens_drawn(lambda: rm_maybe.out(sol("x3")))
    assert drawn == 2


def test_a_finished_solve_is_freed_without_the_cyclic_collector(rm_maybe):
    class Leaf:
        def _canon_key_(self):
            return (0, "leaf")

    def solve_and_observe():
        leaf = Leaf()
        x = carrier("x", ("a", "b"))
        f = KleisliFn(rm_maybe, x, None, {
            "a": rm_maybe.op_call("act", "p0", {"*": rm_maybe.unit(Inr("b"))}),
            "b": rm_maybe.unit(Inl(leaf))})
        sol = rm_maybe.iterate(f)
        seen = rm_maybe.truncate(sol("a"), 3)
        assert seen.value.children[0].value.value is leaf
        return weakref.ref(leaf)

    gc.collect()
    gc.disable()
    try:
        # every tree, table and lifting of the solve is freed by reference
        # counting alone once the last reference to it goes
        assert solve_and_observe()() is None
    finally:
        gc.enable()


def test_iterate_extends_base_iteration(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=31))
    for _ in range(30):
        x = gen.carrier("x")
        y = gen.carrier("y")
        cod = sum_carrier(y, x)
        g = gen.kleisli(rm_finset.base, x, cod)
        f = KleisliFn(rm_finset, x, cod,
                      {v: rm_finset.ext(g(v)) for v in x.elements})
        fd = rm_finset.iterate(f)
        gd = rm_finset.base.iterate(g)
        for v in x.elements:
            assert rm_finset.out(fd(v)) == rm_finset.base.map(gd(v), Inl)


def test_iterate_self_loop_is_bottom_tree(rm_maybe, rm_finset):
    for rm in (rm_maybe, rm_finset):
        x, y, cod = _xy(rm)
        f = make_kleisli(rm, x, cod, lambda v: rm.unit(Inr(v)))
        fd = rm.iterate(f)
        for v in x.elements:
            assert rm.out(fd(v)) == rm.base.bottom()


def test_iterate_satisfies_unfolding_to_all_sampled_depths(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=37, node_budget=10))
    for _ in range(15):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.kleisli(rm_finset, x, sum_carrier(y, x))
        fd = rm_finset.iterate(f)
        glue = copair(kleisli_unit(rm_finset, y), fd)
        for v in x.elements:
            unrolled = rm_finset.bind(f(v), glue)
            for d in (1, 3, 6):
                assert rm_finset.bisimilar(unrolled, fd(v), d)


def test_uniqueness_probe_one_more_unfolding(rm_maybe):
    # unfolding the solver's own output once yields the same truncations
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=41, node_budget=10))
    for _ in range(15):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.guarded_kleisli(rm_maybe, x, sum_carrier(y, x))
        sol = solve_guarded(rm_maybe, f)
        glue = copair(kleisli_unit(rm_maybe, y), sol)
        candidate = KleisliFn(rm_maybe, x, y,
                              {v: rm_maybe.bind(f(v), glue) for v in x.elements})
        for v in x.elements:
            for d in range(7):
                assert rm_maybe.bisimilar(candidate(v), sol(v), d)


def test_strong_iterate_on_trees_ignoring_parameter(rm_finset):
    from elgot.core import Pair, prod_carrier, strong_iterate
    rm = rm_finset
    z = carrier("z", ("z0", "z1"))
    x, y, cod = _xy(rm, xs=("a",))
    step = {"a": rm.op_call("act", "p0", {"*": rm.unit(Inr("a"))})}
    plain = rm.iterate(make_kleisli(rm, x, cod, step.__getitem__))
    f = make_kleisli(rm, prod_carrier(z, x), cod, lambda p: step[p.snd])
    strong = strong_iterate(f)
    for zz in z.elements:
        assert rm.bisimilar(strong(Pair(zz, "a")), plain("a"), 5)


def _truncated_lfp_oracle(rm, f, depth):
    """Second route to the iteration semantics: solve the equation system
    directly on the finite lattice of depth-bounded truncations.

    Depth strata are solved bottom-up; recursive leaves below an operation
    refer to already-final smaller depths, so only the first layer's
    same-depth recursion is iterated, where a growing table only grows the
    spliced sets.  Independent of guard_transform/solve_guarded.
    """
    base = rm.base
    xs = f.dom.elements
    final = {}

    for d in range(depth + 1):

        def splice(t, dd, cur):
            def elem(e):
                if isinstance(e, Inl):
                    leaf = e.value
                    if isinstance(leaf, Inl):
                        return base.unit(TLeaf(leaf.value))
                    if dd == d:
                        return cur[leaf.value]
                    return final[(leaf.value, dd)]
                node = e.value
                if dd == 0:
                    return base.unit(TCUT)
                kids = tuple(splice(child, dd - 1, cur)
                             for _a, child in node.children)
                return base.unit(TOp(node.op, node.param, kids))
            return base.bind(rm.out(t), elem)

        cur = {x: base.bottom() for x in xs}
        while True:
            new = {x: splice(f(x), d, cur) for x in xs}
            if new == cur:
                break
            cur = new
        for x in xs:
            final[(x, d)] = cur[x]

    return {x: final[(x, depth)] for x in xs}


@pytest.mark.parametrize("kind", ["maybe", "finset"])
def test_iterate_matches_truncated_lfp_oracle(kind):
    from elgot.laws import Gen, GenConfig
    rm = resumption(kind)
    gen = Gen(GenConfig(seed=71, node_budget=12))
    for _ in range(40):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.kleisli(rm, x, sum_carrier(y, x))
        fd = rm.iterate(f)
        for d in (0, 1, 2, 4):
            want = _truncated_lfp_oracle(rm, f, d)
            for v in x.elements:
                assert rm.truncate(fd(v), d) == want[v]


def _flat_lfp_oracle(base, step, seeds, depth):
    """The depth-bounded truncations of a flat system's solution, solved
    directly on the finite lattice of truncations: depth by depth, only the
    bare jumps of one depth are iterated, and a node's children read the
    final truncations one depth below.  Independent of pre_iterate and
    propagate."""
    final = {}
    for d in range(depth + 1):

        def elem(e, cur):
            if isinstance(e, Inr):
                node = e.value
                if d == 0:
                    return base.unit(TCUT)
                return base.unit(TOp(node.op, node.param,
                                     tuple(final[c, d - 1] for _a, c in node.children)))
            if isinstance(e.value, Inl):
                return base.unit(TLeaf(e.value.value))
            return cur[e.value.value]

        cur = {s: base.bottom() for s in seeds}
        while True:
            new = {s: base.bind(step(s), lambda e, _cur=cur: elem(e, _cur)) for s in seeds}
            if new == cur:
                break
            cur = new
        for s in seeds:
            final[s, d] = cur[s]
    return {s: final[s, depth] for s in seeds}


def test_bsp_solution_matches_truncated_lfp_oracle():
    from elgot.bsp import build_equations, parse_bsp_text
    from test_bsp import TWO_STATE
    spec = parse_bsp_text(TWO_STATE)
    rm, step = build_equations(spec)
    sol = solve_system(rm, step)
    want = _flat_lfp_oracle(rm.base, step, step.dom.elements, 3)
    for s in step.dom.elements:
        assert rm.truncate(sol(s), 3) == want[s]


def _random_flat_system(rng, base, n):
    """Steps of the seeds 0..n-1 over exits, bare jumps and act nodes."""
    def elem():
        r = rng.random()
        if r < 0.2:
            return Inl(Inl("y%d" % rng.randrange(2)))
        if r < 0.7:
            return Inl(Inr(rng.randrange(n)))
        return Inr(OpNode("act", rng.choice(("p0", "p1")), (("*", rng.randrange(n)),)))

    if isinstance(base, FinSetMonad):
        return {s: finset(elem() for _ in range(rng.randint(0, 3))) for s in range(n)}
    return {s: NdState(tuple((q, finset(Pair(elem(), rng.choice(base.states))
                                        for _ in range(rng.randint(0, 2))))
                             for q in base.states))
            for s in range(n)}


@pytest.mark.parametrize("kind", ["finset", "nondetstate"])
def test_a_flat_system_solves_alike_in_any_order_of_lookup(monkeypatch, kind):
    # each entry is packed from a run's table when it is first looked up,
    # once, and only when its step jumps; the entries, and the trees they
    # unfold, do not depend on which seed was looked up first
    base = elgot_instance(kind, ("s0", "s1"))
    rm = ResumptionMonad(base, two_op_signature())
    packed = []
    pack = type(base).pack
    monkeypatch.setattr(type(base), "pack",
                        lambda self, results, x: packed.append(x) or pack(self, results, x))
    rng = random.Random("flat:" + kind)
    for _ in range(40):
        n = rng.randint(1, 7)
        steps = _random_flat_system(rng, base, n)
        jumping = {s for s, v in steps.items()
                   if any(isinstance(e, Inl) and isinstance(e.value, Inr)
                          for _q, e, _q2 in base.moves(v))}
        want = _flat_lfp_oracle(base, steps.__getitem__, range(n), 3)
        entries = None
        for _order in range(3):
            looked = rng.sample(range(n), rng.randint(1, n))
            del packed[:]
            pre = pre_iterate(base, steps.__getitem__)
            got = {s: pre(s) for s in looked + looked}
            assert packed == [s for s in looked if s in jumping]
            if entries is not None:
                assert all(got[s] == entries[s] for s in looked if s in entries)
            entries = {**(entries or {}), **got}
            sol = solve_system(rm, steps.__getitem__)
            for s in looked:
                rm.out(sol(s))
            for s in looked:
                assert rm.truncate(sol(s), 3) == want[s]


def test_guard_transform_idempotent_up_to_bisimulation(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=43, node_budget=10))
    for _ in range(15):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.kleisli(rm_finset, x, sum_carrier(y, x))
        once = guard_transform(rm_finset, f)
        twice = guard_transform(rm_finset, once)
        for v in x.elements:
            assert rm_finset.bisimilar(once(v), twice(v), 6)


@pytest.mark.parametrize("base", ("maybe", "finset", "nondetstate"))
def test_a_loop_is_solved_into_its_continuation(base):
    # a loop and the rest of the program are one flat system, the loop's
    # exits jumps into the rest: the whole is the Kleisli composite of the
    # two, and it renders as the configuration graph of bench/reference.py
    from elgot.while_lang import interpret, parse
    from test_while_lang import assert_matches_reference, make_test_env, random_program
    from test_differential import reference
    rng = random.Random("loop:%s" % base)
    coin = base != "maybe"
    for _ in range(25):
        env = make_test_env(base)
        loop = ("while", rng.choice(("true", "false", "coin") if coin else ("true", "false")),
                random_program(rng, 6, coin))
        rest = random_program(rng, 4, coin)
        assert_matches_reference(env, base, ("seq", loop, rest))
        whole, sol, k = (interpret(parse(reference.source(s)), env)
                         for s in (("seq", loop, rest), loop, rest))
        for v in env.alphabet.elements:
            assert env.rm.bisimilar(whole(v), env.rm.bind(sol(v), k), 6)


# One iterate_res solve and one interpretation whose tables return trees,
# each observed by handle, which walks the trees in the sets' own hash
# order: that order follows object addresses, which change from one
# process to the next even at one PYTHONHASHSEED.
_COUNT_BINDS = """
from elgot import base_monads, handler
from elgot.base_monads import FinSetMonad
from elgot.core import Inl, Inr, KleisliFn, carrier, make_kleisli, sum_carrier, unit_carrier
from elgot.handler import EffectInterpretation, identity_morphism
from elgot.laws import Gen, GenConfig
from elgot.resumption import ResumptionMonad
from elgot.while_lang import interpret, make_env, parse
from conftest import two_op_signature

binds, sets = 0, 0
bind, finset = FinSetMonad.bind, base_monads.finset


def counted_bind(self, v, f):
    global binds
    binds += 1
    return bind(self, v, f)


def counted_finset(elems):
    global sets
    sets += 1
    return finset(elems)


FinSetMonad.bind, base_monads.finset = counted_bind, counted_finset
rm = ResumptionMonad(FinSetMonad(), two_op_signature())
gen = Gen(GenConfig(seed=5, node_budget=16))
ups = gen.effect_interpretation(rm.sig, rm.base)
for _ in range(40):
    x, y = gen.carrier("x"), gen.carrier("y")
    fd = rm.iterate(gen.kleisli(rm, x, sum_carrier(y, x)))
    for v in x.elements:
        handler.handle(rm, fd(v), identity_morphism(rm.base), ups, 12)
# the two subtrees below r's node jump to a and to b, and b jumps to a as
# well: which of them is solved first depends on the order handle walks them
x, y = carrier("x", ("a", "b", "c", "r")), carrier("y", ("y0",))
f = {"a": rm.unit(Inr("c")), "b": rm.out_inv(finset([Inl(Inr("a")), Inl(Inr("c"))])),
     "c": rm.unit(Inl("y0")),
     "r": rm.op_call("ask", "*", {"l": rm.unit(Inr("a")), "r": rm.unit(Inr("b"))})}
ups = EffectInterpretation(rm.sig, rm.base, {
    "act": make_kleisli(rm.base, rm.sig.op("act").param, None, lambda p: finset(["*"])),
    "ask": make_kleisli(rm.base, unit_carrier(), None, lambda p: finset(["l", "r"]))})
for _ in range(20):
    fd = rm.iterate(KleisliFn(rm, x, sum_carrier(y, x), f))
    handler.handle(rm, fd("r"), identity_morphism(rm.base), ups, 12)
solved = binds, sets

env = make_env("finset", alphabet=("0", "1", "2"))
succ = {"0": "1", "1": "2", "2": "0"}
env.actions["next"] = lambda v: env.rm.op_call("write", v, {"*": env.rm.unit(succ[v])})
env.predicates["zero"] = lambda v: env.rm.unit(Inr("*") if v == "0" else Inl("*"))
sem = interpret(parse("while coin do {next; if zero then write else next}; next"), env)
ups = Gen(GenConfig(seed=6)).effect_interpretation(env.rm.sig, env.rm.base)
for v in env.alphabet.elements:
    handler.handle(env.rm, sem(v), identity_morphism(env.rm.base), ups, 12)
print(*solved, binds, sets)
"""


def test_solving_binds_the_same_in_every_process():
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    counts = [subprocess.run([sys.executable, "-c", _COUNT_BINDS], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
              for _ in range(2)]
    # base binds and sets built after the solve, and after the interpretation
    assert counts[0] == counts[1]
    assert all(int(n) > 0 for n in counts[0].split())
