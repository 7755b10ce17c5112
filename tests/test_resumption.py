import os
import subprocess
import sys
from pathlib import Path

import pytest

from elgot.core import ConfigError, Inl, Inr, Pair, _Tagged, canon_key, carrier, \
    sum_carrier, make_kleisli
from elgot.base_monads import FinSet, Just, NOTHING, NdState, elgot_instance, finset
from elgot.resumption import (OpDecl, OpNode, ResTree, ResumptionMonad, Signature,
                              Thunk, TLeaf, TCUT, TOp, sig_val)

from conftest import resumption, tokens_drawn, two_op_signature


def test_signature_validation():
    with pytest.raises(ConfigError):
        Signature((OpDecl("a", carrier("p", ("p",)), carrier("e", ())),))
    with pytest.raises(ConfigError):
        sig = two_op_signature()
        Signature(sig.ops + sig.ops)


def test_out_of_unit(rm_maybe):
    assert rm_maybe.out(rm_maybe.unit("x")) == Just(Inl("x"))


def test_out_of_ext(rm_finset):
    m = finset(["a", "b"])
    assert rm_finset.out(rm_finset.ext(m)) == finset([Inl("a"), Inl("b")])


def test_out_of_iota(rm_maybe):
    t = rm_maybe.iota("ask", "*", {"l": "x", "r": "y"})
    step = rm_maybe.out(t)
    assert isinstance(step, Just) and isinstance(step.value, Inr)
    node = step.value.value
    assert node.op == "ask" and node.param == "*"
    assert rm_maybe.out(node.child("l")) == Just(Inl("x"))
    assert rm_maybe.out(node.child("r")) == Just(Inl("y"))


def test_out_inv_roundtrip(rm_maybe):
    v = Just(Inl("x"))
    assert rm_maybe.out(rm_maybe.out_inv(v)) == v
    t = rm_maybe.iota("act", "p0", {"*": "x"})
    again = rm_maybe.out_inv(rm_maybe.out(t))
    assert rm_maybe.bisimilar(t, again, 6)


def test_coit_leaf_only_equals_ext(rm_maybe):
    y = carrier("y", ("a", "b"))
    x = carrier("x", ("r",))
    h = {"a": Just("r"), "b": NOTHING}
    g = make_kleisli(rm_maybe.base, y, None, lambda v: rm_maybe.base.map(h[v], Inl))
    unfold = rm_maybe.coit(g)
    for v in y.elements:
        assert rm_maybe.bisimilar(unfold(v), rm_maybe.ext(h[v]), 6)


def test_coit_self_seeding_spine(rm_maybe):
    seeds = carrier("s", ("s",))
    decl = rm_maybe.sig.op("act")
    g = make_kleisli(rm_maybe.base, seeds, None,
                     lambda s: Just(Inr(sig_val(decl, "p0", {"*": "s"}))))
    t = rm_maybe.coit(g)("s")
    got = rm_maybe.truncate(t, 3)
    want = Just(TOp("act", "p0", (Just(TOp("act", "p0",
                                            (Just(TOp("act", "p0", (Just(TCUT),))),))),)))
    assert got == want


def test_coit_deadlock(rm_maybe):
    seeds = carrier("s", ("s",))
    g = make_kleisli(rm_maybe.base, seeds, None, lambda s: NOTHING)
    assert rm_maybe.out(rm_maybe.coit(g)("s")) is NOTHING


def test_bind_unit_laws(rm_finset):
    x = carrier("x", ("a", "b"))
    y = carrier("y", ("c",))
    f = make_kleisli(rm_finset, x, y,
                     lambda v: rm_finset.iota("act", "p0", {"*": "c"}))
    t = rm_finset.unit("a")
    assert rm_finset.bisimilar(rm_finset.bind(t, f), f("a"), 8)
    deep = rm_finset.iota("ask", "*", {"l": "a", "r": "b"})
    assert rm_finset.bisimilar(rm_finset.bind(deep, rm_finset.unit), deep, 8)


def test_bind_hand_substitution(rm_maybe):
    # one operation layer over leaves x, y; f sends both to one-op trees
    t = rm_maybe.iota("ask", "*", {"l": "x", "r": "y"})
    conts = {"x": rm_maybe.iota("act", "p0", {"*": "done"}),
             "y": rm_maybe.iota("act", "p1", {"*": "done"})}
    f = make_kleisli(rm_maybe, carrier("x", ("x", "y")), carrier("d", ("done",)),
                     conts.__getitem__)
    # at depth 2 both operation layers fit; leaves are never cut
    got = rm_maybe.truncate(rm_maybe.bind(t, f), 2)
    full = lambda p: Just(TOp("act", p, (Just(TLeaf("done")),)))
    assert got == Just(TOp("ask", "*", (full("p0"), full("p1"))))
    # at depth 1 the substituted operations are cut off
    shallow = rm_maybe.truncate(rm_maybe.bind(t, f), 1)
    assert shallow == Just(TOp("ask", "*", (Just(TCUT), Just(TCUT))))


def test_strength_on_unit(rm_maybe):
    lhs = rm_maybe.strength("c", rm_maybe.unit("x"))
    assert rm_maybe.bisimilar(lhs, rm_maybe.unit(Pair("c", "x")), 6)


def test_strength_then_snd_is_identity(rm_finset):
    t = rm_finset.iota("ask", "*", {"l": "x", "r": "y"})
    roundtrip = rm_finset.map(rm_finset.strength("c", t), lambda p: p.snd)
    assert rm_finset.bisimilar(roundtrip, t, 6)


def test_map_and_strength_build_no_unit_tree_per_leaf(rm_finset):
    # each leaf's layer is written directly: forcing the first layer of the
    # image draws only the image's own token
    t = rm_finset.ext(finset(["a", "b", "c", "d"]))
    drawn, layer = tokens_drawn(lambda: rm_finset.out(rm_finset.map(t, lambda v: v + "!")))
    assert drawn == 1
    assert layer == finset([Inl("a!"), Inl("b!"), Inl("c!"), Inl("d!")])
    drawn, layer = tokens_drawn(lambda: rm_finset.out(rm_finset.strength("c", t)))
    assert drawn == 1
    assert layer == finset([Inl(Pair("c", v)) for v in "abcd"])


def test_truncate_leaf_at_depth_zero(rm_maybe):
    assert rm_maybe.truncate(rm_maybe.unit("x"), 0) == Just(TLeaf("x"))


def test_truncate_spine_cuts(rm_maybe):
    x = carrier("x", ("a",))
    y = carrier("y", ("y0",))
    f = make_kleisli(rm_maybe, x, sum_carrier(y, x),
                     lambda v: rm_maybe.op_call("act", "p0", {"*": rm_maybe.unit(Inr("a"))}))
    spine = rm_maybe.iterate(f)("a")
    assert rm_maybe.truncate(spine, 2) == \
        Just(TOp("act", "p0", (Just(TOp("act", "p0", (Just(TCUT),))),)))


def test_truncate_monotone_in_depth(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=77, node_budget=12))
    x = gen.carrier("x")
    for _ in range(20):
        t = gen.tree(rm_finset, x)
        shallow = rm_finset.truncate(t, 2)
        deep = rm_finset.truncate(t, 5)
        assert _is_prefix(shallow, deep, rm_finset.base)


def _is_prefix(shallow, deep, base):
    els_s = base.elements(shallow)
    els_d = base.elements(deep)
    if len(els_s) != len(els_d):
        return False
    for a, b in zip(els_s, els_d):
        if a is TCUT:
            continue
        if isinstance(a, TLeaf):
            if a != b:
                return False
        else:
            if not (isinstance(b, TOp) and a.op == b.op and a.param == b.param):
                return False
            for ca, cb in zip(a.children, b.children):
                if not _is_prefix(ca, cb, base):
                    return False
    return True


def test_bisimilar_reflexive(rm_finset):
    from elgot.laws import Gen, GenConfig
    gen = Gen(GenConfig(seed=3))
    x = gen.carrier("x")
    for d in (0, 1, 4):
        for _ in range(10):
            t = gen.tree(rm_finset, x)
            assert rm_finset.bisimilar(t, t, d)


# the one memoised cell, forced directly and as a tree's first layer
CELLS = pytest.mark.parametrize("force", [
    lambda fn: Thunk(fn).force,
    lambda fn: ResTree(fn=fn).out,
], ids=["Thunk.force", "ResTree.out"])


def test_op_node_is_a_tagged_value():
    t, u = (ResTree(fn=lambda: finset(())) for _ in range(2))
    node = OpNode("act", "a", (("*", t),))
    assert isinstance(node, _Tagged) and tuple(node) == (OpNode, "act", "a", (("*", t),))
    assert (node.op, node.param, node.children, node.child("*")) == ("act", "a", (("*", t),), t)
    # list children are stored as a tuple
    listed = OpNode("act", "a", [("*", t)])
    assert type(listed.children) is tuple
    # equal exactly when op, param and the identical child trees agree
    assert listed is not node and listed == node and hash(listed) == hash(node)
    assert OpNode("act", "b", (("*", t),)) != node
    assert OpNode("ask", "a", (("*", t),)) != node
    assert OpNode("act", "a", (("+", t),)) != node
    # a tree equal in every observation but not identical is another child
    assert OpNode("act", "a", (("*", u),)) != node
    assert node != ("act", "a", (("*", t),)) and node != Inr(node)
    assert len({node, listed, OpNode("act", "a", (("*", u),))}) == 2


@CELLS
def test_memoized_forcing_is_stable(force):
    rm = resumption("maybe")
    calls = []

    def build():
        calls.append(1)
        return rm.unit("x")

    forced = force(build)
    first = forced()
    assert forced() is first and len(calls) == 1


@CELLS
def test_forcing_is_at_most_once_under_contention(force):
    import threading
    import time
    rm = resumption("maybe")
    calls = []

    def build():
        calls.append(1)
        time.sleep(0.01)   # widen the race window
        return rm.unit("x")

    forced = force(build)
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(forced())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


def test_a_tree_whose_first_layer_reads_itself_raises():
    # in a subprocess, so that a deadlock fails the test instead of the suite
    code = ("from elgot.base_monads import elgot_instance\n"
            "from elgot.resumption import ResumptionMonad, Signature\n"
            "rm = ResumptionMonad(elgot_instance('maybe'), Signature(()))\n"
            "t = rm.bind(rm.unit('x'), lambda v: t)\n"
            "try:\n"
            "    rm.out(t)\n"
            "except RecursionError:\n"
            "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=10)
    assert r.stdout == "raised\n", r.stderr[-300:]


def test_shared_tree_truncation_across_threads():
    import threading
    rm = resumption("finset")
    x = carrier("x", ("a",))
    y = carrier("y", ("y0",))
    f = make_kleisli(rm, x, sum_carrier(y, x),
                     lambda v: rm.op_call("act", "p0", {"*": rm.unit(Inr(v))}))
    spine = rm.iterate(f)("a")
    outs = []
    barrier = threading.Barrier(6)

    def worker():
        barrier.wait()
        outs.append(rm.base.render(rm.truncate(spine, 4)))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(outs)) == 1


def test_ext_is_monad_morphism():
    from elgot.laws import GenConfig, run_morphism_suite
    from elgot.handler import MonadMorphism
    rm = resumption("finset")
    mor = MonadMorphism("ext", rm.base, rm, rm.ext)
    rep = run_morphism_suite(mor, GenConfig(samples=40, seed=19))
    assert rep.ok, rep.text()


def test_rendering_is_canonical(rm_finset):
    t = rm_finset.ext(finset(["b", "a"]))
    assert rm_finset.base.render(rm_finset.truncate(t, 1)) == "{(leaf a) (leaf b)}"
    t2 = rm_finset.iota("act", "p1", {"*": "v"})
    assert rm_finset.base.render(rm_finset.truncate(t2, 2)) == "{(op act p1 {(leaf v)})}"
    assert rm_finset.base.render(rm_finset.truncate(rm_finset.bottom(), 3)) == "{}"


def _two_cycle(rm):
    """s0 -act-> s1 -act-> s0, unfolded by coit."""
    seeds = carrier("s", ("s0", "s1"))
    decl = rm.sig.op("act")
    nxt = {"s0": "s1", "s1": "s0"}
    g = make_kleisli(rm.base, seeds, None,
                     lambda s: rm.base.unit(Inr(sig_val(decl, "p0", {"*": nxt[s]}))))
    return rm.coit(g)("s0")


def _child(rm, t):
    return rm.base.elements(rm.out(t))[0].value.child("*")


@pytest.mark.parametrize("lift", [
    lambda rm, t: t,
    lambda rm, t: rm.bind(t, rm.unit),
    lambda rm, t: rm.strength("c", t),
    lambda rm, t: rm.map(t, lambda x: x),
], ids=["coit", "bind", "strength", "map"])
def test_lifting_keeps_cycles(rm_finset, lift):
    lifted = lift(rm_finset, _two_cycle(rm_finset))
    once = _child(rm_finset, lifted)
    assert once is not lifted
    assert _child(rm_finset, once) is lifted
    assert _child(rm_finset, _child(rm_finset, once)) is once


def test_lifting_keeps_shared_subtrees(rm_maybe):
    shared = rm_maybe.iota("act", "p1", {"*": "x"})
    t = rm_maybe.op_call("ask", "*", {"l": shared, "r": shared})
    node = rm_maybe.out(rm_maybe.bind(t, rm_maybe.unit)).value.value
    assert node.child("l") is node.child("r")


def test_children_are_the_trees_themselves(rm_maybe):
    t = rm_maybe.unit("x")
    node = rm_maybe.out(rm_maybe.op_call("act", "p0", {"*": t})).value.value
    assert node.child("*") is t

    seeds = carrier("s", ("s0", "s1"))
    decl = rm_maybe.sig.op("act")
    nxt = {"s0": "s1", "s1": "s0"}
    unfold = rm_maybe.coit(make_kleisli(
        rm_maybe.base, seeds, None,
        lambda s: Just(Inr(sig_val(decl, "p0", {"*": nxt[s]})))))
    assert _child(rm_maybe, unfold("s0")) is unfold("s1")

    # node identity is the child trees' tokens, so equal calls give equal nodes
    again = rm_maybe.out(rm_maybe.op_call("act", "p0", {"*": t})).value.value
    assert node == again and hash(node) == hash(again)


# -- hash-consed truncations --------------------------------------------------

def _binary_loop(rm):
    """One seed whose layer is an ask node with the seed at both children:
    the full binary tree, as a one-state coit unfolding."""
    seeds = carrier("s", ("s",))
    decl = rm.sig.op("ask")
    g = make_kleisli(rm.base, seeds, None,
                     lambda s: rm.base.unit(Inr(sig_val(decl, "*", {"l": s, "r": s}))))
    return rm.coit(g)("s")


@pytest.fixture
def counted_out(monkeypatch):
    """Counts ResTree.out calls and refuses more than a budget, so a walk
    that revisits shared subtrees fails fast instead of running 2^depth."""
    calls = []
    out = ResTree.out

    def counting(self):
        calls.append(self)
        if len(calls) > 10_000:
            raise AssertionError("truncation re-reads shared subtrees")
        return out(self)

    monkeypatch.setattr(ResTree, "out", counting)
    return calls


def _full_binary(depth):
    v = finset([TCUT])
    for _ in range(depth):
        v = finset([TOp("ask", "*", (v, v))])
    return v


def test_truncating_a_shared_loop_reads_each_layer_once(rm_finset, counted_out):
    t = _binary_loop(rm_finset)
    got = rm_finset.truncate(t, 60)
    assert len(counted_out) == 61 and set(counted_out) == {t}
    assert got == _full_binary(60)


def test_bisimilar_on_separately_built_loops_is_fast(rm_finset, counted_out):
    import time
    t1, t2 = _binary_loop(rm_finset), _binary_loop(rm_finset)
    assert t1 is not t2
    start = time.perf_counter()
    assert rm_finset.bisimilar(t1, t2, 60)
    assert time.perf_counter() - start < 1.0
    assert len(counted_out) == 2 * 61


def test_equal_truncations_are_one_object(rm_finset):
    leaf = TLeaf(Pair("c", "x"))
    assert TLeaf(Pair("c", "x")) is leaf
    node = TOp("act", "p0", (finset([leaf, TCUT]),))
    assert TOp("act", "p0", (finset([TCUT, leaf]),)) is node
    assert TOp("act", "p1", (finset([TCUT, leaf]),)) is not node
    a = rm_finset.truncate(_binary_loop(rm_finset), 5)
    b = rm_finset.truncate(_binary_loop(rm_finset), 5)
    assert a.elems[0] is b.elems[0]


def test_intern_tables_hold_values_weakly():
    import gc
    # free dead entries that earlier tests left in cycles, so that no
    # automatic collection frees them between the snapshots below
    gc.collect()
    before = len(TOp._table), len(TLeaf._table)
    v = finset([TLeaf("only here")])
    for _ in range(30):
        v = finset([TOp("ask", "*", (v, v))])
    assert (len(TOp._table), len(TLeaf._table)) == (before[0] + 30, before[1] + 1)
    del v
    gc.collect()
    assert (len(TOp._table), len(TLeaf._table)) == before


def test_interning_is_exact_under_threads():
    import sys
    import threading
    rm = resumption("finset")
    n, results = 1500, [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        # each thread builds its own trees; every truncation is new to the
        # table when the threads race to intern it
        trees = [rm.op_call("act", "p0", {"*": rm.unit(k)}) for k in range(n)]
        barrier.wait()
        results[i] = [rm.truncate(t, 2).elems[0] for t in trees]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k in range(n):
        assert all(r[k] is results[0][k] for r in results)
        assert results[0][k].children[0].elems[0] is TLeaf(k)


def _structural_key(v):
    """Reference: the canonical key computed by walking the whole value, as
    the truncation dataclasses did before values were interned."""
    if isinstance(v, TLeaf):
        return (30, _structural_key(v.value))
    if v is TCUT:
        return (31,)
    if isinstance(v, TOp):
        return (32, v.op, _structural_key(v.param),
                tuple(_structural_key(c) for c in v.children))
    if isinstance(v, FinSet):
        return (12,) + tuple(_structural_key(e) for e in v.elems)
    if isinstance(v, Just):
        return (11, _structural_key(v.value))
    if isinstance(v, NdState):
        return (13,) + tuple((_structural_key(s), _structural_key(x)) for s, x in v.table)
    if isinstance(v, Pair):
        return (4, _structural_key(v.fst), _structural_key(v.snd))
    if isinstance(v, (Inl, Inr)):
        return (2 if isinstance(v, Inl) else 3, _structural_key(v.value))
    return canon_key(v)    # atoms and the bottom of maybe


def _interned_values(v, base, seen):
    for e in base.elements(v):
        if isinstance(e, (TLeaf, TOp)) and id(e) not in seen:
            seen[id(e)] = e
            if isinstance(e, TOp):
                for c in e.children:
                    _interned_values(c, base, seen)


@pytest.mark.parametrize("kind", ["maybe", "finset", "nondetstate"])
def test_stored_keys_equal_the_structural_keys(kind):
    from elgot.laws import Gen, GenConfig
    rm = ResumptionMonad(elgot_instance(kind, ("s0", "s1")), two_op_signature())
    gen = Gen(GenConfig(seed=11))
    x = gen.carrier("x")
    seen = {}
    for _ in range(100):
        t = gen.tree(rm, x)
        for d in (0, 2, 6):
            v = rm.truncate(t, d)
            _interned_values(v, rm.base, seen)
            assert canon_key(v) == _structural_key(v)
    assert len(seen) > 50
    keys = {id(v): _structural_key(v) for v in seen.values()}
    for v in seen.values():
        assert canon_key(v) == keys[id(v)]
    # interning is structural equality: distinct objects have distinct keys
    assert len(set(keys.values())) == len(keys)


def test_node_keys_are_structural(rm_maybe):
    shared = rm_maybe.iota("act", "p1", {"*": "x"})
    t = rm_maybe.op_call("ask", "*", {"l": shared, "r": shared})
    node = rm_maybe.out(t).value.value
    key = (21, "ask", (0, "*"), ((22, shared.token), (22, shared.token)))
    assert node._canon_key_() == key and canon_key(node) == key

    seeds = sig_val(rm_maybe.sig.op("ask"), "*", {"l": Pair("s", 1), "r": Inl("s")})
    assert seeds._canon_key_() == (21, "ask", (0, "*"),
                                   ((4, (0, "s"), (1, 1)), (2, (0, "s"))))


def test_a_deep_truncation_is_keyed_and_rendered_without_recursion(rm_finset):
    # every layer is a two-member set, so rendering sorts each one and keys
    # the truncation below it, 5,000 layers deep
    act, n = rm_finset.sig.op("act"), 5000
    seeds = carrier("s", tuple(range(n)))
    g = make_kleisli(rm_finset.base, seeds, None, lambda s: finset(
        [Inl("x%d" % s), Inr(sig_val(act, "p0", {"*": min(s + 1, n - 1)}))]))
    text = rm_finset.render(rm_finset.coit(g)(0), n)
    assert len(text) == 133910
    assert text.startswith("{(leaf x0) (op act p0 {(leaf x1) (op act p0 {(leaf x2)")


def test_a_run_keys_no_truncation_layer(monkeypatch):
    # a while-program truncation orders no set of two or more layers, so no
    # layer's key is ever built
    from elgot import base_monads, core, resumption as res_module
    from elgot.while_lang import make_env, run
    calls = []
    key = core.canon_key
    for module in (core, base_monads, res_module):
        monkeypatch.setattr(module, "canon_key", lambda v: calls.append(v) or key(v))
    env = make_env("finset", alphabet=("0", "1"))
    text = run("while true do {read; while coin do write}; write", env, "0", 6)
    assert text.startswith("{(op read * ") and calls == []


def test_rendering_expands_each_shared_layer_once(monkeypatch):
    from elgot.while_lang import make_env, run
    expanded = {}
    render = TOp._render_

    def counted(self):
        expanded.setdefault(id(self), [self, 0])[1] += 1
        return render(self)

    monkeypatch.setattr(TOp, "_render_", counted)
    env = make_env("nondetstate", state_set=("s0", "s1"))
    text = run("while true do write", env, "0", 16)
    # one interned write layer per depth, shared by both states and both
    # results, so the text doubles per layer while each layer renders once
    assert len(text) == 8126394
    assert len(expanded) == 16
    assert max(n for _v, n in expanded.values()) == 1


@pytest.mark.parametrize("kind", ("maybe", "finset", "nondetstate"))
def test_performing_an_effect_is_binding_its_generic_tree(kind):
    # an effect followed by a program is bind(t, [[rest]]) for the effect's
    # generic tree t (operations are algebraic), and it renders as the
    # configuration graph of bench/reference.py does
    import random
    from elgot.while_lang import FALSE, TRUE, interpret, parse
    from test_differential import reference
    from test_while_lang import assert_matches_reference, make_test_env, random_program
    rng = random.Random("perform:%s" % kind)
    coin = kind != "maybe"
    env = make_test_env(kind)
    rm = env.rm
    generic = {"read": lambda v: rm.iota("read", "*", {a: a for a in env.alphabet.elements}),
               "write": lambda v: rm.iota("write", v, {"*": v})}
    for _ in range(15):
        rest = random_program(rng, 6, coin)
        k = interpret(parse(reference.source(rest)), env)
        for name, tree in generic.items():
            assert_matches_reference(env, kind, ("seq", ("act", name), rest))
            sem = interpret(parse("%s; %s" % (name, reference.source(rest))), env)
            for v in env.alphabet.elements:
                assert rm.bisimilar(sem(v), rm.bind(tree(v), k), 6)
        if coin:
            other = random_program(rng, 4, coin)
            test = ("if", "coin", rest, other)
            assert_matches_reference(env, kind, test)
            sem = interpret(parse(reference.source(test)), env)
            branch = {TRUE: k, FALSE: interpret(parse(reference.source(other)), env)}
            toss = rm.iota("coin", "*", {"ff": FALSE, "tt": TRUE})
            for v in env.alphabet.elements:
                assert rm.bisimilar(sem(v), rm.bind(toss, lambda b: branch[b](v)), 6)


def test_an_operation_is_performed_over_lazy_cells():
    # an action is one node over seeds: its children are trees whose
    # tables run only when their first layers are read, once each
    from elgot.while_lang import interpret, make_env, parse
    env = make_env("finset", alphabet=("a", "b"))
    calls, write = [], env.actions["write"]
    env.actions["write"] = lambda v: calls.append(v) or write(v)
    t = interpret(parse("read; write"), env)("a")
    (node,) = [e.value for e in env.rm.base.elements(t.out())]
    assert node.op == "read" and calls == []
    assert env.rm.render(node.child("b"), 1) == "{(op write b {(leaf b)})}"
    assert calls == ["b"]
    node.child("b").out()
    assert calls == ["b"]


def test_a_performed_child_is_the_continuations_own_tree():
    # one tree per seed: the true child of the coin in `while coin do skip`
    # is the loop's own tree, and its false child is the exit
    from elgot.while_lang import interpret, make_env, parse
    env = make_env("finset", alphabet=("a", "b"))
    sem = interpret(parse("while coin do skip"), env)
    for v in ("a", "b"):
        (node,) = [e.value for e in env.rm.base.elements(sem(v).out())]
        assert node.child("tt") is sem(v)
        assert node.child("ff").out() == finset([Inl(v)])
