import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from elgot.core import Inl, Inr, KleisliFn, Pair, carrier, make_kleisli, \
    sum_carrier, unit_carrier
from elgot.base_monads import FinSetMonad, Just, NOTHING, NdState, \
    approximants, elgot_instance, finset
from elgot.handler import (EffectInterpretation, InterpretationError,
                           MonadMorphism, check_universal_triangles, handle,
                           identity_morphism,
                           maybe_to_finset, maybe_to_nondetstate,
                           finset_to_nondetstate, zeta)
from elgot import handler
from elgot.resumption import OpNode, ResTree, ResumptionMonad, sig_val

from conftest import resumption, two_op_signature


def _setup_finset_target():
    rm = resumption("maybe")
    target = elgot_instance("finset")
    sigma = maybe_to_finset(rm.base, target)
    u_act = make_kleisli(target, rm.sig.op("act").param, unit_carrier(),
                         lambda p: target.unit("*"))
    u_ask = make_kleisli(target, unit_carrier(), rm.sig.op("ask").arity,
                         lambda p: finset(["l", "r"]))
    upsilon = EffectInterpretation(rm.sig, target,
                                   {"act": u_act, "ask": u_ask})
    return rm, target, sigma, upsilon


def _zeta_value(rm, t, sigma, ups):
    """The handling step as a target value over (result + remaining tree):
    each element of sigma's value made a value of its own, by S.unit for a
    leaf and S.map of its generic effect for a node, and all of them joined
    by S.bind.  The oracle that zeta's moves and the chain are checked
    against, built apart from handle's engine."""
    S = sigma.target

    def elem(e):
        if isinstance(e, Inl):
            return S.unit(Inl(e.value))
        node = e.value
        return S.map(ups.effect(node.op)(node.param), lambda a: Inr(node.child(a)))

    return S.bind(sigma.component(rm.out(t)), elem)


def test_zeta_on_unit():
    rm, S, sigma, ups = _setup_finset_target()
    assert _zeta_value(rm, rm.unit("x"), sigma, ups) == finset([Inl("x")])
    assert zeta(rm, rm.unit("x"), sigma, ups) == [(None, Inl("x"), None)]


def test_zeta_on_ext():
    rm, S, sigma, ups = _setup_finset_target()
    m = Just("v")
    value = _zeta_value(rm, rm.ext(m), sigma, ups)
    assert value == S.map(sigma.component(m), Inl)
    assert zeta(rm, rm.ext(m), sigma, ups) == list(S.moves(value))


def test_zeta_on_operation_returns_child_trees():
    rm, S, sigma, ups = _setup_finset_target()
    t = rm.iota("ask", "*", {"l": "x", "r": "y"})
    v = _zeta_value(rm, t, sigma, ups)
    els = S.elements(v)
    assert len(els) == 2 and all(isinstance(e, Inr) for e in els)
    results = sorted(rm.out(e.value).value.value for e in els)
    assert results == ["x", "y"]
    assert set(zeta(rm, t, sigma, ups)) == {(None, e, None) for e in els}


def test_zeta_unknown_operation_is_an_error():
    rm, S, sigma, ups = _setup_finset_target()
    stripped = EffectInterpretation.__new__(EffectInterpretation)
    stripped.sig, stripped.target, stripped.effects = ups.sig, S, {"act": ups.effects["act"]}
    stripped.answers = {}
    t = rm.iota("ask", "*", {"l": "x", "r": "y"})
    with pytest.raises(InterpretationError):
        zeta(rm, t, sigma, stripped)


# (source, target) -> the morphism; equal kinds take the identity
MORPHISMS = {("maybe", "finset"): maybe_to_finset,
             ("maybe", "nondetstate"): maybe_to_nondetstate,
             ("finset", "nondetstate"): finset_to_nondetstate}


def _instance(kind):
    return elgot_instance(kind, **({"state_set": ("s0", "s1")}
                                   if kind == "nondetstate" else {}))


def _handling(source, target, seed):
    """Trees over source, and sigma and random generic effects into target."""
    from elgot.laws import Gen, GenConfig
    rm = ResumptionMonad(_instance(source), two_op_signature())
    if source == target:
        S, sigma = rm.base, identity_morphism(rm.base)
    else:
        S = _instance(target)
        sigma = MORPHISMS[source, target](rm.base, S)
    return rm, sigma, Gen(GenConfig(seed=seed)).effect_interpretation(rm.sig, S)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["finite", "cyclic"]),
       st.sampled_from(sorted(MORPHISMS) + [(k, k) for k in
                                            ("maybe", "finset", "nondetstate")]),
       st.integers(0, 2 ** 16))
def test_zeta_lists_the_moves_of_the_value_level_step(shape, kinds, seed):
    from elgot.laws import Gen, GenConfig
    rm, sigma, ups = _handling(*kinds, seed)
    S = sigma.target
    gen = Gen(GenConfig(seed=seed, node_budget=10))
    x = gen.carrier("x", 2)
    if shape == "finite":
        t = gen.tree(rm, x)
    else:
        rng = random.Random(seed)
        unfold = _coalgebra_trees(rm, rng, x)
        t = unfold(rng.choice(unfold.dom.elements))
    # every tree the steps reach, up to 30 of them
    todo, seen = [t], {t}
    while todo and len(seen) < 30:
        tree = todo.pop()
        moves = zeta(rm, tree, sigma, ups)
        assert set(moves) == set(S.moves(_zeta_value(rm, tree, sigma, ups)))
        for _s, e, _s2 in moves:
            if isinstance(e, Inr) and e.value not in seen:
                seen.add(e.value)
                todo.append(e.value)


@pytest.mark.parametrize("kinds", sorted(MORPHISMS))
def test_zeta_builds_no_target_value(kinds, monkeypatch):
    # the step is composed move by move: nothing of the target is bound,
    # mapped or made a unit, while handling a fan of nodes and leaves
    rm, sigma, _random = _handling(*kinds, 5)
    S = sigma.target
    ups = EffectInterpretation(rm.sig, S, {
        op.name: make_kleisli(S, op.param, op.arity,
                              lambda p, _op=op: S.choice(_op.arity.elements))
        for op in rm.sig.ops})

    def fan():
        return rm.op_call("ask", "*", {
            "l": ResTree(fn=lambda: fan().out()),
            "r": rm.op_call("act", "p1", {"*": rm.unit("x")})})

    want = handle(rm, fan(), sigma, ups, 5)

    def refused(*_args):
        raise AssertionError("the handling step built a target value")

    for name in ("bind", "map", "unit"):
        monkeypatch.setattr(S, name, refused)
    got = handle(rm, fan(), sigma, ups, 5)
    assert zeta(rm, fan(), sigma, ups)
    assert S.render(got.value) == S.render(want.value)
    assert (got.converged, got.rounds, got.reached) == \
        (want.converged, want.rounds, want.reached)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MORPHISMS) + [(k, k) for k in
                                            ("maybe", "finset", "nondetstate")]),
       st.integers(0, 2 ** 16))
def test_sigma_moves_are_the_moves_of_its_value(kinds, seed):
    # bottom is nothing, the empty set or the empty table
    rm, sigma, _ups = _handling(*kinds, seed)
    rng = random.Random(seed)
    values = [rm.base.bottom()] + [
        rm.base.sample_value(rng, lambda: rng.choice("abcd"), 3) for _ in range(4)]
    for v in values:
        moves = list(sigma.moves(v))
        assert len(set(moves)) == len(moves)
        assert set(moves) == set(sigma.target.moves(sigma.component(v)))


@pytest.mark.parametrize("kinds", sorted(MORPHISMS))
def test_handling_a_chain_reads_no_choice_and_no_effect(kinds, monkeypatch):
    # the effects' answers are listed when the interpretation is built;
    # after that, no node makes sigma's value or calls its effect
    rm, sigma, _random = _handling(*kinds, 5)
    S = sigma.target
    calls = []

    class Counted(KleisliFn):
        __slots__ = ()

        def __call__(self, x):
            calls.append("effect")
            return KleisliFn.__call__(self, x)

    effects = {}
    for op in rm.sig.ops:
        u = make_kleisli(S, op.param, op.arity,
                         lambda p, _op=op: S.choice(_op.arity.elements[:1]))
        effects[op.name] = Counted(u.monad, u.dom, u.cod, u.table)
    ups = EffectInterpretation(rm.sig, S, effects)
    choice = S.choice

    def counted_choice(xs):
        calls.append("choice")
        return choice(xs)

    monkeypatch.setattr(S, "choice", counted_choice)
    n = 12
    t = rm.unit("x")
    for i in range(n):
        t = (rm.op_call("act", "p%d" % (i % 2), {"*": t}) if i % 3
             else rm.op_call("ask", "*", {"l": t, "r": rm.unit("y")}))
    calls.clear()
    r = handle(rm, t, sigma, ups, 2 * n + 1)
    assert calls == []
    assert r.converged and r.reached == n + 1
    assert r.value == S.unit("x")


def test_a_node_off_the_signature_is_read_through_its_effect():
    # an effect given for an operation off the signature handles that
    # operation's nodes
    rm, S, sigma, ups = _setup_finset_target()
    toss = make_kleisli(S, unit_carrier(), carrier("hs", ("h",)),
                        lambda p: S.unit("h"))
    extra = EffectInterpretation(rm.sig, S, dict(ups.effects, toss=toss))
    t = rm.out_inv(Just(Inr(OpNode("toss", "*", (("h", rm.unit("x")),)))))
    r = handle(rm, t, sigma, extra, 5)
    assert r.converged and r.value == finset(["x"])


ARITY = """
from elgot.base_monads import NdState, elgot_instance, finset
from elgot.core import Pair, make_kleisli, unit_carrier
from elgot.handler import EffectInterpretation, InterpretationError
from elgot.resumption import ResumptionMonad
from conftest import two_op_signature

off = ["q%d" % i for i in range(8, -1, -1)]
for kind in ("finset", "nondetstate"):
    S = elgot_instance(kind, **({"state_set": ("s0", "s1")}
                                if kind == "nondetstate" else {}))
    rm = ResumptionMonad(S, two_op_signature())
    value = (finset(off + ["l"]) if kind == "finset" else
             NdState((("s0", finset(Pair(a, "s1") for a in ["r"] + off[:4])),
                      ("s1", finset(Pair(a, "s0") for a in off[4:])))))
    try:
        EffectInterpretation(rm.sig, S, {
            "act": make_kleisli(S, rm.sig.op("act").param, unit_carrier(),
                                lambda p: S.unit("*")),
            "ask": make_kleisli(S, unit_carrier(), rm.sig.op("ask").arity,
                                lambda p: value)})
    except InterpretationError as exc:
        print(exc)
"""


def test_an_effect_names_its_first_answer_off_the_arity_under_any_hash_seed():
    # nine answers off the arity in one set, whose own order moves with the seed
    import os
    import subprocess
    import sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outs = [subprocess.run([sys.executable, "-c", ARITY], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path,
                                               PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    assert [out.stderr for out in outs] == ["", ""]
    assert [out.stdout for out in outs] == [
        "generic effect for ask yields q0 outside its arity carrier 2\n"
        "generic effect for ask yields q5 outside its arity carrier 2\n"] * 2


# layers with two faults each: a fault is named as the value-level step
# meets it, the first node in canonical order and its first answer
FAULTS = """
import sys
from elgot.base_monads import elgot_instance, finset
from elgot.core import Inl, Inr, make_kleisli, unit_carrier
from elgot.handler import (EffectInterpretation, InterpretationError, handle,
                           identity_morphism)
from elgot.resumption import OpNode, ResumptionMonad
from conftest import two_op_signature

rm = ResumptionMonad(elgot_instance("finset"), two_op_signature())
S = rm.base
ups = EffectInterpretation(rm.sig, S, {
    "act": make_kleisli(S, rm.sig.op("act").param, unit_carrier(),
                        lambda p: S.unit("*")),
    "ask": make_kleisli(S, unit_carrier(), rm.sig.op("ask").arity,
                        lambda p: finset(["l", "r"]))})
leaf = rm.unit("x")
for layer in ([OpNode("zz", "*", ()), OpNode("yy", "*", ())],
              [OpNode("ask", "*", (("l", leaf),)), OpNode("act", "p0", ())],
              [OpNode("zz", "*", ()), OpNode("ask", "*", (("r", leaf),))],
              [OpNode("ask", "*", ())]):
    t = rm.out_inv(finset([Inl("y")] + [Inr(node) for node in layer]))
    try:
        handle(rm, t, identity_morphism(S), ups, 3)
    except InterpretationError as exc:
        print(exc)
"""


def test_a_malformed_layer_names_its_first_fault_under_any_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outs = [subprocess.run([sys.executable, "-c", FAULTS], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path,
                                               PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    assert [out.stderr for out in outs] == ["", ""]
    assert [out.stdout for out in outs] == [
        "unknown operation yy\n"
        "operation act has no child at *\n"
        "operation ask has no child at l\n"
        "operation ask has no child at l\n"] * 2


def test_a_missing_child_at_an_answer_from_another_state_is_an_error():
    # the node is reached only in s0, where its effect answers l; the
    # effect's answer r from s1 has no child, and that is still a fault
    S = elgot_instance("nondetstate", state_set=("s0", "s1"))
    rm = ResumptionMonad(S, two_op_signature())
    ups = EffectInterpretation(rm.sig, S, {
        "act": make_kleisli(S, rm.sig.op("act").param, unit_carrier(),
                            lambda p: S.unit("*")),
        "ask": make_kleisli(S, unit_carrier(), rm.sig.op("ask").arity,
                            lambda p: NdState((("s0", finset([Pair("l", "s0")])),
                                               ("s1", finset([Pair("r", "s1")])))))})
    node = OpNode("ask", "*", (("l", rm.unit("x")),))
    t = rm.out_inv(NdState((("s0", finset([Pair(Inr(node), "s0")])),
                            ("s1", finset([Pair(Inl("y"), "s1")])))))
    with pytest.raises(InterpretationError, match="^operation ask has no child at r$"):
        handle(rm, t, identity_morphism(S), ups, 3)
    with pytest.raises(KeyError):
        _zeta_value(rm, t, identity_morphism(S), ups)


def test_broken_interpretation_wrong_arity_rejected():
    rm, S, sigma, ups = _setup_finset_target()
    bad_ask = make_kleisli(S, unit_carrier(), rm.sig.op("ask").arity,
                           lambda p: finset(["l", "zzz"]))
    with pytest.raises(InterpretationError):
        EffectInterpretation(rm.sig, S, {"act": ups.effects["act"], "ask": bad_ask})


def test_effects_must_cover_the_signature_on_its_parameters():
    rm, S, sigma, ups = _setup_finset_target()
    with pytest.raises(InterpretationError, match="no generic effect for operation ask"):
        EffectInterpretation(rm.sig, S, {"act": ups.effects["act"]})
    on_unit = make_kleisli(S, unit_carrier(), unit_carrier(), lambda p: S.unit("*"))
    with pytest.raises(InterpretationError, match="expected the parameter carrier p"):
        EffectInterpretation(rm.sig, S, {"act": on_unit, "ask": ups.effects["ask"]})


def test_handle_rejects_bad_fuel_and_mismatched_targets():
    rm, S, sigma, ups = _setup_finset_target()
    t = rm.unit("x")
    with pytest.raises(ValueError, match="fuel must be nonnegative"):
        handle(rm, t, sigma, ups, -1)
    other = maybe_to_finset(rm.base, elgot_instance("finset"))
    with pytest.raises(InterpretationError, match="different monads"):
        handle(rm, t, other, ups, 1)

    class NoBottom(FinSetMonad):
        name = "finset-without-bottom"
        has_bottom = False

    # the effects' values are finite sets, which NoBottom shares with S
    no_bottom = NoBottom()
    with pytest.raises(InterpretationError, match="has no bottom"):
        handle(rm, t, maybe_to_finset(rm.base, no_bottom),
               EffectInterpretation(rm.sig, no_bottom, ups.effects), 1)


def test_handle_ext_is_sigma_from_fuel_one():
    rm, S, sigma, ups = _setup_finset_target()
    for fuel in (1, 3, 10):
        for m in (Just("a"), NOTHING):
            r = handle(rm, rm.ext(m), sigma, ups, fuel)
            assert r.converged and S.equal(r.value, sigma.component(m))


def test_handle_unit_from_fuel_one():
    rm, S, sigma, ups = _setup_finset_target()
    for fuel in (1, 2):
        r = handle(rm, rm.unit("x"), sigma, ups, fuel)
        assert r.converged and r.value == S.unit("x")


def test_handle_fuel_zero_is_bottom():
    rm, S, sigma, ups = _setup_finset_target()
    r = handle(rm, rm.unit("x"), sigma, ups, 0)
    assert not r.converged and r.value == S.bottom()


def test_infinite_fresh_spine_stays_approximate():
    rm = resumption("maybe")
    base = rm.base
    sigma = identity_morphism(base)
    u_act = make_kleisli(base, rm.sig.op("act").param, unit_carrier(),
                         lambda p: base.unit("*"))
    u_ask = make_kleisli(base, unit_carrier(), rm.sig.op("ask").arity,
                         lambda p: base.unit("l"))
    ups = EffectInterpretation(rm.sig, base, {"act": u_act, "ask": u_ask})

    def spine():
        return rm.op_call("act", "p0", {"*": ResTree(fn=lambda: spine().out())})

    for fuel in (1, 3, 8):
        r = handle(rm, spine(), sigma, ups, fuel)
        assert r.value is NOTHING and not r.converged


# ask answers l (a leaf) and r (the rest of the spine) where the monad allows
ASK = {"maybe": lambda m: m.unit("r"),
       "finset": lambda m: finset(["l", "r"]),
       "nondetstate": lambda m: NdState(tuple(
           (s, finset([Pair("l", s), Pair("r", s)])) for s in m.states))}


@pytest.mark.parametrize("kind,kw", [("maybe", {}), ("finset", {}),
                                     ("nondetstate", {"state_set": ("s0", "s1")})])
def test_handle_returns_the_kth_table_of_the_chain(kind, kw):
    base = elgot_instance(kind, **kw)
    rm = ResumptionMonad(base, two_op_signature())
    sigma = identity_morphism(base)
    u_act = make_kleisli(base, rm.sig.op("act").param, unit_carrier(),
                         lambda p: base.unit("*"))
    u_ask = make_kleisli(base, unit_carrier(), rm.sig.op("ask").arity,
                         lambda p: ASK[kind](base))
    ups = EffectInterpretation(rm.sig, base, {"act": u_act, "ask": u_ask})

    def spine(n):
        return rm.op_call("ask", "*", {"l": rm.unit(n),
                                       "r": ResTree(fn=lambda: spine(n + 1).out())})

    t = spine(0)
    chain = approximants(base, (t,), lambda tree: _zeta_value(rm, tree, sigma, ups))
    tables = [table for table, _stable in itertools.islice(chain, 4)]
    for k, table in enumerate(tables, 1):
        r = handle(rm, t, sigma, ups, k)
        assert r.rounds == k and not r.converged
        assert base.equal(r.value, table[t])
    # by round 4 some leaf has reached the root wherever l is offered
    assert (kind == "maybe") == base.equal(tables[-1][t], base.bottom())


def test_handle_expands_only_nodes_within_fuel_plus_one(monkeypatch):
    rm, S, sigma, ups = _setup_finset_target()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return zeta(*args)

    monkeypatch.setattr(handler, "zeta", counted)

    def spine():
        return rm.op_call("act", "p0", {"*": ResTree(fn=lambda: spine().out())})

    def fan():
        return rm.op_call("ask", "*", {a: ResTree(fn=lambda: fan().out())
                                       for a in ("l", "r")})

    # every node is fresh: a spine has one node per distance, a fan 2^d
    for fuel, in_spine, in_fan in ((0, 2, 3), (1, 3, 7), (2, 4, 15), (5, 7, 127)):
        for t, nodes in ((spine(), in_spine), (fan(), in_fan)):
            calls.clear()
            r = handle(rm, t, sigma, ups, fuel)
            assert len(calls) == len(set(calls)) == r.reached == nodes
            assert not r.converged


@pytest.mark.parametrize("kind,kw", [("finset", {}),
                                     ("nondetstate", {"state_set": ("s0", "s1")})])
def test_handle_walks_each_step_value_once(kind, kw, monkeypatch):
    # children are found through moves, in the value's own order, so no
    # step value is listed in canonical order as well
    base = elgot_instance(kind, **kw)
    rm = ResumptionMonad(base, two_op_signature())
    u_act = make_kleisli(base, rm.sig.op("act").param, unit_carrier(),
                         lambda p: base.unit("*"))
    u_ask = make_kleisli(base, unit_carrier(), rm.sig.op("ask").arity,
                         lambda p: ASK[kind](base))
    ups = EffectInterpretation(rm.sig, base, {"act": u_act, "ask": u_ask})

    def fan():
        return rm.op_call("ask", "*", {a: ResTree(fn=lambda: fan().out())
                                       for a in ("l", "r")})

    listed = []
    elements = base.elements
    monkeypatch.setattr(base, "elements", lambda v: listed.append(v) or elements(v))
    r = handle(rm, fan(), identity_morphism(base), ups, 4)
    assert r.reached == 63 and listed == []


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_fuel_counts_handling_rounds_with_a_lag(n):
    # the leaf is first valued in round n and reaches the root n rounds later
    rm, S, sigma, ups = _setup_finset_target()
    t = rm.unit("x")
    for _ in range(n):
        t = rm.op_call("act", "p0", {"*": t})
    for fuel in range(2 * n + 2):
        r = handle(rm, t, sigma, ups, fuel)
        assert S.equal(r.value, S.unit("x")) == r.converged == (fuel >= 2 * n)
    assert handle(rm, t, sigma, ups, 100).rounds == 2 * n + 1


def _chain_handle(rm, t, sigma, ups, fuel):
    """handle as the Kleene chain runs it: (value, converged, rounds, the
    number of nodes the chain expanded)."""
    S = sigma.target
    expanded = []

    def step_at(tree):
        expanded.append(tree)
        return _zeta_value(rm, tree, sigma, ups)

    value = S.bottom()
    for rounds, (table, stable) in enumerate(approximants(S, (t,), step_at), 1):
        if rounds > fuel:
            return value, stable, fuel, len(expanded)
        value = table[t]
        if stable:
            return value, True, rounds, len(expanded)


def _target(rm, kind, seed):
    from elgot.laws import Gen, GenConfig
    if kind == "maybe":
        target, sigma = rm.base, identity_morphism(rm.base)
    elif kind == "finset":
        target = elgot_instance("finset")
        sigma = maybe_to_finset(rm.base, target)
    else:
        target = elgot_instance("nondetstate", state_set=("s0", "s1"))
        sigma = maybe_to_nondetstate(rm.base, target)
    return sigma, Gen(GenConfig(seed=seed)).effect_interpretation(rm.sig, target)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["finite", "cyclic", "spine"]),
       st.sampled_from(["maybe", "finset", "nondetstate"]),
       st.integers(0, 12), st.integers(0, 2 ** 16))
def test_handle_equals_the_chain(shape, target, fuel, seed):
    from elgot.laws import Gen, GenConfig
    rm = resumption("maybe")
    sigma, ups = _target(rm, target, seed)
    S = sigma.target
    gen = Gen(GenConfig(seed=seed, node_budget=10))
    x = gen.carrier("x", 2)
    if shape == "finite":
        t = gen.tree(rm, x)
    elif shape == "cyclic":
        rng = random.Random(seed)
        unfold = _coalgebra_trees(rm, rng, x)
        t = unfold(rng.choice(unfold.dom.elements))
    else:
        def spine():
            return rm.op_call("ask", "*", {"l": rm.unit("x0"),
                                           "r": ResTree(fn=lambda: spine().out())})
        t = spine()
    value, converged, rounds, expanded = _chain_handle(rm, t, sigma, ups, fuel)
    r = handle(rm, t, sigma, ups, fuel)
    assert S.equal(r.value, value) and S.render(r.value) == S.render(value)
    assert (r.converged, r.rounds, r.reached) == (converged, rounds, expanded)


def test_memoized_spine_converges_to_bottom():
    # when the reachable node set is finite the fixpoint is exact
    rm, S, sigma, ups = _setup_finset_target()
    x = carrier("x", ("a",))
    y = carrier("y", ("y0",))
    f = make_kleisli(rm, x, sum_carrier(y, x),
                     lambda v: rm.op_call("act", "p0", {"*": rm.unit(Inr(v))}))
    spine = rm.iterate(f)("a")
    r = handle(rm, spine, sigma, ups, 10)
    assert r.converged and r.value == S.bottom()


def _fold_oracle(rm, t, sigma, ups):
    """Direct structural fold; only terminates on finite trees."""
    S = sigma.target

    def go(tree):
        def elem(e):
            if isinstance(e, Inl):
                return S.unit(e.value)
            node = e.value
            u = ups.effect(node.op)
            return S.bind(u(node.param),
                          lambda a: go(node.child(a)))
        return S.bind(sigma.component(rm.out(tree)), elem)

    return go(t)


def test_converged_values_match_structural_fold():
    from elgot.laws import Gen, GenConfig
    rm, S, sigma, ups = _setup_finset_target()
    gen = Gen(GenConfig(seed=57, node_budget=8))
    x = gen.carrier("x", 3)
    for _ in range(40):
        t = gen.tree(rm, x)
        r = handle(rm, t, sigma, ups, 12)
        assert r.converged
        assert S.equal(r.value, _fold_oracle(rm, t, sigma, ups))


def test_nothing_interpretation_swallows_operations():
    # interpreting an operation by divergence makes any op-rooted tree diverge
    rm = resumption("maybe")
    base = rm.base
    sigma = identity_morphism(base)
    u_act = make_kleisli(base, rm.sig.op("act").param, unit_carrier(),
                         lambda p: NOTHING)
    u_ask = make_kleisli(base, unit_carrier(), rm.sig.op("ask").arity,
                         lambda p: NOTHING)
    ups = EffectInterpretation(rm.sig, base, {"act": u_act, "ask": u_ask})
    t = rm.iota("act", "p0", {"*": "x"})
    r = handle(rm, t, sigma, ups, 6)
    assert r.value is NOTHING and r.converged


def test_triangles_clean_run():
    from elgot.laws import GenConfig, run_handler_suite
    rm, S, sigma, ups = _setup_finset_target()
    rep = run_handler_suite(rm, sigma, ups, GenConfig(samples=40, seed=61))
    assert rep.ok, rep.text()


def test_handler_suite_reports_skips_per_law():
    from elgot.laws import GenConfig, run_handler_suite
    rm, S, sigma, ups = _setup_finset_target()
    rep = run_handler_suite(rm, sigma, ups, GenConfig(samples=8, seed=61), fuel=0)
    skipped = {r.law: r.skipped for r in rep.results}
    # nothing converges at fuel 0: every Kleisli and iteration sample drawn
    # goes unchecked, and each law draws as many samples as it reports
    assert skipped == {"handle.ext": 0, "handle.iota": 0, "handle.kleisli": 8,
                       "handle.iteration": 8, "handle.fuel_monotone": 0}
    assert all(r.samples == 8 for r in rep.results)
    laws = rep.to_dict()["laws"]
    assert {law: entry["skipped"] for law, entry in laws.items()} == skipped


def test_handler_suite_reports_a_raising_check():
    from elgot.laws import GenConfig, run_handler_suite
    rm, S, sigma, ups = _setup_finset_target()

    def no_component(v):
        raise ValueError("no component")

    broken = MonadMorphism("broken", rm.base, S, no_component)
    rep = run_handler_suite(rm, broken, ups, GenConfig(samples=4, seed=61))
    # every law handles a tree, so every sample fails, and the run goes on
    assert [len(r.failures) for r in rep.results] == [4] * 5, rep.text()
    assert {w for r in rep.results for w in r.failures} == {
        "raised ValueError: no component"}


def test_morphism_suite_detects_mutated_evaluator():
    from elgot.laws import GenConfig, run_morphism_suite
    rm, S, sigma, ups = _setup_finset_target()
    # an evaluator whose first step drops the base effect instead of
    # translating it: well typed, semantically wrong
    dropped = MonadMorphism("dropped", rm.base, S, lambda v: finset([]))

    def eval_broken(t):
        r = handle(rm, t, dropped, ups, 8)
        return r.value if r.converged else None

    xi_broken = MonadMorphism("xi-mutant", rm, S, eval_broken)
    rep = run_morphism_suite(xi_broken, GenConfig(samples=15, seed=63))
    assert not rep.ok


def test_morphism_suite_accepts_true_evaluator():
    from elgot.laws import GenConfig, run_morphism_suite
    rm, S, sigma, ups = _setup_finset_target()

    def eval_ok(t):
        r = handle(rm, t, sigma, ups, 10)
        return r.value if r.converged else None

    xi = MonadMorphism("xi", rm, S, eval_ok)
    rep = run_morphism_suite(xi, GenConfig(samples=15, seed=63))
    assert rep.ok, rep.text()


def test_morphism_suite_counts_unconverged_samples_as_skipped():
    from elgot.laws import GenConfig, run_morphism_suite
    rm, S, sigma, ups = _setup_finset_target()
    cfg = GenConfig(samples=12, seed=63)
    nowhere = MonadMorphism("nowhere", rm, S, lambda t: None)
    rep = run_morphism_suite(nowhere, cfg)
    assert rep.ok and all(r.samples == r.skipped == 12 for r in rep.results)

    def eval_unfuelled(t):
        r = handle(rm, t, sigma, ups, 0)
        return r.value if r.converged else None

    # at fuel 0 only a tree whose value is bottom converges: a unit tree
    # never does, and most Kleisli and iteration samples leave nothing to
    # compare; each of them is counted, and the rest are checked
    rep = run_morphism_suite(MonadMorphism("xi-fuel-0", rm, S, eval_unfuelled), cfg)
    by_law = {r.law: r for r in rep.results}
    assert rep.ok, rep.text()
    assert all(r.samples == 12 for r in rep.results)
    assert by_law["morphism.unit"].skipped == 12
    for law in ("morphism.kleisli", "morphism.iteration"):
        assert 0 < by_law[law].skipped <= 12


def test_state_morphisms_compose_consistently():
    maybe = elgot_instance("maybe")
    fs = elgot_instance("finset")
    nd = elgot_instance("nondetstate", state_set=("s0", "s1"))
    m2f = maybe_to_finset(maybe, fs)
    f2n = finset_to_nondetstate(fs, nd)
    m2n = maybe_to_nondetstate(maybe, nd)
    for v in (Just("a"), NOTHING):
        assert f2n.component(m2f.component(v)) == m2n.component(v)


def _while_denotation(program):
    """The denotation of a while program at input 0 on finset, with write
    answering *, read answering 0 and coin answering both ff and tt."""
    from elgot.while_lang import interpret, make_env, parse
    env = make_env("finset", alphabet=("0", "1"))
    rm = env.rm
    base = rm.base
    answers = {"write": ["*"], "read": ["0"], "coin": ["ff", "tt"]}
    ups = EffectInterpretation(rm.sig, base, {
        op.name: make_kleisli(base, op.param, op.arity,
                              lambda p, a=answers[op.name]: finset(a))
        for op in rm.sig.ops})
    return rm, ups, interpret(parse(program), env)("0")


def test_loop_lifted_through_sequence_converges():
    rm, ups, t = _while_denotation("{while coin do write}; write")
    r = handle(rm, t, identity_morphism(rm.base), ups, 20)
    assert r.converged and r.value == finset(["0"])


def test_bind_and_strength_of_a_loop_converge():
    rm, ups, loop = _while_denotation("while coin do write")
    sigma = identity_morphism(rm.base)
    r = handle(rm, rm.bind(loop, rm.unit), sigma, ups, 20)
    assert r.converged and r.value == finset(["0"])
    r = handle(rm, rm.strength("c", loop), sigma, ups, 20)
    assert r.converged and r.value == finset([Pair("c", "0")])


def test_triangles_count_every_skipped_iteration_point():
    from elgot.laws import Gen, GenConfig
    rm, S, sigma, ups = _setup_finset_target()
    gen = Gen(GenConfig(seed=5))
    x, y = gen.carrier("x", 3), gen.carrier("y", 2)
    samples = [gen.kleisli(rm, x, sum_carrier(y, x)) for _ in range(4)]
    rep = check_universal_triangles(rm, sigma, ups, iter_samples=samples, fuel=0)
    # no point of any sample converges, so each sample is one skip
    assert rep.ok and rep.skipped == 4
    assert {r.law: (r.samples, r.skipped) for r in rep.results} == {
        "handle.ext": (0, 0), "handle.iota": (0, 0), "handle.kleisli": (0, 0),
        "handle.iteration": (4, 4)}


def _coalgebra_trees(rm, rng, x_car, seeds=4):
    """Trees unfolded by coit from a random coalgebra on a few seeds; most
    of them are cyclic."""
    s_car = carrier("s", tuple("s%d" % i for i in range(seeds)))

    def elem():
        r = rng.random()
        if r < 0.3:
            return Inl(rng.choice(x_car.elements))
        op = rm.sig.op("act" if r < 0.65 else "ask")
        return Inr(sig_val(op, rng.choice(op.param.elements),
                           {a: rng.choice(s_car.elements) for a in op.arity.elements}))

    g = make_kleisli(rm.base, s_car, None,
                     lambda s: rm.base.sample_value(rng, elem, 2))
    return rm.coit(g)


def test_triangles_on_lifted_cyclic_trees():
    import random
    from elgot.laws import Gen, GenConfig
    rm, S, sigma, ups = _setup_finset_target()
    rng = random.Random(11)
    gen = Gen(GenConfig(seed=11, node_budget=6))
    x, y = gen.carrier("x", 2), gen.carrier("y", 2)
    samples = []
    for _ in range(3):
        unfold = _coalgebra_trees(rm, rng, x)
        samples += [(unfold(s), gen.kleisli(rm, x, y)) for s in unfold.dom.elements]
    rep = check_universal_triangles(rm, sigma, ups, bind_samples=samples, fuel=8)
    assert sum(r.samples for r in rep.results) == len(samples)
    assert rep.skipped == 0
    assert rep.ok, rep.failures
