import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elgot import base_monads
from elgot.core import ConfigError, Inl, Inr, Pair, canon_key, carrier, render_elem, \
    sum_carrier, make_kleisli, KleisliFn
from elgot.base_monads import (EMPTY_SET, FinSet, FinSetMonad, Just, MaybeMonad,
                               NOTHING, NdState, approximants, canonical_moves,
                               elgot_instance, finset,
                               kleene_iterate, partition_iterate_maybe, propagate,
                               reach_iterate)
from elgot.resumption import OpNode, ResTree

KINDS = [("maybe", {}), ("finset", {}), ("nondetstate", {"state_set": ("s0", "s1")})]


def test_maybe_order():
    m = elgot_instance("maybe")
    assert m.leq(NOTHING, Just("a"))
    assert m.leq(Just("a"), Just("a"))
    assert not m.leq(Just("a"), Just("b"))


def test_finset_canonical():
    assert finset(["b", "a", "b"]) == finset(["a", "b"])
    assert finset([]) == EMPTY_SET
    assert finset([Inr("x"), Inl("y")]).elems == (Inl("y"), Inr("x"))


_TREES = (ResTree(fn=lambda: None), ResTree(fn=lambda: None))
_ATOMS = st.one_of(st.sampled_from("abc"), st.integers(-2, 2))
_ELEMS = st.recursive(
    # as in a signature, an operation's arity atoms come in one fixed order
    st.one_of(_ATOMS, st.builds(OpNode, st.sampled_from(["act", "ask"]), _ATOMS,
                                st.lists(st.sampled_from(_TREES), max_size=2)
                                .map(lambda ts: tuple(zip("lr", ts))))),
    lambda inner: st.one_of(st.builds(Inl, inner), st.builds(Inr, inner),
                            st.builds(Pair, inner, inner)),
    max_leaves=4)


def _sorted_elems(xs):
    """The canonical tuple a FinSet stored before it became a frozenset."""
    return tuple(sorted(dict.fromkeys(xs), key=canon_key))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_ELEMS, max_size=6), st.lists(_ELEMS, max_size=6))
def test_finset_keeps_its_canonical_semantics(xs, ys):
    a, b = finset(xs), finset(ys)
    old_a, old_b = _sorted_elems(xs), _sorted_elems(ys)
    assert a.elems == old_a and b.elems == old_b
    assert (a == b) == (old_a == old_b)
    if a == b:
        assert hash(a) == hash(b)
    assert canon_key(a) == (12,) + tuple(canon_key(e) for e in old_a)
    assert render_elem(a) == "{%s}" % " ".join(render_elem(e) for e in old_a)
    assert repr(a) == "FinSet(elems=%r)" % (old_a,)
    assert len(a) == len(old_a)
    for e in xs + ys + ["zz"]:
        assert (e in a) == (e in old_a)
    for name in ("elems", "_elems", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a.elems == old_a


def test_finset_sorts_only_where_its_order_is_read(monkeypatch):
    calls = []
    key = base_monads.canon_key
    monkeypatch.setattr(base_monads, "canon_key", lambda v: calls.append(v) or key(v))

    m = FinSetMonad()
    v = finset(["c", "a", "b"])
    assert len(calls) == 0
    assert v.elems == ("a", "b", "c") and len(calls) == 3
    assert v.elems == ("a", "b", "c") and len(calls) == 6     # nothing is stored

    del calls[:]
    w = m.bind(v, lambda e: finset([e, e + "1", "z"]))
    wider = m.bind(v, lambda e: finset(["z", e, e + "1", "x", "y"]))
    # each bind keys the set it walks, never its result
    assert sorted(calls) == ["a", "a", "b", "b", "c", "c"]
    del calls[:]
    assert m.join(w, finset(["y", "x"])) == wider
    assert w == finset(["a", "a1", "b", "b1", "c", "c1", "z"]) != v
    assert calls == []      # join and == never sort

    # the chain x0 -> x1 -> ... -> x7, every other point and x7 returning y_i
    n = 8
    xs = carrier("X", ["x%d" % i for i in range(n)])
    ys = carrier("Y", ["y%d" % i for i in range(n)])

    def step(x):
        i = int(x[1:])
        out = [Inl("y%d" % i)] if i % 2 == 0 or i == n - 1 else []
        return finset(out + ([Inr("x%d" % (i + 1))] if i < n - 1 else []))
    f = make_kleisli(m, xs, sum_carrier(ys, xs), step)
    del calls[:]
    # propagation walks each step value in its own order and sorts nothing
    solved = m.iterate(f)
    assert calls == []
    fd = kleene_iterate(f)
    # the chain sorts step values where it walks them, and no approximant
    step_elems = {e for x in xs.elements for e in step(x)}
    assert calls and all(isinstance(c, (Inl, Inr)) and c in step_elems for c in calls)
    assert fd("x0") == finset(["y0", "y2", "y4", "y6", "y7"])
    assert solved.table == fd.table


@pytest.mark.parametrize("kind,kw", KINDS[1:])
def test_bind_and_map_visit_elements_in_canonical_order(kind, kw):
    # a bind callback may build trees, whose tokens are handed out in
    # creation order, so it must see elements in canonical order, never hash
    # order; a map callback may not build trees, so map walks the set itself
    # and only its value is canonical
    m = elgot_instance(kind, **kw)
    xs = [16, 1, 8, -1, 0]
    assert list(frozenset(xs)) != sorted(xs)       # hash order differs here
    v = m.choice(xs)
    per_state = sorted(xs) * len(getattr(m, "states", "*"))
    seen = []
    m.bind(v, lambda x: seen.append(x) or m.unit(x))
    assert seen == per_state
    seen = []
    mapped = m.map(v, lambda x: seen.append(x) or x % 3)
    assert mapped == m.bind(v, lambda x: m.unit(x % 3)) == m.choice([x % 3 for x in xs])
    assert sorted(seen) == sorted(per_state)       # once per member and state


def test_map_sorts_nothing(monkeypatch):
    calls = []
    key = base_monads.canon_key
    monkeypatch.setattr(base_monads, "canon_key", lambda v: calls.append(v) or key(v))
    v = finset(["c", "a", "b"])
    assert FinSetMonad().map(v, str.upper) == finset(["A", "B", "C"])
    nd = elgot_instance("nondetstate", state_set=("s0", "s1"))
    assert nd.map(nd.choice(["c", "a", "b"]), str.upper) == nd.choice(["A", "B", "C"])
    assert calls == []


_INTS = st.integers(-3, 3)
_VALUES = {
    "maybe": st.one_of(st.just(NOTHING), st.builds(Just, _INTS)),
    "finset": st.lists(_INTS, max_size=5).map(finset),
    "nondetstate": st.tuples(*[
        st.lists(st.builds(Pair, _INTS, st.sampled_from(("s0", "s1"))), max_size=4)
        .map(finset) for _s in ("s0", "s1")]).map(
            lambda sets: NdState(tuple(zip(("s0", "s1"), sets)))),
}


@pytest.mark.parametrize("kind,kw", KINDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), table=st.dictionaries(_INTS, _INTS))
def test_map_is_bind_of_unit(kind, kw, data, table):
    m = elgot_instance(kind, **kw)
    v = data.draw(_VALUES[kind])

    def g(x):
        return table.get(x, x)
    assert m.map(v, g) == m.bind(v, lambda x: m.unit(g(x)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcde")), st.lists(st.sampled_from("abcde")))
def test_finset_union_is_order_insensitive(xs, ys):
    m = elgot_instance("finset")
    lhs = m.bind(finset(xs), lambda _x: finset(ys))
    rhs = finset(ys) if xs else EMPTY_SET
    assert lhs == rhs


def test_nondetstate_unit_and_bind():
    m = elgot_instance("nondetstate", state_set=("s0", "s1"))
    v = m.unit("x")
    assert v.at("s0") == finset([Pair("x", "s0")])
    # bind threads the state
    w = m.bind(v, lambda x: NdState((("s0", finset([Pair("y", "s1")])),
                                     ("s1", finset([])))))
    assert w.at("s0") == finset([Pair("y", "s1")])
    assert w.at("s1") == EMPTY_SET


def test_nondetstate_requires_states():
    with pytest.raises(ConfigError):
        elgot_instance("nondetstate")


def test_kleene_three_element_example():
    m = elgot_instance("maybe")
    x = carrier("x", ("x0", "x1", "x2"))
    y = carrier("y", ("y",))
    table = {"x0": Just(Inl("y")), "x1": Just(Inr("x0")), "x2": NOTHING}
    f = make_kleisli(m, x, sum_carrier(y, x), table.__getitem__)
    fd = kleene_iterate(f)
    assert fd("x0") == Just("y")
    assert fd("x1") == Just("y")
    assert fd("x2") is NOTHING


@pytest.mark.parametrize("kind,kw", KINDS)
def test_kleene_self_loop_is_bottom(kind, kw):
    m = elgot_instance(kind, **kw)
    x = carrier("x", ("a", "b"))
    y = carrier("y", ("y0",))
    f = make_kleisli(m, x, sum_carrier(y, x), lambda v: m.unit(Inr(v)))
    fd = kleene_iterate(f)
    for v in x.elements:
        assert m.equal(fd(v), m.bottom())


def test_kleene_finset_two_step_example():
    m = elgot_instance("finset")
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y1", "y2"))
    table = {"x0": finset([Inr("x1")]), "x1": finset([Inl("y1"), Inl("y2")])}
    fd = kleene_iterate(make_kleisli(m, x, sum_carrier(y, x), table.__getitem__))
    assert fd("x0") == finset(["y1", "y2"])


@pytest.mark.parametrize("kind,kw", KINDS)
def test_chain_ascends_to_the_kleene_fixpoint(kind, kw):
    m = elgot_instance(kind, **kw)
    x = carrier("x", ("x0", "x1", "x2", "x3"))
    y = carrier("y", ("y",))
    nxt = dict(zip(x.elements, x.elements[1:]))
    f = make_kleisli(m, x, sum_carrier(y, x),
                     lambda v: m.unit(Inr(nxt[v]) if v in nxt else Inl("y")))
    prev = dict.fromkeys(x.elements, m.bottom())
    for rounds, (table, stable) in enumerate(approximants(m, x.elements, f), 1):
        assert all(m.leq(prev[v], table[v]) for v in x.elements)
        if stable:
            break
        prev = table
    # the reversed chain of four points fills one point per round
    assert rounds == 5
    assert table == kleene_iterate(f).table


class _NeverEqual(FinSetMonad):
    def equal(self, a, b):
        return False


def test_kleene_bound_is_an_explicit_error():
    m = _NeverEqual()
    x = carrier("x", ("x0",))
    y = carrier("y", ("y0",))
    f = make_kleisli(m, x, sum_carrier(y, x), lambda v: finset([Inl("y0")]))
    with pytest.raises(RuntimeError, match="did not stabilize in 14 rounds"):
        kleene_iterate(f)


def _random_value(data, m, kind, elems):
    pick = st.sampled_from(elems)
    if kind == "maybe":
        e = data.draw(st.none() | pick)
        return NOTHING if e is None else Just(e)
    if kind == "finset":
        return finset(data.draw(st.lists(pick, max_size=3)))
    pairs = st.lists(st.builds(Pair, pick, st.sampled_from(m.states)), max_size=2)
    return NdState(tuple((s, finset(data.draw(pairs))) for s in m.states))


_NODE = OpNode("act", "a", (("*", _TREES[0]),))
# extra elements of a draw: none on half the draws, else calls off the table,
# a non-sum element, or both
_BROKEN = [(), (), (Inr("q1"), Inr("q0")), ("bare",), (Inr("q1"), "bare")]


def _outcome(solve, f):
    """The solution's table, or the type and text of the error raised."""
    try:
        return solve(f).table
    except TypeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind,kw", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_propagation_equals_the_kleene_chain(kind, kw, data):
    m = elgot_instance(kind, **kw)
    points = ["p%d" % i for i in range(data.draw(st.integers(1, 7)))]
    # results as the guarding transform sees them (cod=None, an operation
    # node frozen as an atom) and calls to every point
    broken = data.draw(st.sampled_from(_BROKEN))
    # on a ring the domain is the first point, and each point calls the next
    # and maybe the first, so points lie far away and read a point near by
    ring = data.draw(st.booleans())
    calls = points[:1] if ring else points
    elems = [Inl("y0"), Inl(Inr(_NODE))] + [Inr(p) for p in calls] + list(broken)
    # the domain is a prefix, so the other points are reached late or never
    dom = carrier("x", points[:1 if ring else data.draw(st.integers(1, len(points)))])
    system = {p: _random_value(data, m, kind, elems) for p in points}
    for p, nxt in zip(points, points[1:] + points[:1]) if ring else ():
        joined = m.join(system[p], m.unit(Inr(nxt)))
        system[p] = m.unit(Inr(nxt)) if joined is None else joined
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from(points))
        loop = m.unit(Inr(p))                   # a self-loop, kept next to p's step
        joined = m.join(system[p], loop)
        system[p] = loop if joined is None else joined
    f = KleisliFn(m, dom, None, system)
    want = _outcome(kleene_iterate, f)
    assert _outcome(reach_iterate, f) == want
    if isinstance(want, tuple):         # an error: the chain has no tables
        return
    # with fuel k, the results that arrive by round k make the chain's k-th
    # table, every position of every point included; the 0-th is bottom
    tables = [{}]
    for table, stable in approximants(m, dom.elements, f):
        tables.append(table)
        if stable:
            break
    for k, table in enumerate(tables):
        first, _stable, expanded = propagate(dom.elements, lambda x: m.moves(f(x)), k)
        by_k = {pos: [r for r, n in got.items() if n <= k] for pos, got in first.items()}
        assert set(table) <= set(expanded)
        assert {x: m.pack(by_k, x) for x in expanded} == \
            {x: table.get(x, m.bottom()) for x in expanded}
    # without fuel, every result arrives, in the round the chain stabilizes
    first, stable, expanded = propagate(dom.elements, lambda x: m.moves(f(x)))
    assert stable == len(tables) - 1
    assert {x: m.pack(first, x) for x in expanded} == \
        {x: tables[-1].get(x, m.bottom()) for x in expanded}


_OFF_TABLE = """
from elgot.base_monads import FinSetMonad, finset, kleene_iterate, reach_iterate
from elgot.core import Inl, Inr, carrier, make_kleisli, sum_carrier
m = FinSetMonad()
x, y = carrier("x", ("x0", "x1")), carrier("y", ("y0",))
off = [Inr("q%d" % i) for i in range(8, -1, -1)]
f = make_kleisli(m, x, sum_carrier(y, x), lambda v: finset(off + [Inl("y0")]))
for solve in (kleene_iterate, reach_iterate):
    try:
        solve(f)
    except TypeError as exc:
        print(type(exc).__name__, exc)
"""


def test_a_call_off_the_table_names_the_same_point_under_any_hash_seed():
    # nine calls off the table in one set, whose own order moves with the seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", _OFF_TABLE], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert out.stdout == \
            "CarrierMismatchError q0 is not an element of carrier x\n" * 2, out.stderr


def test_reach_iterate_names_a_fault_without_the_chain(monkeypatch):
    # the engine names its own first fault: it never runs its specification
    def chain(*args):
        raise AssertionError("the Kleene chain was run")

    monkeypatch.setattr(base_monads, "kleene_iterate", chain)
    monkeypatch.setattr(base_monads, "approximants", chain)
    m = FinSetMonad()
    x, y = carrier("x", ("x0", "x1")), carrier("y", ("y0",))
    off = [Inr("q%d" % i) for i in range(8, -1, -1)]
    f = make_kleisli(m, x, sum_carrier(y, x), lambda v: finset(off + [Inl("y0")]))
    with pytest.raises(TypeError, match="^q0 is not an element of carrier x$"):
        reach_iterate(f)


@pytest.mark.parametrize("kind,kw", KINDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_canonical_moves_are_the_moves_in_canonical_order(kind, kw, data):
    m = elgot_instance(kind, **kw)
    v = _random_value(data, m, kind, [Inl("y0"), Inl("y1"), Inr("p0"), Inr("p1"), "bare"])
    moves = canonical_moves(m, v)
    assert Counter(moves) == Counter(m.moves(v))
    # each element first moves in the order of m.elements
    assert list(dict.fromkeys(e for _s, e, _s2 in moves)) == list(m.elements(v))


def _reversed_chain(m, n):
    x = carrier("x", tuple("x%d" % i for i in range(n)))
    y = carrier("y", ("y",))
    nxt = dict(zip(x.elements, x.elements[1:]))
    return make_kleisli(m, x, sum_carrier(y, x),
                        lambda v: m.unit(Inr(nxt[v]) if v in nxt else Inl("y")))


def _counting(base):
    class Counting(base):
        binds = 0

        def bind(self, v, f):
            self.binds += 1
            return super().bind(v, f)

    return Counting()


@pytest.mark.parametrize("base", [MaybeMonad, FinSetMonad])
@pytest.mark.parametrize("n", [1, 6, 50])
def test_kleene_chain_binds_every_point_every_round(base, n):
    m = _counting(base)
    fd = kleene_iterate(_reversed_chain(m, n))
    assert all(m.equal(fd(x), m.unit("y")) for x in fd.dom.elements)
    # the reversed chain fills one point per round and is stable in round
    # n + 1; each round binds all n points
    assert m.binds == n * (n + 1)


@pytest.mark.parametrize("base", [MaybeMonad, FinSetMonad])
def test_reach_iterate_steps_each_point_once_and_binds_nothing(base):
    calls = []

    class Counted(dict):
        def __getitem__(self, x):
            calls.append(x)
            return super().__getitem__(x)

    m, n = _counting(base), 200
    f = _reversed_chain(m, n)
    table = Counted({x: f(x) for x in f.dom.elements})
    fd = reach_iterate(KleisliFn(m, f.dom, f.cod, table))
    assert all(m.equal(fd(x), m.unit("y")) for x in fd.dom.elements)
    # the linear cost is the engine's: one step per point, no bind at all
    assert sorted(calls) == sorted(f.dom.elements)
    assert m.binds == 0


@pytest.mark.parametrize("kind,kw", KINDS)
def test_earlier_tables_stay_put(kind, kw):
    m = elgot_instance(kind, **kw)
    f = _reversed_chain(m, 6)
    kept = []
    for table, stable in approximants(m, f.dom.elements, f):
        kept.append((table, dict(table)))
        if stable:
            break
    assert len(kept) == 7
    for table, snapshot in kept:
        assert list(table.items()) == list(snapshot.items())


def _maybe_fn_space(x_atoms, y_atoms):
    """Every f : X -> Maybe(Y+X), exhaustively."""
    import itertools
    values = [NOTHING] + [Just(Inl(y)) for y in y_atoms] + \
        [Just(Inr(x)) for x in x_atoms]
    for combo in itertools.product(values, repeat=len(x_atoms)):
        yield dict(zip(x_atoms, combo))


def test_partition_equals_kleene_exhaustively_on_two_elements():
    m = elgot_instance("maybe")
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0", "y1"))
    cod = sum_carrier(y, x)
    count = 0
    for table in _maybe_fn_space(x.elements, y.elements):
        f = KleisliFn(m, x, cod, table)
        assert partition_iterate_maybe(f).table == kleene_iterate(f).table
        count += 1
    assert count == 25


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_equals_kleene_random(data):
    m = elgot_instance("maybe")
    xs = tuple("x%d" % i for i in range(data.draw(st.integers(1, 4))))
    ys = tuple("y%d" % i for i in range(data.draw(st.integers(1, 3))))
    x, y = carrier("x", xs), carrier("y", ys)
    values = [NOTHING] + [Just(Inl(v)) for v in ys] + [Just(Inr(v)) for v in xs]
    table = {v: data.draw(st.sampled_from(values)) for v in xs}
    f = KleisliFn(m, x, sum_carrier(y, x), table)
    assert partition_iterate_maybe(f).table == kleene_iterate(f).table


def test_partition_direct_cases():
    m = elgot_instance("maybe")
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0", "y1"))
    cod = sum_carrier(y, x)
    # all results: everything lands in the first layer
    f = make_kleisli(m, x, cod, lambda v: Just(Inl("y0" if v == "x0" else "y1")))
    assert partition_iterate_maybe(f).table == {"x0": Just("y0"), "x1": Just("y1")}
    # cyclic permutation: everything diverges
    g = make_kleisli(m, x, cod,
                     lambda v: Just(Inr("x1" if v == "x0" else "x0")))
    assert partition_iterate_maybe(g).table == {"x0": NOTHING, "x1": NOTHING}


def test_partition_rejects_other_monads():
    m = elgot_instance("finset")
    x = carrier("x", ("x0",))
    y = carrier("y", ("y0",))
    f = make_kleisli(m, x, sum_carrier(y, x), lambda v: finset([Inl("y0")]))
    with pytest.raises(ConfigError):
        partition_iterate_maybe(f)


def test_finset_strength_pairs_pointwise():
    m = elgot_instance("finset")
    assert m.strength("c", finset(["y1", "y2"])) == \
        finset([Pair("c", "y1"), Pair("c", "y2")])


def test_nondetstate_singleton_degenerates_to_finset():
    nd = elgot_instance("nondetstate", state_set=("s",))
    fs = elgot_instance("finset")
    x = carrier("x", ("a", "b"))
    y = carrier("y", ("y0", "y1"))
    fs_table = {"a": finset([Inl("y0"), Inr("b")]), "b": finset([Inl("y1")])}
    nd_table = {v: NdState((("s", finset(Pair(e, "s") for e in fs_table[v].elems)),))
                for v in x.elements}
    cod = sum_carrier(y, x)
    fd_fs = kleene_iterate(KleisliFn(fs, x, cod, fs_table))
    fd_nd = kleene_iterate(KleisliFn(nd, x, cod, nd_table))
    for v in x.elements:
        assert fd_nd(v).at("s") == finset(Pair(e, "s") for e in fd_fs(v).elems)


def test_elgot_instance_passes_monad_law_suite():
    from elgot.laws import GenConfig, run_axiom_suite
    rep = run_axiom_suite(elgot_instance("maybe"), GenConfig(samples=40, seed=21),
                          laws=("monad.left_unit", "monad.right_unit", "monad.assoc",
                                "strength.str1", "strength.str2", "strength.str3",
                                "strength.str4"))
    assert rep.ok


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        elgot_instance("list")


# ---------------------------------------------------------------------------
# Value operations against reference copies of the code they replaced: the
# per-instance order, the joins law_bind_join built, Gen.sub_value, the
# morphism components and the handle-file value parser.
# ---------------------------------------------------------------------------

def _ref_leq(a, b):
    if a is NOTHING or isinstance(a, Just):
        return a is NOTHING or a == b
    if isinstance(a, FinSet):
        return all(e in b.elems for e in a.elems)
    return all(all(e in b.at(s).elems for e in a.at(s).elems) for s, _ in a.table)


def _ref_join(a, b):
    if isinstance(a, FinSet):
        return finset(a.elems + b.elems)
    return NdState(tuple((s, finset(x.elems + b.at(s).elems)) for s, x in a.table))


def _ref_sub_value(rng, v):
    if v is NOTHING or isinstance(v, Just):
        return NOTHING if rng.random() < 0.5 else v
    if isinstance(v, FinSet):
        return finset(e for e in v.elems if rng.random() < 0.6)
    return NdState(tuple((s, finset(e for e in fs.elems if rng.random() < 0.6))
                         for s, fs in v.table))


def _value_pairs(kind, kw, seed, count=200):
    m = elgot_instance(kind, **kw)
    rng = random.Random(seed)
    def draw():
        return m.sample_value(rng, lambda: rng.choice("abc"), 3)
    return m, [(draw(), draw()) for _ in range(count)]


@pytest.mark.parametrize("kind,kw", KINDS)
def test_leq_and_join_match_the_reference(kind, kw):
    m, pairs = _value_pairs(kind, kw, seed=11)
    for a, b in pairs + [(a, a) for a, _ in pairs] + [(m.bottom(), b) for _, b in pairs]:
        assert m.leq(a, b) == _ref_leq(a, b), (a, b)
        j = m.join(a, b)
        if kind == "maybe":
            comparable = _ref_leq(a, b) or _ref_leq(b, a)
            assert (j is None) == (not comparable), (a, b)
            if comparable:
                assert j == (b if _ref_leq(a, b) else a)
        else:
            assert j == _ref_join(a, b)


@pytest.mark.parametrize("kind,kw", KINDS)
def test_sample_below_matches_the_reference_draws(kind, kw):
    m, pairs = _value_pairs(kind, kw, seed=23)
    rng, ref_rng = random.Random(4), random.Random(4)
    for v, _ in pairs:
        below = m.sample_below(rng, v)
        assert below == _ref_sub_value(ref_rng, v)
        assert m.leq(below, v)
        assert rng.getstate() == ref_rng.getstate()


def test_choice_morphisms_match_the_reference_components():
    from elgot.handler import (finset_to_nondetstate, maybe_to_finset,
                               maybe_to_nondetstate)
    mb, fs = elgot_instance("maybe"), elgot_instance("finset")
    nd = elgot_instance("nondetstate", state_set=("s0", "s1"))

    def ref_maybe_to_finset(v):
        return finset(() if v is NOTHING else (v.value,))

    def ref_finset_to_nondetstate(v):
        return nd._value(lambda s: finset(Pair(x, s) for x in v.elems))

    def ref_maybe_to_nondetstate(v):
        elems = () if v is NOTHING else (v.value,)
        return nd._value(lambda s: finset(Pair(x, s) for x in elems))

    _, maybes = _value_pairs("maybe", {}, seed=7, count=50)
    _, sets = _value_pairs("finset", {}, seed=8, count=50)
    for (v, _), (w, _) in zip(maybes, sets):
        assert maybe_to_finset(mb, fs).component(v) == ref_maybe_to_finset(v)
        assert maybe_to_nondetstate(mb, nd).component(v) == ref_maybe_to_nondetstate(v)
        assert finset_to_nondetstate(fs, nd).component(w) == ref_finset_to_nondetstate(w)


def test_decode_reads_the_readme_literals():
    mb, fs = elgot_instance("maybe"), elgot_instance("finset")
    nd = elgot_instance("nondetstate", state_set=("s0", "s1"))
    same = lambda x: x   # noqa: E731
    assert mb.decode("nothing", same) is NOTHING
    assert mb.decode({"just": "x"}, same) == Just("x")
    assert fs.decode({"set": ["h", "t", "h"]}, same) == finset(["t", "h"])
    assert fs.decode({"set": []}, same) == EMPTY_SET
    v = nd.decode({"states": {"s0": [["x", "s1"]]}}, same)
    assert v == NdState((("s0", finset([Pair("x", "s1")])), ("s1", EMPTY_SET)))
    for m, kind, data in ((mb, "maybe", {"jst": 1}), (mb, "maybe", None),
                          (fs, "finset", {"sett": []}), (fs, "finset", ["a"]),
                          (nd, "nondetstate", {"state": {}}),
                          (nd, "nondetstate", "nothing"),
                          # a string is no list of elements
                          (fs, "finset", {"set": "ht"}), (fs, "finset", {"set": None}),
                          (nd, "nondetstate", {"states": "s0"}),
                          (nd, "nondetstate", {"states": [["s0", []]]})):
        with pytest.raises(ValueError, match="^malformed %s value: %s$"
                           % (kind, re.escape(repr(data)))):
            m.decode(data, same)
    for data, state in (({"states": {"s0": [], "s9": []}}, "s9"),
                        ({"states": {"s0": [["t", "zz"]]}}, "zz")):
        with pytest.raises(ValueError, match="^malformed nondetstate value: state "
                           "'%s' is not in the state set$" % state):
            nd.decode(data, same)
    for rows, message in (("hb", "the rows of state 's0' are 'hb', not a list"),
                          ({"h": "b"}, "the rows of state 's0' are {'h': 'b'}, not a list"),
                          (["hb"], "row 'hb' of state 's0' is not a [result, state] pair"),
                          ([["h"]], "row ['h'] of state 's0' is not a [result, state] pair"),
                          ([["h", "s1", "s0"]],
                           "row ['h', 's1', 's0'] of state 's0' is not a [result, state] pair")):
        with pytest.raises(ValueError, match="^malformed nondetstate value: %s$"
                           % re.escape(message)):
            nd.decode({"states": {"s0": rows}}, same)
