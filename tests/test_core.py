import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from elgot.core import (CarrierMismatchError, ConfigError, Inl, Inr, Pair,
                        canon_key, carrier, compose_kleisli, kleisli_unit,
                        make_kleisli, prod_carrier, sum_carrier,
                        strong_iterate, dist_elem, KleisliFn,
                        bottom_kleisli, case_sum, render_elem)
from elgot.base_monads import (Just, NOTHING, NdState, elgot_instance, finset,
                               kleene_iterate)


def test_carrier_rejects_duplicates():
    with pytest.raises(ConfigError):
        carrier("x", ("a", "a"))


def test_sum_and_prod_carriers():
    x = carrier("x", ("a", "b"))
    y = carrier("y", ("c",))
    s = sum_carrier(x, y)
    assert s.elements == (Inl("a"), Inl("b"), Inr("c"))
    assert s.parts == (x, y)
    p = prod_carrier(x, y)
    assert Pair("a", "c") in p.elements and len(p) == 2


def test_dist_elem():
    assert dist_elem(Pair("c", Inl("y"))) == Inl(Pair("c", "y"))
    assert dist_elem(Pair("c", Inr("x"))) == Inr(Pair("c", "x"))


def test_tagged_values_compare_by_class_and_fields():
    for make in (Inl, Inr, lambda x: Pair(x, Inl(x))):
        a, b = make(Pair("a", 1)), make(Pair("a", 1))
        assert a is not b and a == b and hash(a) == hash(b)
        assert make("a") != make("b") and make(1) != make("1")
    assert Inl("x") != Inr("x") and Inl(Pair("a", "b")) != Pair("a", "b")
    assert Inl("a") != ("a",) and Inr("a") != ("a",)
    assert Pair("a", "b") != ("a", "b")
    assert len({Inl("a"), Inr("a"), Pair("a", "a"), "a", ("a",)}) == 5
    assert (Inl("a").value, Pair("a", "b").fst, Pair("a", "b").snd) == ("a", "a", "b")


def test_tagged_values_are_frozen():
    for v in (Inl("a"), Inr("a"), Pair("a", "b")):
        assert not hasattr(v, "__dict__")
        for attr in ("value", "fst", "snd", "other"):
            with pytest.raises(AttributeError):
                setattr(v, attr, "z")
            with pytest.raises(AttributeError):
                delattr(v, attr)
    assert copy.copy(Pair("a", Inl(1))) == Pair("a", Inl(1))
    assert pickle.loads(pickle.dumps(Inr(Pair("a", 1)))) == Inr(Pair("a", 1))


def test_tagged_values_repr_as_dataclasses():
    assert repr(Inl("a")) == "Inl(value='a')"
    assert repr(Inr(1)) == "Inr(value=1)"
    assert repr(Pair("a", Inr(1))) == "Pair(fst='a', snd=Inr(value=1))"
    assert str(Inl(Pair("a", "b"))) == "Inl(value=Pair(fst='a', snd='b'))"


def test_case_sum_rejects_non_sums():
    assert case_sum(Inl("a"), str.upper, str.lower) == "A"
    assert case_sum(Inr("B"), str.upper, str.lower) == "b"
    for v in (("a",), (Inl, "a"), Pair("a", "b"), "a"):
        with pytest.raises(TypeError):
            case_sum(v, str.upper, str.lower)


def test_canon_key_orders_mixed_elements():
    elems = [Inr("a"), "z", Inl("b"), Pair("a", "b"), "a"]
    ordered = sorted(elems, key=canon_key)
    assert ordered == ["a", "z", Inl("b"), Inr("a"), Pair("a", "b")]
    # atoms, then ints, sums, pairs and base-monad values, each compared by
    # its parts; "3" and 3 are different atoms
    elems = [Just(Inl("x")), "z", Pair(Inl("a"), 2), 3, finset([Pair("x", "y")]),
             Inr(1), NOTHING, Inl(Inr(Pair("3", "1"))), "a", Inl("b"),
             finset(["b", Inl("a")]), Just("a"), Pair("a", "b"), 1, Inr("a"),
             Inl(Inr(Pair(3, "1")))]
    ordered = sorted(elems, key=canon_key)
    assert ordered == ["a", "z", 1, 3, Inl("b"), Inl(Inr(Pair("3", "1"))),
                       Inl(Inr(Pair(3, "1"))), Inr("a"), Inr(1),
                       Pair("a", "b"), Pair(Inl("a"), 2), NOTHING, Just("a"),
                       Just(Inl("x")), finset([Inl("a"), "b"]),
                       finset([Pair("x", "y")])]
    assert [render_elem(e) for e in ordered] == [
        "a", "z", "1", "3", "(inl b)", "(inl (inr (pair 3 1)))",
        "(inl (inr (pair 3 1)))", "(inr a)", "(inr 1)", "(pair a b)",
        "(pair (inl a) 2)", "(bot)", "a", "(inl x)", "{b (inl a)}",
        "{(pair x y)}"]


def test_compose_unit_laws():
    m = elgot_instance("maybe")
    x = carrier("x", ("a", "b"))
    y = carrier("y", ("c", "d"))
    f = make_kleisli(m, x, y, lambda v: Just("c") if v == "a" else NOTHING)
    assert compose_kleisli(kleisli_unit(m, y), f).table == f.table
    lhs = compose_kleisli(f, kleisli_unit(m, x))
    assert all(lhs(v) == f(v) for v in x.elements)


def test_compose_preserves_bottom():
    # in Maybe, postcomposing with anything after const-nothing stays nothing
    m = elgot_instance("maybe")
    x = carrier("x", ("a",))
    y = carrier("y", ("c",))
    z = carrier("z", ("e",))
    bot = bottom_kleisli(m, x, y)
    g = make_kleisli(m, y, z, lambda v: Just("e"))
    assert compose_kleisli(g, bot)("a") is NOTHING


def test_compose_carrier_mismatch_names_both_carriers():
    m = elgot_instance("maybe")
    f = kleisli_unit(m, carrier("left", ("a",)))
    g = kleisli_unit(m, carrier("right", ("b",)))
    with pytest.raises(CarrierMismatchError) as exc:
        compose_kleisli(g, f)
    assert "left" in str(exc.value) and "right" in str(exc.value)


def test_strong_iterate_ignores_dropped_parameter():
    m = elgot_instance("maybe")
    z = carrier("z", ("z0", "z1"))
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0",))
    cod = sum_carrier(y, x)
    inner = {"x0": Just(Inr("x1")), "x1": Just(Inl("y0"))}
    f = make_kleisli(m, prod_carrier(z, x), cod, lambda p: inner[p.snd])
    plain = kleene_iterate(make_kleisli(m, x, cod, lambda v: inner[v]))
    strong = strong_iterate(f)
    for zz in z.elements:
        for xx in x.elements:
            assert strong(Pair(zz, xx)) == plain(xx)


def test_strong_iterate_single_unfolding():
    # f(z,x) = unit(inl u(z,x)) solves in one step to unit(u(z,x))
    m = elgot_instance("maybe")
    z = carrier("z", ("z0",))
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0", "y1"))
    u = {("z0", "x0"): "y1", ("z0", "x1"): "y0"}
    f = make_kleisli(m, prod_carrier(z, x), sum_carrier(y, prod_carrier(z, x)),
                     lambda p: Just(Inl(u[(p.fst, p.snd)])))
    got = strong_iterate(f)
    for p in f.dom.elements:
        assert got(p) == Just(u[(p.fst, p.snd)])


def _strong_oracle_maybe(f, zx, rounds=16):
    """Hand-rolled reference: walk the X component, parameter fixed."""
    def walk(p):
        cur = p.snd
        for _ in range(rounds):
            v = f(Pair(p.fst, cur))
            if v is NOTHING:
                return NOTHING
            if isinstance(v.value, Inl):
                return Just(v.value.value)
            cur = v.value.value
        return NOTHING
    return {p: walk(p) for p in zx.elements}


def test_strong_iterate_against_hand_unrolled_oracle():
    m = elgot_instance("maybe")
    z = carrier("z", ("z0", "z1"))
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0",))
    zx = prod_carrier(z, x)
    cod = sum_carrier(y, x)
    table = {
        Pair("z0", "x0"): Just(Inr("x1")),
        Pair("z0", "x1"): Just(Inl("y0")),
        Pair("z1", "x0"): Just(Inr("x0")),   # self loop under z1
        Pair("z1", "x1"): NOTHING,
    }
    f = KleisliFn(m, zx, cod, table)
    got = strong_iterate(f)
    want = _strong_oracle_maybe(f, zx)
    assert {p: got(p) for p in zx.elements} == want
    assert got(Pair("z1", "x0")) is NOTHING
    assert got(Pair("z0", "x0")) == Just("y0")


def _naive_render(v):
    """Reference: the text of a value, by recursion over its pieces."""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    render = getattr(v, "_render_", None)
    if render is None:
        return repr(v)
    return "".join(_naive_render(p) for p in render())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_render_elem_equals_a_naive_renderer_on_shared_values(data):
    # each new value takes its parts from the earlier ones, so one object
    # can occur many times, at several depths
    pool = ["a", "b", 0, 7]
    for _ in range(data.draw(st.integers(1, 12))):
        part = st.sampled_from(pool)
        kind = data.draw(st.sampled_from(["inl", "pair", "finset", "ndstate"]))
        if kind == "inl":
            v = Inl(data.draw(part))
        elif kind == "pair":
            v = Pair(data.draw(part), data.draw(part))
        elif kind == "finset":
            v = finset(data.draw(st.lists(part, max_size=3)))
        else:
            v = NdState(tuple((s, finset(Pair(data.draw(part), s)
                                         for _ in range(data.draw(st.integers(0, 2)))))
                              for s in ("s0", "s1")))
        pool.append(v)
    root = Pair(pool[-1], finset(pool[4:]))
    assert render_elem(root) == _naive_render(root)
