import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from elgot.core import (Carrier, CarrierMismatchError, ConfigError, Inl, Inr,
                        Pair, canon_key, carrier, compose_kleisli, kleisli_unit,
                        make_kleisli, prod_carrier, sum_carrier,
                        strong_iterate, dist_elem, KleisliFn,
                        bottom_kleisli, case_sum, empty_carrier, render_elem,
                        unit_carrier)
from elgot.base_monads import (Just, NOTHING, NdState, elgot_instance, finset,
                               kleene_iterate)
from elgot.bsp import BspLoadError, BspSpec
from elgot.resumption import OpDecl, OpNode, Signature, sig_val
from elgot.while_lang import Act, If, Seq, Skip, While


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


def _immutable_values():
    """One value of each immutable class outside Inl, Inr and Pair, built
    afresh on each call, with the names of its fields."""
    x = carrier("x", ("x0", "x1"))
    write = OpDecl("write", x, unit_carrier())
    return [
        (Just(Pair("a", 1)), ("value",)),
        (NdState((("s0", finset([Pair("a", "s1")])), ("s1", finset([])))), ("table",)),
        (x, ("name", "elements", "kind", "parts")),
        (sum_carrier(x, unit_carrier()), ("name", "elements", "kind", "parts")),
        (write, ("name", "param", "arity")),
        (Signature((write, OpDecl("read", unit_carrier(), x))), ("ops",)),
        # atom seeds: a deep copy of a tree child would be another tree
        (sig_val(OpDecl("read", unit_carrier(), x), "*", {"x0": "s0", "x1": Pair("s", 1)}),
         ("op", "param", "children")),
        (BspSpec(("a", "b"), 2, (1, 0), (("b",), ()), ((1,), ())),
         ("actions", "states", "widths", "b", "j")),
        (Skip(), ()),
        (Act("write"), ("name",)),
        (Seq(Act("read"), Seq(Skip(), Act("write"))), ("first", "second")),
        (If("coin", Skip(), Act("write")), ("pred", "then", "orelse")),
        (While("true", Seq(Skip(), Act("read"))), ("pred", "body")),
    ]


def test_tagged_values_of_every_module_compare_by_class_and_fields():
    for (a, fields), (b, _) in zip(_immutable_values(), _immutable_values()):
        assert a is not b and a == b and hash(a) == hash(b), a
        assert not a != b
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    values = [v for v, _ in _immutable_values()]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and not a == b, (a, b)
    assert Just("a") != Inl("a") and Just("a") != Inr("a") and Inl("a") != Just("a")
    assert Just("a") != Just("b") and Just(1) != Just("1") and Just("a") != ("a",)
    assert Act("a") != Just("a") and Skip() != Act("skip") and Skip() == Skip()
    assert Seq(Skip(), Skip()) != Pair(Skip(), Skip())
    assert len({Just("a"), Inl("a"), Inr("a"), Act("a"), "a", ("a",)}) == 6
    assert Carrier("x", ("a",)) == Carrier("x", ("a",), "atoms", ()) == carrier("x", ["a"])
    assert Carrier("x", ("a",)) != Carrier("y", ("a",))
    assert Carrier("x", ("a",)) != Carrier("x", ("a",), "sum", ())
    assert hash(Carrier("x", ("a",))) == hash(carrier("x", ("a",)))
    u = unit_carrier()
    assert OpDecl("w", u, u) != OpDecl("v", u, u)
    assert Signature((OpDecl("w", u, u),)) != Signature((OpDecl("v", u, u),))


def test_tagged_values_of_every_module_keep_their_fields_and_defaults():
    c = Carrier("x", ("a", "b"))
    assert (c.name, c.elements, c.kind, c.parts) == ("x", ("a", "b"), "atoms", ())
    assert Carrier(name="x", elements=("a", "b")) == c
    assert len(c) == 2 and "a" in c and "c" not in c and c
    assert len(empty_carrier()) == 0 and not empty_carrier()
    s = sum_carrier(c, unit_carrier())
    assert s.kind == "sum" and s.parts == (c, unit_carrier()) and Inr("*") in s
    assert len(s) == 3 and "a" not in s
    write = OpDecl("write", c, unit_carrier())
    assert (write.name, write.param, write.arity) == ("write", c, unit_carrier())
    sig = Signature((write,))
    assert sig.ops == (write,) and sig.op("write") is write
    with pytest.raises(KeyError):
        sig.op("read")
    nd = NdState((("s0", finset(["a"])),))
    assert nd.table == (("s0", finset(["a"])),) and nd.at("s0") == finset(["a"])
    spec = BspSpec(("a",), 1, (1,), (("a",),), ((0,),))
    assert (spec.actions, spec.states, spec.widths, spec.b, spec.j) == (
        ("a",), 1, (1,), (("a",),), ((0,),))
    loop = While("coin", If("true", Act("read"), Skip()))
    assert (loop.pred, loop.body.pred, loop.body.then.name) == ("coin", "true", "read")
    assert loop.body.orelse == Skip() and Just("a").value == "a"


def test_tagged_values_of_every_module_are_frozen():
    for v, fields in _immutable_values():
        for attr in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(v, attr, "z")
            with pytest.raises(AttributeError):
                delattr(v, attr)
        for f in fields:
            assert getattr(v, f) == getattr(copy.copy(v), f)
        assert copy.copy(v) == v and copy.deepcopy(v) == v
        assert pickle.loads(pickle.dumps(v)) == v, v
        assert type(pickle.loads(pickle.dumps(v))) is type(v)


def test_tagged_values_of_every_module_repr_as_dataclasses():
    x = carrier("x", ("x0",))
    x_text = "Carrier(name='x', elements=('x0',), kind='atoms', parts=())"
    one_text = "Carrier(name='1', elements=('*',), kind='atoms', parts=())"
    write = OpDecl("write", x, unit_carrier())
    write_text = "OpDecl(name='write', param=%s, arity=%s)" % (x_text, one_text)
    assert repr(Just("a")) == "Just(value='a')"
    assert repr(Just(Inl(1))) == "Just(value=Inl(value=1))"
    assert repr(NdState((("s0", finset(["a"])),))) == \
        "NdState(table=(('s0', FinSet(elems=('a',))),))"
    assert repr(x) == x_text and str(x) == x_text
    assert repr(sum_carrier(x, unit_carrier())) == (
        "Carrier(name='(x+1)', elements=(Inl(value='x0'), Inr(value='*')), "
        "kind='sum', parts=(%s, %s))" % (x_text, one_text))
    assert repr(write) == write_text
    assert repr(Signature((write,))) == "Signature(ops=(%s,))" % write_text
    assert repr(sig_val(write, "x0", {"*": "s0"})) == \
        "OpNode(op='write', param='x0', children=(('*', 's0'),))"
    assert repr(BspSpec(("a",), 1, (1,), (("a",),), ((0,),))) == \
        "BspSpec(actions=('a',), states=1, widths=(1,), b=(('a',),), j=((0,),))"
    assert repr(Skip()) == "Skip()" and repr(Act("write")) == "Act(name='write')"
    assert repr(If("coin", Skip(), Act("write"))) == \
        "If(pred='coin', then=Skip(), orelse=Act(name='write'))"
    assert repr(While("true", Seq(Skip(), Act("read")))) == \
        "While(pred='true', body=Seq(first=Skip(), second=Act(name='read')))"
    assert str(Seq(Act("a"), Seq(Skip(), Act("b")))) == \
        "Seq(first=Act(name='a'), second=Seq(first=Skip(), second=Act(name='b')))"


def test_tagged_values_of_every_module_check_their_fields():
    with pytest.raises(ConfigError, match="^carrier x has duplicate elements$"):
        Carrier("x", ("a", "b", "a"))
    with pytest.raises(ConfigError, match="^carrier n has duplicate elements$"):
        carrier("n", ["0", "0"])
    empty, x = empty_carrier(), carrier("x", ("a",))
    for param, arity in ((empty, x), (x, empty), (empty, empty)):
        with pytest.raises(ConfigError, match="^operation w needs nonempty "
                           "parameter and arity carriers$"):
            OpDecl("w", param, arity)
    w = OpDecl("w", x, x)
    with pytest.raises(ConfigError, match="^duplicate operation names in signature$"):
        Signature((w, OpDecl("v", x, x), OpDecl("w", x, unit_carrier())))
    assert Signature(()).ops == ()
    for fields, message in [
            (((), 1, (0,), ((),), ((),)), "a spec needs at least one action"),
            ((("a", "a"), 1, (0,), ((),), ((),)), "actions must be distinct strings"),
            ((("a",), 0, (), (), ()), "need at least one state"),
            ((("a",), 1, (1,), (("zzz",),), ((0,),)), "unknown action 'zzz' in row 0"),
            ((("a",), 1, (1,), (("a",),), ((3,),)), "target 3 out of range in row 0"),
            ((("a",), 1, (2,), (("a",),), ((0,),)),
             "row 0 does not match its declared width"),
            ((("a",), 2, (0,), ((),), ((),)), "tables must have one row per state"),
            ((("a",), "1", (0,), ((),), ((),)),
             "states, widths and targets must be integers")]:
        with pytest.raises(BspLoadError) as exc:
            BspSpec(*fields)
        assert str(exc.value) == message


def test_tagged_values_reject_a_wrong_field_count():
    for make, args in [(Act, ()), (Act, ("a", "b")), (Skip, ("x",)), (Seq, (Skip(),)),
                       (If, ("true", Skip())), (While, ("true", Skip(), Skip())),
                       (Just, ()), (NdState, ((), ())), (Inl, ("a", "b")), (Pair, ("a",)),
                       (Carrier, ("x",)), (OpDecl, ("w", carrier("x", ("a",)))),
                       (OpNode, ("w", "a")), (OpNode, ("w", "a", (), ()))]:
        with pytest.raises(TypeError):
            make(*args)


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
