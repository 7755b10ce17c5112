import json
import random

import pytest

from elgot.base_monads import FinSetMonad
from elgot.core import Inl, Inr, Pair
from elgot.bsp import (MAX_STATES, BspLoadError, BspSpec, build_equations, load_bsp,
                       lts_to_csv, lts_to_dot, lts_to_text, parse_bsp_json,
                       parse_bsp_text, solve_and_unfold)

TWO_STATE = """
actions a b
states 2
width 0 2
width 1 1
b 0 a b
j 0 1 0
b 1 a
j 1 1
"""


def table_oracle(spec: BspSpec, depth: int):
    """Brute-force transition enumeration straight from the tables.

    Unfolds every state's root as a tree to the given depth; targets that
    deadlock are normalized to the least deadlocked state, matching the
    observational identification the solver can make.
    """
    deadlocked = [i for i in range(spec.states) if spec.widths[i] == 0]
    least_dead = deadlocked[0] if deadlocked else None

    def norm(i):
        return least_dead if spec.widths[i] == 0 else i

    edges = []
    frontier = [(i, i) for i in range(spec.states)]
    for _level in range(depth):
        nxt = []
        for (src_norm, src) in frontier:
            for k in range(spec.widths[src]):
                tgt = spec.j[src][k]
                edges.append((src_norm, spec.b[src][k], norm(tgt)))
                nxt.append((norm(tgt), tgt))
        frontier = nxt
    return edges


def test_parse_text():
    spec = parse_bsp_text(TWO_STATE)
    assert spec.actions == ("a", "b")
    assert spec.widths == (2, 1)
    assert spec.b == (("a", "b"), ("a",))
    assert spec.j == ((1, 0), (1,))


def test_parse_json_equivalent():
    data = {"actions": ["a", "b"], "states": 2,
            "b": [["a", "b"], ["a"]], "j": [[1, 0], [1]]}
    assert parse_bsp_json(json.dumps(data)) == parse_bsp_text(TWO_STATE)
    assert load_bsp(json.dumps(data)) == load_bsp(TWO_STATE)


@pytest.mark.parametrize("bad", [
    "actions a\nstates 2\nwidth 0 1\nb 0 zzz\nj 0 1\n",   # unknown action
    "actions a\nstates 1\nwidth 0 1\nb 0 a\nj 0 5\n",     # target out of range
    "actions a\nstates 1\nwidth 0 2\nb 0 a\nj 0 0\n",     # width mismatch
    "states 1\n",                                          # missing actions
    "actions a\nstates 0\n",                               # no states
    "actions a\nstates 1\nwobble\n",                       # unknown key
    "actions\nstates 1\n",                                 # no actions
    '{"actions": [], "states": 1, "b": [[]], "j": [[]]}',  # no actions
    "[]",                                                  # not an object
    '"x"',                                                 # not an object
])
def test_load_errors(bad):
    with pytest.raises(BspLoadError):
        load_bsp(bad)


def test_state_count_is_bounded():
    assert load_bsp("actions a\nstates %d\n" % MAX_STATES).states == MAX_STATES
    for spec in ("actions a\nstates %d\n" % (MAX_STATES + 1),
                 '{"actions": ["a"], "states": %d, "b": [], "j": []}' % (MAX_STATES + 1)):
        with pytest.raises(BspLoadError, match="^states 100001 is above the limit of 100000$"):
            load_bsp(spec)


def test_build_equations_declares_only_reachable_variables():
    # state 1 deadlocks; the chain of state i ends at (i, width(i))
    spec = parse_bsp_text("actions a b\nstates 3\nwidth 0 2\nwidth 1 0\n"
                          "width 2 1\nb 0 a b\nj 0 1 2\nb 2 a\nj 2 0\n")
    _rm, g = build_equations(spec)
    assert g.dom.elements == (Pair("0", "0"), Pair("0", "1"), Pair("0", "2"),
                              Pair("1", "0"),
                              Pair("2", "0"), Pair("2", "1"))
    assert len(g.dom.elements) == sum(w + 1 for w in spec.widths)


def test_build_equations_deadlock_state():
    spec = parse_bsp_text("actions a\nstates 1\nwidth 0 0\n")
    rm, g = build_equations(spec)
    assert rm.out(g(Pair("0", "0"))) == rm.base.bottom()


def test_build_equations_matches_the_equation_shape():
    spec = parse_bsp_text(TWO_STATE)
    rm, g = build_equations(spec)
    step = rm.out(g(Pair("0", "0")))
    els = rm.base.elements(step)
    assert len(els) == 2
    bare = [e for e in els if isinstance(e, Inl)]
    ops = [e for e in els if isinstance(e, Inr)]
    assert len(bare) == 1 and bare[0].value == Inr(Pair("0", "1"))
    assert len(ops) == 1 and ops[0].value.op == "act" and ops[0].value.param == "a"
    child = ops[0].value.child("*")
    assert rm.out(child) == rm.base.unit(Inl(Inr(Pair("1", "0"))))


def test_every_first_layer_has_at_most_one_bare_leaf():
    rng = random.Random(4)
    for _ in range(20):
        spec = _random_spec(rng)
        rm, g = build_equations(spec)
        for v in g.dom.elements:
            bare = [e for e in rm.base.elements(rm.out(g(v))) if isinstance(e, Inl)]
            assert len(bare) <= 1


def test_two_state_depth_one_edges():
    spec = parse_bsp_text(TWO_STATE)
    lts = solve_and_unfold(spec, 1)
    assert sorted(lts.edge_states()) == [(0, "a", 1), (0, "b", 0), (1, "a", 1)]
    assert sorted(lts.edge_states()) == sorted(table_oracle(spec, 1))


def test_two_state_depth_two_count_matches_oracle():
    spec = parse_bsp_text(TWO_STATE)
    lts = solve_and_unfold(spec, 2)
    oracle = table_oracle(spec, 2)
    assert len(lts.edges) == len(oracle)
    assert sorted(lts.edge_states()) == sorted(oracle)


def test_unfolding_lists_each_root_layer_once(monkeypatch):
    # an occurrence of a state has its root's layer, so no occurrence's
    # layer is listed again, at any depth
    listed = []
    elements = FinSetMonad.elements
    monkeypatch.setattr(FinSetMonad, "elements",
                        lambda self, v: listed.append(v) or elements(self, v))
    spec = parse_bsp_text(TWO_STATE)
    lts = solve_and_unfold(spec, 3)
    assert len(lts.edges) == 3 + 4 + 5
    assert len(listed) == spec.states


def test_deadlock_state_has_no_edges():
    spec = parse_bsp_text("actions a\nstates 1\nwidth 0 0\n")
    lts = solve_and_unfold(spec, 2)
    assert lts.edges == []
    assert [n.cut for n in lts.nodes] == [False]


def _random_spec(rng, max_states=3, max_width=3):
    actions = tuple("abc"[:rng.randint(1, 3)])
    states = rng.randint(1, max_states)
    widths, b, j = [], [], []
    for _i in range(states):
        w = rng.randint(0, max_width)
        widths.append(w)
        b.append(tuple(rng.choice(actions) for _ in range(w)))
        j.append(tuple(rng.randrange(states) for _ in range(w)))
    return BspSpec(actions, states, tuple(widths), tuple(b), tuple(j))


def test_depth_one_edges_match_oracle_on_random_specs():
    rng = random.Random(11)
    for _ in range(30):
        spec = _random_spec(rng)
        lts = solve_and_unfold(spec, 1)
        assert sorted(lts.edge_states()) == sorted(table_oracle(spec, 1))


def test_deepening_is_conservative():
    rng = random.Random(12)
    for _ in range(10):
        spec = _random_spec(rng)
        shallow = solve_and_unfold(spec, 1)
        deep = solve_and_unfold(spec, 2)
        assert deep.edges[:len(shallow.edges)] == shallow.edges


def test_wider_chain_still_collapses():
    # stress the fall-through chain with width 4
    spec = parse_bsp_text(
        "actions a b c\nstates 2\nwidth 0 4\nwidth 1 0\n"
        "b 0 a b c a\nj 0 1 0 1 0\n")
    lts = solve_and_unfold(spec, 1)
    assert sorted(lts.edge_states()) == sorted(table_oracle(spec, 1))
    assert len(lts.edges) == 4


def test_exports():
    spec = parse_bsp_text(TWO_STATE)
    lts = solve_and_unfold(spec, 1)
    dot = lts_to_dot(lts)
    assert dot.startswith("digraph {") and 's0 -> s1_1 [label="a"];' in dot
    csv = lts_to_csv(lts)
    assert csv.splitlines()[0] == "src,label,dst"
    assert "s0,a,s1_1" in csv
    text = lts_to_text(lts)
    assert text.splitlines()[0] == "initial s0"
