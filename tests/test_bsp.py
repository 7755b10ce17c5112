import contextlib
import io
import json
import random
import signal

import pytest

from elgot.cli import main
from elgot.core import CarrierMismatchError, Inl, Inr, Pair
from elgot import bsp
from elgot.iteration import pre_iterate
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


@pytest.mark.parametrize("text, message", [
    ("actions a\nstates 2\nstates 1\n",
     "line 3: a second states line (the first is on line 2)"),
    ("actions a\n# the labels\nactions b\nstates 1\n",
     "line 3: a second actions line (the first is on line 1)"),
    ("actions a\nstates 1 2\n", "line 2: malformed entry 'states 1 2'"),
    ("actions a\nstates\n", "line 2: malformed entry 'states'"),
    ("actions a\nstates 1\nwidth 0 1 7\n", "line 3: malformed entry 'width 0 1 7'"),
    ("actions a\nstates 1\nwidth 0\n", "line 3: malformed entry 'width 0'"),
])
def test_text_header_and_width_lines_are_read_once_and_exactly(text, message):
    with pytest.raises(BspLoadError) as exc:
        parse_bsp_text(text)
    assert str(exc.value) == message


def test_state_count_is_bounded():
    assert load_bsp("actions a\nstates %d\n" % MAX_STATES).states == MAX_STATES
    for spec in ("actions a\nstates %d\n" % (MAX_STATES + 1),
                 '{"actions": ["a"], "states": %d, "b": [], "j": []}' % (MAX_STATES + 1)):
        with pytest.raises(BspLoadError, match="^states 100001 is above the limit of 100000$"):
            load_bsp(spec)


def test_build_equations_declares_only_reachable_variables():
    # state 1 deadlocks; the chain of state i ends at (i, width(i)), and
    # each row (i, k) has a seed of its own
    spec = parse_bsp_text("actions a b\nstates 3\nwidth 0 2\nwidth 1 0\n"
                          "width 2 1\nb 0 a b\nj 0 1 2\nb 2 a\nj 2 0\n")
    _rm, step = build_equations(spec)
    variables = [s.value for s in step.dom.elements if isinstance(s, Inl)]
    rows = [s.value for s in step.dom.elements if isinstance(s, Inr)]
    assert variables == [Pair(0, 0), Pair(0, 1), Pair(0, 2), Pair(1, 0),
                         Pair(2, 0), Pair(2, 1)]
    assert rows == [Pair(0, 0), Pair(0, 1), Pair(2, 0)]
    assert len(variables) == sum(w + 1 for w in spec.widths)


def test_build_equations_deadlock_state():
    spec = parse_bsp_text("actions a\nstates 1\nwidth 0 0\n")
    rm, step = build_equations(spec)
    assert step(Inl(Pair(0, 0))) == rm.base.bottom()


def test_build_equations_matches_the_equation_shape():
    spec = parse_bsp_text(TWO_STATE)
    rm, step = build_equations(spec)
    els = rm.base.elements(step(Inl(Pair(0, 0))))
    assert len(els) == 2
    bare = [e for e in els if isinstance(e, Inl)]
    ops = [e for e in els if isinstance(e, Inr)]
    assert len(bare) == 1 and bare[0].value == Inr(Inl(Pair(0, 1)))
    assert len(ops) == 1 and ops[0].value.op == "act" and ops[0].value.param == "a"
    # the node is over the row's own seed, a bare jump to its target's root
    row = ops[0].value.child("*")
    assert row == Inr(Pair(0, 0))
    assert step(row) == rm.base.unit(Inl(Inr(Inl(Pair(1, 0)))))


def test_build_equations_takes_a_step_on_its_first_lookup():
    spec = parse_bsp_text(TWO_STATE)
    _rm, step = build_equations(spec)
    assert len(step.table) == 0
    row = step(Inr(Pair(0, 1)))
    assert list(step.table) == [Inr(Pair(0, 1))]
    assert step(Inr(Pair(0, 1))) is row


@pytest.mark.parametrize("seed", [
    Inl(Pair(0, 3)), Inr(Pair(0, 2)), Inr(Pair(1, 1)), Inl(Pair(2, 0)),
    Inl(Pair(-1, 0)), Inl(Pair(0, -1)), Inl(Pair("0", 0)), Inl((0, 0)),
    Inl("x"), Pair(0, 0), "x", None])
def test_a_seed_off_the_definition_is_a_carrier_mismatch(seed):
    # state 0 has width 2 and state 1 width 1: the seeds are Inl((0,0..2)),
    # Inl((1,0..1)), Inr((0,0..1)) and Inr((1,0))
    spec = parse_bsp_text(TWO_STATE)
    _rm, step = build_equations(spec)
    with pytest.raises(CarrierMismatchError, match="is not an element of carrier seeds"):
        step(seed)
    assert len(step.table) == 0
    assert step(Inl(Pair(0, 2))) == bsp.FinSetMonad().bottom()


def test_solving_takes_no_row_seed_step_and_no_step_twice(monkeypatch):
    # a variable (i,k) with k < width(i) builds one set, a row seed one,
    # and the empty choice none
    looked, built = [], []
    equations, finset = bsp.build_equations, bsp.finset

    def counted(spec):
        rm, step = equations(spec)
        return rm, lambda seed: looked.append(seed) or step(seed)

    monkeypatch.setattr(bsp, "build_equations", counted)
    monkeypatch.setattr(bsp, "finset", lambda elems: built.append(elems) or finset(elems))
    rng = random.Random(31)
    for _ in range(20):
        del looked[:], built[:]
        spec = _random_spec(rng, max_states=5, max_width=4)
        solve_and_unfold(spec, 2)
        # every variable a root's chain reaches, each once, and no row seed
        assert sorted(looked) == sorted(Inl(Pair(i, k)) for i in range(spec.states)
                                        for k in range(spec.widths[i] + 1))
        assert len(built) == sum(spec.widths)


def test_every_first_layer_has_at_most_one_bare_leaf():
    rng = random.Random(4)
    for _ in range(20):
        spec = _random_spec(rng)
        rm, step = build_equations(spec)
        for v in step.dom.elements:
            bare = [e for e in rm.base.elements(step(v)) if isinstance(e, Inl)]
            assert len(bare) <= 1


def test_duplicate_rows_are_two_edges():
    # two equal rows (c -> 4 twice, as in bench item bsp-9) are two nodes,
    # each over its own row seed, so both edges are exported, by label and
    # then by row index
    spec = parse_bsp_text("actions a c\nstates 5\nb 0 c a c\nj 0 4 1 4\n"
                          "b 4 a\nj 4 0\nb 1 a\nj 1 1\nb 2 a\nj 2 2\nb 3 a\nj 3 3\n")
    lts = solve_and_unfold(spec, 1)
    assert [e for e in lts.edges if e[0] == "s0"] == [
        ("s0", "a", "s1_1"), ("s0", "c", "s4_1"), ("s0", "c", "s4_2")]


def test_states_with_equal_rows_stay_distinct():
    # states 1 and 2 have the same row, a -> 0; each keeps its own name
    spec = parse_bsp_text("actions a\nstates 3\nb 0 a a\nj 0 1 2\n"
                          "b 1 a\nj 1 0\nb 2 a\nj 2 0\n")
    lts = solve_and_unfold(spec, 1)
    assert lts.edge_states() == [(0, "a", 1), (0, "a", 2), (1, "a", 0), (2, "a", 0)]
    assert [e for e in lts.edges if e[0] == "s0"] == [
        ("s0", "a", "s1_1"), ("s0", "a", "s2_1")]


def test_deadlocked_targets_are_exported_as_the_lowest_deadlocked_state():
    # states 1 and 3 have no rows; an edge into either leads to s1
    spec = parse_bsp_text("actions a b\nstates 4\nb 0 a b\nj 0 3 1\n"
                          "b 2 a\nj 2 3\n")
    lts = solve_and_unfold(spec, 1)
    assert lts.edges == [("s0", "a", "s1_1"), ("s0", "b", "s1_2"),
                         ("s2", "a", "s1_3")]
    assert lts.edge_states() == [(0, "a", 1), (0, "b", 1), (2, "a", 1)]


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
    # layer is read again, at any depth: each root's pre_iterate entry is
    # looked up once, and no other entry is
    looked = []
    pre_iterate = bsp.pre_iterate

    def counted(base, step):
        at = pre_iterate(base, step)
        return lambda seed: looked.append(seed) or at(seed)

    monkeypatch.setattr(bsp, "pre_iterate", counted)
    spec = parse_bsp_text(TWO_STATE)
    lts = solve_and_unfold(spec, 3)
    assert len(lts.edges) == 3 + 4 + 5
    assert looked == [Inl(Pair(i, 0)) for i in range(spec.states)]


def test_each_state_lists_its_edges_in_its_root_layer_order():
    # the export sorts (label, row) pairs; the layer's canonical order,
    # which sorts the nodes by canon_key, is the same order
    rng = random.Random(37)
    duplicates = deadlocks = 0
    for _ in range(50):
        spec = _random_spec(rng, max_states=6, max_width=5)
        duplicates += any(len(set(row)) < len(row) for row in spec.b)
        deadlocks += any(spec.widths[t] == 0 for row in spec.j for t in row)
        rm, step = build_equations(spec)
        solved = pre_iterate(rm.base, step)
        deadlocked = min((i for i in range(spec.states) if spec.widths[i] == 0),
                         default=None)
        lts = solve_and_unfold(spec, 1)
        by_name = {n.name: n.state for n in lts.nodes}
        for i in range(spec.states):
            want = []
            for e in rm.base.elements(solved(Inl(Pair(i, 0)))):
                j = spec.j[i][e.value.child("*").value.snd]
                want.append((e.value.param, deadlocked if spec.widths[j] == 0 else j))
            assert [(lbl, by_name[d]) for s, lbl, d in lts.edges
                    if s == "s%d" % i] == want
    assert duplicates > 10 and deadlocks > 10


def test_deadlock_state_has_no_edges():
    spec = parse_bsp_text("actions a\nstates 1\nwidth 0 0\n")
    lts = solve_and_unfold(spec, 2)
    assert lts.edges == []
    assert [n.cut for n in lts.nodes] == [False]


DOUBLING = "actions a\nstates 1\nb 0 a a\nj 0 0 0\n"


def _too_slow(_signum, _frame):
    raise AssertionError("the unfolding did not stop in 10 s")


@pytest.mark.parametrize("text", [
    "actions a\nstates 1\n",
    "actions a\nstates 3\nb 0 a\nj 0 1\nb 1 a\nj 1 2\n"], ids=["no_edges", "path"])
def test_unfolding_stops_at_the_first_empty_level(text):
    # every path ends, so no level past the longest holds a node
    spec = parse_bsp_text(text)
    old = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(10)
    try:
        lts = solve_and_unfold(spec, 10 ** 18)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    want = solve_and_unfold(spec, spec.states)
    assert (lts.edges, [(n.name, n.cut) for n in lts.nodes]) == \
        (want.edges, [(n.name, n.cut) for n in want.nodes])


def test_unfolding_refuses_a_level_past_the_node_limit(monkeypatch):
    # two self-loops double each level: depth d holds 2^(d+1) - 1 nodes
    monkeypatch.setattr(bsp, "MAX_NODES", 2 ** 5 - 1)
    spec = parse_bsp_text(DOUBLING)
    assert len(solve_and_unfold(spec, 4).nodes) == 2 ** 5 - 1
    with pytest.raises(BspLoadError, match="^depth 5 unfolds more than the limit "
                                           "of 31 nodes$"):
        solve_and_unfold(spec, 5)


def test_unfolding_counts_a_level_before_building_it(monkeypatch):
    built = []
    node = bsp.LtsNode
    monkeypatch.setattr(bsp, "MAX_NODES", 100)
    monkeypatch.setattr(bsp, "LtsNode", lambda *a: built.append(a) or node(*a))
    with pytest.raises(BspLoadError):
        solve_and_unfold(parse_bsp_text(DOUBLING), 60)
    # levels 0 to 5 hold 63 nodes; level 6 would take 64 more
    assert len(built) == 63


def _random_spec(rng, max_states=3, max_width=3):
    # a state has no rows one time in max_width + 1, and with at most three
    # labels a wide row repeats one
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


BAD_LABELS = {"comma": "c,d", "quote": 'x"y', "backslash": "a\\b", "space": "a b",
              "empty": "", "tab": "a\tb", "bell": "a\x07"}


@pytest.mark.parametrize("spec_format, name", [
    (spec_format, name) for name, label in BAD_LABELS.items()
    for spec_format in ("text", "json")
    # the text format splits a line at whitespace, so it has no such label
    if spec_format == "json" or label.split() == [label]])
def test_a_label_no_export_reads_back_is_refused(tmp_path, spec_format, name):
    label = BAD_LABELS[name]
    if spec_format == "text":
        path = tmp_path / "spec.bsp"
        path.write_text("actions a %s\nstates 1\nb 0 %s\nj 0 0\n" % (label, label))
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"actions": ["a", label], "states": 1,
                                    "b": [[label]], "j": [[0]]}))
    for fmt in ("dot", "csv", "text"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bsp", str(path), "--format", fmt])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == (
            "error: action label %r is empty or holds whitespace, a comma, a double "
            "quote, a backslash or a non-printable character\n" % (label,))


def test_a_label_of_any_other_printable_characters_is_kept():
    spec = load_bsp(json.dumps({"actions": ["x-1", "é", "a#b"], "states": 1,
                                "b": [["é", "a#b"]], "j": [[0, 0]]}))
    assert lts_to_csv(solve_and_unfold(spec, 1)) == "src,label,dst\ns0,a#b,s0_1\ns0,é,s0_2\n"
