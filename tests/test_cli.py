import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elgot.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
PKG = Path(__file__).parent.parent


def cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = str(PKG / "src")
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "elgot.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_run_matches_golden():
    r = cli("run", str(GOLDEN / "sect7_prog.whl"), "--base", "finset",
            "--input", "0", "--depth", "3")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "sect7_depth3.txt").read_text()


def test_package_imports_without_dataclasses_or_inspect():
    # -S: no site .pth file may import either on the package's behalf
    r = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, elgot.cli, elgot.laws, elgot.handler, elgot.bsp, "
         "elgot.while_lang; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(PKG / "src")))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_run_trace_prefixes_ast():
    r = cli("run", str(GOLDEN / "sect7_prog.whl"), "--input", "0",
            "--depth", "1", "--trace")
    assert r.returncode == 0
    assert r.stdout.startswith("# Seq(")


def test_bsp_dot_matches_golden():
    r = cli("bsp", str(GOLDEN / "two_state.bsp"), "--depth", "1",
            "--format", "dot")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "two_state_depth1.dot").read_text()


@pytest.mark.parametrize("fmt, golden", [("text", "dup_rows_depth2.txt"),
                                         ("csv", "dup_rows_depth2.csv")])
@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_bsp_duplicate_rows_match_their_golden(fmt, golden, hash_seed):
    # equal labels out of row order, and edges into two deadlocked states
    r = cli("bsp", str(GOLDEN / "dup_rows.bsp"), "--depth", "2", "--format", fmt,
            env={"PYTHONHASHSEED": hash_seed})
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / golden).read_text()


def test_bsp_same_label_edges_keep_their_order(tmp_path):
    # state 0 has two a-transitions, to states 0 and 1: nothing in the
    # table orders them, so the text pins the order the solver gives them
    spec = tmp_path / "same_label.bsp"
    spec.write_text("actions a\nstates 2\nwidth 0 2\nb 0 a a\nj 0 0 1\n"
                    "b 1 a\nj 1 0\n")
    r = cli("bsp", str(spec), "--format", "text", "--depth", "2")
    assert r.returncode == 0
    assert r.stdout == (
        "initial s0\n"
        "cut s0_3\ncut s1_2\ncut s0_4\ncut s0_5\ncut s1_3\n"
        "s0 -a-> s0_1\ns0 -a-> s1_1\ns1 -a-> s0_2\n"
        "s0_1 -a-> s0_3\ns0_1 -a-> s1_2\ns1_1 -a-> s0_4\n"
        "s0_2 -a-> s0_5\ns0_2 -a-> s1_3\n")


def test_bsp_csv_depth_two():
    r = cli("bsp", str(GOLDEN / "two_state.bsp"), "--depth", "2",
            "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "src,label,dst"
    assert len(lines) == 8   # header + 7 edges


def test_handle_file():
    r = cli("handle", str(GOLDEN / "handle_toss.json"))
    assert r.returncode == 0
    assert r.stdout == "{heads}\nconverged\n"


@pytest.mark.parametrize("name", ["handle_toss", "handle_toss_nd", "handle_toss_maybe_nd"])
@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_handle_matches_its_golden(name, hash_seed):
    # handle_toss_nd: finset into nondetstate, an effect that moves the state;
    # handle_toss_maybe_nd: maybe into nondetstate, with a nothing child
    r = cli("handle", str(GOLDEN / (name + ".json")), env={"PYTHONHASHSEED": hash_seed})
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / (name + ".txt")).read_text()


def test_package_runs_as_a_module():
    r = subprocess.run([sys.executable, "-m", "elgot", "handle",
                        str(GOLDEN / "handle_toss.json")],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(PKG / "src")))
    assert r.returncode == 0
    assert r.stdout == "{heads}\nconverged\n"


def test_handle_fuel_zero_is_approximate():
    r = cli("handle", str(GOLDEN / "handle_toss.json"), "--fuel", "0")
    assert r.returncode == 0
    assert r.stdout == "{}\napproximate\n"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_laws_and_its_report_match_their_goldens(tmp_path, hash_seed):
    report = tmp_path / "report.json"
    r = cli("laws", "--suite", "all", "--seed", "42", "--samples", "5",
            "--report", str(report), env={"PYTHONHASHSEED": hash_seed})
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "laws_all_seed42.txt").read_text()
    assert report.read_bytes() == (GOLDEN / "laws_all_seed42_report.json").read_bytes()


def test_laws_exit_zero(tmp_path):
    report = tmp_path / "report.json"
    r = cli("laws", "--suite", "base", "--seed", "42", "--samples", "5",
            "--report", str(report))
    assert r.returncode == 0
    data = json.loads(report.read_text())
    assert all(entry["ok"] for entry in data)
    for entry in data:
        for name, law in entry["laws"].items():
            if (entry["instance"], name) == ("maybe", "omega.bind_join"):
                # two different results have no join in the flat order
                assert 0 < law["skipped"] < law["samples"]
            else:
                assert law["skipped"] == 0, (entry["instance"], name)


def test_env_seed_default():
    r1 = cli("laws", "--suite", "base", "--samples", "3", env={"ELGOT_SEED": "99"})
    assert "seed 99" in r1.stdout


def test_bad_env_seed():
    bad = {"ELGOT_SEED": "abc"}
    r = cli("run", str(GOLDEN / "sect7_prog.whl"), "--input", "0", env=bad)
    assert r.returncode == 0
    r = cli("laws", "--suite", "base", "--samples", "1", env=bad)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert r.stderr == "error: ELGOT_SEED must be an integer, not 'abc'\n"
    r = cli("laws", "--seed", "5", "--suite", "base", "--samples", "1", env=bad)
    assert r.returncode == 0


@pytest.mark.parametrize("stmt", ["skip", "if true then skip else skip",
                                  "while false do skip"])
def test_short_statement_chains_run(tmp_path, stmt):
    # each statement whose first layer is a bare leaf takes Python frames
    # while the first layer is forced; 120 stays below the ceiling (~160)
    prog = tmp_path / "chain.whl"
    prog.write_text("; ".join([stmt] * 120))
    r = cli("run", str(prog), "--input", "0", "--depth", "1")
    assert r.returncode == 0, r.stderr[-300:]


def test_laws_suite_all_exits_zero():
    r = cli("laws", "--suite", "all", "--seed", "42", "--samples", "5")
    assert r.returncode == 0
    assert "handler into" in r.stdout and "morphism ext" in r.stdout


ND_SPEC = {
    "signature": [{"name": "toss", "param": ["*"], "arity": ["h", "t"]}],
    "base": "finset",
    "target": "nondetstate",
    "state_set": ["s0", "s1"],
    "sigma": "finset-to-nondetstate",
    "effects": {"toss": {"*": {"states": {"s0": [["h", "s1"]],
                                          "s1": [["t", "s1"]]}}}},
    "tree": {"set": [{"op": "toss", "param": "*",
                      "children": {"h": {"set": [{"leaf": "heads"}]},
                                   "t": {"set": [{"leaf": "tails"}]}}}]},
    "fuel": 10,
}


def test_handle_into_nondetstate(tmp_path):
    f = tmp_path / "nd.json"
    f.write_text(json.dumps(ND_SPEC))
    r = cli("handle", str(f))
    assert r.returncode == 0
    assert r.stdout.endswith("converged\n")
    assert "(states (s0 {(pair heads s1)}) (s1 {(pair tails s1)}))" in r.stdout


def cli_in_process(*args):
    """cli(*args) run through main() in this process: the exit code, and
    what it printed, in a CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:      # argparse refuses a flag or its value
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def test_a_string_is_no_list_in_a_value_literal(tmp_path):
    # a set, a state's rows or a row written as a string is refused, not
    # read character by character
    toss = json.loads((GOLDEN / "handle_toss.json").read_text())
    toss["effects"]["toss"]["*"] = {"set": "ht"}
    nd = dict(json.loads(json.dumps(ND_SPEC)), state_set=["a", "b"])
    row, rows = (json.loads(json.dumps(nd)) for _ in "12")
    row["effects"]["toss"]["*"] = {"states": {"a": ["hb"], "b": [["t", "b"]]}}
    rows["effects"]["toss"]["*"] = {"states": {"a": "hb"}}
    tree = json.loads(json.dumps(ND_SPEC))
    tree["tree"]["set"][0]["children"]["t"] = {"set": "tails"}
    for name, doc, message in [
            ("set", toss, "malformed finset value: {'set': 'ht'}"),
            ("row", row, "malformed nondetstate value: row 'hb' of state 'a' "
                         "is not a [result, state] pair"),
            ("rows", rows, "malformed nondetstate value: the rows of state 'a' "
                           "are 'hb', not a list"),
            ("tree", tree, "malformed finset value: {'set': 'tails'}")]:
        path = tmp_path / ("string_%s.json" % name)
        path.write_text(json.dumps(doc))
        r = cli_in_process("handle", str(path))
        assert (r.returncode, r.stdout) == (2, ""), r.stdout
        assert r.stderr == "error: malformed handle file: %s\n" % message


def test_usage_errors_exit_two(tmp_path):
    # argparse's own refusals in a fresh process; the rest through main()
    assert cli("run").returncode == 2                      # missing args
    assert cli("frobnicate").returncode == 2               # unknown command
    assert cli("run", "x.whl", "--input", "0",
               "--wat").returncode == 2                    # unknown flag
    prog, spec = str(GOLDEN / "sect7_prog.whl"), str(GOLDEN / "two_state.bsp")
    toss = str(GOLDEN / "handle_toss.json")
    bad_files = []
    for fuel in (-3, "ten"):
        doc = json.loads((GOLDEN / "handle_toss.json").read_text())
        doc["fuel"] = fuel
        path = tmp_path / ("toss_fuel_%s.json" % fuel)
        path.write_text(json.dumps(doc))
        bad_files.append(("handle", str(path)))
    malformed = [("signature", 5), ("effects", []), ("state_set", 7),
                 ("param", 3), (None, None), ("arity", "ht"), ("state_set", "s0")]
    for field, value in malformed:
        doc = json.loads((GOLDEN / "handle_toss.json").read_text())
        if field is None:
            doc = [doc]                     # a top-level list
        elif field in ("param", "arity"):
            doc["signature"][0][field] = value
        else:
            doc[field] = value
        path = tmp_path / ("toss_bad_%s_%s.json" % (field, value))
        path.write_text(json.dumps(doc))
        bad_files.append(("handle", str(path)))
        if isinstance(value, str):          # a string is not read as its letters
            r = cli_in_process("handle", str(path))
            assert r.returncode == 2 and field in r.stderr, r.stderr
    for states in ({"s0": [["h", "s1"]], "s9": [["t", "s1"]]}, {"s0": [["t", "zz"]]}):
        doc = json.loads(json.dumps(ND_SPEC))
        doc["effects"]["toss"]["*"]["states"] = states
        path = tmp_path / ("nd_bad_%s.json" % "_".join(states))
        path.write_text(json.dumps(doc))
        bad_files.append(("handle", str(path)))
    doc = json.loads((GOLDEN / "handle_toss.json").read_text())
    doc["tree"]["just"]["children"]["h"]["just"]["leaf"] = True
    bool_leaf = tmp_path / "toss_bool_leaf.json"
    bool_leaf.write_text(json.dumps(doc))
    bad_files.append(("handle", str(bool_leaf)))
    r = cli_in_process("handle", str(bool_leaf))
    assert r.stderr == "error: malformed handle file: malformed tree payload: " \
        "{'leaf': True}\n"
    no_child, no_effects, unknown_op = (json.loads(json.dumps(ND_SPEC)) for _ in "123")
    del no_child["tree"]["set"][0]["children"]["t"]
    del no_effects["effects"]
    unknown_op["tree"]["set"][0]["op"] = "flip"
    for name, doc, message in [("child", no_child, "missing field 't'"),
                               ("effects", no_effects, "missing field 'effects'"),
                               ("op", unknown_op, "unknown operation 'flip'")]:
        path = tmp_path / ("nd_missing_%s.json" % name)
        path.write_text(json.dumps(doc))
        r = cli_in_process("handle", str(path))
        assert r.returncode == 2
        assert r.stderr == "error: malformed handle file: %s\n" % message
    # a row for a state outside 0..states-1, or a second row for one state
    for name, rows, message in [
            ("high", "b 7 b\nj 7 0\n", "line 3: b row for state 7 out of range"),
            ("negative", "b -1 a\n", "line 3: b row for state -1 out of range"),
            ("width", "width 2 0\n", "line 3: width row for state 2 out of range"),
            ("repeated", "b 0 a\nj 0 1\nb 0 b\nj 0 0\n",
             "line 5: a second b row for state 0 (the first is on line 3)")]:
        path = tmp_path / ("rows_%s.bsp" % name)
        path.write_text("actions a b\nstates 2\n" + rows)
        r = cli_in_process("bsp", str(path))
        assert r.returncode == 2 and r.stderr.startswith("error: " + message), r.stderr
        bad_files.append(("bsp", str(path)))
    # a spec with no actions, which reads the same in both formats, and a
    # JSON spec whose top level is no object
    for name, text, message in [
            ("no_actions.bsp", "actions\nstates 1\n",
             "a spec needs at least one action"),
            ("no_actions.json", '{"actions": [], "states": 1, "b": [[]], "j": [[]]}',
             "a spec needs at least one action"),
            ("array.json", "[]",
             "malformed spec object: the top level is a list, not an object"),
            ("string.json", '"x"',
             "malformed spec object: the top level is a str, not an object")]:
        path = tmp_path / name
        path.write_text(text)
        r = cli_in_process("bsp", str(path))
        assert r.returncode == 2 and r.stderr == "error: %s\n" % message, r.stderr
        bad_files.append(("bsp", str(path)))
    # one fault, the same line whatever the format
    for text_spec, json_spec in [
            ("actions\nstates 1\n", '{"actions": [], "states": 1, "b": [[]], "j": [[]]}'),
            ("actions a b\nstates 2\nwidth 0 1\nb 0 zzz\nj 0 1\n",
             '{"actions": ["a", "b"], "states": 2, "b": [["zzz"], []], "j": [[1], []]}')]:
        (tmp_path / "same.bsp").write_text(text_spec)
        (tmp_path / "same.json").write_text(json_spec)
        r_text = cli_in_process("bsp", str(tmp_path / "same.bsp"))
        r_json = cli_in_process("bsp", str(tmp_path / "same.json"))
        assert r_text.returncode == r_json.returncode == 2
        assert r_text.stderr == r_json.stderr and "malformed" not in r_json.stderr
    # an empty or repeated entry in a comma separated flag
    for args, message in [
            (("--alphabet", "0,0"), "--alphabet '0,0': entry '0' is repeated"),
            (("--alphabet", ",,"), "--alphabet ',,': entry 1 is empty"),
            (("--alphabet", "0,1,"), "--alphabet '0,1,': entry 3 is empty"),
            (("--base", "nondetstate", "--state-set", "s0,s0"),
             "--state-set 's0,s0': entry 's0' is repeated"),
            (("--base", "nondetstate", "--state-set", "s0,,s1"),
             "--state-set 's0,,s1': entry 2 is empty"),
            # an entry the rendered output could not be read back from
            (("--alphabet", "a b", "--input", "a b"),
             "--alphabet 'a b': entry 'a b' contains ' '; an entry holds no "
             "whitespace and none of (){}"),
            (("--alphabet", "0,{1}"),
             "--alphabet '0,{1}': entry '{1}' contains '{'; an entry holds no "
             "whitespace and none of (){}"),
            (("--base", "nondetstate", "--state-set", "s0,s(1)"),
             "--state-set 's0,s(1)': entry 's(1)' contains '('; an entry holds "
             "no whitespace and none of (){}")]:
        r = cli_in_process("run", prog, "--input", "0", *args)
        assert r.returncode == 2 and r.stderr == "error: %s\n" % message, r.stderr
        bad_files.append(("run", prog, "--input", "0") + args)
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\xff\xfe\xfa")
    bad_files += [("run", str(undecodable), "--input", "0"),
                  ("bsp", str(undecodable)),
                  ("handle", str(undecodable)),
                  ("laws", "--suite", "base", "--samples", "1",
                   "--report", str(tmp_path / "no" / "dir" / "r.json"))]
    for args in [("run", prog, "--input", "0", "--depth", "-1"),
                 ("bsp", spec, "--depth", "-1"),
                 ("laws", "--depth", "-1"),
                 ("laws", "--samples", "0"),
                 ("handle", toss, "--fuel", "-1"),
                 ("handle", toss, "--fuel", "many")] + bad_files:
        r = cli_in_process(*args)
        assert r.returncode == 2 and "Traceback" not in r.stderr, args
        assert r.stdout == "", args         # bad input fails before any output


def _identity_file(tmp_path, base, tree, **fields):
    doc = {"signature": [{"name": "toss", "param": ["*"], "arity": ["h", "t"]}],
           "base": base, "target": "finset", "sigma": "identity",
           "effects": {"toss": {"*": {"set": ["h"]}}}, "tree": tree, **fields}
    path = tmp_path / ("identity_%s.json" % base)
    path.write_text(json.dumps(doc))
    return str(path)


def test_handle_identity_morphism(tmp_path):
    node = {"op": "toss", "param": "*",
            "children": {"h": {"set": [{"leaf": "heads"}]}, "t": {"set": []}}}
    r = cli("handle", _identity_file(tmp_path, "finset", {"set": [node]}))
    assert r.returncode == 0 and r.stdout == "{heads}\nconverged\n"

    r = cli("handle", _identity_file(tmp_path, "maybe", {"just": node}))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "maybe" in r.stderr and "finset" in r.stderr

    # the base is built over the file's state set as well as the target
    nd = {"op": "toss", "param": "*",
          "children": {"h": {"states": {"s0": [[{"leaf": "heads"}, "s0"]]}},
                       "t": {"states": {}}}}
    r = cli("handle", _identity_file(
        tmp_path, "nondetstate", {"states": {"s0": [[nd, "s0"]]}}, target="nondetstate",
        effects={"toss": {"*": {"states": {"s0": [["h", "s0"]]}}}}, state_set=["s0"]))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "(states (s0 {(pair heads s0)}))\nconverged\n"


def test_handle_morphism_must_match_base_and_target(tmp_path):
    doc = {"signature": [{"name": "toss", "param": ["*"], "arity": ["h", "t"]}],
           "base": "finset", "target": "finset", "sigma": "maybe-to-finset",
           "effects": {"toss": {"*": {"set": ["h"]}}},
           "tree": {"set": [{"leaf": "heads"}]}}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    r = cli("handle", str(path))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "maybe-to-finset" in r.stderr
    assert "base finset" in r.stderr and "target finset" in r.stderr


def _fields(doc, path=()):
    """The path of every field of a JSON document, at any depth."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


_JSON_VALUES = st.one_of(
    st.integers(-3, 12), st.text(max_size=4), st.none(),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.one_of(st.integers(0, 3), st.text(max_size=2)),
                    max_size=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_handle_fuzzed_file_never_crashes(tmp_path_factory, data):
    doc = json.loads(data.draw(st.sampled_from(
        [(GOLDEN / "handle_toss.json").read_text(), json.dumps(ND_SPEC)])))
    path = data.draw(st.sampled_from(list(_fields(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_JSON_VALUES)
    # a fresh file per example: on some file systems rewriting one file
    # takes tens of milliseconds
    file = tmp_path_factory.mktemp("fuzzed") / "handle.json"
    file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["handle", str(file)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


BSP_SPEC = {"actions": ["a", "b"], "states": 2, "width": [2, 1],
            "b": [["a", "b"], ["a"]], "j": [[1, 0], [1]]}

_BSP_VALUES = st.one_of(
    st.integers(-3, 12), st.floats(-2, 3), st.booleans(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=2)), max_size=3),
    st.none(), st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_bsp_fuzzed_spec_never_crashes(tmp_path_factory, data):
    doc = json.loads(json.dumps(BSP_SPEC))
    path = data.draw(st.sampled_from([None] + list(_fields(doc))))
    if path is None:
        doc["actions"].append(data.draw(st.sampled_from(doc["actions"])))
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(_BSP_VALUES)
    file = tmp_path_factory.mktemp("fuzzed") / "spec.json"
    file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bsp", str(file), "--depth", "2"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def _cap_address_space():
    # a runaway allocation then raises MemoryError in the child instead of
    # exhausting the machine
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spec", [
    "actions a\nstates 1000000000\n",
    '{"actions": ["a"], "states": 1000000000, "b": [], "j": []}'])
def test_bsp_refuses_a_huge_state_count(tmp_path, spec):
    # 22 bytes of text declare 10^9 states whose rows all default to empty
    path = tmp_path / "huge.bsp"
    path.write_text(spec)
    r = subprocess.run([sys.executable, "-m", "elgot", "bsp", str(path), "--depth", "0"],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(PKG / "src")},
                       preexec_fn=_cap_address_space)
    assert r.returncode == 2, r.stderr[-300:]
    assert r.stderr == "error: states 1000000000 is above the limit of 100000\n"


@pytest.mark.parametrize("spec,depth,code,stdout,stderr", [
    # two self-loops double each level: refused before the limit is passed
    ("actions a\nstates 1\nb 0 a a\nj 0 0 0\n", 60, 2, "",
     "error: depth 60 unfolds more than the limit of 1000000 nodes\n"),
    # no transitions: the first level is empty, and no deeper one is walked
    ("actions a\nstates 1\n", 10 ** 9, 0, "initial s0\n", "")],
    ids=["doubling", "no_edges"])
def test_bsp_unfolding_is_bounded(tmp_path, spec, depth, code, stdout, stderr):
    path = tmp_path / "spec.bsp"
    path.write_text(spec)
    r = subprocess.run([sys.executable, "-m", "elgot", "bsp", str(path),
                        "--depth", str(depth)],
                       capture_output=True, text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(PKG / "src")},
                       preexec_fn=_cap_address_space)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr), r.stderr[-300:]


def test_long_sequence_runs(tmp_path):
    prog = tmp_path / "long.whl"
    prog.write_text("; ".join(["write"] * 5000))
    r = cli("run", str(prog), "--base", "finset", "--input", "0", "--depth", "3")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "{(op write 0 {(op write 0 {(op write 0 {(cut)})})})}\n"


def test_run_trace_echoes_a_long_sequence(tmp_path):
    prog = tmp_path / "long.whl"
    prog.write_text("; ".join(["write"] * 1000))
    r = cli("run", str(prog), "--input", "0", "--depth", "1", "--trace")
    assert r.returncode == 0 and "Traceback" not in r.stderr
    assert r.stdout.startswith("# Seq(first=Act(name='write'), second=Seq(")


def _write_loop_text(depth):
    """What `while true do write` on finset prints at a depth: one write
    node per layer above a cut."""
    return "{(op write 0 " * depth + "{(cut)}" + ")}" * depth + "\n"


@pytest.mark.parametrize("depth", [100, 1000])
def test_deep_runs_render_without_recursion(tmp_path, depth):
    prog = tmp_path / "loop.whl"
    prog.write_text("while true do write")
    r = cli("run", str(prog), "--base", "finset", "--input", "0",
            "--depth", str(depth))
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr[-500:]
    assert r.stdout == _write_loop_text(depth)


def _act_chain_file(tmp_path, n):
    """A handle file whose tree is a chain of n act nodes above a leaf,
    written as text: the json encoder itself recurses on nesting."""
    doc = {"signature": [{"name": "act", "param": ["*"], "arity": ["*"]}],
           "base": "maybe", "target": "finset", "sigma": "maybe-to-finset",
           "effects": {"act": {"*": {"set": ["*"]}}}, "tree": None, "fuel": 700}
    tree = ('{"just": {"op": "act", "param": "*", "children": {"*": ' * n
            + '{"just": {"leaf": "x"}}' + "}}}" * n)
    path = tmp_path / ("chain_%d.json" % n)
    path.write_text(json.dumps(doc).replace("null", tree))
    return str(path)


def test_deep_handle_files_exit_cleanly(tmp_path):
    r = cli("handle", _act_chain_file(tmp_path, 300))
    assert r.returncode == 0 and "Traceback" not in r.stderr
    assert r.stdout == "{x}\nconverged\n"
    r = cli("handle", _act_chain_file(tmp_path, 1000))   # too deep for json
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")


@pytest.mark.parametrize("source,expected",
                         [("; ".join(["skip"] * 300), "{(leaf 0)}\n"),
                          ("while true do " * 300 + "skip", "{}\n")],
                         ids=["skip-chain", "nested-while"])
def test_deep_programs_never_print_a_traceback(tmp_path, source, expected):
    # a skip chain compiles to no label, and nested loops to a chain of
    # bare jumps
    prog = tmp_path / "deep.whl"
    prog.write_text(source)
    r = cli("run", str(prog), "--input", "0", "--depth", "1")
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr[-300:]
    assert r.stdout == expected


@pytest.mark.parametrize("source,expected",
                         [("; ".join(["if true then skip else skip"] * 1000), "{(leaf 0)}\n"),
                          ("while true do " * 300 + "skip", "{}\n"),
                          ("; ".join(["while false do write"] * 1000), "{(leaf 0)}\n")],
                         ids=["if-chain", "nested-while", "while-false-chain"])
def test_deep_programs_within_the_nesting_ceilings_run(tmp_path, source, expected):
    # a pure test and a loop head are bare jumps, iterated in propagate's
    # loops, so neither a long chain of them nor deep loop nesting recurses
    prog = tmp_path / "deep.whl"
    prog.write_text(source)
    r = cli("run", str(prog), "--input", "0", "--depth", "1")
    assert r.returncode == 0, r.stderr[-300:]
    assert r.stdout == expected


# programs of the README grammar over the built-in actions and predicates
# and one unknown name of each kind, which the environment rejects
_IDENTS = st.sampled_from(["read", "write", "jump"])
_PREDS = st.sampled_from(["true", "false", "coin", "odd"])
_PROGRAMS = st.recursive(
    st.one_of(st.just("skip"), _IDENTS),
    lambda stmt: st.one_of(
        st.builds("{}; {}".format, stmt, stmt),
        st.builds("if {} then {} else {}".format, _PREDS, stmt, stmt),
        st.builds("while {} do {}".format, _PREDS, stmt),
        st.builds("{{ {} }}".format, stmt)),
    max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_fuzzed_program_never_crashes(tmp_path_factory, data):
    # --depth stays small: the text of `while true do write` on a
    # nondeterministic base doubles with each unit of depth
    source = data.draw(st.one_of(
        _PROGRAMS, st.integers(1, 2000).map(lambda n: "; ".join(["skip"] * n))))
    base = data.draw(st.sampled_from(["maybe", "finset", "nondetstate"]))
    args = ["--base", base, "--input", data.draw(st.sampled_from("07")),
            "--depth", str(data.draw(st.integers(0, 5)))]
    if base == "nondetstate":
        args += ["--state-set", data.draw(st.sampled_from(["s0", "s0,s1"]))]
    file = tmp_path_factory.mktemp("fuzzed") / "program.whl"
    file.write_text(source)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(file), *args])
    if set(source.split("; ")) == {"skip"}:
        assert code == 0, err.getvalue()    # skip is its continuation, at any length
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue()


def test_parse_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.whl"
    bad.write_text("while do")
    r = cli("run", str(bad), "--input", "0")
    assert r.returncode == 2 and "1:7" in r.stderr

    badspec = tmp_path / "bad.bsp"
    badspec.write_text("actions a\nstates 1\nwidth 0 1\nb 0 zzz\nj 0 0\n")
    r = cli("bsp", str(badspec))
    assert r.returncode == 2 and "zzz" in r.stderr


def test_nondetstate_requires_state_set(tmp_path):
    prog = tmp_path / "p.whl"
    prog.write_text("skip")
    r = cli("run", str(prog), "--base", "nondetstate", "--input", "0")
    assert r.returncode == 2


def test_run_under_nondetstate():
    r = cli("run", str(GOLDEN / "sect7_prog.whl"), "--base", "nondetstate",
            "--state-set", "s0,s1", "--input", "0", "--depth", "1",
            "--alphabet", "0,1")
    assert r.returncode == 0
    assert r.stdout.startswith("(states (s0 ")


@pytest.mark.parametrize("args", [
    ("run", "GOLDEN/sect7_prog.whl", "--base", "finset", "--input", "0",
     "--depth", "3"),
    ("bsp", "GOLDEN/two_state.bsp", "--depth", "2", "--format", "dot"),
    ("bsp", "GOLDEN/two_state.bsp", "--depth", "2", "--format", "csv"),
    ("handle", "GOLDEN/handle_toss.json"),
    ("laws", "--suite", "base", "--samples", "4", "--seed", "7"),
])
def test_byte_identical_across_runs(args):
    args = [a.replace("GOLDEN", str(GOLDEN)) for a in args]
    r1, r2 = cli(*args), cli(*args)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout.encode() == r2.stdout.encode()


def _twelve_state_spec():
    """A 12-state process definition whose states branch one to four ways."""
    widths = [(5 * i) % 4 + 1 for i in range(12)]
    lines = ["actions a b c", "states 12"]
    lines += ["width %d %d" % (i, w) for i, w in enumerate(widths)]
    for i, w in enumerate(widths):
        lines.append("b %d %s" % (i, " ".join("abc"[(i + k) % 3] for k in range(w))))
        lines.append("j %d %s" % (i, " ".join(str((7 * i + 3 * k + 1) % 12)
                                              for k in range(w))))
    return "\n".join(lines) + "\n"


def _fan(depth, label):
    """A finset handle tree: a leaf next to a toss node over two fans."""
    if not depth:
        return {"set": [{"leaf": label + "a"}, {"leaf": label + "b"}]}
    node = {"op": "toss", "param": "*",
            "children": {a: _fan(depth - 1, label + a) for a in "ht"}}
    return {"set": [{"leaf": label}, node]}


@pytest.mark.parametrize("args", [
    ("laws", "--suite", "all", "--samples", "5", "--seed", "42"),
    ("run", "TMP/loop.whl", "--base", "nondetstate", "--state-set", "s0,s1",
     "--alphabet", "0,1", "--input", "0", "--depth", "3"),
    ("bsp", "TMP/twelve.bsp", "--depth", "2"),
    ("handle", "GOLDEN/handle_toss.json"),
    ("handle", "TMP/nd_two_outcomes.json"),
    ("handle", "TMP/identity_finset.json"),
])
def test_outputs_do_not_depend_on_hash_order(tmp_path, args):
    # sets compare by hash, so whatever prints or walks one must sort it
    (tmp_path / "loop.whl").write_text("read; while true do { write; read }")
    (tmp_path / "twelve.bsp").write_text(_twelve_state_spec())
    doc = json.loads(json.dumps(ND_SPEC))
    doc["effects"]["toss"]["*"]["states"]["s0"].append(["t", "s0"])
    (tmp_path / "nd_two_outcomes.json").write_text(json.dumps(doc))
    # a finset fan: 2, 4 and 8 nodes at distances 1, 2 and 3, each level
    # expanded in the order of the sets that find it
    _identity_file(tmp_path, "finset", _fan(3, "x"),
                   effects={"toss": {"*": {"set": ["h", "t"]}}})
    args = [a.replace("GOLDEN", str(GOLDEN)).replace("TMP", str(tmp_path))
            for a in args]
    # laws also writes its --report file, one per hash seed
    reports = [tmp_path / ("report%s.json" % seed) for seed in ("0", "1")]
    r0, r1 = (cli(*args, *(("--report", str(rep)) if args[0] == "laws" else ()),
                  env={"PYTHONHASHSEED": seed})
              for seed, rep in zip(("0", "1"), reports))
    assert r0.returncode == r1.returncode == 0, r0.stderr
    assert r0.stdout.encode() == r1.stdout.encode()
    if args[0] == "laws":
        assert reports[0].read_bytes() == reports[1].read_bytes()


def _in_process(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def test_law_listing_matches_its_golden():
    assert _in_process("laws", "--suite", "all", "--seed", "42", "--samples", "5") \
        == (0, (GOLDEN / "laws_all_seed42.txt").read_text())


def test_shared_parser_keeps_no_state_between_calls(monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.delenv("ELGOT_SEED", raising=False)
    laws = ("laws", "--suite", "base", "--samples", "1")
    prog = str(GOLDEN / "sect7_prog.whl")
    run = ("run", prog, "--input", "0", "--depth", "1")
    # each call after its flagged twin must print what a fresh process does
    for first, second in [(laws + ("--seed", "7"), laws), (run + ("--trace",), run)]:
        _in_process(*first)
        code, text = _in_process(*second)
        fresh = cli(*second)
        assert code == fresh.returncode == 0
        assert text == fresh.stdout
    assert "seed 42" in _in_process(*laws)[1]
    assert not _in_process(*run)[1].startswith("#")
    golden = [
        (("run", prog, "--base", "finset", "--input", "0", "--depth", "3"),
         (GOLDEN / "sect7_depth3.txt").read_text()),
        (("bsp", str(GOLDEN / "two_state.bsp"), "--depth", "1", "--format", "dot"),
         (GOLDEN / "two_state_depth1.dot").read_text()),
        (("handle", str(GOLDEN / "handle_toss.json")), "{heads}\nconverged\n"),
    ]
    for args, expected in golden + golden:
        assert _in_process(*args) == (0, expected), args
