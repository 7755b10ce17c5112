"""The paper's construction against independent operational semantics.

`bench/reference.py` imports nothing from the package: it renders the
truncation `elgot run` prints from a configuration graph of the while
program, checks `elgot bsp` output against the path counts of the spec's
tables, and evaluates handled programs and handle files directly.  Here the
benchmark's seeded generators draw small inputs, and every in-process
output must agree with those oracles, so a fault in guarding, base
iteration, lifting or handling shows as a mismatch.  The benchmark
modules are imported read-only, without writing bytecode next to them.
Each input goes to a file of its own: on some file systems truncating a
file to rewrite it takes tens of milliseconds.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from elgot import (EffectInterpretation, NdState, Pair, elgot_instance, finset, handler,
                   identity_morphism, make_kleisli, while_lang)
from elgot.cli import main
from elgot.handler import finset_to_nondetstate, maybe_to_finset, maybe_to_nondetstate

BENCH = Path(__file__).parent.parent / "bench"


def _import_bench():
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
        import workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return reference, workloads


reference, workloads = _import_bench()

STATES = ("s0", "s1")


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("base", ("maybe", "finset", "nondetstate"))
def test_run_matches_the_configuration_graph(base, tmp_path):
    rng = random.Random("run:%s" % base)
    for n in range(100):
        nesting = n % 4
        stmt = workloads.while_program(rng, nesting, nesting > 0 and n % 8 >= 4,
                                       base != "maybe")
        alphabet = tuple(str(i) for i in range(rng.randint(1, 3)))
        value = rng.choice(alphabet)
        depth = rng.randint(0, 5)
        prog = tmp_path / ("prog%d.whl" % n)
        prog.write_text(reference.source(stmt) + "\n")
        argv = ["run", str(prog), "--base", base, "--input", value,
                "--depth", str(depth), "--alphabet", ",".join(alphabet)]
        if base == "nondetstate":
            argv += ["--state-set", ",".join(STATES)]
        want = reference.render(stmt, base, alphabet, STATES, value, depth)
        assert _stdout(argv) == want + "\n", (reference.source(stmt), argv)


@pytest.mark.parametrize("fmt", ("text", "dot", "csv"))
def test_bsp_matches_the_path_counts(fmt, tmp_path):
    rng = random.Random("bsp:%s" % fmt)
    for n in range(20):
        spec = workloads.bsp_spec(rng, rng.randint(1, 12), rng.randint(1, 6))
        depth = rng.randint(0, 3)
        if n % 2:
            path = tmp_path / ("spec%d.json" % n)
            path.write_text(json.dumps(spec))
        else:
            path = tmp_path / ("spec%d.bsp" % n)
            path.write_text(workloads.bsp_text(spec))
        out = _stdout(["bsp", str(path), "--depth", str(depth), "--format", fmt])
        assert reference.bsp_check(spec, depth, fmt, out) is None, (spec, depth)


def _check_handled(out: str, exact, lower, states, must_converge=False):
    """A converged value is the exact one; an approximate value lies
    between the lower bound and the exact value."""
    text, status, rest = out.split("\n")
    assert rest == "" and status in ("converged", "approximate"), out
    value = reference.parse_value(text, states)
    if status == "converged":
        assert value == exact, (out, exact)
    else:
        assert not must_converge, out
        assert reference.below(lower, value) and reference.below(value, exact), (
            out, lower, exact)


def _handle_program(stmt, base, target, alphabet, value, effects, fuel) -> str:
    """`handler.handle` on the program's tree, set up as the benchmark's
    direct handle items are: each operation's generic effect is a table of
    outcomes, `write`'s keyed by the written value."""
    env = while_lang.make_env(base, alphabet=alphabet)
    rm = env.rm
    tree = while_lang.interpret(while_lang.parse(reference.source(stmt)), env)(value)
    if target == "finset":
        target_m = rm.base if base == "finset" else elgot_instance("finset")
        sigma = (identity_morphism(target_m) if base == "finset"
                 else maybe_to_finset(rm.base, target_m))
    else:
        target_m = elgot_instance("nondetstate", state_set=STATES)
        sigma = (finset_to_nondetstate if base == "finset"
                 else maybe_to_nondetstate)(rm.base, target_m)

    def outcome(op, p):
        picked = effects[op][p] if op == "write" else effects[op]
        if target == "finset":
            return finset(picked)
        return NdState(tuple((s, finset(Pair(a, s2) for a, s2 in picked[s]))
                             for s in target_m.states))

    upsilon = EffectInterpretation(rm.sig, target_m, {
        op.name: make_kleisli(target_m, op.param, op.arity,
                              lambda p, _op=op.name: outcome(_op, p))
        for op in rm.sig.ops})
    result = handler.handle(rm, tree, sigma, upsilon, fuel)
    return "%s\n%s\n" % (target_m.render(result.value),
                         "converged" if result.converged else "approximate")


@pytest.mark.parametrize("base,target", [("maybe", "finset"), ("finset", "finset"),
                                         ("maybe", "nondetstate"),
                                         ("finset", "nondetstate")])
def test_handle_matches_the_handled_configuration_graph(base, target):
    rng = random.Random("handle:%s:%s" % (base, target))
    states = list(STATES) if target == "nondetstate" else None
    for n in range(40):
        while True:
            alphabet = tuple(str(i) for i in range(rng.randint(1, 3)))
            value = rng.choice(alphabet)
            stmt = workloads.while_program(rng, 1 + n % 2, n % 4 >= 2, base != "maybe")
            effects = workloads._write_effects(rng, alphabet, states)
            if (reference.statement_count(stmt) <= workloads.MAX_STATEMENTS
                    and workloads.unfolded(stmt, alphabet, value, effects, states)
                    <= workloads.DIRECT_UNFOLDED[1]):
                break
        # fuel >= 1 values every leaf under at most fuel // 2 operations
        fuel = rng.randint(1, 8)
        out = _handle_program(stmt, base, target, alphabet, value, effects, fuel)
        exact = reference.handled(stmt, alphabet, value, effects, states)
        lower = reference.handled(stmt, alphabet, value, effects, states, fuel // 2)
        _check_handled(out, exact, lower, states)


@pytest.mark.parametrize("base,target,sigma", workloads.MORPHISMS,
                         ids=[m[2] for m in workloads.MORPHISMS])
def test_handle_files_match_the_tree_fold(base, target, sigma, tmp_path):
    rng = random.Random("handle-file:%s" % sigma)
    for n in range(60):
        if n % 2:
            tree = workloads.chain_tree(rng, base, rng.randint(0, 24))
        else:
            tree = workloads.fan_tree(rng, base, rng.randint(0, 5))
        doc = workloads.handle_doc(rng, base, target, sigma, tree, n % 4 == 0)
        path = tmp_path / ("tree%d.json" % n)
        path.write_text(json.dumps(doc))
        out = _stdout(["handle", str(path)])
        fuel = doc["fuel"]
        # zero rounds leave bottom; fuel 2 * depth + 1 closes a finite tree
        lower = reference.fold_tree(doc, fuel // 2 if fuel else -1)
        _check_handled(out, reference.fold_tree(doc), lower, doc.get("state_set"),
                       fuel >= 2 * reference.tree_depth(tree) + 1)
