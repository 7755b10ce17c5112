"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
here: base-monad identities are exact, tree identities are bisimilarity at
the stated depths, and the two law-suite criteria carry wall-clock budgets.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

from elgot.core import Inl, KleisliFn, carrier, copair, kleisli_unit, \
    sum_carrier
from elgot.base_monads import Just, NOTHING, elgot_instance, finset, \
    kleene_iterate, partition_iterate_maybe
from elgot.handler import handle, maybe_to_finset
from elgot.iteration import guard_transform, solve_guarded
from elgot.laws import ELGOT_AXIOMS, Gen, GenConfig, run_axiom_suite
from elgot.resumption import ResumptionMonad
from elgot.while_lang import interpret, make_env, parse, run

from conftest import resumption, two_op_signature

GOLDEN = Path(__file__).parent / "golden"


def _report(number, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, detail))
    assert ok, detail


def test_criterion_1_base_elgot_suite():
    started = time.monotonic()
    laws = ELGOT_AXIOMS + ("elgot.bekic",)
    config = GenConfig(samples=200, seed=42, max_carrier=3)
    bad = []
    for kind, kw in [("maybe", {}), ("finset", {}),
                     ("nondetstate", {"state_set": ("s0", "s1")})]:
        rep = run_axiom_suite(elgot_instance(kind, **kw), config, laws=laws)
        if not rep.ok:
            bad.append(rep.text())
    elapsed = time.monotonic() - started
    _report(1, not bad and elapsed < 60.0,
            "five axioms + strength + Bekic, 200 samples/law on 3 base "
            "monads, exact equality, %.1fs (< 60s)%s"
            % (elapsed, "" if not bad else "; " + "; ".join(bad)))


def test_criterion_2_resumption_elgot_suite():
    started = time.monotonic()
    config = GenConfig(samples=100, seed=42, depth=6)
    bad = []
    for kind in ("maybe", "finset"):
        rep = run_axiom_suite(resumption(kind, depth=6), config,
                              laws=ELGOT_AXIOMS)
        if not rep.ok:
            bad.append(rep.text())
    elapsed = time.monotonic() - started
    _report(2, not bad and elapsed < 120.0,
            "five axioms + strength on trees over maybe and finset, "
            "100 samples/law at depth 6, %.1fs (< 120s)%s"
            % (elapsed, "" if not bad else "; " + "; ".join(bad)))


def test_resumption_elgot_suite_over_nondeterministic_state():
    # criterion 2's six axioms on trees over the one base that is not
    # commutative, where pre_iterate threads the state through the bare
    # jumps it iterates
    started = time.monotonic()
    config = GenConfig(samples=100, seed=42, depth=6)
    rm = ResumptionMonad(elgot_instance("nondetstate", state_set=("s0", "s1")),
                         two_op_signature(), depth=6)
    rep = run_axiom_suite(rm, config, laws=ELGOT_AXIOMS)
    elapsed = time.monotonic() - started
    ok = rep.ok and rep.skipped == 0 and elapsed < 120.0
    print("%s five axioms + strength on trees over nondetstate[s0,s1], 100 "
          "samples/law at depth 6, %.1fs (< 120s)" % ("PASS" if ok else "FAIL", elapsed))
    assert ok, rep.text()
    assert [r.samples for r in rep.results] == [100] * len(ELGOT_AXIOMS)


def test_criterion_3_extension_property():
    gen = Gen(GenConfig(seed=42))
    failures = 0
    for kind in ("maybe", "finset"):
        rm = resumption(kind)
        for _ in range(50):
            x = gen.carrier("x")
            y = gen.carrier("y")
            cod = sum_carrier(y, x)
            g = gen.kleisli(rm.base, x, cod)
            f = KleisliFn(rm, x, cod, {v: rm.ext(g(v)) for v in x.elements})
            fd = rm.iterate(f)
            gd = rm.base.iterate(g)
            if any(rm.out(fd(v)) != rm.base.map(gd(v), Inl)
                   for v in x.elements):
                failures += 1
    _report(3, failures == 0,
            "extension property exact on the first layer for 100 "
            "effect-free definitions (%d failures)" % failures)


def test_criterion_4_guarded_fixpoint():
    gen = Gen(GenConfig(seed=42, node_budget=12))
    unfold_bad = guard_bad = 0
    for kind in ("maybe", "finset"):
        rm = resumption(kind)
        for _ in range(50):
            x = gen.carrier("x")
            y = gen.carrier("y")
            f = gen.guarded_kleisli(rm, x, sum_carrier(y, x))
            sol = solve_guarded(rm, f)
            glue = copair(kleisli_unit(rm, y), sol)
            for v in x.elements:
                unrolled = rm.bind(f(v), glue)
                if any(not rm.bisimilar(unrolled, sol(v), d)
                       for d in range(1, 7)):
                    unfold_bad += 1
            fg = guard_transform(rm, f)
            if any(not rm.bisimilar(f(v), fg(v), 6) for v in x.elements):
                guard_bad += 1
    _report(4, unfold_bad == 0 and guard_bad == 0,
            "guarded solutions satisfy the unfolding at depths 1..6 and the "
            "guarding transform fixes guarded definitions at depth 6 "
            "(%d/%d failures)" % (unfold_bad, guard_bad))


def test_criterion_5_partition_oracle():
    m = elgot_instance("maybe")
    gen = Gen(GenConfig(seed=42))
    mismatches = 0
    for _ in range(500):
        x = gen.carrier("x")
        y = gen.carrier("y")
        f = gen.kleisli(m, x, sum_carrier(y, x))
        if partition_iterate_maybe(f).table != kleene_iterate(f).table:
            mismatches += 1
    # exhaustive agreement for |X| = |Y| = 2
    x = carrier("x", ("x0", "x1"))
    y = carrier("y", ("y0", "y1"))
    cod = sum_carrier(y, x)
    values = [NOTHING] + [Just(e) for e in cod.elements]
    exhaustive = 0
    for combo in itertools.product(values, repeat=2):
        f = KleisliFn(m, x, cod, dict(zip(x.elements, combo)))
        if partition_iterate_maybe(f).table != kleene_iterate(f).table:
            mismatches += 1
        exhaustive += 1
    _report(5, mismatches == 0 and exhaustive == 25,
            "partition iteration equals Kleene iteration exactly on 500 "
            "random tables and all %d two-element tables (%d mismatches)"
            % (exhaustive, mismatches))


def test_criterion_6_universal_triangles():
    rm = resumption("maybe")
    S = elgot_instance("finset")
    sigma = maybe_to_finset(rm.base, S)
    gen = Gen(GenConfig(seed=42))
    upsilon = gen.effect_interpretation(rm.sig, S)
    x = gen.carrier("x", 3)
    bad = 0
    for _ in range(100):
        m = gen.value(rm.base, x)
        r = handle(rm, rm.ext(m), sigma, upsilon, 10)
        if not (r.converged and S.equal(r.value, sigma.component(m))):
            bad += 1
        op = gen.rng.choice(rm.sig.ops)
        k = {a: gen.elem(x) for a in op.arity.elements}
        param = gen.elem(op.param)
        r = handle(rm, rm.iota(op.name, param, k), sigma, upsilon, 10)
        want = S.map(upsilon.effect(op.name)(param), lambda a: k[a])
        if not (r.converged and S.equal(r.value, want)):
            bad += 1
    mono_bad = 0
    for _ in range(200):
        t = gen.tree(rm, x)
        n = gen.rng.randint(0, 9)
        lo = handle(rm, t, sigma, upsilon, n)
        hi = handle(rm, t, sigma, upsilon, n + 1 + gen.rng.randint(0, 4))
        if not S.leq(lo.value, hi.value):
            mono_bad += 1
    _report(6, bad == 0 and mono_bad == 0,
            "handling extends sigma and interprets operations by upsilon on "
            "100 samples at fuel 10, exact on converged cases; fuel monotone "
            "on 200 samples (%d/%d failures)" % (bad, mono_bad))


def test_criterion_7_while_language():
    ok_bottom = True
    for kind in ("maybe", "finset"):
        env = make_env(kind, alphabet=("0", "1"))
        sem = interpret(parse("while true do skip"), env)
        for v in env.alphabet.elements:
            ok_bottom &= (env.rm.out(sem(v)) == env.rm.base.bottom())
    env = make_env("finset")
    out = run((GOLDEN / "sect7_prog.whl").read_text(), env, "0", 3)
    golden = (GOLDEN / "sect7_depth3.txt").read_text().rstrip("\n")
    ok_golden = (out == golden)
    writeful = "(op write" in out
    writefree = "{(op coin * {(cut)} {(cut)})}" in out
    _report(7, ok_bottom and ok_golden and writeful and writefree,
            "while true do skip denotes the bottom tree exactly; the "
            "read/coin program's depth-3 truncation matches the hand-derived "
            "golden file and shows a write-containing and a write-free branch")


def test_criterion_8_bsp():
    from elgot.bsp import parse_bsp_text, solve_and_unfold
    from test_bsp import TWO_STATE, table_oracle
    spec = parse_bsp_text(TWO_STATE)
    lts1 = solve_and_unfold(spec, 1)
    edges1 = sorted(lts1.edge_states())
    want1 = [(0, "a", 1), (0, "b", 0), (1, "a", 1)]
    lts2 = solve_and_unfold(spec, 2)
    oracle2 = table_oracle(spec, 2)
    ok = (edges1 == want1 == sorted(table_oracle(spec, 1))
          and len(lts2.edges) == len(oracle2)
          and sorted(lts2.edge_states()) == sorted(oracle2))
    _report(8, ok,
            "two-state system unfolds at depth 1 to exactly "
            "{0-a->1, 0-b->0, 1-a->1} and its depth-2 edge count (%d) "
            "matches the table oracle" % len(lts2.edges))


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "elgot.cli", *args],
                          capture_output=True, env=env)


def test_criterion_9_cli_determinism():
    invocations = [
        ("run", str(GOLDEN / "sect7_prog.whl"), "--base", "finset",
         "--input", "0", "--depth", "3"),
        ("bsp", str(GOLDEN / "two_state.bsp"), "--depth", "2", "--format", "dot"),
        ("bsp", str(GOLDEN / "two_state.bsp"), "--depth", "2", "--format", "csv"),
        ("handle", str(GOLDEN / "handle_toss.json")),
        ("laws", "--suite", "base", "--samples", "5", "--seed", "42"),
    ]
    stable = True
    for args in invocations:
        first, second = _cli(*args), _cli(*args)
        stable &= (first.returncode == second.returncode == 0
                   and first.stdout == second.stdout)
    _report(9, stable,
            "all %d golden CLI invocations byte-identical across two "
            "consecutive runs" % len(invocations))
