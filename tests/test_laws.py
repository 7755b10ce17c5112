import contextlib
import io
import json
import re

import pytest

from elgot import laws
from elgot.cli import main
from elgot.core import Inl, Inr, KleisliFn, Pair, carrier, compose_kleisli, \
    copair, kleisli_unit, make_kleisli, sum_carrier
from elgot.base_monads import FinSetMonad, elgot_instance, finset
from elgot.resumption import ResumptionMonad
from elgot.laws import (ELGOT_AXIOMS, LAWS, Gen, GenConfig, run_axiom_suite,
                        run_morphism_suite)

from conftest import resumption, two_op_signature

# every identity in scope
CHECKLIST = frozenset({
    "monad.left_unit", "monad.right_unit", "monad.assoc",
    "strength.str1", "strength.str2", "strength.str3", "strength.str4",
    "elgot.unfolding", "elgot.naturality", "elgot.dinaturality",
    "elgot.codiagonal", "elgot.uniformity", "elgot.strength", "elgot.bekic",
    "elgot.divergence",
    "omega.bottom_postcomp", "omega.bottom_strength", "omega.bind_monotone",
    "omega.bind_join",
    "resumption.kleisli_eq", "resumption.strength_eq", "resumption.extension",
    "resumption.guard_fix", "resumption.guarded_unfolding",
    "morphism.unit", "morphism.kleisli", "morphism.strength", "morphism.iteration",
    "handle.ext", "handle.iota", "handle.kleisli", "handle.iteration",
    "handle.fuel_monotone",
})
# the laws of run_handler_suite, which is not on the registry
HANDLER_SUITE = ("handle.ext", "handle.iota", "handle.kleisli",
                 "handle.iteration", "handle.fuel_monotone")


def test_registry_covers_the_checklist(tmp_path):
    assert len(CHECKLIST) == 33
    assert set(LAWS) | set(HANDLER_SUITE) == CHECKLIST
    assert set(ELGOT_AXIOMS) <= set(LAWS)
    # and `laws --suite all` runs every one of them
    report = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["laws", "--suite", "all", "--samples", "1",
                     "--report", str(report)]) == 0
    ran = {law for entry in json.loads(report.read_text()) for law in entry["laws"]}
    assert ran == CHECKLIST


def test_generation_is_deterministic():
    def stream(seed):
        gen = Gen(GenConfig(seed=seed))
        inst = elgot_instance("finset")
        out = []
        for _ in range(10):
            x, y = gen.carrier("x"), gen.carrier("y")
            f = gen.kleisli(inst, x, y)
            out.append(tuple(sorted(f.table.items())))
        return out

    assert stream(42) == stream(42)
    assert stream(42) != stream(43)


def test_generator_carriers_are_built_once():
    assert Gen(GenConfig(seed=1)).carrier("x", 3) is Gen(GenConfig(seed=2)).carrier("x", 3)
    x, y = Gen(GenConfig(seed=1)).carrier("x", 2), Gen(GenConfig(seed=1)).carrier("y", 1)
    assert laws.sum_carrier(x, y) is laws.sum_carrier(x, y) == sum_carrier(x, y)
    assert laws.prod_carrier(x, y) is laws.prod_carrier(x, y)


def test_carrier_memos_hold_the_whole_family():
    for seed in ("1", "2"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["laws", "--suite", "all", "--samples", "5", "--seed", seed]) == 0
    for memo in (laws._atoms, laws.sum_carrier, laws.prod_carrier):
        info = memo.cache_info()
        # every carrier the suites draw fits, so none was evicted and rebuilt
        assert 0 < info.currsize < info.maxsize and info.hits > info.misses


def test_tree_generation_is_deterministic():
    rm = resumption("finset")

    def trunc_stream(seed):
        gen = Gen(GenConfig(seed=seed))
        x = gen.carrier("x", 2)
        return [rm.base.render(rm.truncate(gen.tree(rm, x), 4))
                for _ in range(10)]

    assert trunc_stream(42) == trunc_stream(42)


def test_budget_zero_gives_leaf_only_trees():
    rm = resumption("finset")
    gen = Gen(GenConfig(seed=1, node_budget=0))
    x = gen.carrier("x", 2)
    for _ in range(20):
        t = gen.tree(rm, x)
        assert all(not isinstance(e, Inr)
                   for e in rm.base.elements(rm.out(t)))


def test_generated_sets_respect_branch_bound():
    inst = elgot_instance("finset")
    assert laws.BRANCH == 2
    gen = Gen(GenConfig(seed=2))
    x = gen.carrier("x", 3)
    for _ in range(50):
        v = gen.value(inst, x)
        assert len(v) <= laws.BRANCH


def test_reports_are_machine_readable_and_stable():
    inst = elgot_instance("maybe")
    cfg = GenConfig(samples=10, seed=5)
    first = run_axiom_suite(inst, cfg).to_dict()
    second = run_axiom_suite(inst, cfg).to_dict()
    assert first == second
    json.dumps(first)   # serializable
    assert first["ok"] is True
    assert "elgot.unfolding" in first["laws"]


def test_suite_clean_on_all_base_instances():
    cfg = GenConfig(samples=25, seed=6)
    for kind, kw in [("maybe", {}), ("finset", {}),
                     ("nondetstate", {"state_set": ("s0", "s1")})]:
        rep = run_axiom_suite(elgot_instance(kind, **kw), cfg)
        assert rep.ok, rep.text()


def test_suite_clean_on_resumption_instances():
    cfg = GenConfig(samples=10, seed=8)
    for kind in ("maybe", "finset"):
        rep = run_axiom_suite(resumption(kind), cfg)
        assert rep.ok, rep.text()


def test_tree_characteristic_equations_compare_at_a_cut():
    # at depth 1 the generated trees reach below the cut, so the oracles
    # cut nodes too; deeper, the small trees end above it
    class LateCut(ResumptionMonad):
        def truncate(self, t, depth):
            return super().truncate(t, depth + 1)

    laws = ("resumption.kleisli_eq", "resumption.strength_eq")
    cfg = GenConfig(seed=3, samples=50, depth=1)
    for kind in ("maybe", "finset"):
        rep = run_axiom_suite(resumption(kind, depth=1), cfg, laws=laws)
        assert rep.ok and [r.samples for r in rep.results] == [50, 50], rep.text()
        late = LateCut(elgot_instance(kind), two_op_signature(), depth=1)
        rep = run_axiom_suite(late, cfg, laws=laws)
        assert all(r.failures for r in rep.results), rep.text()


class _Swapped(ResumptionMonad):
    def strength(self, c, t):
        return self.map(t, lambda x: Pair(x, c))


def test_strength_law_catches_a_swapped_pair():
    for kind in ("maybe", "finset"):
        swapped = _Swapped(elgot_instance(kind), two_op_signature())
        rep = run_axiom_suite(swapped, GenConfig(seed=4, samples=30),
                              laws=("resumption.strength_eq",))
        assert rep.results[0].failures, rep.text()


def test_a_check_that_raises_is_a_failure():
    # the swapped pair makes strength.str2 read .fst off a leaf's element
    swapped = _Swapped(elgot_instance("finset"), two_op_signature())
    rep = run_axiom_suite(swapped, GenConfig(seed=4, samples=10))
    by_law = {r.law: r for r in rep.results}
    assert len(rep.results) == 21 and all(r.samples == 10 for r in rep.results)
    assert by_law["resumption.strength_eq"].failures, rep.text()
    raised = [w for r in rep.results for w in r.failures if w.startswith("raised ")]
    assert "raised AttributeError: 'str' object has no attribute 'fst'" in raised


def test_guarded_unfolding_catches_a_bottom_solution_at_depth_zero(monkeypatch):
    def bottom_solution(rm, f):
        return KleisliFn(rm, f.dom, f.cod.parts[0],
                         {x: rm.bottom() for x in f.dom.elements})

    monkeypatch.setattr(laws, "solve_guarded", bottom_solution)
    cfg = GenConfig(seed=4, samples=30, depth=0)
    for kind in ("maybe", "finset"):
        rep = run_axiom_suite(resumption(kind, depth=0), cfg,
                              laws=("resumption.guarded_unfolding",))
        failures = rep.results[0].failures
        assert failures and all(w.endswith("depth 0") for w in failures), rep.text()


def test_constant_bottom_iteration_is_caught():
    class Bottomed(FinSetMonad):
        name = "finset-bottomed"

        def iterate(self, f):
            cod = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None
            return make_kleisli(self, f.dom, cod, lambda _x: self.bottom())

    rep = run_axiom_suite(Bottomed(), GenConfig(samples=20, seed=9))
    failing = {r.law for r in rep.results if not r.ok}
    assert "elgot.unfolding" in failing


class _AboveLeast(FinSetMonad):
    """Adds the first result to every point with an endless path of calls:
    such a point's callers have one too, so this is still a fixpoint."""

    name = "finset-above-least"

    def iterate(self, f):
        least = super().iterate(f)
        endless = set(f.dom.elements)
        while True:
            keep = {x for x in endless
                    if any(isinstance(e, Inr) and e.value in endless for e in f(x))}
            if keep == endless:
                break
            endless = keep
        extra = finset(f.cod.parts[0].elements[:1])
        return KleisliFn(self, f.dom, least.cod,
                         {x: self.join(least(x), extra) if x in endless else least(x)
                          for x in f.dom.elements})


def test_unfolding_law_rejects_a_fixpoint_above_the_least():
    m = _AboveLeast()
    x, y = carrier("x", ("x0",)), carrier("y", ("y0",))
    f = make_kleisli(m, x, sum_carrier(y, x), lambda v: finset([Inr(v)]))
    fd = m.iterate(f)
    assert fd("x0") == finset(["y0"])
    # the unfolding equation alone accepts it, on the self-loop and on samples
    unfolded = compose_kleisli(copair(kleisli_unit(m, y), fd), f)
    assert all(unfolded(v) == fd(v) for v in x.elements)
    gen = Gen(GenConfig(seed=9))
    for _ in range(50):
        xs, ys = gen.carrier("x"), gen.carrier("y")
        g = gen.kleisli(m, xs, sum_carrier(ys, xs))
        gd = m.iterate(g)
        unfolded = compose_kleisli(copair(kleisli_unit(m, ys), gd), g)
        assert all(unfolded(v) == gd(v) for v in xs.elements)
    rep = run_axiom_suite(m, GenConfig(samples=50, seed=9), laws=("elgot.unfolding",))
    assert not rep.ok, rep.text()


def test_counterexamples_render_truncations():
    rm = resumption("finset")

    class Broken(type(rm)):
        def iterate(self, f):
            cod = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None
            return KleisliFn(self, f.dom, cod,
                             {x: self.bottom() for x in f.dom.elements})

    broken = Broken(rm.base, rm.sig, depth=4)
    rep = run_axiom_suite(broken, GenConfig(samples=10, seed=10, depth=4),
                          laws=("elgot.unfolding",))
    assert not rep.ok
    witness = rep.results[0].failures[0]
    assert "{" in witness or "(bot)" in witness or "(leaf" in witness


def test_morphism_suite_catches_non_morphism():
    from elgot.handler import MonadMorphism
    maybe = elgot_instance("maybe")
    fs = elgot_instance("finset")
    from elgot.base_monads import finset
    # discards every result: well typed but breaks the unit law
    bad = MonadMorphism("bad", maybe, fs, lambda v: finset([]))
    rep = run_morphism_suite(bad, GenConfig(samples=20, seed=12))
    failing = {r.law for r in rep.results if not r.ok}
    assert "morphism.unit" in failing


def test_bekic_law_holds_on_maybe_and_finset():
    for kind in ("maybe", "finset"):
        rep = run_axiom_suite(elgot_instance(kind), GenConfig(seed=13, samples=100),
                              laws=("elgot.bekic",))
        assert rep.ok and rep.results[0].samples == 100, rep.text()


def test_bekic_law_catches_broken_iteration():
    # one unfolding followed by divergence is not a valid iteration operator
    class OneStep(FinSetMonad):
        name = "finset-onestep"

        def iterate(self, f):
            cod = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None

            def at(x):
                return self.bind(f(x), lambda e: self.unit(e.value)
                                 if isinstance(e, Inl) else self.bottom())
            return KleisliFn(self, f.dom, cod,
                             {x: at(x) for x in f.dom.elements})

    rep = run_axiom_suite(OneStep(), GenConfig(seed=5, samples=50),
                          laws=("elgot.bekic",))
    assert not rep.ok


def test_a_named_law_that_does_not_apply_is_refused():
    # a suite asked only for laws its subject has no part in must not pass
    # with no results
    inst = resumption("finset")
    with pytest.raises(ValueError, match="law elgot.bekic does not apply to "
                                         + re.escape(inst.name)):
        run_axiom_suite(inst, GenConfig(samples=5),
                        laws=("elgot.bekic", "omega.bind_join"))
