"""One benchmark process: set up the package, run items, check outputs.

Usage: python3 worker.py MODE WORKLOAD ITEMS_JSON SECONDS

MODE is one of
  setup  time the set-up only, then time the fixed calibration task;
  run    one check pass, then timed passes until SECONDS are over, with
         the fixed calibration task timed between items;
  trace  one check pass, one plain timed pass, then one traced pass.
The process runs in the directory that holds ITEMS_JSON and the item input
files, imports the package from its PYTHONPATH, and prints one JSON object
as its last line of output.
"""

import contextlib
import gc
import io
import json
import sys
import time
import traceback

import reference

SETUP_START = time.perf_counter()

# layer entry points are called through their modules, so that the traced
# run's wrappers, installed on those modules, see every call
import elgot.cli                                      # noqa: E402
from elgot import (EffectInterpretation, NdState, Pair, carrier,  # noqa: E402
                   elgot_instance, finset, handler, identity_morphism, laws,
                   make_kleisli, while_lang)
from elgot.core import unit_carrier                   # noqa: E402
from elgot.handler import (MonadMorphism, finset_to_nondetstate,  # noqa: E402
                           maybe_to_finset, maybe_to_nondetstate)
from elgot.laws import Gen, GenConfig                 # noqa: E402
from elgot.resumption import OpDecl, ResumptionMonad, Signature   # noqa: E402

# Acceptance criterion 2 compares trees at depth 6.  There the cost of a
# finset-tree sample has a heavy tail (the slowest 1% of samples take a
# quarter to a half of the time, single samples several seconds), so a pass's
# time would hinge on which seed drew them; at depth 4 the slowest 1% take
# about a tenth.
LAW_DEPTH = 4
STATES = ("s0", "s1")


def _resumption(kind: str) -> ResumptionMonad:
    """Trees over `kind` with the two-operation signature `elgot laws` uses."""
    sig = Signature((OpDecl("act", carrier("p", ("p0", "p1")), unit_carrier()),
                     OpDecl("ask", unit_carrier(), carrier("2", ("l", "r")))))
    return ResumptionMonad(elgot_instance(kind), sig, depth=LAW_DEPTH)


def law_instances() -> dict:
    insts = {"maybe": elgot_instance("maybe"), "finset": elgot_instance("finset"),
             "nondetstate": elgot_instance("nondetstate", state_set=STATES)}
    for kind in ("maybe", "finset"):
        rm = _resumption(kind)
        insts["res-" + kind] = rm
        insts["ext-" + kind] = MonadMorphism("ext", rm.base, rm, rm.ext)
    rm = _resumption("maybe")
    target = elgot_instance("finset")
    upsilon = Gen(GenConfig(seed=43)).effect_interpretation(rm.sig, target)
    insts["handler-maybe-finset"] = (rm, maybe_to_finset(rm.base, target), upsilon)
    return insts


def setup(workload: str) -> dict:
    """Objects reused across items; their cost is part of setup_s.

    `elgot.cli.main` builds its own parser on every call; building one here
    puts that one-time cost of a CLI process into setup_s as well.
    """
    ctx = {"parser": elgot.cli.build_parser()}
    if workload == "laws":
        ctx["laws"] = law_instances()
    return ctx


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

class ItemFailed(Exception):
    pass


def run_cli(ctx, item) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = elgot.cli.main(item["argv"])
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise ItemFailed("exit code %s: %s" % (code, err.getvalue()[-500:]))
    return out.getvalue()


def run_laws(ctx, item) -> str:
    config = GenConfig(seed=item["seed"], samples=item["samples"], depth=LAW_DEPTH)
    inst = ctx["laws"][item["instance"]]
    if item["suite"] == "axiom":
        report = laws.run_axiom_suite(inst, config, laws=item["laws"])
    elif item["suite"] == "morphism":
        report = laws.run_morphism_suite(inst, config)
    else:
        report = laws.run_handler_suite(*inst, config)
    return "".join("%s %d %d\n" % (r.law, r.samples, len(r.failures))
                   for r in report.results)


def _effect_value(target, outcomes):
    if isinstance(outcomes, list):
        return finset(outcomes)
    return NdState(tuple((s, finset(Pair(a, s2) for a, s2 in outcomes[s]))
                         for s in target.states))


def run_handle(ctx, item) -> str:
    env = while_lang.make_env(item["base"], alphabet=tuple(item["alphabet"]))
    rm = env.rm
    tree = while_lang.interpret(while_lang.parse(item["program"]), env)(item["input"])
    if item["target"] == "finset":
        target = rm.base if item["base"] == "finset" else elgot_instance("finset")
        sigma = (identity_morphism(target) if item["base"] == "finset"
                 else maybe_to_finset(rm.base, target))
    else:
        target = elgot_instance("nondetstate", state_set=STATES)
        sigma = (finset_to_nondetstate if item["base"] == "finset"
                 else maybe_to_nondetstate)(rm.base, target)
    eff = item["effects"]
    tables = {"read": lambda _p: eff["read"], "coin": lambda _p: eff["coin"],
              "write": lambda p: eff["write"][p]}
    effects = {op.name: make_kleisli(target, op.param, op.arity,
                                     lambda p, _t=tables[op.name]: _effect_value(target, _t(p)))
               for op in rm.sig.ops}
    upsilon = EffectInterpretation(rm.sig, target, effects)
    result = handler.handle(rm, tree, sigma, upsilon, item["fuel"])
    return "%s\n%s\n" % (target.render(result.value),
                         "converged" if result.converged else "approximate")


RUNNERS = {"cli": run_cli, "laws": run_laws, "handle": run_handle}


def check(item, out: str):
    """None when the output agrees with the item's reference, else why not."""
    c = item["check"]
    if c["type"] == "exact":
        if out == c["stdout"]:
            return None
        return "output differs from the reference: %r" % out[:200]
    if c["type"] == "bsp":
        return reference.bsp_check(c["spec"], c["depth"], c["format"], out)
    # handled value: exact when converged, between the reference's lower
    # bound and the exact value otherwise
    lines = out.split("\n")
    if len(lines) != 3 or lines[2] != "":
        return "expected a value and a status line: %r" % out[:200]
    states = c["states"]
    value = reference.parse_value(lines[0], states)
    exact = reference.parse_value(c["exact"], states)
    if lines[1] == "converged":
        return None if value == exact else "converged to %s, exact value %s" % (
            lines[0], c["exact"])
    if lines[1] != "approximate":
        return "unknown status %r" % lines[1]
    if c["must_converge"]:
        return "approximate with fuel past the tree's depth"
    lower = reference.parse_value(c["lower"], states)
    if not (reference.below(lower, value) and reference.below(value, exact)):
        return "approximant %s not between %s and %s" % (lines[0], c["lower"], c["exact"])
    return None


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# The host's speed drifts by a quarter over minutes (other tenants share its
# cores and caches), far more than the bounds allow.  A timed run therefore
# also times this fixed task every CALIBRATE_EVERY_S, and the timings are
# reported relative to it.
CALIBRATE_EVERY_S = 0.1
KERNEL_REPEATS = 3
# the fixed task's runs right after set-up, which scale that set-up's time
SETUP_CALIBRATIONS = 15


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _kernel() -> int:
    """Tuples, dicts, sorting, sets and calls, the operations the package
    spends its time on, without any package code."""
    acc = {}
    for i in range(1500):
        key = (i % 61, (i * 7) % 13)
        acc[key] = acc.get(key, 0) + 1
    keys = sorted(acc, key=lambda k: (k[1], k[0]))
    return len(frozenset(keys[::3])) + _fib(12)


def calibrate() -> tuple:
    """(when, seconds) of one run of the fixed task, collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(KERNEL_REPEATS):
            _kernel()
        return t0, time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(ctx, items, seen_out: dict, failures: list, samples=None,
             calibration=None, deadline=None, on_item=None) -> float:
    """Run every item once, or those that start before `deadline`; returns
    the pass's wall time.

    With `samples`, appends (start, seconds) of each item to its list, and
    with `calibration`, times the fixed task between items every
    CALIBRATE_EVERY_S.  An output equal to the one already checked for that
    item is accepted as is; any other output is checked against the
    reference.
    """
    started = time.perf_counter()
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if on_item is not None:
            on_item(item["id"])
        if calibration is not None and (
                time.perf_counter() - calibration[-1][0] >= CALIBRATE_EVERY_S):
            calibration.append(calibrate())
        t0 = time.perf_counter()
        try:
            out = RUNNERS[item["kind"]](ctx, item)
            err = None
        except Exception:                  # one failed item must not end the run
            out, err = None, traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t0
        if samples is not None:
            samples[item["id"]].append((t0, dt))
        if err is None and out != seen_out.get(item["id"]):
            err = check(item, out)
            if err is None:
                seen_out[item["id"]] = out
        if err is not None:
            failures.append("%s: %s" % (item["id"], err))
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ru_maxrss would do, but Linux carries it over from the parent across
    fork and exec, so it would report the generator's memory instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    mode, workload, items_path, seconds = argv[0], argv[1], argv[2], float(argv[3])
    ctx = setup(workload)
    result = {"setup_s": time.perf_counter() - SETUP_START, "package": elgot.__file__}
    if mode == "setup":
        result["calibration"] = [calibrate()[1] for _ in range(SETUP_CALIBRATIONS)]
        print(json.dumps(result))
        return 0

    with open(items_path) as fh:
        items = json.load(fh)
    seen_out, failures = {}, []
    run_pass(ctx, items, seen_out, failures)
    checked = len(items)
    if mode == "run":
        # the first timed pass is whole, so every item has a sample; the
        # timed phase ends inside a later pass
        samples = {item["id"]: [] for item in items}
        calibration = [calibrate()]
        passes = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            run_pass(ctx, items, seen_out, failures, samples, calibration,
                     deadline if passes else None)
            passes += 1
        calibration.append(calibrate())
        result.update(passes=passes, samples=samples, calibration=calibration)
        attempted = checked + sum(len(runs) for runs in samples.values())
    else:
        import tracing
        plain = run_pass(ctx, items, seen_out, failures)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_pass(ctx, items, seen_out, failures, on_item=tracer.set_item)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced / plain
        metrics = {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER}
        result.update(metrics=metrics, plain_wall=plain, traced_wall=traced,
                      shares=tracer.shares(traced))
        attempted = checked + 2 * len(items)
    result.update(attempted=attempted, failed=len(failures), failures=failures[:5],
                  peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
