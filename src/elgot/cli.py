"""Command line interface: run while programs, solve process definitions,
run the law suites, and evaluate serialized trees under an interpretation.

Exit codes: 0 success, 1 check failures, 2 usage or parse errors.  Commands
raise on bad input; main is the one place that prints it and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from .core import (CarrierMismatchError, ConfigError, Inl, Inr, carrier,
                   make_kleisli, unit_carrier)
from .base_monads import elgot_instance
from .handler import (EffectInterpretation, InterpretationError, MonadMorphism,
                      handle, finset_to_nondetstate, identity_morphism,
                      maybe_to_finset, maybe_to_nondetstate)
from .bsp import BspLoadError, load_bsp, lts_to_csv, lts_to_dot, lts_to_text, \
    solve_and_unfold
from .laws import Gen, GenConfig, run_axiom_suite, run_handler_suite, run_morphism_suite
from .resumption import OpDecl, OpNode, ResTree, ResumptionMonad, Signature
from .while_lang import SemanticError, WhileSyntaxError, make_env, parse, run


class UsageError(Exception):
    """Bad input that argparse cannot see, such as a missing --state-set."""


def _int_at_least(low):
    """An argparse type: an integer no smaller than low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return value
    return integer


def _read(path: str) -> str:
    """The text of an input file; raises OSError or UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the elgot command line.  It is memoised: built on the
    first call and shared by every later call in the process, which is safe
    because parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(prog="elgot")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="interpret a while program")
    p_run.add_argument("program", help="program file")
    p_run.add_argument("--base", choices=("maybe", "finset", "nondetstate"),
                       default="finset")
    p_run.add_argument("--state-set", default=None,
                       help="comma separated states for nondetstate")
    p_run.add_argument("--alphabet", default=None,
                       help="comma separated channel alphabet (default 0..7)")
    p_run.add_argument("--input", required=True, help="initial channel value")
    p_run.add_argument("--depth", type=_int_at_least(0), default=3)
    p_run.add_argument("--trace", action="store_true",
                       help="echo the parsed program before the result")

    p_bsp = sub.add_parser("bsp", help="solve a process definition")
    p_bsp.add_argument("spec", help="definition file (key/value text or JSON)")
    p_bsp.add_argument("--depth", type=_int_at_least(0), default=1)
    p_bsp.add_argument("--format", choices=("text", "dot", "csv"), default="text")

    p_laws = sub.add_parser("laws", help="run law suites")
    p_laws.add_argument("--suite", choices=("all", *_LAW_SUITES), default="all")
    p_laws.add_argument("--seed", type=int, default=None,
                        help="random seed (default: ELGOT_SEED or 42)")
    p_laws.add_argument("--samples", type=_int_at_least(1), default=50)
    p_laws.add_argument("--depth", type=_int_at_least(0), default=6)
    p_laws.add_argument("--report", default=None,
                        help="also write the structured report to this file")

    p_handle = sub.add_parser("handle", help="evaluate a serialized tree")
    p_handle.add_argument("file", help="JSON description of tree and interpretation")
    p_handle.add_argument("--fuel", type=_int_at_least(0), default=None)

    return ap


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# what an entry may not hold: the rendered output could not be read back
_UNREADABLE = re.compile(r"[\s(){}]")


def _entries(text, flag: str):
    """The comma separated entries of a flag, or None for none; an entry
    that is empty, repeated, or holds whitespace or any of (){} is an error
    naming the flag."""
    if not text:
        return None
    entries, seen = tuple(text.split(",")), set()
    for i, entry in enumerate(entries, 1):
        if not entry:
            raise UsageError("%s %r: entry %d is empty" % (flag, text, i))
        bad = _UNREADABLE.search(entry)
        if bad:
            raise UsageError("%s %r: entry %r contains %r; an entry holds no "
                             "whitespace and none of (){}" % (flag, text, entry,
                                                              bad.group()))
        if entry in seen:
            raise UsageError("%s %r: entry %r is repeated" % (flag, text, entry))
        seen.add(entry)
    return entries


def cmd_run(args) -> int:
    source = _read(args.program)
    alphabet = _entries(args.alphabet, "--alphabet")
    states = _entries(args.state_set, "--state-set")
    if args.base == "nondetstate" and not states:
        raise UsageError("--state-set is required for nondetstate")
    stmt = parse(source)
    env = make_env(args.base, alphabet=alphabet, state_set=states)
    if args.trace:
        print("# %s" % (stmt,))
    print(run(stmt, env, args.input, args.depth))
    return 0


# ---------------------------------------------------------------------------
# bsp
# ---------------------------------------------------------------------------

def cmd_bsp(args) -> int:
    lts = solve_and_unfold(load_bsp(_read(args.spec)), args.depth)
    render = {"text": lts_to_text, "dot": lts_to_dot, "csv": lts_to_csv}[args.format]
    sys.stdout.write(render(lts))
    return 0


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def _standard_resumption(base_kind: str, depth: int) -> ResumptionMonad:
    params = carrier("p", ("p0", "p1"))
    two = carrier("2", ("l", "r"))
    sig = Signature((OpDecl("act", params, unit_carrier()),
                     OpDecl("ask", unit_carrier(), two)))
    return ResumptionMonad(elgot_instance(base_kind), sig, depth=depth)


def cmd_laws(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("ELGOT_SEED")
        try:
            seed = int(env) if env else 42
        except ValueError:
            raise UsageError("ELGOT_SEED must be an integer, not %r" % env) from None
    config = GenConfig(seed=seed, samples=args.samples, depth=args.depth)
    # the report file is opened before any suite runs, so a bad path fails
    # at once and prints nothing
    with open(args.report, "w") if args.report else contextlib.nullcontext() as fh:
        reports = _law_reports(args.suite, config)
        for rep in reports:
            print(rep.text())
        if fh is not None:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
    return 0 if all(r.ok for r in reports) else 1


def _handler_reports(config: GenConfig) -> list:
    rm = _standard_resumption("maybe", config.depth)
    target = elgot_instance("finset")
    upsilon = Gen(config.replace(seed=config.seed + 1)).effect_interpretation(rm.sig,
                                                                             target)
    return [run_handler_suite(rm, maybe_to_finset(rm.base, target), upsilon, config)]


# suite name -> the reports it builds from a config; "all" runs every entry
# in order
_LAW_SUITES = {
    "base": lambda config: [
        run_axiom_suite(elgot_instance(kind, state_set=("s0", "s1")), config)
        for kind in ("maybe", "finset", "nondetstate")],
    "resumption": lambda config: [
        run_axiom_suite(_standard_resumption(kind, config.depth), config)
        for kind in ("maybe", "finset")],
    "morphism": lambda config: [
        run_morphism_suite(MonadMorphism("ext", rm.base, rm, rm.ext), config)
        for rm in (_standard_resumption(kind, config.depth)
                   for kind in ("maybe", "finset"))],
    "handler": _handler_reports,
}


def _law_reports(suite: str, config: GenConfig) -> list:
    builds = _LAW_SUITES.values() if suite == "all" else [_LAW_SUITES[suite]]
    return [report for build in builds for report in build(config)]


# ---------------------------------------------------------------------------
# handle
# ---------------------------------------------------------------------------

def _parse_tree(rm, data):
    """The tree a handle file describes, parsed with an explicit stack: each
    child tree takes its layer, parsed later in the loop, from a one-slot cell."""
    todo = []

    def parse_payload(p):
        leaf = p.get("leaf") if isinstance(p, dict) else None
        if isinstance(leaf, (str, int)) and not isinstance(leaf, bool):
            return Inl(leaf)
        if isinstance(p, dict) and "op" in p:
            try:
                decl = rm.sig.op(p["op"])
            except KeyError:
                raise InterpretationError("unknown operation %r" % (p["op"],)) from None
            if p["param"] not in decl.param:
                raise InterpretationError("operation %s has no parameter %r"
                                          % (decl.name, p["param"]))
            kids = []
            for a in decl.arity.elements:
                cell = []
                todo.append((cell, p["children"][a]))
                kids.append((a, ResTree(fn=cell.pop)))
            return Inr(OpNode(p["op"], p["param"], kids))
        raise InterpretationError("malformed tree payload: %r" % (p,))

    root = rm.out_inv(rm.base.decode(data, parse_payload))
    while todo:
        cell, value = todo.pop()
        cell.append(rm.base.decode(value, parse_payload))
    return root


# name -> (source kind, target kind, constructor); identity is added per file
_SIGMAS = {"maybe-to-finset": ("maybe", "finset", maybe_to_finset),
           "maybe-to-nondetstate": ("maybe", "nondetstate", maybe_to_nondetstate),
           "finset-to-nondetstate": ("finset", "nondetstate", finset_to_nondetstate)}


def _atoms(value, field):
    """The atoms a handle file lists in field; a string is no list of atoms."""
    if not isinstance(value, list):
        raise TypeError("%s must be a list, not %r" % (field, value))
    return tuple(value)


def _decode_handle(data, fuel):
    """The target monad and the arguments of handle() described by a
    decoded handle file; fuel overrides the file's "fuel" when not None."""
    ops = []
    for entry in data["signature"]:
        name = entry["name"]
        ops.append(OpDecl(name,
                          carrier(name + ".param", _atoms(entry["param"], name + ".param")),
                          carrier(name + ".arity", _atoms(entry["arity"], name + ".arity"))))
    sig = Signature(tuple(ops))
    states = _atoms(data.get("state_set", []), "state_set") or None
    base = elgot_instance(data["base"], state_set=states)
    target = elgot_instance(data["target"], state_set=states)
    rm = ResumptionMonad(base, sig)
    sigma_name = data.get("sigma", "identity")
    sigmas = dict(_SIGMAS, identity=(data["target"], data["target"],
                                     lambda _base, target: identity_morphism(target)))
    if sigma_name not in sigmas:
        raise InterpretationError("unknown morphism %r" % sigma_name)
    source_kind, target_kind, make_sigma = sigmas[sigma_name]
    if (source_kind, target_kind) != (data["base"], data["target"]):
        raise InterpretationError(
            "morphism %s maps %s to %s, but the file has base %s and target %s"
            % (sigma_name, source_kind, target_kind, data["base"], data["target"]))
    sigma = make_sigma(base, target)
    effects = {}
    for op in sig.ops:
        table = data["effects"][op.name]
        effects[op.name] = make_kleisli(
            target, op.param, op.arity,
            lambda p, _t=table: target.decode(_t[p], lambda a: a))
    upsilon = EffectInterpretation(sig, target, effects)
    tree = _parse_tree(rm, data["tree"])
    if fuel is None:
        fuel = data.get("fuel", 10)
    if not isinstance(fuel, int) or isinstance(fuel, bool) or fuel < 0:
        raise InterpretationError("fuel must be a nonnegative integer, not %r"
                                  % (fuel,))
    return target, (rm, tree, sigma, upsilon, fuel)


def cmd_handle(args) -> int:
    try:
        data = json.loads(_read(args.file))
    except RecursionError:
        raise UsageError("%s is nested too deeply to read" % args.file) from None
    try:
        target, job = _decode_handle(data, args.fuel)
    except KeyError as exc:
        raise UsageError("malformed handle file: missing field %s" % exc) from None
    except (TypeError, AttributeError, ValueError) as exc:
        # the JSON parsed, but its shape or values do not describe a job
        raise UsageError("malformed handle file: %s" % exc) from None
    try:
        result = handle(*job)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    print(target.render(result.value))
    print("converged" if result.converged else "approximate")
    return 0


# the errors bad input raises; main reports each as "error: <message>", exit 2
INPUT_ERRORS = (UsageError, OSError, UnicodeDecodeError, json.JSONDecodeError,
                WhileSyntaxError, SemanticError, ConfigError, BspLoadError,
                InterpretationError, CarrierMismatchError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "bsp": cmd_bsp, "laws": cmd_laws,
                "handle": cmd_handle}
    try:
        return commands[args.command](args)
    except INPUT_ERRORS as exc:
        message = exc
    except RecursionError:
        # until forcing is stackless, Python's recursion limit bounds nesting
        message = "the input nests too deeply"
    print("error: %s" % message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
