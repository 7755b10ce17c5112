"""Seeded item generators for the four workloads.

Every item is plain data: the argv of an in-process `elgot` call (or the
arguments of a library call), the input files it reads, and what the checker
compares its output against.  Expected outputs come from `reference`, never
from the package under test, which this module does not import.

Items are drawn from a fixed stratified design: each workload cycles through
the same cells (base monad, loop nesting, fan-out, spec size, ...) for every
seed and randomizes only inside a cell, so the cost mix of a pass hardly
changes from one seed to the next.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference as ref

# While programs stay far below the ~400-statement recursion ceiling of the
# parser and interpreter, and JSON trees (at most 24 operation layers) far
# below the ~200-level ceiling of the handle file parser: inputs that fail
# fast would read as low latency.
MAX_STATEMENTS = 60
# Output of one `elgot run` item, in characters, and the deepest truncation
# used to reach it.  Nested loops re-derive their layers, so the cost of an
# item grows faster than its output; a narrow output band keeps the cost of
# items in one cell alike.
RUN_OUTPUT = (1000, 4000)
MAX_RUN_DEPTH = 24

STATES = ("s0", "s1")


def _seq(*stmts):
    stmts = [s for s in stmts if s is not None]
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = ("seq", s, out)
    return out


def _simple(rng, coin: bool, size: int):
    """A loop-free statement of `size` basic actions."""
    parts = []
    for _ in range(size):
        r = rng.random()
        if r < 0.35:
            parts.append(("act", "read"))
        elif r < 0.7:
            parts.append(("act", "write"))
        elif r < 0.8:
            parts.append(("skip",))
        else:
            pred = rng.choice(("coin", "true", "false") if coin else ("true", "false"))
            parts.append(("if", pred, _simple(rng, coin, 1), _simple(rng, coin, 1)))
    return _seq(*parts)


def while_program(rng, nesting: int, lifted: bool, coin: bool):
    """A program with exactly `nesting` nested loops; with `lifted`, the
    outermost loop is followed by more statements through `;`."""
    body = _simple(rng, coin, rng.randint(1, 2))
    preds = ("coin", "coin", "true") if coin else ("true", "true", "false")
    for level in range(nesting):
        loop = ("while", rng.choice(preds), body)
        pre = _simple(rng, coin, 1) if rng.random() < 0.4 else None
        post = _simple(rng, coin, 1) if level < nesting - 1 and rng.random() < 0.4 else None
        body = _seq(pre, loop, post)
    if lifted:
        body = _seq(body, _simple(rng, coin, rng.randint(1, 2)))
    return body


# ---------------------------------------------------------------------------
# interp: `elgot run`
# ---------------------------------------------------------------------------

def _fit_depth(stmt, base, alphabet, value):
    """The deepest truncation, with its output, whose output fits under
    RUN_OUTPUT's upper end."""
    best = (1, ref.render(stmt, base, alphabet, STATES, value, 1))
    for depth in range(2, MAX_RUN_DEPTH + 1):
        out = ref.render(stmt, base, alphabet, STATES, value, depth)
        if len(out) > RUN_OUTPUT[1]:
            break
        best = (depth, out)
    return best


def gen_interp(rng, count: int = 600):
    items = []
    bases = ("maybe", "finset", "nondetstate")
    for n in range(count):
        base = bases[n % 3]
        nesting = (n // 3) % 4
        lifted = (n // 12) % 2 == 1
        # loop-free programs cannot reach the band; a looping one gets a
        # few tries to, and keeps the largest output otherwise
        fit, attempts = None, 0
        while fit is None or (nesting and attempts < 8
                              and len(fit[0][1]) < RUN_OUTPUT[0]):
            alphabet = tuple(str(i) for i in range(rng.randint(1, 4)))
            value = rng.choice(alphabet)
            stmt = while_program(rng, nesting, lifted and nesting > 0, base != "maybe")
            if ref.statement_count(stmt) > MAX_STATEMENTS:
                continue
            attempts += 1
            cand = (_fit_depth(stmt, base, alphabet, value), stmt, alphabet, value)
            if fit is None or len(cand[0][1]) > len(fit[0][1]):
                fit = cand
        (depth, expect), stmt, alphabet, value = fit
        argv = ["run", "prog%d.whl" % n, "--base", base, "--input", value,
                "--depth", str(depth), "--alphabet", ",".join(alphabet)]
        if base == "nondetstate":
            argv += ["--state-set", ",".join(STATES)]
        items.append({"id": "interp-%d" % n, "kind": "cli", "argv": argv,
                      "files": {"prog%d.whl" % n: ref.source(stmt) + "\n"},
                      "check": {"type": "exact", "stdout": expect + "\n"}})
    return items


# ---------------------------------------------------------------------------
# bsp: `elgot bsp`
# ---------------------------------------------------------------------------

ACTIONS = ("a", "b", "c", "d", "e")


def bsp_spec(rng, states: int, max_width: int):
    """Random rows; about one state in eight has none (deadlock)."""
    widths = [0 if rng.random() < 0.125 else rng.randint(1, max_width)
              for _ in range(states)]
    b = [[rng.choice(ACTIONS) for _ in range(w)] for w in widths]
    j = [[rng.randrange(states) for _ in range(w)] for w in widths]
    return {"actions": list(ACTIONS), "states": states, "b": b, "j": j}


def bsp_text(spec) -> str:
    lines = ["actions %s" % " ".join(spec["actions"]),
             "states %d" % spec["states"]]
    for i, (b, j) in enumerate(zip(spec["b"], spec["j"])):
        lines.append("width %d %d" % (i, len(b)))
        if b:
            lines.append("b %d %s" % (i, " ".join(b)))
            lines.append("j %d %s" % (i, " ".join(str(t) for t in j)))
    return "\n".join(lines) + "\n"


def gen_bsp(rng, count: int = 240):
    items = []
    formats = ("text", "dot", "csv")
    for n in range(count):
        depth = 1 + n % 2
        fmt = formats[(n // 2) % 3]
        use_json = (n // 6) % 2 == 1
        max_width = (2, 4, 6, 8, 10)[(n // 12) % 5]
        states = (6, 12)[(n // 60) % 2] * (1 if depth == 2 else 2)
        spec = bsp_spec(rng, states, max_width)
        name = "spec%d.%s" % (n, "json" if use_json else "bsp")
        body = json.dumps(spec) if use_json else bsp_text(spec)
        items.append({"id": "bsp-%d" % n, "kind": "cli",
                      "argv": ["bsp", name, "--depth", str(depth), "--format", fmt],
                      "files": {name: body},
                      "check": {"type": "bsp", "spec": spec, "depth": depth,
                                "format": fmt}})
    return items


# ---------------------------------------------------------------------------
# handle: `elgot handle FILE` and direct handler calls
# ---------------------------------------------------------------------------

# the three non-identity morphisms; "identity" is left out because
# `elgot handle` rejects it whatever the file says
MORPHISMS = (("maybe", "finset", "maybe-to-finset"),
             ("maybe", "nondetstate", "maybe-to-nondetstate"),
             ("finset", "nondetstate", "finset-to-nondetstate"))
SIGNATURE = [{"name": "toss", "param": ["*"], "arity": ["h", "t"]},
             {"name": "emit", "param": ["p0", "p1"], "arity": ["*"]}]
LEAVES = ("l0", "l1", "l2", "l3")


def _set_effect(rng, arity, states):
    """A random generic-effect value over `arity`, never empty."""
    if states is None:
        return {"set": sorted(rng.sample(arity, rng.randint(1, len(arity))))}
    return {"states": {s: [[a, rng.choice(states)]
                           for a in rng.sample(arity, rng.randint(1, len(arity)))]
                       for s in states}}


def _tree_value(base, payloads):
    if base == "maybe":
        return {"just": payloads[0]} if payloads else "nothing"
    return {"set": payloads}


def chain_tree(rng, base, depth):
    """A spine of `depth` operations; every off-spine child is a leaf layer."""
    def leafy():
        if base == "maybe" and rng.random() < 0.2:
            return "nothing"
        return _tree_value(base, [{"leaf": rng.choice(LEAVES)}])

    value = leafy()
    for _ in range(depth):
        op = rng.choice(SIGNATURE)
        arity = op["arity"]
        spine = rng.choice(arity)
        node = {"op": op["name"], "param": rng.choice(op["param"]),
                "children": {a: value if a == spine else leafy() for a in arity}}
        payloads = [node]
        if base == "finset" and rng.random() < 0.3:
            payloads.append({"leaf": rng.choice(LEAVES)})
        value = _tree_value(base, payloads)
    return value


def fan_tree(rng, base, depth):
    """Every operation child is a full subtree, down to `depth` layers."""
    if depth == 0:
        return _tree_value(base, [{"leaf": rng.choice(LEAVES)}])
    op = SIGNATURE[0] if rng.random() < 0.7 else SIGNATURE[1]
    node = {"op": op["name"], "param": rng.choice(op["param"]),
            "children": {a: fan_tree(rng, base, depth - 1) for a in op["arity"]}}
    payloads = [node]
    if base == "finset" and rng.random() < 0.3:
        payloads.append({"leaf": rng.choice(LEAVES)})
    return _tree_value(base, payloads)


def handle_doc(rng, base, target, sigma, tree, short_fuel: bool):
    states = list(STATES) if target == "nondetstate" else None
    effects = {op["name"]: {p: _set_effect(rng, op["arity"], states)
                            for p in op["param"]}
               for op in SIGNATURE}
    depth = ref.tree_depth(tree)
    fuel = rng.randint(0, depth) if short_fuel else 2 * depth + 1 + rng.randint(0, 2)
    doc = {"signature": SIGNATURE, "base": base, "target": target,
           "sigma": sigma, "effects": effects, "tree": tree, "fuel": fuel}
    if states:
        doc["state_set"] = states
    return doc


def _write_effects(rng, alphabet, states):
    """Generic effects of read, write and coin for a direct handle call."""
    def outcomes(arity):
        picked = rng.sample(arity, rng.randint(1, min(2, len(arity))))
        if states is None:
            return picked
        return {s: [(a, rng.choice(states)) for a in picked] for s in states}
    return {"read": outcomes(list(alphabet)),
            "write": {v: outcomes(["*"]) for v in alphabet},
            "coin": outcomes(["ff", "tt"])}


DIRECT_FUEL = 6
# nodes the handler unfolds within DIRECT_FUEL operations: lifted loops make
# every one of them fresh, and each round re-evaluates all reached nodes
DIRECT_UNFOLDED = (8, 160)
# The cost of a direct call grows faster than its unfolded nodes, and the
# items above 80 nodes take half the time of all direct calls.  Each item is
# drawn within a fixed band of this cycle (shares as random draws over the
# whole range would give), so every seed has as many items of each size.
DIRECT_BANDS = ((8, 19), (8, 19), (8, 19), (8, 19), (8, 19), (20, 39), (20, 39),
                (40, 79), (80, 160), (80, 160))


def unfolded(stmt, alphabet, value, effects, states):
    """Paths of at most DIRECT_FUEL operations through the handled program,
    counted without sharing; stops counting past DIRECT_UNFOLDED's top."""
    frontier = [(ref.start(stmt, value), s) for s in (states or [None])]
    total = len(frontier)
    for _ in range(DIRECT_FUEL):
        nxt = []
        for config, s in frontier:
            lay = ref.layer(config, alphabet)
            if lay[0] == "op":
                nxt.extend(ref.successors(lay, s, alphabet, effects, states))
        total += len(nxt)
        if total > DIRECT_UNFOLDED[1]:
            break
        frontier = nxt
    return total


def gen_handle(rng, count: int = 600):
    items = []
    for n in range(count):
        if n % 2 == 0:
            base, target, sigma = MORPHISMS[(n // 2) % 3]
            size = (n // 6) % 3
            if (n // 18) % 2:
                tree = chain_tree(rng, base, (8, 16, 24)[size])
            else:
                tree = fan_tree(rng, base, (3, 4, 5)[size])
            # a quarter of the files carry too little fuel to converge
            doc = handle_doc(rng, base, target, sigma, tree, n % 8 == 0)
            name = "tree%d.json" % n
            depth = ref.tree_depth(doc["tree"])
            exact = ref.fold_tree(doc)
            # after n >= 1 rounds every leaf under at most n // 2 operations
            # has reached the root; zero rounds leave bottom
            lower = ref.fold_tree(doc, doc["fuel"] // 2 if doc["fuel"] else -1)
            items.append({"id": "handle-file-%d" % n, "kind": "cli",
                          "argv": ["handle", name],
                          "files": {name: json.dumps(doc)},
                          "check": {"type": "handled",
                                    "exact": ref.render_value(exact),
                                    "lower": ref.render_value(lower),
                                    "must_converge": doc["fuel"] >= 2 * depth + 1,
                                    "states": doc.get("state_set")}})
            continue
        base = ("maybe", "finset")[(n // 2) % 2]
        target = ("finset", "nondetstate")[(n // 4) % 2]
        states = list(STATES) if target == "nondetstate" else None
        low, high = DIRECT_BANDS[(n // 2) % len(DIRECT_BANDS)]
        while True:
            alphabet = tuple(str(i) for i in range(rng.randint(1, 3)))
            value = rng.choice(alphabet)
            stmt = while_program(rng, 1 + (n // 8) % 2, True, base != "maybe")
            effects = _write_effects(rng, alphabet, states)
            if (ref.statement_count(stmt) <= MAX_STATEMENTS
                    and low <= unfolded(stmt, alphabet, value, effects, states) <= high):
                break
        exact = ref.handled(stmt, alphabet, value, effects, states)
        lower = ref.handled(stmt, alphabet, value, effects, states, DIRECT_FUEL // 2)
        items.append({"id": "handle-direct-%d" % n, "kind": "handle",
                      "program": ref.source(stmt), "base": base, "target": target,
                      "alphabet": list(alphabet), "input": value,
                      "effects": effects, "fuel": DIRECT_FUEL,
                      "check": {"type": "handled",
                                "exact": ref.render_value(exact),
                                "lower": ref.render_value(lower),
                                "must_converge": False, "states": states}})
    return items


# ---------------------------------------------------------------------------
# laws: single-law suite runs
# ---------------------------------------------------------------------------

ELGOT_AXIOMS = ("elgot.unfolding", "elgot.naturality", "elgot.dinaturality",
                "elgot.codiagonal", "elgot.uniformity", "elgot.strength")
MORPHISM_LAWS = ("morphism.unit", "morphism.kleisli", "morphism.strength",
                 "morphism.iteration")
HANDLER_LAWS = ("handle.ext", "handle.iota", "handle.kleisli",
                "handle.iteration", "handle.fuel_monotone")

# (suite, instance, laws of one item, samples per item): the instances and
# laws of acceptance criteria 1 (base monads, plus Bekic) and 2 (trees, here
# compared at depth 4), then the ext morphism and the handler triangles.
# Samples keep the criteria's 2:1 ratio between base and tree suites.
LAW_PLAN = (
    [("axiom", inst, (law,), 20)
     for inst in ("maybe", "finset", "nondetstate")
     for law in ELGOT_AXIOMS + ("elgot.bekic",)]
    + [("axiom", inst, (law,), 10)
       for inst in ("res-maybe", "res-finset") for law in ELGOT_AXIOMS]
    + [("morphism", inst, MORPHISM_LAWS, 10) for inst in ("ext-maybe", "ext-finset")]
    + [("handler", "handler-maybe-finset", HANDLER_LAWS, 10)]
)


def gen_laws(rng, rounds: int = 12):
    items = []
    for r in range(rounds):
        for suite, inst, laws, samples in LAW_PLAN:
            items.append({"id": "laws-%d-%s-%s" % (r, inst, laws[0] if len(laws) == 1 else suite),
                          "kind": "laws", "suite": suite, "instance": inst,
                          "laws": list(laws), "samples": samples,
                          "seed": rng.randrange(2 ** 31),
                          "check": {"type": "exact", "stdout": "".join(
                              "%s %d 0\n" % (law, samples) for law in laws)}})
    return items


# ---------------------------------------------------------------------------
# Golden canaries, run in every workload
# ---------------------------------------------------------------------------

def canaries(root: Path):
    """The repository's golden CLI outputs, byte for byte, plus one small
    law run: every layer is entered at least once per pass."""
    golden = root / "tests" / "golden"
    laws = ("monad.left_unit", "monad.right_unit", "monad.assoc",
            "strength.str1", "strength.str2", "strength.str3", "strength.str4",
            "elgot.unfolding", "elgot.naturality", "elgot.dinaturality",
            "elgot.codiagonal", "elgot.uniformity", "elgot.strength",
            "elgot.bekic", "elgot.divergence", "omega.bottom_postcomp",
            "omega.bottom_strength", "omega.bind_monotone", "omega.bind_join")
    return [
        {"id": "golden-run", "kind": "cli",
         "argv": ["run", str(golden / "sect7_prog.whl"), "--base", "finset",
                  "--input", "0", "--depth", "3"],
         "files": {}, "check": {"type": "exact",
                                "stdout": (golden / "sect7_depth3.txt").read_text()}},
        {"id": "golden-bsp", "kind": "cli",
         "argv": ["bsp", str(golden / "two_state.bsp"), "--depth", "1",
                  "--format", "dot"],
         "files": {}, "check": {"type": "exact",
                                "stdout": (golden / "two_state_depth1.dot").read_text()}},
        {"id": "golden-handle", "kind": "cli",
         "argv": ["handle", str(golden / "handle_toss.json")],
         "files": {}, "check": {"type": "exact", "stdout": "{heads}\nconverged\n"}},
        {"id": "canary-laws", "kind": "cli",
         "argv": ["laws", "--suite", "base", "--samples", "2", "--seed", "42"],
         "files": {}, "check": {"type": "exact", "stdout": "".join(
             "suite for %s (seed 42)\n" % inst
             + "".join("  %-32s %-8s samples=2\n" % (law, "ok") for law in laws)
             for inst in ("maybe", "finset", "nondetstate[s0,s1]"))}},
    ]


GENERATORS = {"laws": gen_laws, "interp": gen_interp, "bsp": gen_bsp,
              "handle": gen_handle}


def generate(workload: str, seed: int, root: Path):
    """The workload's items for this seed, canaries last."""
    rng = random.Random("%s:%d" % (workload, seed))
    return GENERATORS[workload](rng) + canaries(root)
