"""Reference semantics the benchmark checks outputs against.

Nothing here imports the package under test.  The while-language reference
is an operational, configuration-graph interpreter: a configuration is a
continuation stack of statements plus the channel value, silent steps run
until a visible operation (read, write, coin) or the end of the program, and
a configuration met twice between two visible operations is silent
divergence.  The handle reference folds finite JSON trees directly, and the
BSP reference counts paths straight from the spec tables.

Statements are tuples: ("skip",), ("act", "read" | "write"),
("seq", first, second), ("if", pred, then, orelse), ("while", pred, body),
with pred one of "true", "false", "coin".
"""

from __future__ import annotations

import re

BOT = ("bot",)


# ---------------------------------------------------------------------------
# While programs
# ---------------------------------------------------------------------------

def source(stmt) -> str:
    """Concrete syntax that the package's parser reads back as `stmt`."""
    tag = stmt[0]
    if tag == "skip":
        return "skip"
    if tag == "act":
        return stmt[1]
    if tag == "seq":
        return "%s; %s" % (_atom(stmt[1]), source(stmt[2]))
    if tag == "if":
        return "if %s then %s else %s" % (stmt[1], _atom(stmt[2]), _atom(stmt[3]))
    if tag == "while":
        return "while %s do %s" % (stmt[1], _atom(stmt[2]))
    raise ValueError("unknown statement %r" % (stmt,))


def _atom(stmt) -> str:
    return "{%s}" % source(stmt) if stmt[0] == "seq" else source(stmt)


def statement_count(stmt) -> int:
    return 1 + sum(statement_count(s) for s in stmt[1:] if isinstance(s, tuple))


def loop_nesting(stmt) -> int:
    inner = max((loop_nesting(s) for s in stmt[1:] if isinstance(s, tuple)),
                default=0)
    return inner + (stmt[0] == "while")


def start(stmt, value):
    """The initial configuration: one statement on the stack."""
    return ((stmt, None), value)


def layer(config, alphabet):
    """Run silent steps from a configuration to its first visible layer.

    Returns ("leaf", v), BOT for silent divergence, or
    ("op", name, param, child configurations in arity order).
    """
    stack, v = config
    seen = set()
    while True:
        if stack is None:
            return ("leaf", v)
        if (stack, v) in seen:
            return BOT
        seen.add((stack, v))
        stmt, rest = stack
        tag = stmt[0]
        if tag == "skip":
            stack = rest
        elif tag == "seq":
            stack = (stmt[1], (stmt[2], rest))
        elif tag == "act":
            if stmt[1] == "read":
                return ("op", "read", "*", tuple((rest, a) for a in alphabet))
            return ("op", "write", v, ((rest, v),))
        elif tag == "if":
            pred = stmt[1]
            if pred == "coin":
                return ("op", "coin", "*",
                        (((stmt[3], rest), v), ((stmt[2], rest), v)))
            stack = (stmt[2] if pred == "true" else stmt[3], rest)
        elif tag == "while":
            pred = stmt[1]
            again = (stmt[2], (stmt, rest))
            if pred == "coin":
                return ("op", "coin", "*", ((rest, v), (again, v)))
            stack = again if pred == "true" else rest
        else:
            raise ValueError("unknown statement %r" % (stmt,))


def render(stmt, base: str, alphabet, states, value, depth: int) -> str:
    """The canonical depth-bounded truncation `elgot run` prints.

    Silent execution is deterministic for the built-in actions and
    predicates, so every layer holds at most one element and set layers
    need no ordering.
    """
    memo = {}

    def go(config, d):
        key = (config, d)
        got = memo.get(key)
        if got is not None:
            return got
        lay = layer(config, alphabet)
        if lay is BOT:
            elem = None
        elif lay[0] == "leaf":
            elem = "(leaf %s)" % lay[1]
        elif d == 0:
            elem = "(cut)"
        else:
            kids = " ".join(go(c, d - 1) for c in lay[3])
            elem = "(op %s %s %s)" % (lay[1], lay[2], kids)
        if base == "maybe":
            out = "(bot)" if elem is None else elem
        elif base == "finset":
            out = "{%s}" % (elem or "")
        else:
            out = "(states %s)" % " ".join(
                "(%s {%s})" % (s, "" if elem is None else "(pair %s %s)" % (elem, s))
                for s in states)
        memo[key] = out
        return out

    return go(start(stmt, value), depth)


def successors(lay, s, alphabet, effects, states):
    """The (configuration, state) pairs an operation layer continues with
    under the generic effects; see `handled` for their format."""
    name = lay[1]
    table = effects[name]
    if name == "write":
        table = table[lay[2]]
    arity = alphabet if name == "read" else (("*",) if name == "write" else ("ff", "tt"))
    kids = dict(zip(arity, lay[3]))
    if states is None:
        return [(kids[a], None) for a in table]
    return [(kids[a], s2) for a, s2 in table[s]]


def handled(stmt, alphabet, value, effects, states=None, max_ops=None):
    """Leaves reachable through the handled program's configuration graph.

    effects maps "read", "write" and "coin" to the outcomes of the generic
    effect (for write, per written value): a list of arity atoms for a set
    target, or, with `states`, a dict from state to a list of (atom, next
    state) pairs.  The result is the set of final channel values (set
    target) or a dict from initial state to the set of (value, final state)
    pairs.  With max_ops only paths through at most that many operations
    count.
    """
    def reach(s0):
        # breadth first, so a configuration is first met with the fewest
        # operations behind it
        found = set()
        frontier = {(start(stmt, value), s0)}
        seen = set(frontier)
        ops = 0
        while frontier:
            nxt = set()
            for config, s in frontier:
                lay = layer(config, alphabet)
                if lay is BOT:
                    continue
                if lay[0] == "leaf":
                    found.add(lay[1] if states is None else (lay[1], s))
                    continue
                if max_ops is not None and ops >= max_ops:
                    continue
                for node in successors(lay, s, alphabet, effects, states):
                    if node not in seen:
                        seen.add(node)
                        nxt.add(node)
            frontier = nxt
            ops += 1
        return found

    if states is None:
        return reach(None)
    return {s: reach(s) for s in states}


# ---------------------------------------------------------------------------
# Handle files
# ---------------------------------------------------------------------------

def fold_tree(doc, max_ops=None):
    """Evaluate a finite JSON tree of an `elgot handle` file directly.

    Supports the maybe and finset bases and the finset and nondetstate
    targets.  Returns a set of leaf atoms or a dict from state to a set of
    (atom, state) pairs.  With max_ops, operation layers past that many are
    replaced by bottom; a negative max_ops gives bottom.
    """
    states = doc.get("state_set")
    target = doc["target"]

    def base_elems(value):
        if value == "nothing":
            return []
        if isinstance(value, dict) and "just" in value:
            return [value["just"]]
        return value["set"]

    def effect(op, param):
        data = doc["effects"][op][param]
        if target == "finset":
            return data["set"]
        return {s: [tuple(p) for p in data["states"].get(s, [])] for s in states}

    def go(value, left):
        if target == "finset":
            out = set()
        else:
            out = {s: set() for s in states}
        if left is not None and left < 0:
            return out
        for payload in base_elems(value):
            if "leaf" in payload:
                if target == "finset":
                    out.add(payload["leaf"])
                else:
                    for s in states:
                        out[s].add((payload["leaf"], s))
                continue
            if left == 0:
                continue
            kids = {a: go(c, None if left is None else left - 1)
                    for a, c in payload["children"].items()}
            eff = effect(payload["op"], payload["param"])
            if target == "finset":
                for a in eff:
                    out |= kids[a]
            else:
                for s in states:
                    for a, s2 in eff[s]:
                        out[s] |= kids[a][s2]
        return out

    return go(doc["tree"], max_ops)


def tree_depth(value) -> int:
    """Operation layers on the longest path of a JSON tree value."""
    if value == "nothing":
        return 0
    elems = [value["just"]] if "just" in value else value["set"]
    return max((1 + max(tree_depth(c) for c in p["children"].values())
                for p in elems if "op" in p), default=0)


def render_value(value) -> str:
    """A handled value as `elgot handle` prints it: atoms sort as strings
    and (atom, state) pairs by atom, then state."""
    if isinstance(value, set):
        return "{%s}" % " ".join(sorted(value))
    return "(states %s)" % " ".join(
        "(%s {%s})" % (s, " ".join("(pair %s %s)" % p for p in sorted(value[s])))
        for s in value)


def parse_value(text: str, states):
    """Read a rendered set (or state table) value back into Python sets."""
    if states is None:
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError("not a set value: %r" % text)
        return set(text[1:-1].split())
    rows = dict(re.findall(r"\((\S+) \{([^}]*)\}\)", text))
    if list(rows) != list(states):
        raise ValueError("not a state table over %s: %r" % (states, text))
    return {s: set(re.findall(r"\(pair (\S+) (\S+)\)", rows[s])) for s in states}


def below(small, big) -> bool:
    if isinstance(small, set):
        return small <= big
    return all(small[s] <= big[s] for s in small)


# ---------------------------------------------------------------------------
# BSP specs
# ---------------------------------------------------------------------------

def bsp_check(spec: dict, depth: int, fmt: str, output: str):
    """None if `elgot bsp` output fits the spec, else what is wrong.

    Each occurrence's outgoing edges must be exactly its state's table rows
    (targets without rows normalize to the least such state), every level
    must hold as many edges as there are paths of that length, and `cut`
    must mark exactly the frontier occurrences whose state has rows.
    """
    n = spec["states"]
    rows = [list(zip(spec["b"][i], spec["j"][i])) for i in range(n)]
    dead = [i for i in range(n) if not rows[i]]

    def norm(i):
        return dead[0] if not rows[i] else i

    lines = output.splitlines()
    edges, cut = [], set()
    if fmt == "text":
        if not lines or lines[0] != "initial s0":
            return "missing initial line"
        for line in lines[1:]:
            if line.startswith("cut "):
                cut.add(line[4:])
            else:
                src, rest = line.split(" -", 1)
                lbl, dst = rest.split("-> ")
                edges.append((src, lbl, dst))
    elif fmt == "dot":
        if lines[0] != "digraph {" or lines[-1] != "}":
            return "not a digraph"
        for line in lines[1:-1]:
            line = line.strip()
            if line.endswith("[style=dashed];"):
                cut.add(line.split()[0])
            else:
                src, _arrow, dst, label = line.split(" ", 3)
                edges.append((src, label[len('[label="'):-len('"];')], dst))
    else:
        if lines[0] != "src,label,dst":
            return "missing csv header"
        edges = [tuple(line.split(",")) for line in lines[1:]]

    def state_of(name):
        return int(name[1:].split("_")[0])

    out_edges = {}
    for src, lbl, dst in edges:
        out_edges.setdefault(src, []).append((lbl, state_of(dst)))
    level = {"s%d" % i: 0 for i in range(n)}
    frontier = ["s%d" % i for i in range(n)]
    paths = [1] * n
    for d in range(depth):
        nxt = []
        for name in frontier:
            got = sorted(out_edges.pop(name, []))
            want = sorted((lbl, norm(j)) for lbl, j in rows[state_of(name)])
            if got != want:
                return "edges of %s: %s, rows give %s" % (name, got, want)
        for src, lbl, dst in edges:
            if level.get(src) == d:
                if dst in level:
                    return "occurrence %s named twice" % dst
                level[dst] = d + 1
                nxt.append(dst)
        paths = [sum(paths[j] for _lbl, j in rows[i]) for i in range(n)]
        if len(nxt) != sum(paths):
            return "level %d has %d edges, %d paths" % (d + 1, len(nxt), sum(paths))
        frontier = nxt
    if out_edges:
        return "edges below depth %d: %s" % (depth, sorted(out_edges)[:3])
    if fmt != "csv":
        want_cut = {name for name in frontier if rows[state_of(name)]}
        if cut != want_cut:
            return "cut marks %d occurrences, %d frontier ones have rows" % (
                len(cut), len(want_cut))
    return None
