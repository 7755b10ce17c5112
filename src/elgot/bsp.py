"""Finite process definitions with action prefixing over nondeterministic
choice, solved by unguarded iteration and exported as depth-bounded
labelled transition systems.

A definition gives each state i a chain of variables (i,0), ..., (i,w)
for its width w; variable (i,k) with k < w either takes the k-th transition
(action b[i][k] over the row's own seed, which jumps to state j[i][k]) or
falls through to (i,k+1), without any guard, and (i,w) is the empty choice.
That is a flat system, whose steps are taken on first lookup, and
iteration.pre_iterate solves its bare jumps in the base monad, so state
i's solved layer holds exactly one node per table row.  The export reads
each root's solved layer once into a successor table of (label, state)
pairs, sorted by label and then by row, from the rows and not from any
tree, and walks that table level by level.  Only the roots' layers are
packed, and no row seed's step is taken.
"""

from __future__ import annotations

import json

from .core import Inl, Inr, KleisliFn, Pair, _Tagged, carrier, unit_carrier
from .base_monads import EMPTY_SET, FinSetMonad, finset
from .iteration import pre_iterate
from .resumption import OpDecl, OpNode, ResumptionMonad, Signature


# The most states a definition may declare.  A text definition defaults
# every row it leaves out, so its few bytes could otherwise ask for tables of
# any length; one at the limit with no rows solves in seconds.
MAX_STATES = 100_000

# The most nodes an unfolding may hold.  Each level is counted from the
# successor table before it is built, so a definition whose levels grow
# without bound (two self-loops double each level) is refused, not built.
MAX_NODES = 1_000_000


class BspLoadError(ValueError):
    pass


def _check_state_count(states: int) -> None:
    if states > MAX_STATES:
        raise BspLoadError("states %d is above the limit of %d" % (states, MAX_STATES))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_label(lbl: str) -> bool:
    """Whether lbl reads back from every export: it is nonempty and holds
    no whitespace, no comma (CSV), no double quote or backslash (DOT) and no
    non-printable character."""
    return lbl != "" and lbl.isprintable() \
        and not any(c.isspace() or c in ',"\\' for c in lbl)


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise BspLoadError("%s must be a list, not %r" % (what, x))
    return x


class BspSpec(_Tagged):
    """A process definition: b[i][k] is the action label of the k-th
    transition of state i and j[i][k] its target state."""

    __slots__ = ()
    _fields = ("actions", "states", "widths", "b", "j")

    def __new__(cls, actions: tuple, states: int, widths: tuple, b: tuple, j: tuple):
        if not all(isinstance(a, str) for a in actions) \
                or len(set(actions)) != len(actions):
            raise BspLoadError("actions must be distinct strings")
        if not actions:
            raise BspLoadError("a spec needs at least one action")
        for lbl in actions:
            if not _is_label(lbl):
                raise BspLoadError(
                    "action label %r is empty or holds whitespace, a comma, a double "
                    "quote, a backslash or a non-printable character" % (lbl,))
        if not _is_int(states) or not all(map(_is_int, widths)) \
                or not all(_is_int(t) for row in j for t in row):
            raise BspLoadError("states, widths and targets must be integers")
        if states < 1:
            raise BspLoadError("need at least one state")
        _check_state_count(states)
        if len(widths) != states or len(b) != states or len(j) != states:
            raise BspLoadError("tables must have one row per state")
        for i in range(states):
            if len(b[i]) != widths[i] or len(j[i]) != widths[i]:
                raise BspLoadError("row %d does not match its declared width" % i)
            for lbl in b[i]:
                if lbl not in actions:
                    raise BspLoadError("unknown action %r in row %d" % (lbl, i))
            for tgt in j[i]:
                if not (0 <= tgt < states):
                    raise BspLoadError("target %r out of range in row %d" % (tgt, i))
        return tuple.__new__(cls, (cls, actions, states, widths, b, j))


def parse_bsp_text(text: str) -> BspSpec:
    """Flat key/value format: actions, states, then width/b/j rows."""
    actions = None
    states = None
    widths = {}
    b_rows = {}
    j_rows = {}
    header_lines = {}  # actions or states -> the line that gives it
    row_lines = {}     # (key, state) -> the line of that row
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key in ("actions", "states"):
                if key in header_lines:
                    raise BspLoadError("line %d: a second %s line (the first is on "
                                       "line %d)" % (lineno, key, header_lines[key]))
                header_lines[key] = lineno
                if key == "actions":
                    actions = tuple(parts[1:])
                else:
                    (count,) = parts[1:]        # exactly one value
                    states = int(count)
            elif key in ("width", "b", "j"):
                i = int(parts[1])
                if (key, i) in row_lines:
                    raise BspLoadError("line %d: a second %s row for state %d (the "
                                       "first is on line %d)"
                                       % (lineno, key, i, row_lines[key, i]))
                row_lines[key, i] = lineno
                if key == "width":
                    _state, width = parts[1:]   # exactly two values
                    widths[i] = int(width)
                elif key == "b":
                    b_rows[i] = tuple(parts[2:])
                else:
                    j_rows[i] = tuple(int(t) for t in parts[2:])
            else:
                raise BspLoadError("line %d: unknown key %r" % (lineno, key))
        except (IndexError, ValueError) as exc:
            if isinstance(exc, BspLoadError):
                raise
            raise BspLoadError("line %d: malformed entry %r" % (lineno, raw))
    if actions is None or states is None:
        raise BspLoadError("actions and states are required")
    _check_state_count(states)    # before any table is built
    for (key, i), lineno in row_lines.items():
        if not 0 <= i < states:
            raise BspLoadError("line %d: %s row for state %d out of range "
                               "(states %d)" % (lineno, key, i, states))
    def row(table, i, default):
        return table.get(i, default)
    return BspSpec(actions, states,
                   tuple(row(widths, i, len(row(b_rows, i, ()))) for i in range(states)),
                   tuple(row(b_rows, i, ()) for i in range(states)),
                   tuple(row(j_rows, i, ()) for i in range(states)))


def parse_bsp_json(text: str) -> BspSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BspLoadError("invalid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise BspLoadError("malformed spec object: the top level is a %s, not an "
                           "object" % type(data).__name__)
    # an error about the JSON's shape is prefixed; the spec's own check
    # reads as it does for the text format
    try:
        b = tuple(tuple(_list(row, "a row of b")) for row in _list(data["b"], "b"))
        j = tuple(tuple(_list(row, "a row of j")) for row in _list(data["j"], "j"))
        widths = tuple(_list(data.get("width", [len(row) for row in b]), "width"))
        actions, states = tuple(_list(data["actions"], "actions")), data["states"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BspLoadError("malformed spec object: %s" % exc)
    return BspSpec(actions, states, widths, b, j)


def load_bsp(text: str) -> BspSpec:
    """A spec whose first character is {, [ or " is JSON; anything else is
    the key/value text format."""
    if text.lstrip()[:1] in ("{", "[", '"'):
        return parse_bsp_json(text)
    return parse_bsp_text(text)


# ---------------------------------------------------------------------------
# Equations and solving
# ---------------------------------------------------------------------------

class _Steps(dict):
    """A definition's step table, each seed's step taken on its first
    lookup.  Whether a seed is Inl((i,k)) with k <= width(i) or Inr((i,k))
    with k < width(i) is read from the widths; any other seed raises
    KeyError, which KleisliFn reports as a carrier mismatch."""

    __slots__ = ("spec",)

    def __init__(self, spec: BspSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, seed):
        spec = self.spec
        pair = seed.value if isinstance(seed, (Inl, Inr)) else None
        if not (isinstance(pair, Pair) and pair.fst in range(spec.states)
                and pair.snd in range(spec.widths[pair.fst] + isinstance(seed, Inl))):
            raise KeyError(seed)
        i, k = pair.fst, pair.snd
        if isinstance(seed, Inr):
            v = finset((Inl(Inr(Inl(Pair(spec.j[i][k], 0)))),))
        elif k == spec.widths[i]:
            v = EMPTY_SET
        else:
            node = OpNode("act", spec.b[i][k], (("*", Inr(pair)),))
            v = finset((Inl(Inr(Inl(Pair(i, k + 1)))), Inr(node)))
        self[seed] = v
        return v


def build_equations(spec: BspSpec):
    """The definition as a flat system (rm, step), step a base-monad
    Kleisli function on seeds, whose table takes a seed's step on its first
    lookup.  Variable Inl((i,k)), k <= width(i), is what the root
    Inl((i,0)) reaches: for k < width(i) the choice of the node b[i][k]
    over the row's own seed Inr((i,k)) and the unguarded fall-through jump
    to Inl((i,k+1)), and for k = width(i) the empty choice.  The row seed
    jumps to its target's root Inl((j[i][k],0)), so two equal rows are two
    nodes.
    """
    base = FinSetMonad()
    act_car = carrier("a", spec.actions)
    rm = ResumptionMonad(base, Signature((OpDecl("act", act_car, unit_carrier()),)))
    seeds = carrier("seeds", [Inl(Pair(i, k)) for i in range(spec.states)
                              for k in range(spec.widths[i] + 1)]
                    + [Inr(Pair(i, k)) for i in range(spec.states)
                       for k in range(spec.widths[i])])
    return rm, KleisliFn(base, seeds, None, _Steps(spec))


class LtsNode:
    __slots__ = ("name", "state", "depth", "cut")

    def __init__(self, name: str, state: int, depth: int):
        self.name = name
        self.state = state
        self.depth = depth
        self.cut = False


class Lts:
    __slots__ = ("nodes", "edges", "initial")

    def __init__(self, initial: str):
        self.nodes = []
        self.edges = []     # (src name, label, dst name)
        self.initial = initial

    def edge_states(self):
        """Edges with occurrence names replaced by their state indices."""
        by_name = {n.name: n.state for n in self.nodes}
        return [(by_name[s], lbl, by_name[d]) for s, lbl, d in self.edges]


def solve_and_unfold(spec: BspSpec, depth: int) -> Lts:
    """Solve the definition and unfold every state's root to the given depth.

    Roots are named s<i>; deeper occurrences get fresh numeric suffixes.
    State i's edges are the nodes of its root's pre-iterated layer, read
    once, in canonical order: by label and then by row index, which is
    got by sorting those (label, row) pairs, not the nodes.  The edge of
    row (i,k) leads to state j[i][k], except that every deadlocked
    (width-0) target is exported as the lowest-numbered deadlocked state.
    No tree is built: the unfolding walks that table level by level.  It
    stops at the first empty level, and refuses, before building it, a
    level that would take it past MAX_NODES nodes.
    """
    rm, step = build_equations(spec)
    solved = pre_iterate(rm.base, step)
    deadlocked = next((i for i, w in enumerate(spec.widths) if w == 0), None)
    succ = []
    for i in range(spec.states):
        row = []
        # a node's label, and the row k of its child Inr((i, k))
        for label, k in sorted((e.value.param, e.value.children[0][1].value.snd)
                               for e in solved(Inl(Pair(i, 0)))):
            j = spec.j[i][k]
            row.append((label, deadlocked if spec.widths[j] == 0 else j))
        succ.append(row)

    lts = Lts("s0")
    counters = [0] * spec.states
    frontier = [LtsNode("s%d" % i, i, 0) for i in range(spec.states)]
    lts.nodes.extend(frontier)
    for level in range(depth):
        if not frontier:
            break
        if len(lts.nodes) + sum(len(succ[n.state]) for n in frontier) > MAX_NODES:
            raise BspLoadError("depth %d unfolds more than the limit of %d nodes"
                               % (depth, MAX_NODES))
        nxt = []
        for node in frontier:
            for label, state in succ[node.state]:
                counters[state] += 1
                child = LtsNode("s%d_%d" % (state, counters[state]), state, level + 1)
                lts.edges.append((node.name, label, child.name))
                nxt.append(child)
        lts.nodes.extend(nxt)
        frontier = nxt

    # a node is cut when its state has a transition
    for node in frontier:
        node.cut = bool(succ[node.state])
    return lts


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def lts_to_dot(lts: Lts) -> str:
    lines = ["digraph {"]
    for n in lts.nodes:
        if n.cut:
            lines.append('  %s [style=dashed];' % n.name)
    for src, lbl, dst in lts.edges:
        lines.append('  %s -> %s [label="%s"];' % (src, dst, lbl))
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_csv(lts: Lts) -> str:
    lines = ["src,label,dst"]
    lines.extend("%s,%s,%s" % e for e in lts.edges)
    return "\n".join(lines) + "\n"


def lts_to_text(lts: Lts) -> str:
    lines = ["initial %s" % lts.initial]
    for n in lts.nodes:
        if n.cut:
            lines.append("cut %s" % n.name)
    for src, lbl, dst in lts.edges:
        lines.append("%s -%s-> %s" % (src, lbl, dst))
    return "\n".join(lines) + "\n"
