"""Finite process definitions with action prefixing over nondeterministic
choice, solved by unguarded iteration and exported as depth-bounded
labelled transition systems.

A definition gives each state i a chain of variables (i,0), ..., (i,w)
for its width w; variable (i,k) with k < w either takes the k-th transition
(action b[i][k] to state j[i][k]) or falls through to (i,k+1), without any
guard, and (i,w) is the empty choice.  Solving collapses each chain so state
i's outgoing edges are exactly its table rows.  Unfolding reads each root's
solved layer once into a successor table of (label, state) pairs and walks
that table level by level.
"""

from __future__ import annotations

import json

from .core import Inl, Inr, KleisliFn, Pair, _Tagged, carrier, empty_carrier, \
    sum_carrier, unit_carrier
from .base_monads import FinSetMonad, finset
from .resumption import OpDecl, OpNode, ResumptionMonad, Signature


# The most states a definition may declare.  A text definition defaults
# every row it leaves out, so its few bytes could otherwise ask for tables of
# any length; one at the limit with no rows solves in seconds.
MAX_STATES = 100_000


class BspLoadError(ValueError):
    pass


def _check_state_count(states: int) -> None:
    if states > MAX_STATES:
        raise BspLoadError("states %d is above the limit of %d" % (states, MAX_STATES))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
    row_lines = {}     # (key, state) -> the line of that row
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "actions":
                actions = tuple(parts[1:])
            elif key == "states":
                states = int(parts[1])
            elif key in ("width", "b", "j"):
                i = int(parts[1])
                if (key, i) in row_lines:
                    raise BspLoadError("line %d: a second %s row for state %d (the "
                                       "first is on line %d)"
                                       % (lineno, key, i, row_lines[key, i]))
                row_lines[key, i] = lineno
                if key == "width":
                    widths[i] = int(parts[2])
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

def build_equations(spec: BspSpec):
    """The recursive definition over variables (state, transition index).

    The variables are the (i,k) with k <= width(i), in (state, k) order,
    exactly those a root (i,0) reaches.  Variable (i,k) with k < width(i)
    is the choice of the k-th prefixed transition and the bare fall-through
    variable (i,k+1); (i,width(i)) ends the chain in the empty choice.  The
    fall-through summand is unguarded by construction.
    """
    base = FinSetMonad()
    act_car = carrier("a", spec.actions)
    sig = Signature((OpDecl("act", act_car, unit_carrier()),))
    rm = ResumptionMonad(base, sig)

    var_car = carrier("(st,k)", tuple(Pair(str(i), str(k))
                                      for i in range(spec.states)
                                      for k in range(spec.widths[i] + 1)))
    cod = sum_carrier(empty_carrier(), var_car)

    def equation(v: Pair):
        i, k = int(v.fst), int(v.snd)
        if k == spec.widths[i]:
            return rm.out_inv(base.bottom())
        cont = rm.unit(Inr(Pair(str(spec.j[i][k]), "0")))
        node = OpNode("act", spec.b[i][k], (("*", cont),))
        return rm.out_inv(finset((Inl(Inr(Pair(str(i), str(k + 1)))), Inr(node))))

    table = {v: equation(v) for v in var_car.elements}
    return rm, KleisliFn(rm, var_car, cod, table)


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
    Occurrences are identified with states by first-layer value identity
    against the root layers; deadlocked states all share the empty layer and
    normalize to the least such index.  An occurrence of state i has root
    i's layer, so each root's layer is read once, in canonical order, into a
    table of (label, state) successors, and the unfolding walks that table.
    """
    rm, g = build_equations(spec)
    sol = rm.iterate(g)
    layers = [rm.out(sol(Pair(str(i), "0"))) for i in range(spec.states)]

    identify = {}
    for i, layer in enumerate(layers):
        identify.setdefault(layer, i)
    succ = []
    for layer in layers:
        row = []
        for e in rm.base.elements(layer):
            assert isinstance(e, Inr), "solved system still has bare leaves"
            state = identify.get(rm.out(e.value.child("*")))
            assert state is not None, "child layer does not match any state"
            row.append((e.value.param, state))
        succ.append(row)

    lts = Lts("s0")
    counters = [0] * spec.states
    frontier = [LtsNode("s%d" % i, i, 0) for i in range(spec.states)]
    lts.nodes.extend(frontier)
    for level in range(depth):
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
