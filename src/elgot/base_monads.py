"""The three omega-continuous base monads: partiality (Maybe), finite
nondeterminism (FinSet), and nondeterministic state over a finite state set.

Iteration on all three is the least fixpoint of h |-> [unit, h]* . f.  On
these finite instances it is reachability: h(x) holds the results y with
Inl(y) in f(x') for some x' that x reaches through Inr edges (over (point,
state) pairs on nondetstate).  One engine, propagate, computes the Kleene
chain from bottom (approximants) in one pass over the recursion graph,
through two hooks per instance, moves and pack: reach_iterate takes its
stable table, and the handler its fuel-th table at a tree's root.  The
chain is their specification, written as its definition: each round binds
every point against the last table.  kleene_iterate takes it until it is
stable, detected by exact equality on the finite hom-lattice, never by a
step budget, and the law suites and the tests check both callers against
it.

A FinSet is a frozenset, so binds, maps, joins, the equality test of every
Kleene round and the propagation pass build and compare sets without
sorting them.  Its canonical order, elems, is its members sorted by
canon_key on each read; everything whose order can be seen walks elems:
rendering, canonical keys, elements, sampling, and the outer loop of bind,
whose callback may build trees that are numbered in creation order.  map
walks the set in its own hash order, so its callback must neither build
nor force a tree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .core import (Carrier, ConfigError, ElgotMonad, Inl, Inr, KleisliFn, Pair,
                   _Tagged, canon_key, carrier, spaced)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class _Nothing:
    __slots__ = ()

    def __repr__(self):
        return "nothing"

    def _canon_key_(self):
        return (10,)

    def _render_(self):
        return ("(bot)",)


NOTHING = _Nothing()


class Just(_Tagged):
    __slots__ = ()
    _fields = ("value",)

    def __new__(cls, value):
        return tuple.__new__(cls, (cls, value))

    def _canon_key_(self):
        return (11, canon_key(self[1]))

    def _render_(self):
        return (self[1],)


class FinSet(frozenset):
    """Finite set: a frozenset, whose equality, hashing, `in` and `len` it
    keeps, with elems, its members in canonical order (sorted by
    canon_key), sorted on each read.  Nothing may walk the set in its own
    hash order where the order can be seen: the outer loop of bind walks
    elems, and map, which walks the set itself, takes only callbacks that
    neither build nor force a tree."""

    __slots__ = ()

    @property
    def elems(self) -> tuple:
        # a singleton is already sorted, and its element may have no key;
        # canon_key tells unequal elements apart, so no tie is left to the
        # set's hash order
        return tuple(self) if len(self) < 2 else tuple(sorted(self, key=canon_key))

    def __repr__(self):
        return "FinSet(elems=%r)" % (self.elems,)

    def _canon_key_(self):
        return (12,) + tuple(canon_key(e) for e in self.elems)

    def _render_(self):
        return ["{"] + spaced(self.elems) + ["}"]


def finset(elems: Iterable) -> FinSet:
    """The set of elems; the one way every FinSet is built."""
    return FinSet(elems)


EMPTY_SET = finset(())


class NdState(_Tagged):
    """Total map from state atoms to sets of (result, next state) pairs."""

    __slots__ = ()
    _fields = ("table",)   # ((state, FinSet of Pair(x, state')), ...) in state order

    def __new__(cls, table: tuple):
        return tuple.__new__(cls, (cls, table))

    def at(self, s) -> FinSet:
        for state, v in self[1]:
            if state == s:
                return v
        raise KeyError(s)

    def _canon_key_(self):
        return (13,) + tuple((canon_key(s), canon_key(v)) for s, v in self[1])

    def _render_(self):
        parts = ["(states"]
        for s, v in self[1]:
            parts += (" (", s, " ", v, ")")
        return parts + [")"]


# ---------------------------------------------------------------------------
# Iteration (shared by all three instances)
# ---------------------------------------------------------------------------

def approximants(m: ElgotMonad, roots, step_at: Callable):
    """The endless Kleene chain of h |-> [unit, h]* . step_at from bottom.

    Only oracles run it: kleene_iterate, which the elgot.unfolding law and
    the tests check base iteration against, and the tests of handle, whose
    result at fuel k is the k-th table at the tree's root.

    step_at(p) is an m-value over Inl(result) + Inr(point).  Roots are expanded
    before round 1; each round expands what the last expansion found, binds
    every expanded point against the last table, in the order of expansion,
    and yields (table, stable), a fresh table that is never mutated
    afterwards.  A point not in the table is at bottom; stable = none found,
    no point moved.
    """
    bot, unit = m.bottom(), m.unit
    seen, steps = set(roots), {}

    def expand(batch):
        found = []
        for p in batch:
            v = steps[p] = step_at(p)
            for e in m.elements(v):
                if isinstance(e, Inr) and e.value not in seen:
                    seen.add(e.value)
                    found.append(e.value)
        return found

    batch, prev = expand(roots), {}
    while True:
        batch = expand(batch)

        def step(e, _prev=prev):
            if isinstance(e, Inl):
                return unit(e.value)
            if isinstance(e, Inr):
                return _prev.get(e.value, bot)
            raise TypeError("iteration over a non-sum element %r" % (e,))

        table = {p: m.bind(v, step) for p, v in steps.items()}
        yield table, not batch and all(m.equal(v, prev.get(p, bot))
                                       for p, v in table.items())
        prev = table


def kleene_iterate(f: KleisliFn) -> KleisliFn:
    """Least solution of h = [unit, h]* . f for f : X -> T(Y+X).

    Takes the Kleene chain `approximants` over the domain, each round one
    bind per point, until two successive iterates agree; stabilization is
    guaranteed on the finite lattice and checked against a generous
    structural bound rather than cut off by fuel.
    """
    m = f.monad
    dom = f.dom
    cod = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None

    # every non-stable step strictly grows some point of the lattice, so the
    # chain length is at most the total capacity: one slot per domain point,
    # reachable element, and state pair (squared: result and successor state)
    universe = set()
    for x in dom.elements:
        universe.update(m.elements(f(x)))
    states = len(getattr(m, "states", ())) + 1
    bound = (len(dom.elements) + 1) * (len(universe) + 2) * states * states + 8

    for rounds, (table, stable) in enumerate(approximants(m, dom.elements, f), 1):
        if rounds > bound:
            raise RuntimeError("Kleene iteration did not stabilize in %d rounds" % bound)
        if stable:
            return KleisliFn(m, dom, cod, table)


def propagate(m: ElgotMonad, roots, step_at: Callable, fuel: int | None = None):
    """The Kleene chain `approximants` of step_at from roots, computed in
    one pass: (first, stable, expanded).

    A position is a point with a start state.  m.moves(v) lists the
    (state, element, next state) moves of the step value v, the state None
    on maybe and finset.  The points within fuel + 1 of roots, or all the
    points they reach when fuel is None, are expanded breadth first, each
    by one step_at whose value is walked once, through moves and in its own
    order: Inl(y) moving to s' makes (y, s') a result of the position
    (p, s) in round v(p) = max(dist(p), 1), the round in which the chain
    first values p, and Inr(q) moving to s' makes (p, s) read (q, s') and
    finds q.  A result of round k at q then reaches each reader p in round
    max(v(p), k + 1), the first time p gets it; rounds are taken in
    increasing order from buckets (semi-naive evaluation with the rounds
    made explicit), so no table is copied or re-bound and nothing is
    sorted.  first[pos][r] is the round in which r first reaches pos, so
    the chain's k-th table holds at p the results of its positions of
    round at most k.  stable is the first round in which no point lies at
    the next distance and no result is new, or None when that round is
    past fuel + 1; expanded lists the points in the order of expansion.  A
    non-sum element raises TypeError.
    """
    first, readers, bucket = {}, {}, {}
    seen, level, expanded = set(roots), list(roots), []
    d, last = 0, None if fuel is None else fuel + 1
    while True:
        found, vp = [], d or 1
        add = bucket.setdefault(vp, []).append
        for p in level:
            for s, e, s2 in m.moves(step_at(p)):
                pos = p, s
                if isinstance(e, Inl):
                    got, r = first.setdefault(pos, {}), (e.value, s2)
                    if r not in got:
                        got[r] = vp
                        add((pos, r))
                elif isinstance(e, Inr):
                    # a point never expanded has no results to pass on
                    readers.setdefault((e.value, s2), []).append((pos, vp))
                    if e.value not in seen:
                        seen.add(e.value)
                        found.append(e.value)
                else:
                    raise TypeError("iteration over a non-sum element %r" % (e,))
        expanded += level
        level = found
        if not level or d == last:
            break
        d += 1

    k = 1
    while last is None or k <= last:
        now = bucket.pop(k, ())
        if not now and k >= d and not level:
            return first, k, expanded
        for pos, r in now:
            for p, vp in readers.get(pos, ()):
                got = first.setdefault(p, {})
                if r not in got:
                    got[r] = later = vp if vp > k else k + 1
                    bucket.setdefault(later, []).append((p, r))
        k += 1
    return first, None, expanded


def reach_iterate(f: KleisliFn) -> KleisliFn:
    """Least solution of h = [unit, h]* . f for f : X -> T(Y+X): the stable
    table of `propagate` from the domain, rounds ignored, each point's value
    packed by m.pack from the results of its positions.  An Inr off f's
    table or a non-sum element raises TypeError in the walk's order; the
    chain, run then, raises its own error in its canonical order.
    """
    m = f.monad
    cod = f.cod.parts[0] if f.cod is not None and f.cod.kind == "sum" else None
    try:
        first, _stable, points = propagate(m, f.dom.elements, f)
    except TypeError:
        return kleene_iterate(f)
    return KleisliFn(m, f.dom, cod, {x: m.pack(first, x) for x in points})


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

class _KleeneMonad(ElgotMonad):
    """An instance whose iteration is the least fixpoint of the Kleene
    chain.  reach_iterate solves it with propagate, through two hooks:
    moves(v), the (state, element, next state) moves of a step value v, and
    pack(results, x), the value of the point x from the result sets of its
    positions; handle evaluates trees into it through the same two.  The
    chain itself, kleene_iterate, is the specification both are checked
    against.

    The operations on its values: join(a, b), the least upper bound or None
    where there is none; sample_below(rng, v), a random value below v;
    decode(data, elem), the value a JSON literal describes (the counterpart
    of render); and on the nondeterministic instances choice(xs), the value
    returning each x."""

    has_bottom = True

    def iterate(self, f):
        return reach_iterate(f)

    def leq(self, a, b):
        return self.join(a, b) == b


class MaybeMonad(_KleeneMonad):
    name = "maybe"

    def unit(self, x):
        return Just(x)

    def bind(self, v, f):
        if v is NOTHING:
            return NOTHING
        return f(v.value)

    def map(self, v, g):
        return NOTHING if v is NOTHING else Just(g(v.value))

    def elements(self, v):
        return () if v is NOTHING else (v.value,)

    def moves(self, v):
        return () if v is NOTHING else ((None, v.value, None),)

    def pack(self, results, x):
        for y, _s in results.get((x, None), ()):
            return Just(y)
        return NOTHING

    def bottom(self):
        return NOTHING

    def join(self, a, b):
        # the flat order: two different results have no upper bound
        if a is NOTHING or a == b:
            return b
        return a if b is NOTHING else None

    def sample_value(self, rng, gen_elem, branch):
        if rng.random() < 0.3:
            return NOTHING
        return Just(gen_elem())

    def sample_below(self, rng, v):
        return NOTHING if rng.random() < 0.5 else v

    def decode(self, data, elem):
        if data == "nothing":
            return NOTHING
        if isinstance(data, dict) and "just" in data:
            return Just(elem(data["just"]))
        raise ValueError("malformed maybe value: %r" % (data,))


class FinSetMonad(_KleeneMonad):
    name = "finset"

    def unit(self, x):
        return finset((x,))

    def bind(self, v, f):
        out = set()
        for e in v.elems:
            out.update(f(e))
        return finset(out)

    def map(self, v, g):
        return finset(map(g, v))

    def elements(self, v):
        return v.elems

    def moves(self, v):
        return ((None, e, None) for e in v)

    def pack(self, results, x):
        return finset(y for y, _s in results.get((x, None), ()))

    def bottom(self):
        return EMPTY_SET

    def join(self, a, b):
        return finset(a | b)

    def choice(self, xs):
        return finset(xs)

    def sample_value(self, rng, gen_elem, branch):
        return finset(gen_elem() for _ in range(rng.randint(0, branch)))

    def sample_below(self, rng, v):
        return finset(e for e in v.elems if rng.random() < 0.6)

    def decode(self, data, elem):
        if isinstance(data, dict) and "set" in data:
            return finset(elem(e) for e in data["set"])
        raise ValueError("malformed finset value: %r" % (data,))


class NondetStateMonad(_KleeneMonad):
    """P(X x S)^S for a finite state carrier S."""

    def __init__(self, states: Carrier):
        if not states.elements:
            raise ConfigError("nondetstate needs a nonempty state carrier")
        self.states = states.elements
        self.name = "nondetstate[%s]" % ",".join(states.elements)

    def _value(self, per_state: Callable):
        return NdState(tuple((s, per_state(s)) for s in self.states))

    def unit(self, x):
        return NdState(tuple([(s, finset((Pair(x, s),))) for s in self.states]))

    def bind(self, v, f):
        table = []
        for s, fs in v.table:
            out = set()
            for p in fs.elems:
                out.update(f(p.fst).at(p.snd))
            table.append((s, finset(out)))
        return NdState(tuple(table))

    def map(self, v, g):
        return NdState(tuple((s, finset(Pair(g(p.fst), p.snd) for p in fs))
                             for s, fs in v.table))

    def elements(self, v):
        return tuple(dict.fromkeys(p.fst for _s, fs in v.table for p in fs.elems))

    def moves(self, v):
        return ((s, p.fst, p.snd) for s, fs in v.table for p in fs)

    def pack(self, results, x):
        return self._value(lambda s: finset(
            Pair(y, s2) for y, s2 in results.get((x, s), ())))

    def bottom(self):
        return self._value(lambda _s: EMPTY_SET)

    def join(self, a, b):
        return self._value(lambda s: finset(a.at(s) | b.at(s)))

    def choice(self, xs):
        return self._value(lambda s: finset(Pair(x, s) for x in xs))

    def sample_value(self, rng, gen_elem, branch):
        def per_state(_s):
            return finset(Pair(gen_elem(), rng.choice(self.states))
                          for _ in range(rng.randint(0, branch)))
        return self._value(per_state)

    def sample_below(self, rng, v):
        return self._value(
            lambda s: finset(e for e in v.at(s).elems if rng.random() < 0.6))

    def decode(self, data, elem):
        if isinstance(data, dict) and "states" in data:
            table = data["states"]
            for s in list(table) + [s2 for rows in table.values() for _x, s2 in rows]:
                if s not in self.states:
                    raise ValueError("malformed nondetstate value: state %r is not "
                                     "in the state set" % (s,))
            return self._value(lambda s: finset(
                Pair(elem(x), s2) for x, s2 in table.get(s, [])))
        raise ValueError("malformed nondetstate value: %r" % (data,))


def elgot_instance(kind: str, state_set: Iterable[str] | None = None) -> ElgotMonad:
    """A fully populated instance from the closed family."""
    if kind == "maybe":
        return MaybeMonad()
    if kind == "finset":
        return FinSetMonad()
    if kind == "nondetstate":
        states = tuple(state_set or ())
        if not states:
            raise ConfigError("nondetstate requires a state set")
        return NondetStateMonad(carrier("S", states))
    raise ConfigError("unknown monad kind %r" % kind)


# ---------------------------------------------------------------------------
# Partition-based iteration for Maybe
# ---------------------------------------------------------------------------

def partition_iterate_maybe(f: KleisliFn) -> KleisliFn:
    """Iteration on Maybe by partitioning the domain into preimage layers.

    X1 is the preimage of results, X_{i+1} the preimage of X_i; everything
    else (immediate nothing, or a cycle of variables) diverges.  That is the
    backward pass of propagate, so reach_iterate computes it; it must agree
    extensionally with kleene_iterate.
    """
    if not isinstance(f.monad, MaybeMonad):
        raise ConfigError("partition iteration is defined on Maybe only, got %s"
                          % f.monad.name)
    return reach_iterate(f)
