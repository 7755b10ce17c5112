"""Coinductive resumption trees over a base monad and an operation signature.

A tree is observed one layer at a time: out(t) is a base-monad value whose
elements are either Inl(leaf) or Inr(operation node).  A tree is the
suspension of its first layer, a memoised cell (Thunk) computed at most
once.  An operation node is a tagged tuple like every other value of the
package, and its children are the child trees themselves.  Trees compare
and hash by identity and nodes by their children's identity, which is what
lets base-monad fixpoints treat subtrees as opaque atoms, and what makes
memoized forcing observable in tests.  Every tree also carries a unique
token, its canonical key; a node builds its key from its parts on each
call.  unfold_trees is the one lazy corecursion: one object per unfolding,
whose trees' cells are partial applications of one step function to it
and a seed.  map and the flat-system solutions of the iteration module
write a leaf's layer directly, rather than build a unit tree only to read
its first layer.  An unfolding's memo holds its trees and an unforced
tree's cell holds the unfolding, so an unfolding is on a reference cycle
while one of its trees is unforced or when its trees form a loop;
otherwise reference counting frees it.

Equality of trees is undecidable in general; the package works with
depth-indexed bisimilarity via finite truncations.  A truncation is a base-
monad value over hash-consed layers (TLeaf, TCUT, TOp): equal layers are one
object, so truncations compare and hash by identity below the top layer, and
a layer builds its key only when a set holding it is ordered.  truncate
reads each (tree, depth) pair once: a shared or cyclic tree's is a DAG.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections.abc import Callable, Mapping
from functools import partial

from .core import (Carrier, ConfigError, ElgotMonad, Inl, Inr, KleisliFn,
                   _Tagged, canon_key, render_elem, spaced)

_tokens = itertools.count(1)
# Guards every first forcing and every intern-table miss.  It is re-entrant
# because forcing a layer forces the layers it reads.
_lock = threading.RLock()


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class OpDecl(_Tagged):
    __slots__ = ()
    _fields = ("name", "param", "arity")

    def __new__(cls, name: str, param: Carrier, arity: Carrier):
        if not param.elements or not arity.elements:
            raise ConfigError("operation %s needs nonempty parameter and arity "
                              "carriers" % name)
        return tuple.__new__(cls, (cls, name, param, arity))


class Signature(_Tagged):
    __slots__ = ()
    _fields = ("ops",)

    def __new__(cls, ops: tuple):
        names = [o.name for o in ops]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate operation names in signature")
        return tuple.__new__(cls, (cls, ops))

    def op(self, name: str) -> OpDecl:
        for o in self.ops:
            if o.name == name:
                return o
        raise KeyError(name)


def sig_val(decl: OpDecl, param, args: Mapping) -> "OpNode":
    """A signature element over seed values, used to feed coit: an operation
    node whose children are seeds, in arity order."""
    return OpNode(decl.name, param,
                  tuple((a, args[a]) for a in decl.arity.elements))


# ---------------------------------------------------------------------------
# The memoised cell, nodes and trees
# ---------------------------------------------------------------------------

class Thunk:
    """The package's one memoised cell: fn runs at most once, on the first
    force.  A cell made with a value is already forced.  A layer that reads
    its own cell recurses until Python raises RecursionError."""

    __slots__ = ("token", "_fn", "_value")

    def __init__(self, fn: Callable | None = None, value=None):
        self.token = next(_tokens)
        self._fn = fn
        self._value = value

    def force(self):
        v = self._value
        if v is None:
            with _lock:
                if self._value is None:
                    self._value = self._fn()
                    self._fn = None
                v = self._value
        return v


class OpNode(_Tagged):
    """One operation layer, the tagged tuple (OpNode, op, param, children):
    name, parameter, and a child tree per arity atom, in arity order.

    Equality and hashing are the tuple's own; trees compare and hash by
    identity, never by structure, so these nodes can sit inside base-monad
    set values.  Before coit unfolds them, the children are seeds.
    """

    __slots__ = ()
    _fields = ("op", "param", "children")

    def __new__(cls, op: str, param, children):
        # ((arity atom, ResTree), ...); callers may pass a list
        return tuple.__new__(cls, (cls, op, param, tuple(children)))

    def child(self, a) -> "ResTree":
        for atom, t in self[3]:
            if atom == a:
                return t
        raise KeyError(a)

    def _canon_key_(self):
        return (21, self[1], canon_key(self[2]),
                tuple(canon_key(c) for _a, c in self[3]))

    def _render_(self):
        return ("(node ", self[1], " ", self[2], ")")


class ResTree(Thunk):
    """A resumption tree: the memoised cell of its first layer, out()."""

    __slots__ = ()

    def __init__(self, step=None, fn: Callable | None = None):
        # Thunk.__init__ inlined: one frame per tree
        self.token = next(_tokens)
        self._fn = fn
        self._value = step

    out = Thunk.force

    def _canon_key_(self):
        return (22, self.token)

    def _render_(self):
        return ("(tree #%d)" % self.token,)


class unfold_trees:
    """The one lazy corecursion: called on a seed, the memoised tree whose
    first layer is layer(seed) bound by Inl(x) -> leaf(x), a base-monad
    value, and by replacing each node's child seeds with their trees.
    Revisiting a seed yields the identical tree, so a finite graph of seeds
    unfolds into a finite, possibly cyclic, graph of trees.  One object
    serves every tree of an unfolding: each lazy tree's cell is the partial
    application of _unfold_step to it and the seed, not a closure of its own.
    """

    __slots__ = ("base", "layer", "leaf", "memo")

    def __init__(self, base: ElgotMonad, layer: Callable, leaf: Callable):
        self.base = base
        self.layer = layer
        self.leaf = leaf
        self.memo = {}

    def __call__(self, seed) -> ResTree:
        t = self.memo.get(seed)
        if t is None:
            # setdefault keeps the first tree if two forcings race here
            t = self.memo.setdefault(seed, ResTree(fn=partial(_unfold_step, self, seed)))
        return t

    def elem(self, e):
        if isinstance(e, Inl):
            return self.leaf(e.value)
        node = e.value
        return self.base.unit(Inr(OpNode(node.op, node.param,
                                         tuple((a, self(s)) for a, s in node.children))))


def _unfold_step(unfolding: unfold_trees, seed):
    """The first layer of the tree unfolding grows from seed."""
    return unfolding.base.bind(unfolding.layer(seed), unfolding.elem)


# ---------------------------------------------------------------------------
# Truncations
# ---------------------------------------------------------------------------

class _Interned:
    """A hash-consed truncation value: equal values are one object.

    Each class's intern table is a weakref.WeakValueDictionary keyed
    shallowly, by the fields themselves: children are interned already, or
    base-monad values over interned elements, so the lookup never walks
    below one layer.  Equality and hashing are therefore identity.  A key
    is read only to order a set of two or more, so _fill_keys builds it on
    the first _canon_key_ call and stores it.  A miss inserts under the
    module's lock, so two equal values never coexist.
    """

    __slots__ = ("_key", "__weakref__")

    def __new__(cls, *fields):
        v = cls._table.get(fields)
        if v is None:
            with _lock:     # check again: another thread may have won
                v = cls._table.get(fields)
                if v is None:
                    v = object.__new__(cls)
                    v._key = None
                    v._set(*fields)     # publish only a filled value
                    cls._table[fields] = v
        return v

    def _canon_key_(self):
        if self._key is None:
            _fill_keys(self)
        return self._key

    def __repr__(self):
        return render_elem(self)


def _fill_keys(top: _Interned):
    """Key top and every unkeyed layer below it, children first, from an
    explicit stack: a key reads only stored keys, at any depth.  Children
    are base-monad values, tuples or sets holding the layers below."""
    stack = [top]
    while stack:
        v = stack[-1]
        if v._key is None:
            below, todo = [], list(getattr(v, "children", ()))
            while todo:
                x = todo.pop()
                if isinstance(x, (tuple, frozenset)):
                    todo.extend(x)
                elif isinstance(x, _Interned) and x._key is None:
                    below.append(x)
            if below:
                stack += below
                continue
            v._key = v._make_key()
        stack.pop()


class TLeaf(_Interned):
    __slots__ = ("value",)
    _table = weakref.WeakValueDictionary()    # fields -> the one value

    def _set(self, value):
        self.value = value

    def _make_key(self):
        return (30, canon_key(self.value))

    def _render_(self):
        return ("(leaf ", self.value, ")")


class _TCut:
    __slots__ = ()

    def _canon_key_(self):
        return (31,)

    def _render_(self):
        return ("(cut)",)


TCUT = _TCut()


class TOp(_Interned):
    __slots__ = ("op", "param", "children")
    _table = weakref.WeakValueDictionary()

    def _set(self, op: str, param, children: tuple):
        self.op, self.param = op, param
        self.children = children   # truncated values in arity order

    def _make_key(self):
        return (32, self.op, canon_key(self.param),
                tuple(canon_key(c) for c in self.children))

    def _render_(self):
        return ["(op ", self.op, " ", self.param, " "] + spaced(self.children) + [")"]


# ---------------------------------------------------------------------------
# The monad instance
# ---------------------------------------------------------------------------

class ResumptionMonad(ElgotMonad):
    """Trees over a base monad with free operations from a signature.

    Values are ResTree objects; equal() is bisimilarity at the configured
    depth.  Iteration is the flat-system solver of the companion iteration
    module: bare recursive calls iterated in the base, the rest unfolded.
    """

    def __init__(self, base: ElgotMonad, sig: Signature, depth: int = 6):
        self.base = base
        self.sig = sig
        self.depth = depth
        self.name = "resumption(%s; %s)" % (base.name,
                                            ",".join(o.name for o in sig.ops))

    # -- coalgebra structure ------------------------------------------------

    def out(self, t: ResTree):
        return t.out()

    def out_inv(self, value) -> ResTree:
        return ResTree(step=value)

    def unit(self, x) -> ResTree:
        return self.out_inv(self.base.unit(Inl(x)))

    def ext(self, m) -> ResTree:
        """Embed a base-monad value as a leaf-only tree."""
        return self.out_inv(self.base.map(m, Inl))

    def op_call(self, op: str, param, children: Mapping) -> ResTree:
        """The free operation applied to continuation trees."""
        decl = self.sig.op(op)
        kids = tuple((a, children[a]) for a in decl.arity.elements)
        return self.out_inv(self.base.unit(Inr(OpNode(op, param, kids))))

    def iota(self, op: str, param, k: Mapping) -> ResTree:
        """Generic operation with pure continuations k : arity -> X."""
        decl = self.sig.op(op)
        return self.op_call(op, param,
                            {a: self.unit(k[a]) for a in decl.arity.elements})

    def coit(self, g: KleisliFn) -> KleisliFn:
        """Final-coalgebra unfolding of g : Y -> T(X + Sigma Y).

        Signature positions in g's output carry nodes over seeds (sig_val);
        each child is the lazy unfolding of its seed.  Seeds are shared, so
        revisiting one yields the identical tree.
        """
        go = unfold_trees(self.base, g, lambda x: self.base.unit(Inl(x)))
        return KleisliFn(self, g.dom, None, {y: go(y) for y in g.dom.elements})

    # -- monad structure ----------------------------------------------------

    def lifting(self, f: Callable) -> Callable:
        """Kleisli lifting: the memoised map t -> bind(t, f).  It rewrites
        leaves by f, corecursively under nodes, and each source subtree lifts
        to one tree, so a finite cyclic tree lifts to a finite cyclic tree."""
        return unfold_trees(self.base, self.out, lambda v: self.out(f(v)))

    def bind(self, t: ResTree, f: Callable) -> ResTree:
        """Lift t by f."""
        return self.lifting(f)(t)

    def map(self, t: ResTree, g: Callable) -> ResTree:
        """bind(t, unit . g), with each leaf's layer base.unit(Inl(g(v)))
        written directly rather than read from a unit tree; strength
        derives from this."""
        base = self.base
        return unfold_trees(base, self.out, lambda v: base.unit(Inl(g(v))))(t)

    # -- order and iteration -------------------------------------------------

    @property
    def has_bottom(self):
        return self.base.has_bottom

    def bottom(self) -> ResTree:
        return self.out_inv(self.base.bottom())

    def iterate(self, f: KleisliFn) -> KleisliFn:
        from .iteration import iterate_res
        return iterate_res(self, f)

    # -- observation ----------------------------------------------------------

    def truncate(self, t: ResTree, depth: int):
        """Finite observation: cut every operation layer below `depth`.

        Each (tree, depth) pair is read and truncated once per call, level
        by level in loops, so shared subtrees cost one visit and nesting is
        not bounded by Python's recursion depth.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        base = self.base
        # levels[i]: tree -> first layer, for each tree reached i layers down
        levels = [{t: t.out()}]
        while len(levels) <= depth:
            reached = {}
            for layer in levels[-1].values():
                for e in base.elements(layer):
                    if isinstance(e, Inr):
                        for _a, c in e.value.children:
                            if c not in reached:
                                reached[c] = c.out()
            if not reached:
                break
            levels.append(reached)
        # build from the deepest level up; nodes at the depth bound are cut.
        # The children were forced above, in the canonical walk of
        # base.elements; elem only looks them up and builds interned
        # layers, which draw no tokens, so base.map may walk in any order
        def elem(e):
            if isinstance(e, Inl):
                return TLeaf(e.value)
            if cut:
                return TCUT
            node = e.value
            return TOp(node.op, node.param,
                       tuple(below[c] for _a, c in node.children))

        below = None
        for i in range(len(levels) - 1, -1, -1):
            cut, built = i == depth, {}
            for s, layer in levels[i].items():
                built[s] = base.map(layer, elem)
            below = built
        return below[t]

    def bisimilar(self, t1: ResTree, t2: ResTree, depth: int) -> bool:
        if t1 is t2:
            return True
        return self.truncate(t1, depth) == self.truncate(t2, depth)

    def equal(self, a, b) -> bool:
        return self.bisimilar(a, b, self.depth)

    def render(self, t: ResTree, depth: int | None = None) -> str:
        return self.base.render(self.truncate(t, self.depth if depth is None else depth))
