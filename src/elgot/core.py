"""Finite carriers, tagged sums and products, Kleisli functions, the
interface every iteration monad in this package implements, and the result
type of every law check.

Atoms are plain strings; every composite value (sum tags, pairs, operation
nodes, truncated tree layers) has a canonical sort key so that finite sets
over mixed element types have a stable, deterministic order.  Sums, pairs,
operation nodes and base-monad values build their key from their parts on
each call; truncated tree layers are hash-consed and build theirs on first
use (see the resumption module).  Composite values render through one explicit
stack, so neither keys nor text are bounded by Python's recursion depth.

Every immutable value of the package is a tagged tuple, its class followed
by its fields: sums and pairs, (Inl, value), (Inr, value) and (Pair, fst,
snd), and likewise carriers, maybe and nondetstate values, operation
declarations, signatures, operation nodes, process definitions and
while-program syntax.  Hashing and equality run in the tuple's own code.
A class hashes by its address, so the hash of a tagged value, and with it
a set's own iteration order, can change from one run to the next even at
one PYTHONHASHSEED.  Output stays canonical because every order that can
be seen walks a set's elems, which sorts by canonical key.  Mutable
records are plain classes with __slots__.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from operator import itemgetter


class CarrierMismatchError(TypeError):
    """Composition of Kleisli functions whose carriers do not line up."""


class ConfigError(ValueError):
    """Invalid instance configuration (empty state carrier etc.)."""


# ---------------------------------------------------------------------------
# Tagged values
# ---------------------------------------------------------------------------

class _Tagged(tuple):
    """A value stored as the tuple (its class, *its fields): hashing and
    equality are the tuple's own, run in C, and the leading class tells
    values of different classes with equal fields apart.

    A subclass lists its field names in _fields and gets a read-only
    property for each.  It defines __new__ only to check its fields, to
    give defaults, to store a list field as a tuple (operation nodes), or,
    on the values that binds build (sums, pairs and base-monad values), to
    skip the count check of the shared one, which would make each about
    half again as slow to build.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields):
        if len(fields) != len(cls._fields):
            raise TypeError("%s() takes %d positional arguments but %d were given"
                            % (cls.__name__, len(cls._fields), len(fields)))
        return tuple.__new__(cls, (cls, *fields))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % fv for fv in zip(self._fields, self[1:])))


class Inl(_Tagged):
    __slots__ = ()
    _fields = ("value",)

    def __new__(cls, value):
        return tuple.__new__(cls, (cls, value))

    def _canon_key_(self):
        return (2, canon_key(self[1]))

    def _render_(self):
        return ("(inl ", self[1], ")")


class Inr(_Tagged):
    __slots__ = ()
    _fields = ("value",)

    def __new__(cls, value):
        return tuple.__new__(cls, (cls, value))

    def _canon_key_(self):
        return (3, canon_key(self[1]))

    def _render_(self):
        return ("(inr ", self[1], ")")


class Pair(_Tagged):
    __slots__ = ()
    _fields = ("fst", "snd")

    def __new__(cls, fst, snd):
        return tuple.__new__(cls, (cls, fst, snd))

    def _canon_key_(self):
        return (4, canon_key(self[1]), canon_key(self[2]))

    def _render_(self):
        return ("(pair ", self[1], " ", self[2], ")")


def canon_key(v):
    """Total order key over every element type used in monadic values."""
    if isinstance(v, str):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    key = getattr(v, "_canon_key_", None)
    if key is None:
        raise TypeError("no canonical order for %r" % (v,))
    return key()


def render_elem(v) -> str:
    """Canonical text of an element.

    A composite value's _render_() lists its pieces in order: strings print
    as themselves and every other piece is rendered in turn.  Pieces are
    expanded from an explicit stack of iterators, so nesting depth is not
    bounded by Python's recursion depth.  Each shared composite is rendered
    once per call: its first occurrence is expanded in place, and a later
    one copies that text, joined once, so the work is linear in the number
    of distinct composites plus the length of the text.
    """
    # id -> (composite, start, end) of its first text in out, or (composite,
    # text) once it has recurred; holding the composite keeps its id unique
    memo = {}
    out, stack, pieces = [], [], iter((v,))
    while True:
        for x in pieces:
            if isinstance(x, str):
                out.append(x)
            elif isinstance(x, int):
                out.append(str(x))
            else:
                seen = memo.get(id(x))
                if seen is not None:
                    if len(seen) == 3:
                        seen = memo[id(x)] = (x, "".join(out[seen[1]:seen[2]]))
                    out.append(seen[1])
                    continue
                render = getattr(x, "_render_", None)
                if render is None:
                    out.append(repr(x))
                else:
                    stack.append((pieces, x, len(out)))
                    pieces = iter(render())
                    break
        else:
            if not stack:
                return "".join(out)
            pieces, x, start = stack.pop()
            memo[id(x)] = (x, start, len(out))


def spaced(items) -> list:
    """items with a " " piece between neighbours, for _render_."""
    parts = []
    for x in items:
        parts += (" ", x)
    return parts[1:]


def case_sum(v, on_left: Callable, on_right: Callable):
    if isinstance(v, Inl):
        return on_left(v.value)
    if isinstance(v, Inr):
        return on_right(v.value)
    raise TypeError("expected a sum value, got %r" % (v,))


def dist_elem(p: Pair):
    """C x (Y+X)  ->  (C x Y) + (C x X), the distributivity isomorphism."""
    return case_sum(p.snd,
                    lambda y: Inl(Pair(p.fst, y)),
                    lambda x: Inr(Pair(p.fst, x)))


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------

class Carrier(_Tagged):
    """A named finite set of elements with a stable enumeration order."""

    __slots__ = ()
    _fields = ("name", "elements", "kind", "parts")   # kind: atoms | sum | prod

    def __new__(cls, name: str, elements: tuple, kind: str = "atoms", parts: tuple = ()):
        if len(set(elements)) != len(elements):
            raise ConfigError("carrier %s has duplicate elements" % name)
        return tuple.__new__(cls, (cls, name, elements, kind, parts))

    def __contains__(self, x):
        return x in self[2]

    def __len__(self):
        return len(self[2])


def carrier(name: str, atoms: Iterable[str]) -> Carrier:
    return Carrier(name, tuple(atoms))


def sum_carrier(left: Carrier, right: Carrier) -> Carrier:
    elems = tuple(Inl(x) for x in left.elements) + tuple(Inr(x) for x in right.elements)
    return Carrier("(%s+%s)" % (left.name, right.name), elems, "sum", (left, right))


def prod_carrier(left: Carrier, right: Carrier) -> Carrier:
    elems = tuple(Pair(a, b) for a in left.elements for b in right.elements)
    return Carrier("(%sx%s)" % (left.name, right.name), elems, "prod", (left, right))


# Carriers never change, and copair and the law checks build the same few
# often: these bounded memos share each, so compositions find it by identity.
shared_sum_carrier = functools.lru_cache(maxsize=256)(sum_carrier)
shared_prod_carrier = functools.lru_cache(maxsize=64)(prod_carrier)


def unit_carrier() -> Carrier:
    return carrier("1", ("*",))


def empty_carrier() -> Carrier:
    return carrier("0", ())


# ---------------------------------------------------------------------------
# Monad interface
# ---------------------------------------------------------------------------

class ElgotMonad:
    """A strong monad with a chosen iteration operator.

    Concrete instances supply unit, Kleisli lifting (bind), value equality,
    and iteration; map and strength are the canonical derived forms.  The
    order-theoretic members (bottom, leq) exist exactly for the
    omega-continuous instances.
    """

    name: str = "?"
    has_bottom: bool = False

    def unit(self, x):
        raise NotImplementedError

    def bind(self, v, f: Callable):
        raise NotImplementedError

    def map(self, v, g: Callable):
        return self.bind(v, lambda x: self.unit(g(x)))

    def strength(self, c, v):
        return self.map(v, lambda x: Pair(c, x))

    def equal(self, a, b) -> bool:
        return a == b

    def elements(self, v) -> tuple:
        """The result elements a value can yield (its support)."""
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError("%s has no bottom" % self.name)

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def iterate(self, f: "KleisliFn") -> "KleisliFn":
        raise NotImplementedError

    def render(self, v) -> str:
        return render_elem(v)

    def sample_value(self, rng, gen_elem: Callable, branch: int):
        """One random value whose elements come from gen_elem()."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Kleisli functions
# ---------------------------------------------------------------------------

class KleisliFn:
    """A total function from a finite carrier into monadic values.

    The table maps each point to its value, so repeated application is pure
    by construction.  A table is either handed over whole (sampled values,
    solved tables) or filled on first use: make_kleisli, and every
    constructor built on it, builds a point's value on its first lookup.
    cod is the carrier of result elements inside the monadic value; it may
    be None for internal morphisms whose elements are not drawn from a
    declared carrier (frozen operation nodes, for instance).
    """

    __slots__ = ("monad", "dom", "cod", "table")

    def __init__(self, monad, dom: Carrier, cod: Carrier | None, table: dict):
        self.monad = monad
        self.dom = dom
        self.cod = cod
        self.table = table

    def __call__(self, x):
        try:
            return self.table[x]
        except KeyError:
            if x in self.dom:
                raise       # from building a point's value, not a mismatch
            raise CarrierMismatchError(
                "%s is not an element of carrier %s" % (render_elem(x), self.dom.name))

    def __repr__(self):
        return "KleisliFn(%s -> T %s over %s)" % (
            self.dom.name, self.cod.name if self.cod else "?", self.monad.name)


class _Points(dict):
    """A table filled one point at a time: the first lookup of x in dom
    builds fn(x), and later ones read it.  A point outside dom raises
    KeyError, which KleisliFn reports as a carrier mismatch."""

    __slots__ = ("dom", "fn")

    def __init__(self, dom: Carrier, fn: Callable):
        super().__init__()
        self.dom = dom
        self.fn = fn

    def __missing__(self, x):
        if x not in self.dom:
            raise KeyError(x)
        # setdefault keeps the first value if two builds race here
        return self.setdefault(x, self.fn(x))


def make_kleisli(monad, dom: Carrier, cod: Carrier | None, fn: Callable) -> KleisliFn:
    return KleisliFn(monad, dom, cod, _Points(dom, fn))


def kleisli_unit(monad, car: Carrier) -> KleisliFn:
    return make_kleisli(monad, car, car, monad.unit)


def compose_kleisli(g: KleisliFn, f: KleisliFn) -> KleisliFn:
    """The Kleisli composite g* . f."""
    if f.monad is not g.monad:
        raise CarrierMismatchError(
            "cannot compose across monads %s and %s" % (f.monad.name, g.monad.name))
    if f.cod is not None and f.cod is not g.dom and f.cod.elements != g.dom.elements:
        raise CarrierMismatchError(
            "codomain carrier %s of the first argument does not match domain "
            "carrier %s of the second" % (f.cod.name, g.dom.name))
    m = f.monad
    return make_kleisli(m, f.dom, g.cod, lambda x: m.bind(f(x), g))


def copair(f: KleisliFn, g: KleisliFn) -> KleisliFn:
    """[f, g] on the sum of the two domains."""
    if f.monad is not g.monad:
        raise CarrierMismatchError("copairing across different monads")
    return make_kleisli(f.monad, shared_sum_carrier(f.dom, g.dom), f.cod,
                        lambda x: case_sum(x, f, g))


def map_kleisli(f: KleisliFn, cod: Carrier | None, g: Callable) -> KleisliFn:
    """Postcompose f with T g for a pure g on elements."""
    m = f.monad
    return make_kleisli(m, f.dom, cod, lambda x: m.map(f(x), g))


def strong_iterate(f: KleisliFn) -> KleisliFn:
    """Iteration with a parameter carried around the loop.

    For f : Z x X -> T(Y + X) this is the composite
    (T(snd + id) . T dist . strength . <fst, f>) iterated over Z x X,
    yielding Z x X -> T Y.
    """
    if f.dom.kind != "prod":
        raise CarrierMismatchError("strong_iterate needs a product domain")
    if f.cod is None or f.cod.kind != "sum":
        raise CarrierMismatchError("strong_iterate needs a sum codomain")
    m = f.monad
    y_car, _x_car = f.cod.parts
    inner_cod = sum_carrier(y_car, f.dom)

    def step(zx: Pair):
        paired = m.strength(zx.fst, f(zx))
        return m.map(paired, lambda p: case_sum(
            dist_elem(p),
            lambda cy: Inl(cy.snd),
            lambda cx: Inr(cx)))

    inner = make_kleisli(m, f.dom, inner_cod, step)
    return m.iterate(inner)


# ---------------------------------------------------------------------------
# Law results
# ---------------------------------------------------------------------------

# the outcome of a law check whose sample could not be compared, such as an
# unconverged handling; None is a pass and a string is a failure witness
SKIP = object()


class LawResult:
    __slots__ = ("law", "samples", "failures", "skipped")

    def __init__(self, law: str):
        self.law = law
        self.samples = 0
        self.failures = []
        self.skipped = 0        # samples left unchecked

    @property
    def ok(self):
        return not self.failures

    def note(self, check: Callable, *args):
        """Count one sample with the outcome of check(*args).  A check that
        raises fails, with the exception as its witness, and the run goes on."""
        try:
            outcome = check(*args)
        except Exception as exc:
            outcome = "raised %s: %s" % (type(exc).__name__, exc)
        self.samples += 1
        if outcome is SKIP:
            self.skipped += 1
        elif outcome is not None:
            self.failures.append(outcome)


class SuiteReport:
    __slots__ = ("instance", "seed", "results")

    def __init__(self, instance: str, seed: int | None = None, results=()):
        self.instance = instance
        self.seed = seed
        self.results = list(results)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    @property
    def skipped(self) -> int:
        return sum(r.skipped for r in self.results)

    def to_dict(self):
        return {
            "instance": self.instance,
            "seed": self.seed,
            "ok": self.ok,
            "laws": {r.law: {"samples": r.samples, "skipped": r.skipped,
                             "failures": r.failures}
                     for r in self.results},
        }

    def text(self) -> str:
        lines = ["suite for %s (seed %d)" % (self.instance, self.seed)]
        for r in self.results:
            status = "ok" if r.ok else "FAIL(%d)" % len(r.failures)
            lines.append("  %-32s %-8s samples=%d" % (r.law, status, r.samples))
            for w in r.failures[:3]:
                lines.append("    counterexample: %s" % w)
        return "\n".join(lines)
