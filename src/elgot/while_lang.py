"""A while-language with atomic actions, interpreted in resumption trees
over a configurable base monad.

The single channel value ranges over a finite alphabet.  read and write are
the built-in input/output operations; predicates are true, false, and (for
nondeterministic bases) coin, a visible binary choice operation.  Loops
need no guardedness: the while rule iterates the loop step directly.

A program's denotation is a Kleisli composite, and Kleisli extension is
associative, so interpret builds k* . [[s]] by handing the rest of the
program k to s as its continuation (the codensity idea of Voigtlaender
2008), and a skip costs nothing.  Operations are algebraic, so an action or
a test is one effect sequenced into k by bind(op(p, unit . r), k) =
op(p, k . r), and iteration is natural, so a loop is solved into k in one
lifting, its exits continuing with k.
Every table is built by core.make_kleisli and fills one point at a time
on first application, so a run builds only the trees of the points it
applies and of the points those trees reach.  Unknown actions and
predicates are still reported by interpret itself.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .core import (Carrier, Inl, Inr, KleisliFn, _Tagged, carrier, kleisli_unit,
                   make_kleisli, sum_carrier, unit_carrier)
from .base_monads import MaybeMonad, elgot_instance
from .iteration import iterate_res
from .resumption import OpDecl, ResumptionMonad, Signature, sig_val

FALSE = Inl("*")
TRUE = Inr("*")

RESERVED = frozenset({"skip", "if", "then", "else", "while", "do",
                      "true", "false", "read", "write", "coin"})


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

class Skip(_Tagged):
    __slots__ = ()


class Act(_Tagged):
    __slots__ = ()
    _fields = ("name",)


class Seq(_Tagged):
    __slots__ = ()
    _fields = ("first", "second")

    def __repr__(self):
        # _Tagged.__repr__'s text, from a loop down the right-nested chain
        opened, stmt = [], self
        while isinstance(stmt, Seq):
            opened.append("Seq(first=%r, second=" % (stmt.first,))
            stmt = stmt.second
        return "".join(opened) + repr(stmt) + ")" * len(opened)


class If(_Tagged):
    __slots__ = ()
    _fields = ("pred", "then", "orelse")


class While(_Tagged):
    __slots__ = ()
    _fields = ("pred", "body")


# the five statement classes, a tuple so that isinstance(s, Stmt) works
Stmt = (Skip, Act, Seq, If, While)


class WhileSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__("%d:%d: %s" % (line, col, msg))


class SemanticError(ValueError):
    pass


# the README grammar's tokens; any other character is a syntax error
_TOKEN = re.compile(r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<punct>[;{}])"
                    r"|(?P<ident>[a-z][a-z0-9_]*)|(?P<other>.)")


def _tokenize(source: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "punct":
            tokens.append((m.group(), m.group(), line, col))
        elif kind == "ident":
            tokens.append(("ident", m.group(), line, col))
        elif kind == "other":
            raise WhileSyntaxError("unexpected character %r" % m.group(), line, col)
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg):
        kind, text, line, col = self.peek()
        raise WhileSyntaxError(msg + (", got %r" % (text or kind)), line, col)

    def expect_word(self, word):
        kind, text, line, col = self.peek()
        if kind != "ident" or text != word:
            self.fail("expected %r" % word)
        self.next()

    def predicate(self) -> str:
        kind, text, line, col = self.peek()
        if kind != "ident":
            self.fail("expected a predicate name")
        if text in RESERVED and text not in ("true", "false", "coin"):
            self.fail("%r cannot be used as a predicate" % text)
        self.next()
        return text

    def stmt(self) -> Stmt:
        """A ';' chain, read with a loop and folded into right-nested Seq."""
        chain = [self.atom()]
        while self.peek()[0] == ";":
            self.next()
            chain.append(self.atom())
        stmt = chain.pop()
        while chain:
            stmt = Seq(chain.pop(), stmt)
        return stmt

    def atom(self) -> Stmt:
        kind, text, line, col = self.peek()
        if kind == "{":
            self.next()
            inner = self.stmt()
            if self.peek()[0] != "}":
                self.fail("expected '}'")
            self.next()
            return inner
        if kind != "ident":
            self.fail("expected a statement")
        if text == "skip":
            self.next()
            return Skip()
        if text == "if":
            self.next()
            pred = self.predicate()
            self.expect_word("then")
            then = self.atom()
            self.expect_word("else")
            orelse = self.atom()
            return If(pred, then, orelse)
        if text == "while":
            self.next()
            pred = self.predicate()
            self.expect_word("do")
            return While(pred, self.atom())
        if text in RESERVED and text not in ("read", "write"):
            self.fail("%r cannot start a statement" % text)
        self.next()
        return Act(text)


def parse(source: str) -> Stmt:
    parser = _Parser(_tokenize(source))
    stmt = parser.stmt()
    if parser.peek()[0] != "eof":
        parser.fail("trailing input")
    return stmt


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

BOOL2 = carrier("2", ("ff", "tt"))


class Env:
    __slots__ = ("rm", "alphabet", "actions", "predicates")

    def __init__(self, rm: ResumptionMonad, alphabet: Carrier, actions: dict,
                 predicates: dict):
        self.rm = rm
        self.alphabet = alphabet
        self.actions = actions
        self.predicates = predicates


def make_env(base_kind: str = "finset", alphabet=None, state_set=None) -> Env:
    """The standard environment: read/write actions over the alphabet, the
    true/false predicates, and coin on nondeterministic bases."""
    base = elgot_instance(base_kind, state_set=state_set)
    alpha = alphabet if isinstance(alphabet, Carrier) else carrier(
        "n", tuple(alphabet) if alphabet else tuple(str(i) for i in range(8)))
    deterministic = isinstance(base, MaybeMonad)
    ops = [OpDecl("write", alpha, unit_carrier()),
           OpDecl("read", unit_carrier(), alpha)]
    if not deterministic:
        ops.append(OpDecl("coin", unit_carrier(), BOOL2))
    rm = ResumptionMonad(base, Signature(tuple(ops)))

    # each action and test maps a point to one effect, which rm.perform sequences
    read = Inr(sig_val(ops[1], "*", {a: a for a in alpha.elements}))
    action_table = {"write": lambda v: Inr(sig_val(ops[0], v, {"*": v})),
                    "read": lambda v: read}
    pred_table = {"true": lambda v: Inl(TRUE), "false": lambda v: Inl(FALSE)}
    if not deterministic:
        coin = Inr(sig_val(ops[2], "*", {"ff": FALSE, "tt": TRUE}))
        pred_table["coin"] = lambda v: coin
    return Env(rm, alpha, action_table, pred_table)


# ---------------------------------------------------------------------------
# Denotations
# ---------------------------------------------------------------------------

def _lookup_action(env: Env, name: str) -> Callable:
    fn = env.actions.get(name)
    if fn is None:
        raise SemanticError("unknown action %r" % name)
    return fn


def _lookup_pred(env: Env, name: str) -> Callable:
    fn = env.predicates.get(name)
    if fn is None:
        if name == "coin":
            raise SemanticError(
                "coin needs a nondeterministic base monad, not %s" % env.rm.base.name)
        raise SemanticError("unknown predicate %r" % name)
    return fn


def _branch(env: Env, pred: str, on_true: KleisliFn, on_false: KleisliFn):
    """The predicate composite: the test's effect at the value, continued with
    the false branch on the left and the true branch on the right.  A pure
    test indexes its branch's table, one frame fewer per nested if than a call."""
    rm = env.rm
    test = _lookup_pred(env, pred)

    def at(v):
        e = test(v)
        if isinstance(e, Inl):
            return (on_true if isinstance(e.value, Inr) else on_false).table[v]
        return rm.perform(e, lambda b: on_true(v) if isinstance(b, Inr) else on_false(v))

    return at


def interpret(stmt: Stmt, env: Env, k: KleisliFn | None = None) -> KleisliFn:
    """The composite k* . [[stmt]], alphabet -> trees; k=None stands for
    unit, so interpret(stmt, env) is the denotation of stmt itself.

    The rest of the program is handed to each statement as its
    continuation k, so no statement's trees are built only to be copied
    by a lifting: skip is k itself, an action's effect is performed into
    k, a ';' chain passes each composite back as the continuation of the
    statement before it, and both branches of an if share k.  A loop body
    continues with Inr, the loop step's recursive summand, and the loop
    is solved into k, its exits continuing with k in its one lifting.
    Every table is built by make_kleisli, so it fills one point at a time
    on first application; unknown actions and predicates raise here.
    """
    rm = env.rm
    alpha = env.alphabet
    if k is None:
        k = kleisli_unit(rm, alpha)
    if isinstance(stmt, Skip):
        return k
    if isinstance(stmt, Act):
        act = _lookup_action(env, stmt.name)
        return make_kleisli(rm, alpha, k.cod, lambda v: rm.perform(act(v), k))
    if isinstance(stmt, Seq):
        # walk the right-nested chain with a loop, then interpret it from
        # the last statement backwards
        chain = []
        while isinstance(stmt, Seq):
            chain.append(stmt.first)
            stmt = stmt.second
        k = interpret(stmt, env, k)
        for first in reversed(chain):
            k = interpret(first, env, k)
        return k
    if isinstance(stmt, If):
        then_f = interpret(stmt.then, env, k)
        else_f = interpret(stmt.orelse, env, k)
        return make_kleisli(rm, alpha, k.cod, _branch(env, stmt.pred, then_f, else_f))
    if isinstance(stmt, While):
        loop_car = sum_carrier(alpha, alpha)
        again = make_kleisli(rm, alpha, loop_car, lambda v: rm.unit(Inr(v)))
        leave = make_kleisli(rm, alpha, loop_car, lambda v: rm.unit(Inl(v)))
        body_f = interpret(stmt.body, env, again)
        step = make_kleisli(rm, alpha, loop_car, _branch(env, stmt.pred, body_f, leave))
        return iterate_res(rm, step, k)
    raise SemanticError("unknown statement %r" % (stmt,))


def run(program: str | Stmt, env: Env, value: str, depth: int) -> str:
    """Parse if needed, interpret, truncate at the given depth, render."""
    stmt = parse(program) if isinstance(program, str) else program
    if value not in env.alphabet.elements:
        raise SemanticError("input %r is not in the alphabet" % value)
    sem = interpret(stmt, env)
    return env.rm.render(sem(value), depth)
