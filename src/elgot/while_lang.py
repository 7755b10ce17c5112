"""A while-language with atomic actions, interpreted in resumption trees
over a configurable base monad.

The single channel value ranges over a finite alphabet.  read and write are
the built-in input/output operations; predicates are true, false, and (for
nondeterministic bases) coin, a visible binary choice operation.  Loops
need no guardedness: the while rule iterates the loop step directly.
"""

from __future__ import annotations

import re
from typing import Callable, Union

from .core import (Carrier, Inl, Inr, KleisliFn, _Tagged, carrier, case_sum,
                   compose_kleisli, make_kleisli, sum_carrier, unit_carrier)
from .base_monads import MaybeMonad, elgot_instance
from .resumption import OpDecl, ResumptionMonad, Signature

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


Stmt = Union[Skip, Act, Seq, If, While]


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

    def do_write(v):
        return rm.op_call("write", v, {"*": rm.unit(v)})

    def do_read(_v):
        return rm.op_call("read", "*", {a: rm.unit(a) for a in alpha.elements})

    action_table = {"write": do_write, "read": do_read}

    pred_table = {"true": lambda v: rm.unit(TRUE),
                  "false": lambda v: rm.unit(FALSE)}
    if not deterministic:
        pred_table["coin"] = lambda v: rm.op_call(
            "coin", "*", {"ff": rm.unit(FALSE), "tt": rm.unit(TRUE)})
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


def _branch(env: Env, pred: str, on_true: Callable, on_false: Callable):
    """The predicate composite: lift the test's tree once, continuing at the
    value with the false branch on the left and the true branch on the right."""
    rm = env.rm
    test = _lookup_pred(env, pred)

    def at(v):
        return rm.bind(test(v), lambda b: case_sum(b, lambda _: on_false(v),
                                                   lambda _: on_true(v)))

    return at


def interpret(stmt: Stmt, env: Env) -> KleisliFn:
    rm = env.rm
    alpha = env.alphabet
    if isinstance(stmt, Skip):
        return make_kleisli(rm, alpha, alpha, rm.unit)
    if isinstance(stmt, Act):
        return make_kleisli(rm, alpha, alpha, _lookup_action(env, stmt.name))
    if isinstance(stmt, Seq):
        # walk the right-nested chain with a loop; composing from the last
        # statement backwards keeps the association of the nested reading
        firsts = []
        while isinstance(stmt, Seq):
            firsts.append(stmt.first)
            stmt = stmt.second
        sem = interpret(stmt, env)
        for first in reversed(firsts):
            sem = compose_kleisli(sem, interpret(first, env))
        return sem
    if isinstance(stmt, If):
        then_f = interpret(stmt.then, env)
        else_f = interpret(stmt.orelse, env)
        return make_kleisli(rm, alpha, alpha,
                            _branch(env, stmt.pred, then_f, else_f))
    if isinstance(stmt, While):
        body_f = interpret(stmt.body, env)
        exit_ = lambda v: rm.unit(Inl(v))
        again = lambda v: rm.map(body_f(v), Inr)
        step = make_kleisli(rm, alpha, sum_carrier(alpha, alpha),
                            _branch(env, stmt.pred, again, exit_))
        return rm.iterate(step)
    raise SemanticError("unknown statement %r" % (stmt,))


def run(program: Union[str, Stmt], env: Env, value: str, depth: int) -> str:
    """Parse if needed, interpret, truncate at the given depth, render."""
    stmt = parse(program) if isinstance(program, str) else program
    if value not in env.alphabet.elements:
        raise SemanticError("input %r is not in the alphabet" % value)
    sem = interpret(stmt, env)
    return env.rm.render(sem(value), depth)
