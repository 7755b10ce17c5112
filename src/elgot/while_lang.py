"""A while-language with atomic actions, interpreted in resumption trees
over a configurable base monad.

The single channel value ranges over a finite alphabet.  read and write are
the built-in input/output operations; predicates are true, false, and (for
nondeterministic bases) coin, a visible binary choice operation.

A program compiles to labels, one per action, test and loop head (Elgot's
flowchart scheme), and denotes the solution of the flat system over the
seeds (label, value) (iteration.solve_system).  Pure tests and loop heads
are bare jumps, so loops need no guardedness, and nested loops are one
system by Bekic's identity.  The table fills one point at a time on first
application, so a run builds only the trees of the seeds its input
reaches.  Unknown actions and predicates are reported by interpret itself.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .core import (Carrier, Inl, Inr, KleisliFn, Pair, _Tagged, carrier,
                   kleisli_unit, make_kleisli, unit_carrier)
from .base_monads import MaybeMonad, elgot_instance
from .iteration import solve_system
from .resumption import OpDecl, OpNode, ResTree, ResumptionMonad, Signature, sig_val

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

    # each action and test maps a point to one effect as data, which
    # interpret steps into the seeds that follow it
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


# The label after the whole program, whose table exits with the value.
END = 0


def _compile(stmt: Stmt, env: Env, labels: list, nxt: int) -> int:
    """The label at which stmt starts when label nxt follows it.  An action,
    test or loop head appends one label: its table, the label after it (a
    test's false branch) and a test's true branch.  skip is no label.  A
    ';' chain is compiled from its last statement backwards in a loop, so
    only nesting recurses.  Unknown names raise here, innermost first."""
    chain = []
    while isinstance(stmt, Seq):
        chain.append(stmt.first)
        stmt = stmt.second
    for s in reversed(chain + [stmt]):
        if isinstance(s, Act):
            labels.append((_lookup_action(env, s.name), nxt, None))
            nxt = len(labels) - 1
        elif isinstance(s, If):
            on_true = _compile(s.then, env, labels, nxt)
            on_false = _compile(s.orelse, env, labels, nxt)
            labels.append((_lookup_pred(env, s.pred), on_false, on_true))
            nxt = len(labels) - 1
        elif isinstance(s, While):
            head = len(labels)
            labels.append(None)
            body = _compile(s.body, env, labels, head)
            labels[head] = (_lookup_pred(env, s.pred), nxt, body)
            nxt = head
        elif isinstance(s, Seq):        # a braced chain that a ';' follows
            nxt = _compile(s, env, labels, nxt)
        elif not isinstance(s, Skip):
            raise SemanticError("unknown statement %r" % (s,))
    return nxt


def interpret(stmt: Stmt, env: Env) -> KleisliFn:
    """[[stmt]] : alphabet -> trees, the solution of the program's flat
    system.  The seed (label, v) steps by its label's table at v: a pure
    result w is a bare jump to the seed after it, (next, w) after an
    action and (branch, v) after a test, or the exit after the last label;
    an operation is one node over the seeds after its results; a tree t is
    read one layer at a time by the seeds (t, (label, v)).  The entry's
    tables run at application."""
    rm, alpha, base = env.rm, env.alphabet, env.rm.base
    labels = [(Inl, END, None)]
    entry = _compile(stmt, env, labels, END)
    if entry == END:
        return kleisli_unit(rm, alpha)

    def step(seed):
        tree, at = (seed.fst, seed.snd) if isinstance(seed.fst, ResTree) else (None, seed)
        table, on_false, on_true = labels[at.fst]
        v = at.snd

        def after(w):
            if on_true is None:
                return Pair(on_false, w)
            return Pair(on_true if isinstance(w, Inr) else on_false, v)

        def elem(e):
            if isinstance(e, Inl):
                s = after(e.value)
                return Inl(Inl(s.snd)) if s.fst == END else Inl(Inr(s))
            node = e.value
            return Inr(OpNode(node.op, node.param, tuple(
                (a, after(c) if tree is None else Pair(c, at)) for a, c in node.children)))

        if tree is None:
            e = table(v)
            if not isinstance(e, ResTree):
                return base.unit(elem(e))
            tree = e
        return base.map(tree.out(), elem)

    solution = solve_system(rm, step)

    def at(v):
        seed = Pair(entry, v)
        solution.layer(seed)
        return solution(seed)

    return make_kleisli(rm, alpha, alpha, at)


def run(program: str | Stmt, env: Env, value: str, depth: int) -> str:
    """Parse if needed, interpret, truncate at the given depth, render."""
    stmt = parse(program) if isinstance(program, str) else program
    if value not in env.alphabet.elements:
        raise SemanticError("input %r is not in the alphabet" % value)
    sem = interpret(stmt, env)
    return env.rm.render(sem(value), depth)
