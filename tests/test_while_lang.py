import random

import pytest
from hypothesis import given, settings, strategies as st

from elgot.core import CarrierMismatchError, Inl, Inr
from elgot.while_lang import (Act, If, Seq, Skip, While, SemanticError,
                              WhileSyntaxError, interpret, make_env, parse, run)

from conftest import tokens_drawn
from test_differential import reference


def test_parse_skip():
    assert parse("skip") == Skip()


def test_parse_section_program():
    stmt = parse("read; while true do { if b then skip else write }")
    assert stmt == Seq(Act("read"),
                       While("true", If("b", Skip(), Act("write"))))


def test_parse_seq_right_associative():
    assert parse("a; b; c") == Seq(Act("a"), Seq(Act("b"), Act("c")))


def test_parse_comments_and_whitespace():
    src = "# leading comment\n  read ;\n\twrite # trailing\n"
    assert parse(src) == Seq(Act("read"), Act("write"))


@pytest.mark.parametrize("bad", ["while do", "if x then skip", "skip;",
                                 "{skip", "while true do", "3", "if then"])
def test_parse_errors_have_positions(bad):
    with pytest.raises(WhileSyntaxError) as exc:
        parse(bad)
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_identifiers_follow_the_readme_grammar():
    # identifiers are [a-z][a-z0-9_]*; a non-ASCII letter is no identifier
    with pytest.raises(WhileSyntaxError) as exc:
        parse("café")
    assert (exc.value.line, exc.value.col) == (1, 4)
    assert "unexpected character 'é'" in str(exc.value)
    assert parse("x_1; a0") == Seq(Act("x_1"), Act("a0"))


def test_end_of_input_is_placed_after_a_trailing_comment():
    with pytest.raises(WhileSyntaxError) as exc:
        parse("skip; # done")
    assert str(exc.value) == "1:13: expected a statement, got 'eof'"


_SOURCE_WORDS = ("skip", "if", "then", "else", "while", "do", "true", "coin",
                 "read", "write", "x_1", "B", ";", "{", "}", "#", "\n", " ", "\t")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=100),
    st.lists(st.sampled_from(_SOURCE_WORDS), max_size=16).map(" ".join)))
def test_parse_returns_a_statement_or_a_syntax_error(source):
    try:
        stmt = parse(source)
    except WhileSyntaxError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        assert isinstance(stmt, (Skip, Act, Seq, If, While))


def test_interpret_skip_is_unit():
    env = make_env("finset", alphabet=("0", "1"))
    sem = interpret(Skip(), env)
    for v in env.alphabet.elements:
        assert env.rm.bisimilar(sem(v), env.rm.unit(v), 6)


def test_while_true_skip_is_divergence():
    for base in ("maybe", "finset"):
        env = make_env(base, alphabet=("0", "1"))
        sem = interpret(parse("while true do skip"), env)
        for v in env.alphabet.elements:
            assert env.rm.out(sem(v)) == env.rm.base.bottom()


def test_run_skip_and_write():
    env = make_env("finset", alphabet=("0", "1"))
    assert run("skip", env, "0", 2) == "{(leaf 0)}"
    assert run("write", env, "0", 2) == "{(op write 0 {(leaf 0)})}"


def test_run_read_branches_on_alphabet():
    env = make_env("finset", alphabet=("0", "1"))
    assert run("read", env, "1", 2) == "{(op read * {(leaf 0)} {(leaf 1)})}"


def test_seq_unit_laws():
    env = make_env("finset", alphabet=("0", "1"))
    p = parse("write; read")
    lhs = interpret(Seq(p, Skip()), env)
    mid = interpret(p, env)
    rhs = interpret(Seq(Skip(), p), env)
    for v in env.alphabet.elements:
        assert env.rm.bisimilar(lhs(v), mid(v), 6)
        assert env.rm.bisimilar(rhs(v), mid(v), 6)


def test_while_false_returns_immediately():
    env = make_env("finset", alphabet=("0", "1"))
    sem = interpret(parse("while false do write"), env)
    for v in env.alphabet.elements:
        assert env.rm.bisimilar(sem(v), env.rm.unit(v), 6)


@pytest.mark.parametrize("pred,body", [("coin", "write"), ("true", "write"),
                                       ("coin", "if coin then skip else write")])
def test_while_unfolding_law(pred, body):
    # while b do p  ~  if b then { p; while b do p } else skip
    env = make_env("finset", alphabet=("0", "1"))
    loop = While(pred, parse(body))
    unrolled = If(pred, Seq(parse(body), loop), Skip())
    lhs = interpret(loop, env)
    rhs = interpret(unrolled, env)
    for v in env.alphabet.elements:
        for d in (1, 3, 5):
            assert env.rm.bisimilar(lhs(v), rhs(v), d)


def test_section_program_has_both_branch_kinds():
    env = make_env("finset", alphabet=("0", "1"))
    prog = "read; while true do { if coin then skip else write }"
    out = run(prog, env, "0", 3)
    # the false branch of coin writes, the true branch loops silently
    assert "(op write" in out
    assert "{(op coin * {(cut)} {(cut)})}" in out


def test_coin_rejected_under_maybe():
    env = make_env("maybe", alphabet=("0", "1"))
    assert "coin" not in env.predicates
    with pytest.raises(SemanticError) as exc:
        interpret(parse("while coin do skip"), env)
    assert "coin" in str(exc.value)


def test_unknown_names_are_semantic_errors():
    env = make_env("finset", alphabet=("0", "1"))
    with pytest.raises(SemanticError):
        interpret(parse("launch"), env)
    with pytest.raises(SemanticError):
        interpret(parse("if mystery then skip else skip"), env)


def test_user_supplied_tables():
    env = make_env("finset", alphabet=("0", "1"))
    swap = {"0": "1", "1": "0"}
    env.actions["swap"] = lambda v: env.rm.unit(swap[v])
    env.predicates["zero"] = lambda v: env.rm.unit(Inr("*") if v == "0" else Inl("*"))
    out = run("if zero then swap else skip", env, "0", 2)
    assert out == "{(leaf 1)}"


def test_run_validates_input():
    env = make_env("finset", alphabet=("0", "1"))
    with pytest.raises(SemanticError):
        run("skip", env, "7", 2)


def test_default_alphabet_is_eight_symbols():
    env = make_env("finset")
    assert env.alphabet.elements == tuple(str(i) for i in range(8))


def test_denotations_are_built_one_point_at_a_time():
    env = make_env("finset")                  # the default 8-letter alphabet
    drawn, sem = tokens_drawn(lambda: interpret(parse("read; write"), env))
    assert drawn == 0
    t = sem("3")
    assert list(sem.table) == ["3"]
    assert sem("3") is t
    with pytest.raises(CarrierMismatchError):
        sem("zz")
    assert list(sem.table) == ["3"]


def test_a_key_error_while_building_a_point_propagates():
    env = make_env("finset", alphabet=("0", "1"))
    missing = KeyError("missing")

    def boom(_v):
        raise missing

    env.actions["boom"] = boom
    sem = interpret(parse("skip; boom"), env)
    with pytest.raises(KeyError) as exc:
        env.rm.out(sem("0"))
    assert exc.value is missing
    with pytest.raises(KeyError) as exc:
        interpret(parse("boom"), env)("1")
    assert exc.value is missing


def test_a_point_outside_the_alphabet_is_a_carrier_mismatch():
    env = make_env("finset", alphabet=("0", "1"))
    for source in ("skip", "write", "skip; write", "if true then skip else write",
                   "while false do write"):
        sem = interpret(parse(source), env)
        with pytest.raises(CarrierMismatchError, match="^2 is not an element of carrier n$"):
            sem("2")


STATES = ("s0", "s1")


def make_test_env(base, alphabet=("0", "1")):
    return make_env(base, alphabet=alphabet,
                    state_set=STATES if base == "nondetstate" else None)


def random_program(rng, size, coin):
    """A random statement of at most `size` nodes over the built-in names,
    as the tuple that bench/reference.py reads."""
    if size <= 1 or rng.random() < 0.25:
        return rng.choice((("skip",), ("act", "read"), ("act", "write")))
    pred = rng.choice(("true", "false", "coin") if coin else ("true", "false"))
    kind = rng.randrange(3)
    if kind == 0:
        return ("seq", random_program(rng, size // 2, coin),
                random_program(rng, size // 2, coin))
    if kind == 1:
        return ("if", pred, random_program(rng, size // 2, coin),
                random_program(rng, size // 2, coin))
    return ("while", pred, random_program(rng, size - 1, coin))


def assert_matches_reference(env, base, stmt, depth=4):
    """stmt interpreted at every input renders as the configuration graph
    of bench/reference.py does."""
    sem = interpret(parse(reference.source(stmt)), env)
    alphabet = env.alphabet.elements
    for v in alphabet:
        want = reference.render(stmt, base, alphabet, STATES, v, depth)
        assert env.rm.render(sem(v), depth) == want, (reference.source(stmt), v)


@pytest.mark.parametrize("base", ("maybe", "finset", "nondetstate"))
def test_interpreting_with_a_continuation_is_lifting_by_it(base):
    # [[s; rest]] = [[rest]]* . [[s]], the Kleisli composite, and it renders
    # as the configuration graph of bench/reference.py does
    rng = random.Random("continuation:%s" % base)
    coin = base != "maybe"
    for _ in range(40):
        env = make_test_env(base)
        stmt, rest = random_program(rng, 8, coin), random_program(rng, 4, coin)
        assert_matches_reference(env, base, ("seq", stmt, rest))
        whole, sem, k = (interpret(parse(reference.source(s)), env)
                         for s in (("seq", stmt, rest), stmt, rest))
        for v in env.alphabet.elements:
            assert env.rm.bisimilar(whole(v), env.rm.bind(sem(v), k), 6), (stmt, rest, v)


def test_a_statement_is_lifted_once_into_the_rest_of_the_program():
    # the program is one flat system and each seed reached is one tree:
    # the root (the outer loop at 0, which the inner loop's exit at 0 reaches
    # again), the inner loop at 0 and 1 below the read, each write, and the
    # outer loop at 1; no statement's trees are built only to be copied
    env = make_env("finset", alphabet=("0", "1"))
    stmt = parse("while true do {read; while coin do write}; write")
    drawn, _ = tokens_drawn(lambda: env.rm.truncate(interpret(stmt, env)("0"), 4))
    assert drawn == 6


def test_a_skip_chain_costs_nothing():
    env = make_env("finset", alphabet=("0", "1"))
    assert run("; ".join(["skip"] * 2000), env, "0", 1) == "{(leaf 0)}"
