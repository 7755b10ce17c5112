import pytest

from elgot.core import carrier, unit_carrier
from elgot.base_monads import elgot_instance
from elgot.resumption import OpDecl, ResTree, ResumptionMonad, Signature


def two_op_signature():
    params = carrier("p", ("p0", "p1"))
    two = carrier("2", ("l", "r"))
    return Signature((OpDecl("act", params, unit_carrier()),
                      OpDecl("ask", unit_carrier(), two)))


def tokens_drawn(thunk):
    """(the number of tree tokens thunk() draws, its result): every tree
    built draws the next token, so two probe trees bracket the count."""
    before = ResTree().token
    result = thunk()
    return ResTree().token - before - 1, result


def resumption(base_kind: str, depth: int = 6) -> ResumptionMonad:
    return ResumptionMonad(elgot_instance(base_kind), two_op_signature(), depth=depth)


@pytest.fixture
def rm_maybe():
    return resumption("maybe")


@pytest.fixture
def rm_finset():
    return resumption("finset")
