"""The paper's construction against independent operational semantics.

`bench/reference.py` imports nothing from the package: it renders the
truncation `elgot run` prints from a configuration graph of the while
program, and checks `elgot bsp` output against the path counts of the
spec's tables.  Here the benchmark's seeded generators draw small inputs,
and every in-process CLI output must agree with those oracles, so a fault
in guarding, base iteration or lifting shows as a mismatch.  The benchmark
modules are imported read-only, without writing bytecode next to them.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from elgot.cli import main

BENCH = Path(__file__).parent.parent / "bench"


def _import_bench():
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
        import workloads
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    return reference, workloads


reference, workloads = _import_bench()

STATES = ("s0", "s1")


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("base", ("maybe", "finset", "nondetstate"))
def test_run_matches_the_configuration_graph(base, tmp_path):
    rng = random.Random("run:%s" % base)
    prog = tmp_path / "prog.whl"
    for n in range(100):
        nesting = n % 4
        stmt = workloads.while_program(rng, nesting, nesting > 0 and n % 8 >= 4,
                                       base != "maybe")
        alphabet = tuple(str(i) for i in range(rng.randint(1, 3)))
        value = rng.choice(alphabet)
        depth = rng.randint(0, 5)
        prog.write_text(reference.source(stmt) + "\n")
        argv = ["run", str(prog), "--base", base, "--input", value,
                "--depth", str(depth), "--alphabet", ",".join(alphabet)]
        if base == "nondetstate":
            argv += ["--state-set", ",".join(STATES)]
        want = reference.render(stmt, base, alphabet, STATES, value, depth)
        assert _stdout(argv) == want + "\n", (reference.source(stmt), argv)


@pytest.mark.parametrize("fmt", ("text", "dot", "csv"))
def test_bsp_matches_the_path_counts(fmt, tmp_path):
    rng = random.Random("bsp:%s" % fmt)
    for n in range(20):
        spec = workloads.bsp_spec(rng, rng.randint(1, 12), rng.randint(1, 6))
        depth = rng.randint(0, 3)
        if n % 2:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
        else:
            path = tmp_path / "spec.bsp"
            path.write_text(workloads.bsp_text(spec))
        out = _stdout(["bsp", str(path), "--depth", str(depth), "--format", fmt])
        assert reference.bsp_check(spec, depth, fmt, out) is None, (spec, depth)
