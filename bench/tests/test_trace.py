"""Checks on the benchmark itself: exact repeatability of the traced
counts, seeded generation, the references against the golden files,
BENCHMARK.json against the tracer, and the scaling of timings to the
reference speed.

    python3 -m pytest -q bench/tests
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref                              # noqa: E402
import run                                           # noqa: E402
import tracing                                       # noqa: E402
import workloads                                     # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    counts = [name for name, unit in tracing.PER_LAYER if unit == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert set(first) == {name for name, _unit in tracing.PER_LAYER}
    # every layer is entered in every workload, if only by the canaries
    for name in ("base_monads.kleene_iterate.binds", "resumption.steps_run",
                 "handler.zeta.calls", "bsp.edges", "cli.main.calls", "laws.samples"):
        assert first[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_inputs(workload):
    def inputs(seed):
        return json.dumps(workloads.generate(workload, seed, ROOT), sort_keys=True)
    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_while_reference_matches_golden():
    # read; while true do { if coin then skip else write }
    prog = ("seq", ("act", "read"),
            ("while", "true", ("if", "coin", ("skip",), ("act", "write"))))
    golden = (ROOT / "tests" / "golden" / "sect7_depth3.txt").read_text()
    got = ref.render(prog, "finset", tuple(str(i) for i in range(8)), (), "0", 3)
    assert got + "\n" == golden


def test_handle_reference_matches_golden():
    doc = json.loads((ROOT / "tests" / "golden" / "handle_toss.json").read_text())
    assert ref.render_value(ref.fold_tree(doc)) == "{heads}"
    assert ref.render_value(ref.fold_tree(doc, -1)) == "{}"


def test_bsp_reference_accepts_golden_and_rejects_a_wrong_edge():
    spec = {"actions": ["a", "b"], "states": 2, "b": [["a", "b"], ["a"]], "j": [[1, 0], [1]]}
    dot = (ROOT / "tests" / "golden" / "two_state_depth1.dot").read_text()
    assert ref.bsp_check(spec, 1, "dot", dot) is None
    assert ref.bsp_check(spec, 1, "dot", dot.replace('s1_2 [label="a"]',
                                                     's1_2 [label="b"]')) is not None


def as_tuple(stmt):
    from elgot.while_lang import Act, If, Seq, Skip, While
    if isinstance(stmt, Skip):
        return ("skip",)
    if isinstance(stmt, Act):
        return ("act", stmt.name)
    if isinstance(stmt, Seq):
        return ("seq", as_tuple(stmt.first), as_tuple(stmt.second))
    if isinstance(stmt, If):
        return ("if", stmt.pred, as_tuple(stmt.then), as_tuple(stmt.orelse))
    assert isinstance(stmt, While)
    return ("while", stmt.pred, as_tuple(stmt.body))


def test_generated_programs_parse_back_to_themselves():
    from elgot.while_lang import parse
    rng = random.Random(0)
    for n in range(40):
        nesting = n % 4
        stmt = workloads.while_program(rng, nesting, n % 2 == 1, n % 3 != 0)
        assert ref.loop_nesting(stmt) == nesting
        assert as_tuple(parse(ref.source(stmt))) == stmt


def test_benchmark_json_names_every_traced_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == ["laws", "interp", "bsp", "handle"]


def test_latencies_scale_by_the_calibration_around_them():
    ref_c = run.REFERENCE_CALIBRATION_S
    calibration = [[0.0, ref_c], [0.1, ref_c], [5.0, 2 * ref_c], [5.1, 2 * ref_c]]
    samples = {"a": [[0.05, 0.010], [5.05, 0.020]], "b": [[5.02, 0.004]]}
    scaled = run.item_latencies(samples, calibration)
    assert scaled == [pytest.approx([0.010, 0.010]), pytest.approx([0.002])]
    # each item weighs one, however many runs it has
    assert run.quantile(scaled, 0.5) == pytest.approx(0.002)
    assert run.quantile(scaled, 0.9) == pytest.approx(0.010)
