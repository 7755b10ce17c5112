"""The traced benchmark wraps package functions and methods by name; this
runs its tracer over CLI calls so that renaming a wrapped name fails here,
not only in the slower benchmark tests."""

import os
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).parent.parent

SCRIPT = """
import tracing
from elgot import cli
tracer = tracing.Tracer()
tracer.install()
code = cli.main(["handle", "tests/golden/handle_toss.json"])
metrics = tracer.metrics()
assert metrics["cli.main.calls"] == 1, metrics
assert metrics["handler.handle.calls"] == 1, metrics
assert metrics["resumption.out.calls"] > 0, metrics
assert metrics["resumption.trees_built"] > 0, metrics
raise SystemExit(code)
"""


RUN_SCRIPT = """
import sys
import tracing
from elgot import cli
tracer = tracing.Tracer()
tracer.install()
code = cli.main(["run", sys.argv[1], "--base", "finset", "--input", "0",
                 "--depth", "3"])
metrics = tracer.metrics()
for name in ("resumption.truncate.calls", "base_monads.finset.calls",
             "resumption.trees_built", "resumption.steps_run"):
    assert metrics[name] > 0, (name, metrics)
raise SystemExit(code)
"""


# state 0 of the spec has two transitions, so its layer is a set that is sorted
BSP_SCRIPT = """
import tracing
from elgot import cli
tracer = tracing.Tracer()
tracer.install()
code = cli.main(["bsp", "tests/golden/two_state.bsp"])
metrics = tracer.metrics()
assert metrics["core.canon_key.calls"] > 0, metrics
raise SystemExit(code)
"""


HANDLER_SUITE_SCRIPT = """
import tracing
from elgot import laws, while_lang
from elgot.base_monads import elgot_instance
from elgot.handler import maybe_to_finset
tracer = tracing.Tracer()
tracer.install()
rm = while_lang.make_env("maybe", alphabet=("0", "1")).rm
target = elgot_instance("finset")
upsilon = laws.Gen(laws.GenConfig(seed=3)).effect_interpretation(rm.sig, target)
report = laws.run_handler_suite(rm, maybe_to_finset(rm.base, target), upsilon,
                                laws.GenConfig(seed=2, samples=6), fuel=0)
metrics = tracer.metrics()
assert metrics["laws.skipped"] == report.skipped > 0, (metrics, report.to_dict())
"""


def _traced(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PKG / "src"), str(PKG / "bench")])
    return subprocess.run([sys.executable, "-c", script, *args], cwd=PKG,
                          env=env, capture_output=True, text=True)


def test_bench_tracer_installs_and_traces_a_handle_run():
    r = _traced(SCRIPT)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "{heads}\nconverged\n"


def test_bench_tracer_counts_truncation_and_canonical_keys(tmp_path):
    prog = tmp_path / "loop.whl"
    prog.write_text("while true do write")
    r = _traced(RUN_SCRIPT, str(prog))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "{(op write 0 {(op write 0 {(op write 0 {(cut)})})})}\n"
    # a run orders no set of two or more layers, so it keys nothing; bsp does
    r = _traced(BSP_SCRIPT)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("initial s0\n")


def test_bench_tracer_counts_handler_suite_skips():
    # the tracer reads skips from check_universal_triangles, so the handler
    # suite must reach it through the name the tracer rebinds
    r = _traced(HANDLER_SUITE_SCRIPT)
    assert r.returncode == 0, r.stderr


def test_bench_modules_import():
    # the benchmark imports package names directly, so renaming one of them
    # must fail here rather than in the benchmark run
    r = _traced("import worker, workloads")
    assert r.returncode == 0, r.stderr
