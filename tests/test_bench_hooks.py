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
for name in ("resumption.truncate.calls", "core.canon_key.calls",
             "base_monads.finset.calls"):
    assert metrics[name] > 0, (name, metrics)
raise SystemExit(code)
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
