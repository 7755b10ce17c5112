"""The traced benchmark wraps package functions and methods by name; this
runs its tracer over one CLI call so that renaming a wrapped name fails
here, not only in the slower benchmark tests."""

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


def test_bench_tracer_installs_and_traces_a_handle_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PKG / "src"), str(PKG / "bench")])
    r = subprocess.run([sys.executable, "-c", SCRIPT], cwd=PKG, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "{heads}\nconverged\n"
