"""Benchmark entry point.

    python3 bench/run.py --workload {laws,interp,bsp,handle} --seed N \
        --seconds S --trace {0,1}

Generates the workload's items from the seed (inputs and reference outputs,
without importing the package), then drives fresh worker processes over
them: one closed loop, one client, one item at a time.  With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced process.  The last line of output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when every
output matched its reference, 1 when one did not, 2 when the benchmark could
not run (no result line then).
"""

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads                                      # noqa: E402

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def worker(mode: str, workload: str, items_path: Path, seconds: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), mode, workload,
                           str(items_path), str(seconds)],
                          cwd=items_path.parent, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (mode, proc.returncode,
                                                          proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError("worker imported the package from %s" % result["package"])
    return result


def quantile(runs: list, q: float) -> float:
    """The q-quantile of the items' latencies, each item's runs together
    weighing as much as one run of any other item."""
    weighted = sorted((dt, 1 / len(times)) for times in runs for dt in times)
    target, total = q * len(runs), 0.0
    for dt, weight in weighted:
        total += weight
        if total >= target:
            return dt
    return weighted[-1][0]


# Seconds that the worker's fixed calibration task takes at the reference
# speed (its typical time on the 2-core VM the bounds were set on).  Timings
# are reported at that speed: a time measured while the task took c seconds
# is scaled by REFERENCE_CALIBRATION_S / c.
REFERENCE_CALIBRATION_S = 0.0032
# calibrations within this many seconds of an item give its speed
CALIBRATION_WINDOW_S = 0.5


def item_latencies(samples: dict, calibration: list) -> list:
    """Each item's timed runs, each scaled to the reference speed by the
    median calibration time within CALIBRATION_WINDOW_S of its start."""
    starts = [t for t, _c in calibration]
    per_item = []
    for runs in samples.values():
        scaled = []
        for t0, dt in runs:
            lo = bisect.bisect_left(starts, t0 - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(starts, t0 + CALIBRATION_WINDOW_S)
            # the worker times the task at most CALIBRATE_EVERY_S before an
            # item starts, so the window is never empty
            near = statistics.median(c for _t, c in calibration[lo:hi])
            scaled.append(dt * REFERENCE_CALIBRATION_S / near)
        per_item.append(scaled)
    return per_item


def end_to_end(result: dict, setups: list) -> dict:
    """Timings at the reference speed; the raw wall-clock figures are
    printed alongside.  Every item weighs the same, however many runs it
    has: the last pass stops early, and the items it reached must not
    weigh more than the rest."""
    scaled = item_latencies(result["samples"], result["calibration"])
    raw = [[dt for _t, dt in runs] for runs in result["samples"].values()]
    print("%d items, %d timed passes, %d latency samples, %d set-up probes, "
          "%d calibrations" % (len(scaled), result["passes"],
                               sum(len(runs) for runs in scaled), len(setups),
                               len(result["calibration"])))
    print("machine speed: calibration task %.3f ms median, reference %.3f ms"
          % (1e3 * statistics.median(c for _t, c in result["calibration"]),
             1e3 * REFERENCE_CALIBRATION_S))
    print("raw wall clock: setup %.4f s, %.2f items/s, item p50 %.3f ms, p90 %.3f ms"
          % (statistics.median(s["setup_s"] for s in setups),
             len(raw) / sum(statistics.fmean(runs) for runs in raw),
             quantile(raw, 0.5) * 1e3, quantile(raw, 0.9) * 1e3))
    return {
        "setup_s": (statistics.median(
            s["setup_s"] * REFERENCE_CALIBRATION_S / statistics.median(s["calibration"])
            for s in setups), "s"),
        "items_per_s": (len(scaled) / sum(statistics.fmean(runs) for runs in scaled), "1/s"),
        "item_p50_ms": (quantile(scaled, 0.5) * 1e3, "ms"),
        "item_p90_ms": (quantile(scaled, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (ROOT / "src" / "elgot" / "__init__.py").is_file():
        print("error: no package source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        items = workloads.generate(args.workload, args.seed, ROOT)
        work.mkdir(parents=True)
        for item in items:
            for name, text in item.get("files", {}).items():
                (work / name).write_text(text)
        items_path = work / "items.json"
        items_path.write_text(json.dumps(items))

        result = worker("trace" if args.trace else "run", args.workload, items_path,
                        args.seconds)
        if args.trace:
            metrics = {name: tuple(vu) for name, vu in result["metrics"].items()}
            print("traced pass %.3f s, plain pass %.3f s" % (result["traced_wall"],
                                                              result["plain_wall"]))
            for name, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
                print("  self-time share %-32s %6.1f%%" % (name, 100 * share))
            print("  time in finset, inside the spans above: %.1f%%"
                  % (100 * metrics["base_monads.finset.self_s"][0] / result["traced_wall"]))
        else:
            setups = [worker("setup", args.workload, items_path, 0)
                      for _ in range(SETUP_PROBES)]
            metrics = end_to_end(result, setups)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print("error_rate %.6f (%d failed of %d attempted)" % (failed / attempted, failed,
                                                            attempted))
    for failure in result["failures"]:
        print("FAILED %s" % failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
