"""spiderbp benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload tree-cli|loopy-sync|jtree-grid \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop: one client,
one single-threaded process, each op issued when the previous one returns.

1. ``workloads.write_plan`` draws the models from the seed, writes them
   under ``.bench_work/`` and computes each op's reference answer without
   the engine.
2. Set-up alone (import spiderbp, parse the workload's files) runs in six
   fresh processes; the measured process sets up once more. ``setup_s`` is
   the median of the seven.
3. The measured process (``worker.py``) runs whole passes over the op list
   for S seconds and checks every op's output.

Every reported time is scaled to reference host speed by a fixed task
timed next to it (``calibration.py``), so that the host's drift between
runs does not pass for a change in the program.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. ``failed`` counts every op that missed its reference;
``correct`` is false only when some op failed in a way that is not one of
the known defects in ``checks.KNOWN_DEFECTS``. The lines before it repeat
the metrics with units, the failure rate and the failing ops by name.
"""

from __future__ import annotations

import os

# one thread everywhere: set before numpy loads, inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from calibration import calibration_ms, scaled_ms  # noqa: E402
from checks import KNOWN_DEFECTS  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, write_plan  # noqa: E402

END_TO_END_METRICS = (
    ("solve_ms.p50", "ms"),
    ("solve_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROCESSES = 6
#: every run ends well inside the 180 s a run may take
BUDGET_S = 170.0
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _worker(plan, mode, seconds, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, WORKER, plan, "--mode", mode, "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    spawn_cal_ms = calibration_ms()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise RuntimeError(f"{mode} process exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawn_cal_ms"] = spawn_cal_ms
    return result


def scaled_op_ms(records, end_cal_ms):
    """Each op's wall time at reference host speed.

    The host-speed task ran just before each op and once after the last, so
    each op is scaled by the mean of the task's times on either side of it.
    """
    cal = [r["cal_ms"] for r in records] + [end_cal_ms]
    return [scaled_ms(r["ms"], (cal[i] + cal[i + 1]) / 2) for i, r in enumerate(records)]


def scaled_setup_s(samples):
    """Each set-up time at reference host speed: scaled by the mean of the
    task's time in this process just before the set-up's process started
    and in that process just after its set-up."""
    return [scaled_ms(s["setup_s"], (s["spawn_cal_ms"] + s["setup_cal_ms"]) / 2) for s in samples]


def end_to_end(op_ms, ops_per_pass, setup_samples, peak_rss_mb, tail_q):
    """The end-to-end metrics from per-op times of whole passes.

    ``ops_per_s`` is the op list's length over the median time one pass
    over it takes, so a burst of host load in one pass moves it little.
    """
    ms = np.asarray(op_ms)
    pass_s = ms.reshape(-1, ops_per_pass).sum(axis=1) / 1e3
    return {
        "solve_ms.p50": float(np.percentile(ms, 50)),
        "solve_ms.tail": float(np.percentile(ms, tail_q)),
        "ops_per_s": ops_per_pass / float(np.median(pass_s)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def _report(workload, records, metrics, units, tail_q, op_ms=None):
    """Human-readable lines before the result line."""
    failed = [r for r in records if r["status"] != "pass"]
    print(f"# {workload}: {len(records)} ops checked, fail_rate {len(failed) / len(records):.4f}")
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {units[name]}")
    if tail_q is not None:
        tail = metrics["solve_ms.tail"]
        beyond = sum(1 for ms in op_ms if ms > tail)
        note = "" if beyond >= 10 else "  (fewer than 10: tail is not resolved)"
        print(f"# solve_ms.tail is p{tail_q} of {len(records)} ops; {beyond} ops above it{note}")
    by_op = {}
    for r in failed:
        by_op.setdefault((r["name"], r["status"]), []).append(r["detail"])
    for (name, status), details in sorted(by_op.items()):
        what = KNOWN_DEFECTS.get(status, "unexpected failure")
        print(f"# failing op {name}: {status} x{len(details)} ({what}); {details[0]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join("src", "spiderbp", "__init__.py")):
        sys.stderr.write("bench/run.py: run from the root of a spiderbp checkout (no src/spiderbp here)\n")
        return 2

    workdir = os.path.join(".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan_path = write_plan(args.workload, args.seed, workdir)
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    tail_q, ops_per_pass = plan["tail_percentile"], len(plan["ops"])

    try:
        setup_samples = [_worker(plan_path, "setup", 0, deadline) for _ in range(SETUP_PROCESSES)]
        mode = "trace" if args.trace else "run"
        main_run = _worker(plan_path, mode, args.seconds, deadline)
    except RuntimeError as err:
        sys.stderr.write(f"bench/run.py: {err}\n")
        return 1
    records = main_run["records"]
    if args.trace:
        metrics = main_run["per_layer"]
        units = {name: unit for name, unit, _better in PER_LAYER_METRICS}
        _report(args.workload, records, metrics, units, None)
    else:
        setup_samples.append({k: main_run[k] for k in ("setup_s", "setup_cal_ms", "spawn_cal_ms")})
        op_ms = scaled_op_ms(records, main_run["end_cal_ms"])
        metrics = end_to_end(
            op_ms, ops_per_pass, scaled_setup_s(setup_samples), main_run["peak_rss_mb"], tail_q
        )
        main_run["raw_metrics"] = end_to_end(
            [r["ms"] for r in records], ops_per_pass,
            [x["setup_s"] for x in setup_samples], main_run["peak_rss_mb"], tail_q,
        )
        units = dict(END_TO_END_METRICS)
        _report(args.workload, records, metrics, units, tail_q, op_ms)

    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"setup_samples": setup_samples, **main_run}, handle)
    failed = [r for r in records if r["status"] != "pass"]
    print(json.dumps({
        "correct": all(r["status"] in KNOWN_DEFECTS for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
