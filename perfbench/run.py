"""Run the reesag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  Every workload starts a fresh worker process (worker.py) between a few
set-up-only workers, prints each metric by name with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones in BENCHMARK.json, with --trace 1 the
per-layer ones.  The program is imported from src/ of the checkout that holds
this directory; without it, or without BENCHMARK.json, the run fails with
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CPUS = sorted(os.sched_getaffinity(0))
# set-up-only workers, half before and half after the measuring one and each
# on the next CPU in turn, so that setup_s, the fastest of all eleven set-ups,
# samples the whole run and every CPU (worker.py says why)
SETUP_PROBES = 10
# measured like the workloads in BENCHMARK.json but left out of it: one CLI
# child at a time spreads too widely on a shared host to judge a change by
EXTRA_WORKLOADS = ("cli",)
RUN_LIMIT_S = 170  # every workload ends well inside the 180 s a run may take


def worker(args: list[str], deadline: float, cpu: int | None = None) -> dict:
    """Run worker.py in its own session, on `cpu` alone if given.

    Past the deadline, kill it and its CLI children.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # inherited by the worker
    try:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
    finally:
        os.sched_setaffinity(0, CPUS)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {' '.join(args)} passed the {RUN_LIMIT_S} s limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    args = [name, str(seed), repr(seconds), "1" if trace else "0"]
    probes = 0 if trace else SETUP_PROBES // 2
    setups = [worker([*args, "--setup-only"], deadline, CPUS[i % len(CPUS)])["setup_s"] for i in range(probes)]
    res = worker(args, deadline)
    setups += [worker([*args, "--setup-only"], deadline, CPUS[i % len(CPUS)])["setup_s"]
               for i in range(probes, 2 * probes)]
    if not Path(res["reesag"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"reesag was imported from {res['reesag']}, not from {ROOT / 'src'}")
    if trace:
        values, declared = res["layers"], spec["per_layer"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": min([*setups, res["setup_s"]]),
            "task_p50_ms": res["p50_ms"],
            "task_p90_ms": res["p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}: {res['batches']} batches"
          + (f" untraced, {res['traced_batches']} traced" if trace else "")
          + f", {res['attempted']} tasks, {res['failed']} failed")
    for metric, entry in metrics.items():
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':<48} {res['failed'] / res['attempted']:.6g} frac")
    for task, msg in sorted(res["known"].items()):
        print(f"  known defect, counted as failed: {task}: {msg}")
    for task, msg in sorted(res["wrong"].items()):
        print(f"  WRONG: {task}: {msg}")
    return {"correct": not res["wrong"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, ROOT / "src" / "reesag" / "__init__.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, *EXTRA_WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    todo = names if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in todo}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[todo[0]] if len(todo) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
