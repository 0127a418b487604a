"""One workload in a fresh interpreter: set up, measure, check, report.

Started by run.py as

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints one JSON object as its last line of standard output.  The set-up
time runs from the start of main() to the moment the inputs are built, so it
is `import reesag` (with the benchmark's own modules) plus building the inputs.
With TRACE 0 the batch repeats for SECONDS; with TRACE 1 it repeats for half
of SECONDS untraced and half traced, then the process layer is probed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CPUS = sorted(os.sched_getaffinity(0))


class Tally:
    """Every task's outcome: matched its reference, hit a known defect, or went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.known: dict[str, str] = {}
        self.wrong: dict[str, str] = {}
        self.failed = 0

    def judge(self, tasks, outs) -> None:
        for task, out in zip(tasks, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                msg = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    msg = task.check(out)
                except Exception as exc:  # a malformed output must count as a failure, not end the run
                    msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is None:
                continue
            self.failed += 1
            (self.known if msg == task.known else self.wrong)[task.name] = msg


def settle(tasks) -> None:
    """Compute every reference, then move all live objects out of the collector's reach.

    Without the freeze, the references and the benchmark's own objects would
    be traversed by every automatic collection inside the timed batches.
    """
    for task in tasks:
        task.prepare()
    gc.collect()
    gc.freeze()


def run_batch(tasks) -> tuple[float, array, list]:
    gc.collect()
    clock = time.perf_counter
    latencies, outs = array("d"), []
    start = clock()
    for task in tasks:
        t = clock()
        try:
            out = task.run()
        except Exception as exc:  # the exception is the output; Tally counts it as a failure
            out = exc
        latencies.append(clock() - t)
        outs.append(out)
    return clock() - start, latencies, outs


def run_phase(tasks, seconds: float, tally: Tally) -> tuple[int, array]:
    """Whole batches while the next one is expected to end within `seconds` of batch time.

    Returns the number of batches and each task's fastest latency over them.
    On a shared host each CPU of a virtual machine can run up to a third
    slower, in spells of its own that last from seconds to minutes.  A median
    follows the share of slow time in the run; a task's fastest repetition is
    the time it takes when nothing slows it.  Each batch runs on the next CPU
    in turn (CLI children inherit it), so that a run does not spend all of its
    time on a slow one.
    """
    walls: list[float] = []
    best = array("d", [math.inf]) * len(tasks)
    try:
        while not walls or sum(walls) + median(walls) <= seconds:
            os.sched_setaffinity(0, {CPUS[len(walls) % len(CPUS)]})
            wall, lat, outs = run_batch(tasks)
            tally.judge(tasks, outs)
            walls.append(wall)
            best = array("d", map(min, best, lat))
    finally:
        os.sched_setaffinity(0, CPUS)
    return len(walls), best


def nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def process_layer(seed: int, workdir: Path, tally: Tally) -> dict[str, float]:
    """Interpreter start, reesag's import (with numpy's share) and in-process main().

    The CLI children of the probe are checked like any task, so that every
    traced run also checks every CLI verb.
    """
    import workloads

    probe = workloads.cli(seed, workdir, importtime=True)
    _, _, outs = run_batch(probe)
    tally.judge(probe, outs)
    imports = [workloads.import_ms(out.stderr) for out in outs if isinstance(out, workloads.Outcome)]
    argvs = [argv for argv, *_ in workloads.cli_entries(seed, workdir)]
    env = workloads.cli_env()
    return {
        "cli.interp_ms": workloads.interp_ms(env, workdir),
        "cli.import_ms": median(i["reesag"] for i in imports),
        # an invocation that never imports numpy pays nothing for it
        "cli.import_numpy_ms": median(i.get("numpy", 0.0) for i in imports),
        "cli.main_ms": workloads.main_ms(argvs),
    }


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import workloads

    workdir = ROOT / ".perfbench" / f"work-{name}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        tasks = workloads.BUILDERS[name](seed, workdir)
        setup_s = time.perf_counter() - t0
        if "--setup-only" in argv:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        traced_tasks = workloads.cli(seed, workdir, importtime=True) if trace and name == "cli" else tasks
        settle([*tasks, *traced_tasks])
        tally = Tally()
        result: dict = {"setup_s": setup_s, "reesag": workloads.reesag.__file__}
        if not trace:
            batches, best = run_phase(tasks, seconds, tally)
            rss = peak_rss_mb(children=name == "cli")  # before the percentiles below allocate
            result.update(batches=batches, wall_s=math.fsum(best), p50_ms=nearest_rank(best, 0.5) * 1000,
                          p90_ms=nearest_rank(best, 0.9) * 1000, peak_rss_mb=rss)
        else:
            from tracer import Tracer, census

            batches, best = run_phase(tasks, seconds / 2, tally)
            tracer = Tracer()
            tracer.install()
            try:
                census()
                traced_batches, traced_best = run_phase(traced_tasks, seconds / 2, tally)
            finally:
                tracer.uninstall()
            layers = tracer.metrics()
            tracer.write(ROOT / ".perfbench" / f"spans-{name}-seed{seed}.csv.gz")
            layers["trace.overhead_frac"] = math.fsum(traced_best) / math.fsum(best) - 1
            layers.update(process_layer(seed, workdir, tally))
            result.update(batches=batches, traced_batches=traced_batches, layers=layers)
        result.update(attempted=tally.attempted, failed=tally.failed, known=tally.known, wrong=tally.wrong)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
