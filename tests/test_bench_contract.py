"""The benchmark in perfbench/ still runs against the package and accepts its outputs.

One batch of each gated workload, and of the CLI workload that every traced
run also probes, is built at seed 1, run and judged exactly as
perfbench/worker.py does; then the tracer wraps every per-layer entry point
and the census calls each of them once.  A rename or a changed return
shape of anything the benchmark calls fails here, before a benchmark run.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["closed_form", "engine_small", "engine_bulk", "cli"])
def test_one_batch_matches_references(name, tmp_path):
    tasks = workloads.BUILDERS[name](1, tmp_path)
    _, _, outs = worker.run_batch(tasks)
    tally = worker.Tally()
    tally.judge(tasks, outs)
    assert tally.attempted == len(tasks)
    assert tally.wrong == {}
    assert set(tally.known) <= {task.name for task in tasks if task.known is not None}


def test_tracer_finds_every_entry_point(capsys):
    from tracer import SPANS, Tracer, census

    tracer = Tracer()
    tracer.install()
    try:
        census()
    finally:
        tracer.uninstall()
    assert "not found" not in capsys.readouterr().err
    metrics = tracer.metrics()
    assert [name for name in SPANS if metrics[f"{name}.calls"] < 1] == []
