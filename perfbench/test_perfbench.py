"""Self-tests of the benchmark harness, apart from the library's test suite.

    python3 -m pytest -q perfbench

The traced-run test runs each workload three times in this process and
takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer, traced  # noqa: E402
from workloads import WORKLOADS, make_config, n_jobs  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def bindings():
    """Every fraclap module attribute that holds a traced function."""
    return {
        (name, fn): getattr(mod, fn)
        for name, mod in sys.modules.items()
        if name == "fraclap" or name.startswith("fraclap.")
        for functions in LAYERS.values()
        for fn in functions
        if hasattr(mod, fn)
    }


def test_self_time_of_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf(duration):
        now[0] += duration

    def parent():
        now[0] += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        now[0] += 0.5

    traced_leaf = tracer.wrap("l.leaf", leaf)
    tracer.wrap("l.parent", parent)()
    traced_leaf(4.0)

    assert tracer.calls == {"l.leaf": 3, "l.parent": 1}
    assert tracer.self_s == {"l.leaf": 9.0, "l.parent": 1.5}
    assert tracer.top_s == 6.5 + 4.0


def test_wrappers_restored_when_the_traced_code_raises(cli):
    before = bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert cli.decompose is not before[("fraclap.cli", "decompose")]
            raise RuntimeError
    assert all(bindings()[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs(cli, tmp_path, workload):
    """As in a traced benchmark run, an untraced repetition comes first.
    Two traced ones then repeat their call counts exactly, pass the output
    checks, leave every binding restored, and give the metrics that
    BENCHMARK.json declares."""
    config = make_config(workload, 3)
    with open(tmp_path / "config.json", "w") as fh:
        json.dump(config, fh)
    reps = worker.Repetitions(cli, tmp_path / "config.json", tmp_path / "out", n_jobs(config))
    before = bindings()
    tracers = [Tracer(), Tracer()]
    with contextlib.redirect_stdout(io.StringIO()):
        reps.run()
        for tracer in tracers:
            reps.run(tracer)
    after = bindings()

    assert [s["failed"] for s in reps.samples] == [0, 0, 0]
    assert tracers[0].calls == tracers[1].calls
    assert tracers[0].calls["spectral.decompose"] >= 1
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    with open(worker.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    result = {"samples": reps.samples, "peak_rss_mb": 1.0, "accuracy_err": 1.0}
    printed = {
        "end_to_end": run.end_to_end(result, WORKLOADS[workload])[0],
        "per_layer": run.per_layer(result)[0],
    }
    for kind, metrics in printed.items():
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in declared[kind]
        }


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work-*", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "routes-grid400",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
