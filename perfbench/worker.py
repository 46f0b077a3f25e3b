"""Child process of the benchmark: times repetitions of one workload's
`fraclap run` in this process and writes the raw samples as JSON.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --work DIR

`run.py` starts it in a fresh process, so that `ru_maxrss` is the peak of
this workload alone, and aggregates what it writes to DIR/result.json.
Every repetition calls `fraclap.cli.main(["run", ...])` and is checked:
it must exit 0 with no failed job, and its report.json without `metadata`
must equal the first repetition's.  With --trace 1, timed repetitions
alternate with traced ones (tracer.py); the traced report is checked the
same way.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import CLI_KINDS, Tracer, traced
from workloads import WORKLOADS, make_config, n_jobs

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """fraclap.cli from this checkout's source tree, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    from fraclap import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"fraclap imported from {cli.__file__}, not from {src}")
    return cli


class Repetitions:
    """Runs and checks repetitions of one config; keeps the samples."""

    def __init__(self, cli, config_path: Path, out_dir: Path, jobs: int):
        self.cli = cli
        self.argv = ["run", "--config", str(config_path), "--out", str(out_dir), "--threads", "1"]
        self.out_dir = out_dir
        self.jobs = jobs
        # first repetition's report without metadata, and its text
        self.reference = self.reference_body = None
        self.samples: list[dict] = []

    def run(self, tracer: Tracer | None = None) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with traced(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except Exception:  # a raising repetition is a failed one
                traceback.print_exc()
                code = None
            run_s = time.perf_counter() - start

        report = body = wall = None
        if code == 0:
            with open(self.out_dir / "report.json") as fh:
                report = json.load(fh)
            wall = report.pop("metadata")["wall_time_s"]
            # the CLI writes report.json with these settings
            body = json.dumps(report, indent=2, sort_keys=True)
        if not self.samples:
            self.reference, self.reference_body = report, body
        ok = (
            body is not None
            and body == self.reference_body
            and report["summary"]["n_failed"] == 0
            and len(report["experiments"]) == self.jobs
        )
        sample = {
            "run_s": run_s,
            "setup_s": None if wall is None else run_s - sum(wall.values()),
            "failed": 0 if ok else self.jobs,
            "traced": tracer is not None,
        }
        if tracer is not None:
            layers = tracer.layer_metrics()
            for kind in CLI_KINDS:
                layers[f"cli.{kind}_s"] = sum(
                    s for key, s in (wall or {}).items() if key.split("_", 1)[1] == kind
                )
            layers["cli.other_s"] = run_s - tracer.top_s
            sample["layers"] = layers
        self.samples.append(sample)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = import_cli()
    import numpy
    import scipy

    config = make_config(args.workload, args.seed)
    config_path = args.work / "config.json"
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["validate", "--config", str(config_path)]) != 0:
            print(f"{args.workload}: config fails `fraclap validate`", file=sys.stderr)
            return 1

    reps = Repetitions(cli, config_path, args.work / "out", n_jobs(config))

    # closed loop, one run at a time; a round is one repetition, or an
    # untraced and a traced one.  Stop once the next round would end more
    # than half a round past --seconds, after at least one compared pair.
    min_rounds = 1 if args.trace else 2
    start = time.perf_counter()
    rounds = 0
    while True:
        reps.run()
        if args.trace:
            reps.run(Tracer())
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    kind, key = WORKLOADS[args.workload]
    accuracy = None
    if reps.reference is not None:
        accuracy = max(
            e["metrics"][key] for e in reps.reference["experiments"] if e["kind"] == kind
        )
    result = {
        "samples": reps.samples,
        "jobs_per_rep": reps.jobs,
        "accuracy_err": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(args.work / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
