"""fraclap benchmark: times `fraclap run` on one workload and checks its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root.  The workload runs in a fresh child
process (worker.py) with one BLAS thread and `--threads 1`.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (run_s, setup_s,
peak_rss_mb, accuracy_err); with --trace 1 they are the per-layer ones of a
traced run.  The lines before it give the same figures for a reader, with
sample counts, the environment and the seed.  README.md in this directory
defines every metric.  Exits 1 without a result line when the workload
cannot be run at all, for instance without the fraclap sources beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, work: Path) -> dict | None:
    env = dict(os.environ, FRACLAP_THREADS="1")
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(work / "result.json") as fh:
        return json.load(fh)


def end_to_end(result: dict, accuracy: tuple[str, str]) -> tuple[dict, list[str]]:
    """Metrics of an untraced run, and the lines describing them;
    `accuracy` names the source of accuracy_err."""
    samples = result["samples"]
    run_s = [s["run_s"] for s in samples]
    setup_s = [s["setup_s"] for s in samples if s["setup_s"] is not None]
    kind, key = accuracy
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "accuracy_err": (result["accuracy_err"], "1"),
    }
    lines = [
        f"run_s        {metrics['run_s'][0]:.4f} s    median of {len(run_s)} repetitions",
        f"setup_s      {metrics['setup_s'][0]:.4f} s    median of {len(setup_s)} repetitions",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MiB  ru_maxrss of the child process",
        f"accuracy_err {metrics['accuracy_err'][0]:.6e}  max {kind} {key}",
    ]
    if (kind, key) == ("dirichlet_routes", "gap_over_osc"):
        lines.append(f"route_gap_over_osc {metrics['accuracy_err'][0]:.6e} ratio")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Metrics of a traced run: medians over its traced repetitions."""
    samples = result["samples"]
    plain = [s["run_s"] for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "count" if name.endswith(".calls") else "s"
        metrics[name] = (statistics.median(s["layers"][name] for s in traced), unit)
    overhead = statistics.median(s["run_s"] for s in traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    lines = [f"traced repetitions: {len(traced)}, untraced: {len(plain)}"]
    lines += [
        f"{name:48s} {value:.6g} {unit}" for name, (value, unit) in metrics.items() if value
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fraclap" / "__init__.py").is_file():
        print(f"no fraclap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    work = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        result = run_child(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    samples = result["samples"]
    if result["accuracy_err"] is None or all(s["setup_s"] is None for s in samples):
        print("no report to measure: the first or every timed repetition failed", file=sys.stderr)
        return 1

    attempted = result["jobs_per_rep"] * len(samples)
    failed = sum(s["failed"] for s in samples)
    if args.trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(result, WORKLOADS[args.workload])
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **result["versions"],
        "commit": git_commit(ROOT),
    }
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"failed_frac  {failed / attempted:.4g} ratio  {failed} of {attempted} jobs failed")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
