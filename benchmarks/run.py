"""Benchmark of demazure_crystals: one workload, one seed, one closed loop.

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Repetitions run one after another, each in a fresh interpreter (see
`worker.py`), on one thread, until `--seconds` have passed.  With `--trace 0`
every repetition is untraced and the end-to-end metrics are the medians over
repetitions.  With `--trace 1` untraced and traced repetitions alternate, at
least two of each kind; the per-layer metrics come from the traced ones, whose
counts must repeat exactly, and the phase times and the tracing overhead from
comparing the two kinds.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Earlier lines are a readable summary.
The full record, with the environment, the seed and every sample, is written
to `.bench_results/` under the checkout.  The exit code is non-zero, and no
result is printed, when the package cannot be loaded or no repetition
completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers
from worker import PHASES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "benchmarks", "worker.py")
RESULTS = os.path.join(ROOT, ".bench_results")

# Set-up is short and noisy, so its median is taken over at least this many
# fresh interpreters; set-up-only ones top up the workload repetitions.
SETUP_SAMPLES = 15
# Every run must end within 180 s: no repetition is expected to end after
# this point, and none is allowed to run past it.
HARD_LIMIT_S = 150.0


class SetupFailed(RuntimeError):
    """The worker could not load the package from this checkout."""


def run_worker(workload: str, seed: int, mode: str, timeout: float, spans_out=None):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition timed out after {timeout:.0f} s"
    if proc.returncode == 3:
        raise SetupFailed(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} repetition exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def quartiles(results: list[dict], key: str) -> dict:
    """Quartiles over repetitions of a reported value, and its raw median.

    Workers report times scaled to a reference machine speed (see
    `worker.Meter`); `raw_median` is the median of the unscaled times.
    """
    values = [r[key] if key in r else r["phases"][key] for r in results]
    raw = [r["raw"].get(key, v) for r, v in zip(results, values)]
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "raw_median": statistics.median(raw)}


def environment() -> dict:
    src = os.path.join(ROOT, "src", "demazure_crystals")
    lines = 0
    for name in sorted(os.listdir(src)) if os.path.isdir(src) else ():
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    sha = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        out = top.stdout.split()
        # Only this checkout's own repository counts, not one that contains it.
        if top.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            sha = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    samples = {"run": [], "trace": [], "setup": []}
    errors: list[str] = []
    attempted = failed = 0

    def repetition(mode: str, spans_out=None) -> None:
        nonlocal attempted, failed
        result, error = run_worker(
            args.workload, args.seed, mode, HARD_LIMIT_S - (time.monotonic() - start), spans_out
        )
        attempted += 1 if result is None or mode == "setup" else result["attempted"]
        if result is None:
            failed += 1
            errors.append(error)
            return
        if mode != "trace":  # wrapping the layers is part of a traced set-up
            samples["setup"].append(result)
        if mode != "setup":
            failed += len(result["failures"])
            errors.extend(result["failures"])
            samples[mode].append(result)

    def elapsed() -> float:
        return time.monotonic() - start

    def another(step: float, done: bool) -> bool:
        """Start another step only if it should end within `--seconds`."""
        return elapsed() + step < HARD_LIMIT_S and (not done or elapsed() + step <= args.seconds)

    try:
        step = 0.0
        while another(step, bool(samples["run"]) and len(samples["trace"]) >= 2 * args.trace):
            began = elapsed()
            repetition("run")
            if args.trace:
                first = not samples["trace"]
                repetition("trace", os.path.join(RESULTS, f"{tag}-spans.json") if first else None)
            step = elapsed() - began
        while len(samples["setup"]) < SETUP_SAMPLES and elapsed() < HARD_LIMIT_S:
            repetition("setup")
    except SetupFailed as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 2
    runs, traces = samples["run"], samples["trace"]
    if not runs or (args.trace and not traces):
        print("benchmark: no repetition completed", file=sys.stderr)
        for error in errors[:5]:
            print(error, file=sys.stderr)
        return 1

    summary = {
        "setup_s": quartiles(samples["setup"], "setup_s"),
        "wall_s": quartiles(runs, "wall_s"),
        "peak_rss_mb": quartiles(runs, "peak_rss_mb"),
    }
    for phase in PHASES:
        if phase in runs[0]["phases"]:
            summary[f"phase.{phase}_s"] = quartiles(runs, phase)
    if args.trace:
        per_layer = {}
        for name in layers.metric_names():
            if name.endswith("_s"):
                per_layer[name] = statistics.median(t["layers"][name] * t["scale"] for t in traces)
            else:
                per_layer[name] = traces[0]["layers"][name]
        for phase in PHASES:
            per_layer[f"phase.{phase}_s"] = summary.get(f"phase.{phase}_s", {}).get("median", 0.0)
        per_layer["trace.overhead_ratio"] = (
            quartiles(traces, "wall_s")["median"] / summary["wall_s"]["median"]
        )
        # Counts of a traced repetition are a property of the code and the
        # seed; a difference between repetitions is reported as a failure.
        repeat = all(t["counts"] == traces[0]["counts"] for t in traces[1:])
        attempted += 1
        if not repeat:
            failed += 1
            errors.append("traced call counts differ between repetitions")
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in per_layer.items()}
    else:
        metrics = {
            name: {"value": summary[name]["median"], "unit": unit_of(name)}
            for name in ("setup_s", "wall_s", "peak_rss_mb")
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "summary": summary,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "samples": samples,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  env {json.dumps(record['env'])}")
    print("  times scaled to the reference machine speed; raw medians in parentheses")
    for name, q in summary.items():
        print(
            f"  {name:<18} median {q['median']:.4f}  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}"
            f"  n {q['n']}  (raw median {q['raw_median']:.4f})"
        )
    print(f"  fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for error in errors[:5]:
        print(f"  FAILED: {error.splitlines()[-1] if error else error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    return "MB" if name == "peak_rss_mb" else layers.unit_of(name)


if __name__ == "__main__":
    sys.exit(main())
