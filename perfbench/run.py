"""perfbench: scenario-scale workloads, fresh-process reps, layer trace.

    python perfbench/run.py [--seed N] [--workload NAME] [--reps N]
                            [--out DIR] [--smoke]

runs every workload named in BENCHMARK.json: ``--reps`` timed
repetitions with tracing off plus one traced repetition, each in a
fresh child process (see child.py), prints every metric by name with
its unit, checks the outputs, and writes one JSON result under ``--out``.

The benchmark driver's form is

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` keeps starting timed repetitions until their timed regions
add up to ``S`` seconds and reports the end-to-end metrics; ``--trace 1``
runs one timed and one traced repetition and reports the per-layer
metrics.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Exit code 0 means every repetition ran, every output check passed and
the simulated metrics of all repetitions were bit-identical.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: name -> (ops attempted at full size, whole-child wall seconds on the
#: 2-core sizing box).  A child that dies fails all of its ops; a child
#: is killed after 5x its expected wall (10x when traced).
EXPECTED = {
    "steady_write": (64, 4.0),
    "zipf_read": (3600, 6.0),
    "membership_churn": (1000, 8.0),
    "churn_storm": (24, 5.0),
}
HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SMOKE_SCALE = 4
MIN_COVERAGE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ------------------------------------------------------------ repetitions
def run_child(
    name: str,
    seed: int,
    scale: int,
    trace_out: Path | None = None,
    child_args: tuple[str, ...] = (),
) -> dict:
    """One repetition in a fresh process: its result, or ``{"error"}``."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--scale", str(scale),
        "--t0", repr(time.time()), *child_args,
    ]  # fmt: skip
    timeout = 5 * EXPECTED[name][1]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
        timeout *= 2
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        reason = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return {"error": f"exit code {proc.returncode}: {reason}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("ops", "failed", "checks", "host", "simulated", "counters"):
            result[key]
    except (ValueError, IndexError, KeyError, TypeError):
        return {"error": "malformed child output"}
    return result


def run_workload(
    name: str,
    seed: int,
    *,
    scale: int = 1,
    reps: int = 5,
    seconds: float | None = None,
    traced: bool = True,
    out_dir: Path,
    child_args: tuple[str, ...] = (),
) -> dict:
    """All repetitions of one workload, reduced to its result entry.

    With ``seconds``, timed repetitions continue until their timed
    regions add up to it; a dead child is charged its expected wall so
    a broken workload still terminates.
    """
    runs: list[dict] = []
    measured = 0.0

    def more() -> bool:
        return len(runs) < reps if seconds is None else measured < seconds

    while more():
        run = run_child(name, seed, scale, child_args=child_args)
        measured += (
            run["host"]["timed_s"] if "error" not in run else EXPECTED[name][1]
        )
        runs.append(run)
    trace_run = None
    if traced:
        trace_run = run_child(
            name, seed, scale, out_dir / f"trace_{name}.json", child_args
        )
    return reduce_runs(name, scale, runs, trace_run)


def reduce_runs(
    name: str, scale: int, runs: list[dict], trace_run: dict | None
) -> dict:
    """Medians, exact simulated values, checks and per-layer metrics."""
    every = runs + ([trace_run] if trace_run is not None else [])
    good = [run for run in runs if "error" not in run]
    reference = next(
        (run["simulated"] for run in every if "error" not in run), None
    )
    errors: list[str] = []
    for index, run in enumerate(every):
        if "error" in run:
            errors.append(f"rep {index}: {run['error']}")
            continue
        errors += [
            f"rep {index}: output check {check} failed"
            for check, passed in run["checks"].items()
            if not passed
        ]
        if run["simulated"] != reference:
            # On the traced rep this means the shims perturbed the run.
            errors.append(
                f"rep {index}: simulated metrics differ from the first rep"
            )

    dead_ops = EXPECTED[name][0] // scale
    attempted = sum(run.get("ops", dead_ops) for run in runs)
    failed = sum(run.get("failed", dead_ops) for run in runs)
    end_to_end: dict[str, dict] = {}
    if good:
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            if key in HOST_METRICS:
                values = [run["host"][key] for run in good]
                kind = "host"
            else:
                values = [reference[key]] * len(good)
                kind = "simulated"
            q1, median, q3 = quartiles(values)
            if key == "op_ok_share":
                # A dead child completed none of its ops.
                median *= len(good) / len(runs)
            end_to_end[key] = {
                "unit": metric["unit"], "kind": kind, "median": median,
                "q1": q1, "q3": q3, "n": len(values), "values": values,
            }  # fmt: skip

    entry = {
        "reps": len(runs),
        "attempted": attempted,
        "failed": failed,
        "samples": reference["samples"] if reference else 0,
        "end_to_end": end_to_end,
        "per_layer": {},
        "errors": errors,
    }
    if trace_run is not None and "error" not in trace_run and good:
        entry["per_layer"] = per_layer_metrics(trace_run, good)
        errors += trace_errors(trace_run, entry["per_layer"])
    return entry


def per_layer_metrics(trace_run: dict, good: list[dict]) -> dict[str, float]:
    """Every per-layer metric BENCHMARK.json names, from the traced rep."""
    trace = trace_run["trace"]
    wall = trace["wall_s"]
    untraced_wall = statistics.median(r["host"]["timed_s"] for r in good)
    values: dict[str, float] = dict(trace_run["counters"])
    values["net.events_per_s"] = statistics.median(
        r["host"]["events_per_s"] for r in good
    )
    for span, count in trace["calls"].items():
        values[f"{span}.calls"] = count
        values[f"{span}.self_s"] = trace["self_s"][span]
    for layer, seconds in trace["layer_self_s"].items():
        values[f"{layer}.self_share"] = seconds / wall
    for codec in ("storage.rs_encode", "storage.rs_decode"):
        busy = trace["self_s"].get(codec, 0.0)
        values[f"{codec}.mb_per_s"] = (
            trace["bytes"].get(codec, 0) / 1e6 / busy if busy else 0.0
        )
    values["trace.overhead_share"] = wall / untraced_wall - 1.0
    values["trace.coverage_share"] = sum(trace["self_s"].values()) / wall
    # A span or counter that never fired on this workload reads 0.
    return {
        metric["name"]: values.get(metric["name"], 0)
        for metric in SPEC["per_layer"]
    }


def trace_errors(trace_run: dict, per_layer: dict[str, float]) -> list[str]:
    """Probe fidelity: the trace is only trusted when these all hold."""
    errors = [
        f"traced rep: probe fidelity check {check} failed"
        for check, passed in trace_run["trace"]["fidelity"].items()
        if not passed
    ]
    coverage = per_layer["trace.coverage_share"]
    if coverage < MIN_COVERAGE:
        errors.append(
            f"traced rep: trace.coverage_share {coverage:.3f} < {MIN_COVERAGE}"
        )
    return errors


# ----------------------------------------------------------------- output
def host_block() -> dict:
    """Who measured: for reading noise, never for rescaling."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.runner import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibrate_s": calibrate(),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=ROOT, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_workload(name: str, entry: dict) -> None:
    print(
        f"\n== {name}: {entry['reps']} timed reps, "
        f"{entry['attempted']} ops attempted, {entry['failed']} failed, "
        f"{entry['samples']} latency samples"
    )
    for key, m in entry["end_to_end"].items():
        spread = (
            f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
            if m["kind"] == "host"
            else f"  (simulated, identical on {m['n']} reps)"
        )
        print(f"  {key:<20} {m['median']:>14.6g} {m['unit']:<10}{spread}")
    for key, value in entry["per_layer"].items():
        print(f"    {key:<40} {value:>14.6g} {LAYER_UNITS[key]}")
    for error in entry["errors"]:
        print(f"  ERROR {error}")


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    parser.add_argument(
        "--smoke", action="store_true",
        help="every size / 4, one timed rep + the traced rep",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program to measure (src/repro)", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    reps, seconds = args.reps, args.seconds
    if args.smoke or args.trace == 1:
        reps, seconds = 1, None
    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "smoke": args.smoke,
        "commit": git_commit(),
        "host": host_block(),
        "workloads": {},
    }
    for name in [args.workload] if args.workload else names:
        entry = run_workload(
            name,
            args.seed,
            scale=SMOKE_SCALE if args.smoke else 1,
            reps=reps,
            seconds=seconds,
            traced=args.trace != 0,
            out_dir=out_dir,
        )
        result["workloads"][name] = entry
        print_workload(name, entry)
    path = out_dir / f"result_seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    correct = not any(e["errors"] for e in result["workloads"].values())
    print(f"\nresult: {path}  ({'ok' if correct else 'FAILED'})")

    if args.trace is not None:
        entry = result["workloads"][args.workload]
        if args.trace == 0:
            metrics = {
                key: {"value": m["median"], "unit": m["unit"]}
                for key, m in entry["end_to_end"].items()
            }
        else:
            metrics = {
                key: {"value": value, "unit": LAYER_UNITS[key]}
                for key, value in entry["per_layer"].items()
            }
        print(json.dumps({
            "correct": correct,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }))  # fmt: skip
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
