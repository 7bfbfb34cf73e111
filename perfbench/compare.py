"""Compare two perfbench results: ``python perfbench/compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  For every workload and
end-to-end metric it prints both medians (quartiles, rep count), the
ratio B/A with its base, the bound from BENCHMARK.json and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is — or, when the runs of one side are spread wider
                than the bound, every run of B is worse than every run
                of A as well;
``unresolved``  the spread is wider than the bound and the runs
                interleave, so the medians decide nothing.

BENCHMARK.json's bounds have to cover the spread across seeds, because
the benchmark driver draws ten.  Two results of one seed share their
inputs: simulated metrics repeat exactly, so their bound is 0 and any
worsening is ``worse``, and the host metrics get ``SAME_SEED_BOUND``.
Exit code 1 on any ``worse`` or on a lower ``op_ok_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)
#: Host-metric bounds between two results of one seed; every other
#: (simulated) metric is exact there.
SAME_SEED_BOUND = {"setup_s": 0.10, "ops_per_s": 0.10, "peak_rss_mb": 0.05}
#: A worsening smaller than this absolute amount is never ``worse``:
#: 10 % of a 0.3 s set-up is less than one interpreter start varies by.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def verdict(a: dict, b: dict, better: str, bound: float, floor: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    loss = sign * (b["median"] - a["median"])  # > 0 when B is worse
    beyond = loss > floor and loss > bound * abs(a["median"])
    spread = max(
        (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0
        for m in (a, b)
    )
    if spread <= bound:
        return "worse" if beyond else "ok"
    a_runs = [sign * v for v in a["values"]]
    b_runs = [sign * v for v in b["values"]]
    if max(b_runs) < min(a_runs):
        return "ok"  # every run of B reads better than every run of A
    if beyond and min(b_runs) > max(a_runs):
        return "worse"
    return "unresolved"


def compare(result_a: dict, result_b: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    same_seed = result_a["seed"] == result_b["seed"]
    lines = [
        f"A: commit {result_a['commit']} seed {result_a['seed']}   "
        f"B: commit {result_b['commit']} seed {result_b['seed']}"
    ]
    passed = True
    for workload in result_a["workloads"]:
        if workload not in result_b["workloads"]:
            continue
        a_all = result_a["workloads"][workload]["end_to_end"]
        b_all = result_b["workloads"][workload]["end_to_end"]
        lines.append(f"\n== {workload}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            if name not in a_all or name not in b_all:
                lines.append(f"  {name:<20} missing on one side: worse")
                passed = False
                continue
            a, b = a_all[name], b_all[name]
            bound = (
                SAME_SEED_BOUND.get(name, 0.0) if same_seed else metric["bound"]
            )
            outcome = verdict(
                a, b, metric["better"], bound, ABSOLUTE_FLOOR.get(name, 0.0)
            )
            if name == "op_ok_share" and b["median"] < a["median"]:
                outcome = "worse"
            passed = passed and outcome != "worse"
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            lines.append(
                f"  {name:<20} A {a['median']:.6g} [{a['q1']:.6g}, "
                f"{a['q3']:.6g}] n={a['n']}   B {b['median']:.6g} "
                f"[{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}   "
                f"B/A {ratio:.4f} of {a['median']:.6g} {metric['unit']}   "
                f"{metric['better']} is better, bound {bound:g}: {outcome}"
            )
    return lines, passed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result_a, result_b = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in argv
    )
    lines, passed = compare(result_a, result_b)
    print("\n".join(lines))
    print("\nverdict:", "ok" if passed else "WORSE")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
