"""The drift gate: did any experiment's simulated numbers move?

Every ``benchmarks/bench_e*.py`` module declares a :data:`WORKLOAD`
kernel.  :func:`measure` runs one twice and returns its simulated
metrics (virtual time, message/byte totals, per-kind router counters);
:func:`drift` compares them with the kernel's entry in the committed
``benchmarks/baseline.json``.  Those numbers are machine-independent, so
the comparison is *exact* — any difference at all means the protocols
changed behaviour.  ``repro bench`` and ``tests/test_bench_drift.py``
are the two callers.  How fast the simulator runs is ``perfbench/``'s
question, not this module's; :func:`calibrate` stays only because
``perfbench/run.py`` records it per host.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

from repro.bench.workload import BenchWorkload, simulated_metrics
from repro.errors import ReproError

BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

#: ``{bench_id: {label: simulated metrics}}`` for every kernel.
BASELINE = BENCH_DIR / "baseline.json"

#: Iterations of the calibration hash loop (~tens of ms on current CPUs).
_CALIBRATION_ROUNDS = 200_000


class BenchError(ReproError):
    """A benchmark violated the execution protocol."""


def discover_workloads() -> list[BenchWorkload]:
    """Import ``benchmarks.bench_e*`` modules and collect their WORKLOADs.

    Modules without a ``WORKLOAD`` attribute are skipped silently — a
    bench opts into the gate by declaring one.  Results are sorted by
    numeric experiment id.
    """
    repo_root = BENCH_DIR.parent
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    workloads: list[BenchWorkload] = []
    for path in sorted(BENCH_DIR.glob("bench_e*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        workload = getattr(module, "WORKLOAD", None)
        if workload is None:
            continue
        if not isinstance(workload, BenchWorkload):
            raise BenchError(
                f"{path.name}: WORKLOAD is not a BenchWorkload"
            )
        workloads.append(workload)
    workloads.sort(key=lambda w: _bench_sort_key(w.bench_id))
    return workloads


def _bench_sort_key(bench_id: str) -> tuple:
    digits = "".join(c for c in bench_id if c.isdigit())
    return (int(digits) if digits else 0, bench_id)


def measure(workload: BenchWorkload) -> dict:
    """Run the kernel twice; returns ``{label: simulated metrics}``.

    Raises :class:`BenchError` when the two runs disagree — a kernel
    that is not deterministic cannot be gated on exact equality.
    """
    first, second = [
        {
            label: simulated_metrics(deployment)
            for label, deployment in workload.run()
        }
        for _ in range(2)
    ]
    if first != second:
        raise BenchError(
            f"{workload.bench_id}: the second run produced different "
            "simulated metrics — workload is not deterministic"
        )
    return first


def drift(
    bench_id: str, baseline_entry: dict | None, measured: dict | None
) -> list[str]:
    """Exact-equality diff of two ``{label: metrics}`` maps, one line each.

    An empty list means no drift.  ``None`` stands for an id that side
    does not know: the baseline file and the kernels must agree exactly.
    """
    if baseline_entry is None:
        return [f"{bench_id}: not in baseline"]
    if measured is None:
        return [f"{bench_id}: missing from this run"]
    problems: list[str] = []
    for label in sorted(set(baseline_entry) | set(measured)):
        if label not in measured:
            problems.append(f"{bench_id}/{label}: missing from this run")
            continue
        if label not in baseline_entry:
            problems.append(f"{bench_id}/{label}: not in baseline")
            continue
        base, cand = baseline_entry[label], measured[label]
        problems.extend(
            f"{bench_id}/{label}: {key} {base.get(key)!r} "
            f"-> {cand.get(key)!r}"
            for key in sorted(set(base) | set(cand))
            if base.get(key) != cand.get(key)
        )
    return problems


def load_baseline() -> dict:
    """The committed ``{bench_id: {label: simulated metrics}}`` map."""
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def write_baseline(measured: dict) -> None:
    """Store ``measured`` as the baseline: stable, human-diffable JSON."""
    BASELINE.write_text(
        json.dumps(measured, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def calibrate() -> float:
    """Time the fixed hashing kernel; returns wall seconds.

    The kernel is pure CPU + stdlib sha256, so its runtime tracks
    single-core machine speed — dividing two machines' calibration times
    gives the normalization factor used by the baseline comparison.
    """
    payload = b"repro-bench-calibration"
    start = time.perf_counter()
    digest = payload
    for _ in range(_CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    elapsed = time.perf_counter() - start
    if not digest:  # pragma: no cover - keeps the loop un-eliminable
        raise BenchError("calibration kernel produced no digest")
    return elapsed
