"""What each entry point loads before it does any work: the import floor.

    PYTHONPATH=src python benchmarks/perf/import_floor.py

Every perfbench ``peak_rss_mb`` and ``setup_s`` includes the memory and
seconds a process spends importing the program.  For each entry point
this starts one fresh interpreter that runs it and reports ``ru_maxrss``
before and after, the seconds it took, how many modules it loaded and
which of them are third-party (neither the standard library nor the
program).  A second fresh interpreter under ``-X importtime`` gives the
ten modules whose own import code cost the most.  The entry points:
``import repro``, perfbench's ``workloads`` module (everything a
perfbench child imports before its set-up), ``python -m repro
run/chaos/endurance/bench --help`` and one k-means deployment, the only
path that loads numpy.  Prints only; gates nothing
(``tests/test_import_floor.py`` holds the rule).  About 10 s.  The
children inherit ``PYTHONPATH``, so to measure another tree point it at
that tree's ``src`` and run this same file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
#: Top-level modules that are the program, not a dependency of it.
FIRST_PARTY = {"repro", "workloads"}


def _cli(command: str) -> str:
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', {command!r}, '--help']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
    )


ENTRY_POINTS = {
    "import repro": "import repro",
    "perfbench workloads": (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); import workloads"
    ),
    "repro run --help": _cli("run"),
    "repro chaos --help": _cli("chaos"),
    "repro endurance --help": _cli("endurance"),
    "repro bench --help": _cli("bench"),
    "k-means deployment": (
        "from repro.clustering.coordinates import place_regions\n"
        "from repro.core.config import ICIConfig\n"
        "from repro.core.icistrategy import ICIDeployment\n"
        "ICIDeployment(64, config=ICIConfig(n_clusters=8, clustering='kmeans'),"
        " coordinates=place_regions(64, n_regions=4, seed=1))"
    ),
}

#: Runs one entry point (``sys.argv[1]``) and prints what it cost as JSON.
CHILD = """
import contextlib, io, json, resource, sys, time
base = set(sys.modules)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("--- entry point ---", file=sys.stderr, flush=True)
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        exec(compile(sys.argv[1], "<entry point>", "exec"), {"__name__": "entry"})
    except SystemExit:
        pass
seconds = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
loaded = set(sys.modules) - base
print(json.dumps({
    "rss_before_mb": before / 1024, "rss_after_mb": after / 1024,
    "seconds": seconds, "modules": len(loaded),
    "top_level": sorted({name.partition(".")[0] for name in loaded}),
}))
"""


def run_child(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", CHILD, code],
        capture_output=True,
        text=True,
        check=True,
    )


def costliest(stderr: str, count: int = 10) -> list[tuple[int, int, str]]:
    """``(self us, cumulative us, module)`` from ``-X importtime`` lines
    after the entry point started, most expensive own code first."""
    rows = []
    for line in stderr.partition("--- entry point ---")[2].splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, module = line.removeprefix("import time:").split("|")
        rows.append((int(own), int(cumulative), module.strip()))
    return sorted(rows, reverse=True)[:count]


def main() -> int:
    measured = {}
    for name, code in ENTRY_POINTS.items():
        # The importtime child runs first, so bytecode is cached (and
        # compile time out of the numbers) when the measured one starts.
        profile = costliest(run_child(code, "-X", "importtime").stderr)
        result = json.loads(run_child(code).stdout.splitlines()[-1])
        result["third_party"] = [
            top
            for top in result.pop("top_level")
            if top not in sys.stdlib_module_names and top not in FIRST_PARTY
        ]
        measured[name] = (result, profile)

    print(
        f"{'entry point':24} {'rss before':>10} {'after':>7} {'added':>7}"
        f" {'seconds':>8} {'modules':>8}  third-party"
    )
    for name, (result, _) in measured.items():
        before, after = result["rss_before_mb"], result["rss_after_mb"]
        print(
            f"{name:24} {before:8.1f} MB {after:7.1f} {after - before:7.1f}"
            f" {result['seconds']:8.3f} {result['modules']:8}"
            f"  {', '.join(result['third_party']) or '-'}"
        )
    for name, (_, profile) in measured.items():
        print(f"\n{name}: ten costliest imports (self us, cumulative us)")
        for own, cumulative, module in profile:
            print(f"  {own:8} {cumulative:9}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
