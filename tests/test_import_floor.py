"""What a process loads before it runs anything: the import floor.

numpy costs ~13 MB of resident memory and ~0.1 s per process, and only
k-means uses it, so it is imported inside ``KMeansClustering`` and no
other path may load it (DESIGN.md, "Import floor";
``benchmarks/perf/import_floor.py`` measures the floor).  Each check runs
in a fresh interpreter: this one has long since imported numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_importing_the_program_loads_only_the_standard_library():
    loaded = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.sim.chaos, repro.cli\n"
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    assert loaded == "['repro']"


def test_only_kmeans_clustering_loads_numpy():
    loaded = _run(
        "import sys\n"
        "from repro.clustering.coordinates import place_regions\n"
        "from repro.core.config import ICIConfig\n"
        "from repro.core.icistrategy import ICIDeployment\n"
        "points = place_regions(16, n_regions=4, seed=1)\n"
        "for clustering in ('random', 'latency', 'kmeans'):\n"
        "    config = ICIConfig(n_clusters=4, replication=1, clustering=clustering)\n"
        "    ICIDeployment(16, config=config, coordinates=points)\n"
        "    print(clustering, 'numpy' in sys.modules)"
    )
    assert loaded.splitlines() == [
        "random False",
        "latency False",
        "kmeans True",
    ]
