"""perfbench's own checks: ``python -m pytest perfbench -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Every
test drives the real benchmark in ``--smoke`` size, so the whole file
runs in well under a minute.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

SPEC = run.SPEC
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out_dir)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((out_dir / "result_seed1.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    return _smoke(tmp_path_factory.mktemp("smoke_a"))


def test_spec_names_the_workloads_and_every_probe_span():
    assert set(WORKLOADS) == set(run.EXPECTED)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for span in probe.SPAN_NAMES:
        assert {f"{span}.calls", f"{span}.self_s"} <= layer_names
    for layer in probe.LAYERS:
        assert f"{layer}.self_share" in layer_names
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names + WORKLOADS)


def test_every_workload_emits_every_metric(smoke):
    assert list(smoke["workloads"]) == WORKLOADS
    for name, entry in smoke["workloads"].items():
        assert entry["errors"] == [], name
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert list(entry["end_to_end"]) == [
            m["name"] for m in SPEC["end_to_end"]
        ]
        assert list(entry["per_layer"]) == [
            m["name"] for m in SPEC["per_layer"]
        ]
        assert all(m["median"] > 0 for m in entry["end_to_end"].values())
    assert {"nproc", "python", "platform", "calibrate_s"} <= set(smoke["host"])
    assert "commit" in smoke


def test_workloads_separate_the_layers(smoke):
    layers = {name: e["per_layer"] for name, e in smoke["workloads"].items()}
    for name in ("steady_write", "membership_churn"):
        for metric, value in layers[name].items():
            if metric.endswith(".calls") and metric.startswith(
                ("dht.", "storage.rs_", "storage.archival.", "storage.heat.")
            ):
                assert value == 0, (name, metric)
    for name in WORKLOADS:
        busy = layers[name]["obs.tracer.record.calls"] > 0
        assert busy == (name == "churn_storm")
        busy = layers[name]["sim.faults.intercept.calls"] > 0
        assert busy == (name == "churn_storm")
    churn = layers["membership_churn"]
    assert (
        churn["core.bootstrap.start.calls"] + churn["core.departure.start.calls"]
        == smoke["workloads"]["membership_churn"]["attempted"]
    )


def test_two_smoke_runs_give_identical_simulated_metrics(smoke, tmp_path):
    again = _smoke(tmp_path)
    for name in WORKLOADS:
        for key, metric in smoke["workloads"][name]["end_to_end"].items():
            if metric["kind"] == "simulated":
                other = again["workloads"][name]["end_to_end"][key]
                assert metric["median"] == other["median"], (name, key)


def test_compare_passes_a_self_compare_and_flags_a_slowdown(smoke):
    lines, passed = compare.compare(smoke, smoke)
    assert passed and not any(line.endswith("worse") for line in lines)

    slow = copy.deepcopy(smoke)
    ops = slow["workloads"]["zipf_read"]["end_to_end"]["ops_per_s"]
    for key in ("median", "q1", "q3"):
        ops[key] *= 0.8
    ops["values"] = [v * 0.8 for v in ops["values"]]
    lines, passed = compare.compare(smoke, slow)
    assert not passed
    flagged = [line for line in lines if line.endswith("worse")]
    assert len(flagged) == 1 and "ops_per_s" in flagged[0]

    lossy = copy.deepcopy(smoke)
    lossy["workloads"]["churn_storm"]["end_to_end"]["op_ok_share"][
        "median"
    ] *= 0.999
    assert not compare.compare(smoke, lossy)[1]


def test_a_raising_workload_is_failed_ops_not_a_crash(tmp_path):
    entry = run.run_workload(
        "zipf_read", 1, scale=run.SMOKE_SCALE, reps=2, traced=False,
        out_dir=tmp_path, child_args=("--inject-failure",),
    )  # fmt: skip
    assert entry["attempted"] == entry["failed"] == 2 * 3600 // run.SMOKE_SCALE
    assert len(entry["errors"]) == 2
    assert "injected failure" in entry["errors"][0]


def test_driver_form_prints_the_contract_line(tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--smoke",
                "--workload", "membership_churn", "--seed", "3",
                "--seconds", "1", "--trace", str(trace),
                "--out", str(tmp_path),
            ],
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert {
            name: m["unit"] for name, m in last["metrics"].items()
        } == {m["name"]: m["unit"] for m in SPEC[section]}
