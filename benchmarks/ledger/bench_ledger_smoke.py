"""Smoke test of the ledger harness at ``--smoke`` sizes (< 30 s).

Checks the harness, not the simulator's speed: report schema, metric
registry, layer mapping, seed handling and ``compare``.  Collected by
``benchmarks/pytest.ini``::

    cd benchmarks && python -m pytest ledger/bench_ledger_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import LAYER_OF_PACKAGE, LAYERS  # noqa: E402
from report import SCHEMA, load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run_py(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True)


def ledger(out: Path, *args) -> dict:
    proc = run_py("--smoke", "--out", str(out), *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def report_path(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("ledger") / "seed1.json"
    ledger(out, "--seed", "1", "--rounds", "2")
    return out


@pytest.fixture(scope="module")
def report(report_path) -> dict:
    return json.loads(report_path.read_text())


def test_report_schema(report):
    assert report["schema"] == SCHEMA
    header = report["header"]
    for key in ("git_sha", "python", "nproc", "loadavg_start",
                "event_model", "seed", "rounds", "smoke"):
        assert key in header
    assert header["event_model"] in ("macro", "classic")
    assert list(report["workloads"]) == WORKLOADS


def test_every_end_to_end_metric_on_every_workload(report):
    for name, entry in report["workloads"].items():
        assert list(entry["end_to_end"]) == END_TO_END, name
        assert entry["failed"] == 0, entry["failed_checks"]
        assert entry["end_to_end"]["ok_share"]["median"] == 1.0
        for metric, cell in entry["end_to_end"].items():
            assert cell["n"] == len(cell["values"]) >= 1
            assert cell["median"] > 0, (name, metric)


def test_registry_names(report):
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    produced = set()
    for entry in report["workloads"].values():
        produced |= set(entry["per_layer"])
    assert produced == set(PER_LAYER)


def test_every_package_maps_to_a_layer(report):
    packages = [d.name for d in (ROOT / "src" / "repro").iterdir()
                if (d / "__init__.py").is_file()]
    assert packages
    for package in packages:
        assert package == "core" or package in LAYER_OF_PACKAGE, (
            f"src/repro/{package} has no layer in layers.LAYER_OF_PACKAGE")
    assert set(LAYER_OF_PACKAGE.values()) <= set(LAYERS)
    for name, entry in report["workloads"].items():
        layers = entry["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        assert layers["other.self_s"] < 0.02 * total, name


def test_layer_separation(report):
    calls = {name: {layer: entry["per_layer"][f"{layer}.calls"]
                    for layer in LAYERS}
             for name, entry in report["workloads"].items()}
    for layer in ("transport", "cca", "app"):
        assert calls["ap_forwarding"][layer] == 0
    for name in WORKLOADS:
        assert calls[name]["obs"] == 0, "tracing off must cost nothing"
        assert (calls[name]["city"] > 0) == (name == "city_grid_sharded")
        packets = report["workloads"][name]["packets"]
        assert (calls[name]["aqm"] >= packets / 10) == (
            name == "tcp_aqm_contended")


def test_seed_changes_digests_not_the_metric_set(report, tmp_path):
    other = ledger(tmp_path / "seed2.json", "--seed", "2", "--rounds", "1",
                   "--no-trace")
    for name in WORKLOADS:
        assert other["workloads"][name]["digest"] != \
            report["workloads"][name]["digest"]
        assert list(other["workloads"][name]["end_to_end"]) == END_TO_END


def test_compare_with_itself_is_all_same(report_path):
    proc = run_py("compare", str(report_path), str(report_path))
    assert proc.returncode == 0, proc.stdout
    rows = [line for line in proc.stdout.splitlines()
            if line.split() and line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row.endswith(" same") for row in rows)
