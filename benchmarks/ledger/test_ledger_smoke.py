"""Smoke test of the ledger: the whole suite at tiny sizes, validated
against the names in ``BENCHMARK.json``.

    python -m pytest benchmarks/ledger -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    with open(out / "results.json") as fh:
        return proc, json.load(fh), str(out / "results.json")


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_suite_reports_every_metric(manifest, smoke):
    proc, report, _ = smoke
    assert report["schema"] == "repro.ledger/1" and report["smoke"] is True
    end_to_end = [m["name"] for m in manifest["end_to_end"]]
    per_layer = [m["name"] for m in manifest["per_layer"]]
    assert list(report["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for workload, entry in report["workloads"].items():
        assert list(entry["untraced"]["metrics"]) == end_to_end, workload
        assert list(entry["traced"]["metrics"]) == per_layer, workload
        for result in entry.values():
            assert result["violations"] == [], (workload, result["violations"])
            assert result["attempted"] >= 1 and result["failed"] == 0
        assert all(v > 0 for v in entry["untraced"]["metrics"].values()), workload
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    # every metric is printed by name with its unit
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}",
                         proc.stdout, re.M), m["name"]


def test_compare_accepts_a_run_against_itself(smoke):
    _, _, path = smoke
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), path, path],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not any(line.endswith(" worse") for line in proc.stdout.splitlines())
