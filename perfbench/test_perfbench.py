"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They use small sizes so they finish in well under a minute; the checks that
depend on the recorded reference only apply at the benchmark's own sizes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from child import WORKLOADS  # noqa: E402

SMALL = {
    "scan-numeric-n8": {"n": 5, "budget": 3},
    "seed-exact-n12": {"n": 8},
    "verify-n6": {"n": 5, "samples": 20},
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_follows_the_contract():
    b = bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert b["paths"] == ["perfbench"] and b["command"][1] == "perfbench/run.py"
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_caches_are_empty_when_the_timed_run_starts(workload, tmp_path):
    rep = run.launch(workload, 0, SMALL[workload], tmp_path / "rep")
    assert "error" not in rep, rep.get("error")
    assert set(rep["caches_at_start"]) == {
        "order.lambda_extremes", "symrep.rep_transposition",
        "partitions.content_matrix", "game._a_wins"}
    assert all(size == 0 for size in rep["caches_at_start"].values())
    assert run.check_rep(workload, rep, tmp_path / "rep", SMALL[workload], 0) == []


@pytest.mark.parametrize("workload", ["scan-numeric-n8", "seed-exact-n12"])
def test_trace_is_complete_and_changes_no_output(workload):
    summary = run.run_traced(workload, 2, SMALL[workload])
    assert summary["failed"] == 0, summary["problems"]
    per_layer = {m["name"] for m in bench()["per_layer"]}
    assert set(summary["metrics"]) == per_layer
    assert summary["metrics"]["unattributed_share"] < run.UNATTRIBUTED_LIMIT
    if workload == "scan-numeric-n8":
        assert summary["metrics"]["spectral.eig_calls"] > 0


def test_peak_rss_excludes_the_launching_process(tmp_path):
    ballast = bytearray(150 * 2**20)  # resident in this process while the child starts
    rep = run.launch("seed-exact-n12", 0, SMALL["seed-exact-n12"], tmp_path / "rep")
    del ballast
    assert "error" not in rep, rep.get("error")
    assert rep["peak_rss_mb"] < 100


def test_checks_reject_a_tampered_scan_ledger(tmp_path):
    sizes = SMALL["scan-numeric-n8"]
    out = tmp_path / "rep"
    rep = run.launch("scan-numeric-n8", 0, sizes, out)
    data = json.loads((out / "ledger.json").read_text())
    numeric = [r for r in data["entries"] if r["status"] == "refuted" and not r["exact"]]
    assert numeric, "the small scan should find a numeric refutation"
    numeric[0]["witness"]["edges"] = []  # the empty graph separates nothing
    (out / "ledger.json").write_text(json.dumps(data))
    problems = checks.check_scan(out, rep["output"], sizes, 0)
    assert any("independent margin" in p for p in problems), problems


def test_checks_reject_a_nonpositive_seed_margin(tmp_path):
    sizes = SMALL["seed-exact-n12"]
    out = tmp_path / "rep"
    rep = run.launch("seed-exact-n12", 0, sizes, out)
    data = json.loads((out / "ledger.json").read_text())
    target = next(r for r in data["entries"] if r.get("tag") == "remark1")
    target["margin"] = 0.0
    (out / "ledger.json").write_text(json.dumps(data))
    assert checks.check_seed(out, rep["output"], sizes, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed-exact-n12",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
