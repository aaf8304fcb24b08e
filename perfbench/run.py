"""The aldous benchmark: time each workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record-reference      # rewrite perfbench/reference/

Untraced (--trace 0): a few set-up-only launches, then timed repetitions,
each in a fresh interpreter (child.py), until T seconds of repetitions have
run (at least one). Reports the medians of wall_s, setup_s and peak_rss_mb.
Traced (--trace 1): one untraced and one traced repetition; reports every
per-layer metric of BENCHMARK.json and trace_overhead_s, the traced wall time
minus the untraced one, and checks that tracing changed no output.

Every repetition's outputs are checked (checks.py) outside the timed region;
a repetition that raised, exited nonzero or failed a check counts as failed.
The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; fail_frac is failed/attempted.
The line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from child import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench"
SETUP_LAUNCHES = 7       # set-up-only launches per untraced run, for setup_s
MEASURE_CAP_S = 120.0    # start no repetition that would end past this
CHILD_TIMEOUT_S = 170.0
REP_SEED_STRIDE = 1_000_003
UNATTRIBUTED_LIMIT = 0.05
ATTRIBUTION_WORKLOADS = ("scan-numeric-n8", "seed-exact-n12")


def rep_seed(seed: int, k: int) -> int:
    """Input seed of repetition k of a run. Repetitions see different inputs
    (for the scan, disjoint graph ranges), so a run's median averages over
    inputs as well as over timing noise; repetition 0 uses the run's seed."""
    return seed + k * REP_SEED_STRIDE


def blas_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(blas_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def launch(workload: str, seed: int, sizes: dict, out: Path, *,
           trace: bool = False, setup_only: bool = False) -> dict:
    """Run child.py once; returns its record, or {"error": ...}."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--sizes", json.dumps(sizes), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(started)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    result = out / "result.json"
    if proc.returncode != 0 or not result.exists():
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text(encoding="utf-8"))


def check_rep(workload: str, rep: dict, out: Path, sizes: dict, seed: int) -> list[str]:
    if "error" in rep:
        return [rep["error"]]
    problems = [f"cache {name} holds {size} entries at the start of the timed run"
                for name, size in rep["caches_at_start"].items() if size]
    try:
        problems += checks.CHECKS[workload](out, rep["output"], sizes, seed)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failed output
        problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return problems


def run_untraced(workload: str, seed: int, seconds: float, sizes: dict) -> dict:
    base = WORK_DIR / f"{workload}-{os.getpid()}"
    setups = [launch(workload, seed, sizes, base / f"setup{i}", setup_only=True)
              for i in range(SETUP_LAUNCHES)]
    reps, started = [], time.monotonic()
    while True:
        k = len(reps)
        reps.append(launch(workload, rep_seed(seed, k), sizes, base / f"rep{k}"))
        elapsed = time.monotonic() - started
        if ("error" in reps[-1] or elapsed >= seconds
                or elapsed * (len(reps) + 1) / len(reps) > MEASURE_CAP_S):
            break
    problems = {}
    for i, rep in enumerate(reps):
        found = check_rep(workload, rep, base / f"rep{i}", sizes, rep_seed(seed, i))
        if found:
            problems[f"rep{i}"] = found
    good = [r for i, r in enumerate(reps) if f"rep{i}" not in problems]
    setup_values = [r["setup_s"] for r in setups + reps if "setup_s" in r]
    problems.update({f"setup{i}": [r["error"]] for i, r in enumerate(setups) if "error" in r})
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "setup_s": statistics.median(setup_values),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    summary = {
        "attempted": len(reps), "failed": len(reps) - len(good),
        "metrics": metrics, "problems": problems,
        "items": checks.items(workload, base / f"rep{reps.index(good[0])}", good[0]["output"])
        if good else {},
        "samples": {"wall_s": len(good), "setup_s": len(setup_values)},
    }
    shutil.rmtree(base, ignore_errors=True)
    return summary


def run_traced(workload: str, seed: int, sizes: dict) -> dict:
    base = WORK_DIR / f"{workload}-{os.getpid()}"
    plain = launch(workload, seed, sizes, base / "plain")
    traced = launch(workload, seed, sizes, base / "traced", trace=True)
    problems = {
        "plain": check_rep(workload, plain, base / "plain", sizes, seed),
        "traced": check_rep(workload, traced, base / "traced", sizes, seed),
    }
    metrics, trace_problems = {}, []
    if not problems["plain"] and not problems["traced"]:
        layers = traced["layers"]
        metrics = dict(layers, trace_overhead_s=traced["wall_s"] - plain["wall_s"])
        outputs = [(base / name / rep["output"]["file"]).read_bytes()
                   for name, rep in (("plain", plain), ("traced", traced))]
        if outputs[0] != outputs[1]:
            trace_problems.append("traced output differs from the untraced one")
        if workload == "scan-numeric-n8":
            expected = checks.scan_evaluations(base / "traced", traced["output"], sizes, seed)
            if layers["spectral.eig_calls"] != expected:
                trace_problems.append(f"eig_calls {layers['spectral.eig_calls']} != "
                                      f"{expected} replayed (shape, graph) evaluations")
        if workload in ATTRIBUTION_WORKLOADS and layers["unattributed_share"] >= UNATTRIBUTED_LIMIT:
            trace_problems.append(f"unattributed share {layers['unattributed_share']:.3f}")
        spans = WORK_DIR / "traces" / f"{workload}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(base / "traced" / "spans.npz", spans)
    problems["trace"] = trace_problems
    problems = {k: v for k, v in problems.items() if v}
    failed = sum(1 for k in ("plain", "traced") if k in problems)
    if trace_problems and not failed:
        failed = 1
    summary = {
        "attempted": 2, "failed": failed, "metrics": metrics, "problems": problems,
        "items": checks.items(workload, base / "traced", traced["output"])
        if "traced" not in problems and "error" not in traced else {},
    }
    shutil.rmtree(base, ignore_errors=True)
    return summary


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(workload: str, seed: int, sizes: dict, items: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "blas_threads": blas_cap(),
        "workload": workload, "seed": seed, "sizes": sizes, "items": items,
    }


def run_one(bench: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sizes = WORKLOADS[workload]
    if trace:
        summary = run_traced(workload, seed, sizes)
        wanted = bench["per_layer"]
    else:
        summary = run_untraced(workload, seed, seconds, sizes)
        wanted = bench["end_to_end"]
    metrics = summary["metrics"]
    if metrics and set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric names {sorted(metrics)} do not match BENCHMARK.json")
    summary["result"] = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    summary["env"] = environment(workload, seed, sizes, summary["items"])
    return summary


def report(workload: str, summary: dict) -> None:
    result = summary["result"]
    fail_frac = result["failed"] / result["attempted"]
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
             if name in ("wall_s", "setup_s", "peak_rss_mb", "trace_overhead_s")]
    counts = summary.get("samples")
    if counts:
        parts.append(f"(medians of {counts['wall_s']} repetitions, "
                     f"{counts['setup_s']} launches for setup_s)")
    print(f"{workload}: " + " ".join(parts)
          + f" fail_frac={fail_frac:.3g} ({result['failed']}/{result['attempted']})")
    for where, found in summary["problems"].items():
        for problem in found:
            print(f"  FAIL {where}: {problem}")


def record_reference() -> int:
    """Run every workload once at the default seed and store its outputs."""
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, sizes in WORKLOADS.items():
        out = WORK_DIR / f"reference-{workload}"
        rep = launch(workload, checks.DEFAULT_SEED, sizes, out)
        path = checks.reference_path(workload)
        path.unlink(missing_ok=True)  # check against the invariants alone
        problems = check_rep(workload, rep, out, sizes, checks.DEFAULT_SEED)
        if problems:
            print(f"{workload}: not recorded: {problems[:5]}")
            return 1
        view = checks.output_view(workload, out)
        record = {"workload": workload, "seed": checks.DEFAULT_SEED, "sizes": sizes,
                  "view": view}
        if "refuted" in view:
            record["counts"] = {"proved": len(view["proved"]), "refuted": len(view["refuted"])}
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        print(f"{workload}: recorded {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "aldous" / "__init__.py").is_file() or not bench_file.is_file():
        sys.stderr.write(f"error: {ROOT} lacks src/aldous or BENCHMARK.json\n")
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        summaries[name] = run_one(bench, name, args.seed, args.seconds, bool(args.trace))
        report(name, summaries[name])
        print("env: " + json.dumps(summaries[name]["env"], sort_keys=True))
    if args.workload == "all":
        result = {
            "correct": all(s["result"]["correct"] for s in summaries.values()),
            "attempted": sum(s["result"]["attempted"] for s in summaries.values()),
            "failed": sum(s["result"]["failed"] for s in summaries.values()),
            "metrics": {f"{name}/{metric}": value for name, s in summaries.items()
                        for metric, value in s["result"]["metrics"].items()},
        }
    else:
        result = summaries[args.workload]["result"]
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
