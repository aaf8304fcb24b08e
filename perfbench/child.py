"""One timed repetition of one workload, in a fresh interpreter.

Started by run.py as

    python3 perfbench/child.py --workload NAME --seed S --sizes JSON
        --launch T --out DIR [--trace] [--setup-only]

where T is the parent's time.monotonic() just before the launch (the clock
is system-wide, so setup time runs from process launch). The child imports
the package from the checkout's src/, prepares its inputs, optionally
installs the tracer, runs the workload's calls under a timer, and writes
DIR/result.json. Everything it writes stays inside DIR.

Each repetition gets its own interpreter because lambda_extremes,
rep_transposition, content_matrix and game._a_wins are lru_cached: a second
repetition inside one process would mostly time cache hits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    ru_maxrss is not used where VmHWM exists: on Linux it also counts the
    pages the spawning process had resident, since the exec'd child inherits
    that high-water mark.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_sizes() -> dict:
    """currsize of the package's process-wide lru_caches."""
    from aldous import game, order, partitions, symrep

    caches = {
        "order.lambda_extremes": order.lambda_extremes,
        "symrep.rep_transposition": symrep.rep_transposition,
        "partitions.content_matrix": partitions.content_matrix,
        "game._a_wins": game._a_wins,
    }
    return {name: fn.cache_info().currsize for name, fn in caches.items()}


class ScanNumeric:
    """aldous scan over random graphs through the CLI entry point."""

    SIZES = {"n": 8, "budget": 6}

    def __init__(self, sizes: dict, seed: int, out: Path):
        from aldous import cli

        self.cli = cli
        self.ledger = out / "ledger.json"
        self.argv = [
            "--workers", "1", "scan", "--n", str(sizes["n"]),
            "--families", "random", "--budget", str(sizes["budget"]),
            "--seed", str(seed), "--out", str(self.ledger),
        ]

    def run(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv)
        return code, err.getvalue()

    def save(self, result) -> dict:
        code, err = result
        lines = err.strip().splitlines()
        return {"exit": code,
                "summary": json.loads(lines[-1]) if lines else None,
                "stderr": err,
                "file": self.ledger.name if self.ledger.exists() else None}


class SeedExact:
    """Seeded ledger from exact rationals, then its JSON."""

    SIZES = {"n": 12}

    def __init__(self, sizes: dict, seed: int, out: Path):
        from aldous import order

        self.order = order
        self.n = sizes["n"]
        self.ledger = out / "ledger.json"

    def run(self):
        return self.order.seed_known(self.n).to_json()

    def save(self, text) -> dict:
        self.ledger.write_text(text, encoding="utf-8")
        return {"file": self.ledger.name}


class VerifySuites:
    """Every verify suite, then the game consistency run."""

    SIZES = {"n": 6, "samples": 1000}

    def __init__(self, sizes: dict, seed: int, out: Path):
        from aldous import verify

        self.verify = verify
        self.names = list(verify.SUITES)
        self.n = sizes["n"]
        self.samples = sizes["samples"]
        self.seed = seed
        self.results = out / "verify.json"

    def run(self):
        suites = {name: self.verify.run_suite(name, self.n, seed=self.seed)
                  for name in self.names}
        game = self.verify.game_consistency_run(self.n, samples=self.samples,
                                                seed=self.seed)
        return suites, game

    def save(self, result) -> dict:
        suites, game = result
        data = {
            "suites": {name: {"passed": r.passed, "checks": r.checks}
                       for name, r in suites.items()},
            "game": {"passed": game.passed, "checks": game.checks},
        }
        self.results.write_text(
            json.dumps(data, sort_keys=True, default=str), encoding="utf-8")
        return {"file": self.results.name}


# Runners look their entry points up at call time, so a tracer installed
# after set-up sees the calls.
RUNNERS = {
    "scan-numeric-n8": ScanNumeric,
    "seed-exact-n12": SeedExact,
    "verify-n6": VerifySuites,
}

# Fixed sizes, identical on every commit the benchmark compares.
WORKLOADS = {name: runner.SIZES for name, runner in RUNNERS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True, help="JSON object")
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    src = ROOT / "src"
    if not (src / "aldous" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {src}\n")
        return 2
    sys.path.insert(0, str(src))
    import aldous  # noqa: F401  (package import is part of setup)

    runner = RUNNERS[args.workload](json.loads(args.sizes), args.seed, out)
    setup_s = time.monotonic() - args.launch
    record = {"setup_s": setup_s, "pid": os.getpid()}
    if not args.setup_only:
        record["caches_at_start"] = cache_sizes()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
            tracer.install()
        t0 = time.perf_counter()
        result = runner.run()
        wall_s = time.perf_counter() - t0
        record["wall_s"] = wall_s
        record["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        record["output"] = runner.save(result)
        if tracer is not None:
            record["layers"] = tracer.metrics(wall_s, out / "ledger.json")
            tracer.write_spans(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(record, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
