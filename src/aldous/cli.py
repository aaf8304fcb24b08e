"""Command-line front end.

Subcommands: spectrum, check-pair, scan, hasse, game, verify, characters,
print-config. Exit codes: 0 success (or, for check-pair, no refutation),
1 a violation or refutation was found, 2 usage error. All randomized
commands are deterministic for a fixed seed; identical configuration
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import partitions as pt
from . import spectral, symrep
from .graphs import GRAPH_FAMILIES, WeightedGraph, graph_family, quasi_complete_weights
from .order import (
    LedgerConflict,
    RelationLedger,
    check_pair,
    export_dot,
    recheck_ledger,
    scan,
    SCAN_FAMILIES,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
# output formats of `spectrum`; `hasse` always writes DOT
FORMATS = ("csv", "json")
# the global flags (by dest) each command reads; given explicitly to any
# other command, one is a usage error (config-file and ALDOUS_DIM_CAP values
# are shared defaults). The verify suites carry their own tolerances.
READS = {"spectrum": ("dim_cap", "format"), "check-pair": ("tol", "dim_cap"),
         "scan": ("tol", "dim_cap"), "hasse": ("tol", "dim_cap"),
         "print-config": ("tol", "dim_cap", "format")}


@dataclass
class RunConfig:
    tol: float = 1e-9
    dim_cap: int = symrep.DEFAULT_DIM_CAP
    seed: int = 0
    budget: int = 100
    families: str = ",".join(SCAN_FAMILIES)
    format: str = "csv"


# JSON types a config file may give each RunConfig field; bools are never
# numbers here, although Python counts them as ints
_CONFIG_TYPES = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
                 "str": ((str,), "a string")}


def _load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        types = {f.name: f.type for f in fields(RunConfig)}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            allowed, kind = _CONFIG_TYPES[types[key]]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
            setattr(config, key, value)
    env_cap = os.environ.get("ALDOUS_DIM_CAP")
    if env_cap:
        try:
            config.dim_cap = int(env_cap)
        except ValueError:
            raise ValueError(f"ALDOUS_DIM_CAP must be an integer, got {env_cap!r}") from None
    for key in vars(config):
        override = getattr(args, key, None)
        if override is not None:
            setattr(config, key, override)
    if config.dim_cap <= 0:
        raise ValueError(f"dim_cap must be positive, got {config.dim_cap!r}")
    if not (math.isfinite(config.tol) and config.tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {config.tol!r}")
    if config.budget < 0:
        raise ValueError(f"budget must be nonnegative, got {config.budget!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed!r}")
    if config.format not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {config.format!r}")
    return config


# the family flags (by dest) and the GRAPH_FAMILIES parameter each one gives
FAMILY_FLAGS = {"k": "k", "m": "m", "weights": "a", "density": "density"}


def _load_graph(args: argparse.Namespace, n: int, config: RunConfig) -> WeightedGraph:
    """The graph named by the --graph or --family flags."""
    if args.graph:
        for flag in ("family", *FAMILY_FLAGS):
            if getattr(args, flag) is not None:
                raise ValueError(f"--graph takes no --{flag}")
        with open(args.graph, "r", encoding="utf-8") as handle:
            graph = WeightedGraph.from_json(handle.read())
        if graph.n != n:
            raise ValueError(f"graph has n={graph.n}, shapes have n={n}")
        return graph
    if not args.family:
        raise ValueError("need --graph FILE or --family NAME")
    params = {key: getattr(args, flag) for flag, key in FAMILY_FLAGS.items()
              if getattr(args, flag) is not None}
    if args.family in GRAPH_FAMILIES:
        # name the flags, not the table's parameters: a user typed the one
        takes = GRAPH_FAMILIES[args.family][1]
        flags = {key: f"--{flag}" for flag, key in FAMILY_FLAGS.items() if key in takes}
        for flag, key in FAMILY_FLAGS.items():
            if key in params and key not in takes:
                raise ValueError(f"family {args.family!r} does not take --{flag} "
                                 f"(it takes {', '.join(flags.values()) or 'none'})")
        for key, flag in flags.items():
            if takes[key] is None and key not in params:
                raise ValueError(f"family {args.family!r} needs {flag}")
        if "seed" in takes:
            params["seed"] = config.seed
    if "a" in params:
        params["a"] = [float(w) for w in params["a"].split(",")]
    return graph_family(args.family, n, **params)


def _graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="graph JSON file")
    parser.add_argument("--family", help="graph family name")
    parser.add_argument("--k", type=int, help="family parameter k")
    parser.add_argument("--m", type=int, help="family parameter m")
    parser.add_argument("--weights", help="comma-separated family weights")
    parser.add_argument("--density", type=float,
                        help="family edge density (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldous",
        description="Spectra of the swap operator on S_n irreducibles and "
                    "the order they induce.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--dim-cap", dest="dim_cap", type=int, default=None)
    # kept so command lines that pass --workers 1 still run; scans use one thread
    parser.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    parser.add_argument("--format", choices=FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="full spectrum on one irreducible")
    p.add_argument("--shape", required=True)
    p.add_argument("--exact", action="store_true",
                   help="also print the exact values when available")
    _graph_flags(p)

    p = sub.add_parser("check-pair", help="try to refute sigma >= tau on a graph")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    _graph_flags(p)

    p = sub.add_parser("scan", help="search graphs for refutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--families", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="ledger JSON output path")

    p = sub.add_parser("hasse", help="ledger to DOT diagram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="DOT output path")

    p = sub.add_parser("game", help="decide the corner-removal game")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--graphs", type=int, default=None)

    p = sub.add_parser("characters", help="character table as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="CSV output path")

    sub.add_parser("print-config", help="print the effective configuration")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_lines(args, config: RunConfig) -> str:
    shape = pt.parse_partition(args.shape)
    graph = _load_graph(args, shape.n, config)
    numeric = spectral.spectrum(
        symrep.delta_matrix(shape, graph, dim_cap=config.dim_cap)
    )
    exact_values = None
    weights = quasi_complete_weights(graph)
    if args.exact and weights is not None:
        exact_values = spectral.quasi_complete_spectrum(shape, weights)
    if config.format == "json":
        payload = {
            "shape": str(shape),
            "lambda1": numeric[0],
            "lambda_max": numeric[-1],
            "spectrum": list(numeric),
        }
        if exact_values is not None:
            payload["exact"] = [str(v) for v in exact_values]
        return json.dumps(payload, sort_keys=True) + "\n"
    lines = [
        f"shape,{shape}",
        f"lambda1,{numeric[0]!r}",
        f"lambda_max,{numeric[-1]!r}",
        "spectrum," + ",".join(repr(v) for v in numeric),
    ]
    if exact_values is not None:
        lines.append("exact," + ",".join(str(v) for v in exact_values))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # flag spelling accepted as an alias for the subcommand
    argv = ["print-config" if a == "--print-config" else a for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        for key in READS["print-config"]:
            if getattr(args, key) is not None and key not in READS.get(args.command, ()):
                raise ValueError(f"{args.command} does not take --{key.replace('_', '-')}")
        config = _load_config(args.config, args)

        if args.command == "spectrum":
            sys.stdout.write(_spectrum_lines(args, config))
            return EXIT_OK

        if args.command == "check-pair":
            sigma = pt.parse_partition(args.sigma)
            tau = pt.parse_partition(args.tau)
            if sigma.n != tau.n:
                raise ValueError("sigma and tau must partition the same n")
            graph = _load_graph(args, sigma.n, config)
            refutation = check_pair(sigma, tau, graph, tol=config.tol,
                                    dim_cap=config.dim_cap)
            if refutation is None:
                print(f"no refutation: ({sigma}) >= ({tau}) consistent "
                      "with this graph")
                return EXIT_OK
            print(f"refuted: ({sigma}) >= ({tau}) fails, margin "
                  f"{refutation.margin!r}"
                  f"{' (exact)' if refutation.exact else ''}")
            return EXIT_VIOLATION

        if args.command == "scan":
            families = tuple(
                name.strip() for name in config.families.split(",") if name.strip()
            )
            if not families:
                raise ValueError("--families names no scan family")
            ledger, report = scan(
                args.n, families, budget=config.budget, tol=config.tol,
                seed=config.seed, dim_cap=config.dim_cap,
            )
            _emit(ledger.to_json() + "\n", args.out)
            # the report's counts but n, and the pairs left unknown
            summary = asdict(report) | {"unknown": ledger.unknown_count()}
            del summary["n"]
            sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
            return EXIT_OK if report.consistent else EXIT_VIOLATION

        if args.command == "hasse":
            with open(args.infile, "r", encoding="utf-8") as handle:
                ledger = RelationLedger.from_json(handle.read())
            # stored witnesses are evidence, not trusted: decide them again
            problems = recheck_ledger(ledger, tol=config.tol, dim_cap=config.dim_cap)
            if problems:
                raise LedgerConflict(problems[0][1])
            _emit(export_dot(ledger), args.out)
            return EXIT_OK

        if args.command == "game":
            from .game import game_trace, game_winner

            sigma = pt.parse_partition(args.sigma)
            tau = pt.parse_partition(args.tau)
            winner = game_winner(sigma, tau)
            print(f"A holding ({sigma}) {'wins' if winner else 'loses'} "
                  f"against B holding ({tau})")
            if args.trace:
                for round_no, (b_box, a_box) in enumerate(game_trace(sigma, tau), 1):
                    print(f"round {round_no}: B removes (col {b_box.col}, "
                          f"row {b_box.row}) content {b_box.content}; "
                          f"A removes (col {a_box.col}, row {a_box.row}) "
                          f"content {a_box.content}")
            return EXIT_OK

        if args.command == "verify":
            params = {"seed": config.seed}
            for key in ("budget", "trials", "samples", "graphs"):
                value = getattr(args, key)
                if value is not None:
                    if value <= 0:
                        raise ValueError(f"--{key} must be positive")
                    params[key] = value
            start = time.perf_counter()
            result = run_suite(args.suite, args.n, **params)
            elapsed = time.perf_counter() - start
            for check in result.checks:
                status = "ok" if check["ok"] else "FAIL"
                print(f"{status} {check['name']}")
            failures = result.failures()
            summary = {"suite": result.suite, "checks": len(result.checks),
                       "failed": len(failures), "elapsed_s": elapsed}
            if failures:
                summary["failures"] = failures
            sys.stderr.write(json.dumps(summary, sort_keys=True, default=str) + "\n")
            return EXIT_OK if result.passed else EXIT_VIOLATION

        if args.command == "characters":
            from .characters import character_table_rows

            lines = []
            header_written = False
            for shape, classes, values in character_table_rows(args.n):
                if not header_written:
                    lines.append("shape," + ",".join(f"({c})" for c in classes))
                    header_written = True
                lines.append(str(shape.compact_str()) + ","
                             + ",".join(str(v) for v in values))
            _emit("\n".join(lines) + "\n", args.out)
            return EXIT_OK

        if args.command == "print-config":
            print(json.dumps(asdict(config), sort_keys=True, indent=2))
            return EXIT_OK

        raise ValueError(f"unhandled command {args.command}")
    # RecursionError: a JSON file nested too deep
    except (ValueError, OSError, KeyError, LedgerConflict, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
