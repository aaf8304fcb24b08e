"""Output checks for the benchmark's workloads, run by the parent outside any
timed region.

Every check works for any seed. At the default seed (and, for the
seed-independent workloads, at every seed) the outputs are also compared
with a reference recorded from the commit that introduced the benchmark:
refuted pairs, witness descriptors and exact flags must match exactly, and
margins to a relative 1e-6, because a change of eigensolver moves their
last digits. Each function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
TOL = 1e-9  # the scan's refutation tol; numeric witnesses need margin > 10 * TOL
MARGIN_RTOL = 1e-6


def ledger_view(data: dict) -> dict:
    """Decided entries of a ledger JSON document, witnesses deduplicated."""
    witnesses: list = []
    keys: dict = {}
    proved, refuted = [], []
    for rec in data["entries"]:
        if rec["status"] == "proved":
            proved.append([rec["sigma"], rec["tau"], rec["tag"]])
        elif rec["status"] == "refuted":
            key = json.dumps(rec["witness"], sort_keys=True)
            if key not in keys:
                keys[key] = len(witnesses)
                witnesses.append(rec["witness"])
            refuted.append([rec["sigma"], rec["tau"], rec["tag"], rec["exact"],
                            rec["margin"], keys[key]])
    return {"n": data["n"], "proved": proved, "refuted": refuted,
            "witnesses": witnesses}


def verify_view(data: dict) -> dict:
    """Check names per suite, and of the game run."""
    return {
        "suites": {name: [c["name"] for c in r["checks"]]
                   for name, r in data["suites"].items()},
        "game": [c["name"] for c in data["game"]["checks"]],
    }


def output_view(workload: str, out: Path) -> dict:
    if workload == "verify-n6":
        return verify_view(json.loads((out / "verify.json").read_text(encoding="utf-8")))
    return ledger_view(json.loads((out / "ledger.json").read_text(encoding="utf-8")))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str):
    path = reference_path(workload)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def compare_ledgers(view: dict, ref: dict, proved_too: bool) -> list[str]:
    problems = []
    if proved_too and sorted(view["proved"]) != sorted(ref["proved"]):
        problems.append("proved entries differ from the reference")

    def keyed(v):
        return {(s, t): (tag, exact, margin, json.dumps(v["witnesses"][w], sort_keys=True))
                for s, t, tag, exact, margin, w in v["refuted"]}

    got, want = keyed(view), keyed(ref)
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        return problems + [f"refuted pairs differ from the reference: "
                           f"missing {missing}, extra {extra}"]
    for pair, (tag, exact, margin, witness) in want.items():
        g_tag, g_exact, g_margin, g_witness = got[pair]
        if (g_tag, g_exact, g_witness) != (tag, exact, witness):
            problems.append(f"{pair}: tag, exact flag or witness differs from the reference")
        elif not math.isclose(g_margin, margin, rel_tol=MARGIN_RTOL, abs_tol=0.0):
            problems.append(f"{pair}: margin {g_margin!r} vs reference {margin!r}")
    return problems[:20]


def check_scan(out: Path, output: dict, sizes: dict, seed: int) -> list[str]:
    """Exit 0, no contradictions, the seeded proved set, and every refutation
    re-established independently of the scan's own evaluation."""
    import numpy as np
    from aldous.order import (
        RelationLedger, recheck_witness, seed_known, witness_graph,
    )
    from aldous.symrep import delta_matrix

    problems = []
    if output.get("exit") != 0:
        problems.append(f"scan exited {output.get('exit')}: {output.get('stderr', '')[-300:]}")
    summary = output.get("summary") or {}
    if summary.get("contradictions"):
        problems.append(f"contradictions: {summary['contradictions'][:3]}")
    if summary.get("graphs_tried") != sizes["budget"]:
        problems.append(f"graphs tried {summary.get('graphs_tried')} != {sizes['budget']}")
    if not output.get("file"):
        return problems + ["no ledger written"]
    text = (out / output["file"]).read_text(encoding="utf-8")
    ledger = RelationLedger.from_json(text)
    if ledger.n != sizes["n"]:
        return problems + [f"ledger n={ledger.n}"]
    if set(ledger.proved_pairs()) != set(seed_known(sizes["n"]).proved_pairs()):
        problems.append("proved set differs from seed_known")

    lam1: dict = {}

    def lowest(shape, graph):
        key = (shape, graph)
        if key not in lam1:
            lam1[key] = float(np.linalg.eigvalsh(delta_matrix(shape, graph))[0])
        return lam1[key]

    for pair in ledger.refuted_pairs():
        entry = ledger.entry(*pair)
        if entry.exact:
            try:
                recheck_witness(entry, tol=TOL)
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                problems.append(f"{pair}: exact witness fails recheck: {exc}")
            continue
        graph = witness_graph(entry.witness)
        margin = lowest(entry.sigma, graph) - lowest(entry.tau, graph)
        if not margin > 10 * TOL:
            problems.append(f"{pair}: independent margin {margin!r} <= {10 * TOL}")

    ref = load_reference("scan-numeric-n8")
    if seed == DEFAULT_SEED and ref and ref["sizes"] == sizes:
        problems += compare_ledgers(ledger_view(json.loads(text)), ref["view"],
                                    proved_too=False)
    return problems


def check_seed(out: Path, output: dict, sizes: dict, seed: int) -> list[str]:
    """Counts and entries equal to the reference; every separating margin > 0."""
    data = json.loads((out / output["file"]).read_text(encoding="utf-8"))
    view = ledger_view(data)
    problems = []
    if data["n"] != sizes["n"]:
        problems.append(f"ledger n={data['n']}")
    for s, t, tag, exact, margin, _ in view["refuted"]:
        if tag in ("remark1", "ds81") and not margin > 0:
            problems.append(f"({s}, {t}) {tag} margin {margin!r} not positive")
    ref = load_reference("seed-exact-n12")
    if ref and ref["sizes"] == sizes:
        counts = {"proved": len(view["proved"]), "refuted": len(view["refuted"])}
        if counts != ref["counts"]:
            problems.append(f"counts {counts} vs reference {ref['counts']}")
        problems += compare_ledgers(view, ref["view"], proved_too=True)
    return problems


def check_verify(out: Path, output: dict, sizes: dict, seed: int) -> list[str]:
    """Every suite and the game run pass, with the reference's check names."""
    data = json.loads((out / output["file"]).read_text(encoding="utf-8"))
    problems = [f"suite {name} failed: {[c['name'] for c in r['checks'] if not c['ok']][:5]}"
                for name, r in data["suites"].items() if not r["passed"]]
    if not data["game"]["passed"]:
        problems.append("game consistency run failed")
    ref = load_reference("verify-n6")
    if ref and ref["sizes"] == sizes and verify_view(data) != ref["view"]:
        problems.append("check names differ from the reference")
    return problems


CHECKS = {
    "scan-numeric-n8": check_scan,
    "seed-exact-n12": check_seed,
    "verify-n6": check_verify,
}


def items(workload: str, out: Path, output: dict) -> dict:
    """Item counts recorded with the environment."""
    if workload == "verify-n6":
        data = json.loads((out / output["file"]).read_text(encoding="utf-8"))
        return {"checks_run": sum(len(r["checks"]) for r in data["suites"].values())
                + len(data["game"]["checks"])}
    view = ledger_view(json.loads((out / output["file"]).read_text(encoding="utf-8")))
    found = {"pairs_decided": len(view["proved"]) + len(view["refuted"])}
    if workload == "scan-numeric-n8":
        found["graphs_tried"] = (output.get("summary") or {}).get("graphs_tried")
    return found


def scan_evaluations(out: Path, output: dict, sizes: dict, seed: int) -> int:
    """(shape, graph) evaluations the scan had to make, replayed from its
    ledger: graph i evaluates every shape of a pair not refuted before it."""
    from aldous.graphs import random_graph
    from aldous.order import graph_witness, seed_known

    n, budget = sizes["n"], sizes["budget"]
    seeded = seed_known(n)
    graph_of = {
        json.dumps(graph_witness(random_graph(n, seed + i)), sort_keys=True): i
        for i in range(budget)
    }
    found_by = defaultdict(set)
    data = json.loads((out / output["file"]).read_text(encoding="utf-8"))
    for rec in data["entries"]:
        if rec["status"] == "refuted" and rec["tag"] == "scan":
            key = json.dumps(rec["witness"], sort_keys=True)
            found_by[graph_of[key]].add((rec["sigma"], rec["tau"]))
    refuted = {(str(s), str(t)) for s, t in seeded.refuted_pairs()}
    pairs = [(str(s), str(t)) for s, t in seeded.pairs()]
    total = 0
    for i in range(budget):
        total += len({shape for pair in pairs if pair not in refuted for shape in pair})
        refuted |= found_by[i]
    return total
