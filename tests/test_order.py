import hashlib
import json
import weakref
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from aldous.graphs import (
    GRAPH_FAMILIES,
    WeightedGraph,
    complete_graph,
    complete_on_first,
    cycle_graph,
    graph_family,
    matching_graph,
    quasi_complete_graph,
    quasi_complete_weights,
    path_graph,
    random_graph,
    star_graph,
    support_matching_number,
    weighted_star_graph,
)
import aldous.order as order
from aldous.order import (
    SCAN_FAMILIES,
    BoundReport,
    LedgerConflict,
    RelationEntry,
    RelationLedger,
    ScanReport,
    _family_graphs,
    check_invariant_vector_bounds,
    check_matching_bound,
    check_matching_bounds,
    check_onestar_bounds,
    check_pair,
    check_weightedstar_bounds,
    export_dot,
    graph_witness,
    lambda_extremes,
    recheck_witness,
    refutes,
    scan,
    seed_known,
    witness_graph,
)
from aldous.partitions import Partition, conjugate, content_sum, in_row_class, partitions_of
from aldous.symrep import (
    DEFAULT_DIM_CAP,
    STACK_FLOATS,
    DimensionCapExceeded,
    _derived_from,
    rep_transposition,
)

from references import check_reducing, export_dot_networkx, is_h_irreducible, star_decompose


def test_graph_families():
    star = star_graph(4, 4)
    assert star.edges() == [(1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
    m = matching_graph(8, 4)
    assert len(m.edges()) == 4
    assert support_matching_number(m) == 4
    qc = quasi_complete_graph(4, [2.0, 0.0, 1.0])
    expected = 2.0 * star_graph(4, 2).weights + 1.0 * star_graph(4, 4).weights
    assert np.array_equal(qc.weights, expected)
    assert cycle_graph(5).wt == 5.0
    assert complete_on_first(6, 3).wt == 3.0
    with pytest.raises(ValueError):
        star_graph(4, 1)
    with pytest.raises(ValueError):
        matching_graph(4, 3)
    with pytest.raises(ValueError):
        graph_family("nope", 4)


def test_graph_validation_and_json():
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(3, [(1, 2, -1.0)])
    g = random_graph(5, 13)
    assert WeightedGraph.from_json(g.to_json()) == g


@pytest.mark.parametrize("weights", [
    random_graph(6, 3).weights,
    random_graph(9, 4, density=0.2).weights,
    star_graph(7, 5).weights,
    matching_graph(8, 3).weights,
    np.zeros((5, 5)),
    np.zeros((0, 0)),
    quasi_complete_graph(4, [1e300, 0.0, 1e300]).weights / 2,
    complete_graph(6).weights * 0.1,
    np.zeros((1, 1)),
    np.array([[-0.0, -0.0], [0.0, -0.0]]),
    np.array([[0.0, 8e307], [8e307, 0.0]]),  # 2 wt = 1.6e308 still fits
    np.array([[0.0, 5e-324], [5e-324, 0.0]]),
])
def test_graph_total_weight_is_the_upper_triangle_sum(weights):
    graph = WeightedGraph(weights.copy())
    assert graph.wt.hex() == float(np.sum(np.triu(weights, 1))).hex()
    assert graph.n == weights.shape[0] and not graph.weights.flags.writeable


@pytest.mark.parametrize("weights, message", [
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], "weight matrix must be square"),
    ([[0.0, np.nan], [-1.0, 5.0]], "weights must be finite"),
    ([[0.0, np.inf], [np.inf, 0.0]], "weights must be finite"),
    ([[0.0, 1.0], [-1.0, 5.0]], "weight matrix must be symmetric"),
    ([[0.0, 1.0], [2.0, 0.0]], "weight matrix must be symmetric"),
    ([[-1.0, -2.0], [-2.0, 0.0]], "weights must be nonnegative"),
    ([[0.0, -1.0], [-1.0, 3.0]], "weights must be nonnegative"),
    ([[1.0, 0.0], [0.0, 0.0]], "diagonal must be zero"),
    ([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]],
     "weights too large"),
    ([[0.0, 9e307], [9e307, 0.0]], "weights too large"),
    ([[0.0, -1.0], [-1.0, 0.0]], "weights must be nonnegative"),
    ([[0.0, -0.5, 1.0], [-0.5, 0.0, 1.0], [1.0, 1.0, 0.0]], "weights must be nonnegative"),
    (np.zeros(3), "weight matrix must be square"),
    (np.zeros((2, 2, 2)), "weight matrix must be square"),
    ([[np.nan]], "weights must be finite"),
    ([[0.0, -np.inf], [-np.inf, 0.0]], "weights must be finite"),
    # when several checks fail, the first in the order above names the fault
    ([[0.0, np.nan, 0.0], [1.0, 0.0, 0.0]], "weight matrix must be square"),
    ([[0.0, np.inf, 1e308], [np.inf, 0.0, 1e308], [1e308, 1e308, 0.0]],
     "weights must be finite"),
    ([[-1.0, -2.0], [-3.0, 0.0]], "weight matrix must be symmetric"),
    ([[-1.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]],
     "weights must be nonnegative"),
    ([[1.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]],
     "diagonal must be zero"),
])
def test_graph_validation_messages(weights, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph(np.array(weights))


def test_quasi_complete_detection():
    assert quasi_complete_weights(star_graph(5, 3)) is not None
    assert quasi_complete_weights(complete_graph(4)) == [1, 1, 1]
    assert quasi_complete_weights(cycle_graph(5)) is None
    assert quasi_complete_weights(matching_graph(6, 2)) is None


def test_check_pair_star_counterexample():
    ref = check_pair(Partition([2, 2]), Partition([2, 1, 1]), star_graph(4, 4))
    assert ref is not None and ref.exact
    assert ref.margin == 1.0
    assert check_pair(Partition([2, 1, 1]), Partition([2, 2]), star_graph(4, 4)) is None


def test_check_pair_cycle_counterexample():
    ref = check_pair(Partition([4, 2]), Partition([3, 3]), cycle_graph(6))
    assert ref is not None and not ref.exact
    assert ref.margin > 1e-6


def test_check_pair_entry_rechecks_to_its_own_margin():
    # one exact pair (a star) and one numeric pair (a cycle)
    for sigma, tau, graph, exact in (
            (Partition([2, 2]), Partition([2, 1, 1]), star_graph(4, 4), True),
            (Partition([4, 2]), Partition([3, 3]), cycle_graph(6), False)):
        ref = check_pair(sigma, tau, graph)
        assert ref == RelationEntry(sigma, tau, "refuted", "scan", graph_witness(graph),
                                    ref.margin, exact)
        assert recheck_witness(ref) == ref.margin


def test_check_pair_trivial_rep_never_refuted():
    for tau in partitions_of(4):
        if tau == Partition([4]):
            continue
        assert check_pair(Partition([4]), tau, star_graph(4, 4)) is None
        assert check_pair(Partition([4]), tau, random_graph(4, 3)) is None


def test_seed_known_n4_decides_everything():
    ledger = seed_known(4)
    assert not ledger.unknown_pairs()
    assert len(ledger.proved_pairs()) == 9
    assert len(ledger.refuted_pairs()) == 11
    two_two, one_col = Partition([2, 2]), Partition([2, 1, 1])
    assert ledger.status(two_two, one_col) == "refuted"
    assert ledger.status(one_col, two_two) == "refuted"
    assert ledger.entry(two_two, one_col).tag == "cor:asympval"
    assert ledger.entry(two_two, one_col).margin == 1.0


def test_seed_known_entries():
    ledger = seed_known(5)
    top, bottom = Partition([5]), Partition([1] * 5)
    assert ledger.entry(top, bottom).tag == "cor:n1n"
    assert ledger.status(Partition([4, 1]), Partition([3, 2])) == "proved"
    entry = ledger.entry(Partition([3, 1, 1]), Partition([3, 2]))
    # dominance-comparable: refuted through the complete graph; the content
    # sums are 0 and 2 so the margin is exactly 2
    assert entry.status == "refuted" and entry.tag == "ds81"
    assert entry.margin == 2.0
    assert content_sum(Partition([3, 2])) == 2
    assert content_sum(Partition([3, 1, 1])) == 0


def test_seed_known_main_theorem_rows():
    ledger = seed_known(8)
    # k=1 applies at n=8: row class {[8],[7,1]}, column class {[1^8],[2,1^6]}
    assert ledger.entry(Partition([7, 1]), Partition([2] + [1] * 6)).tag in (
        "main", "clr", "cor:n1n", "bacher", "transitive",
    )
    assert ledger.status(Partition([7, 1]), Partition([2] + [1] * 6)) == "proved"


def test_close_transitively_is_the_transitive_closure():
    # a proved chain running against the partition order needs every middle
    # element, not one sweep over the first
    import networkx as nx

    parts = partitions_of(6)
    chain = [parts[i] for i in (9, 4, 7, 1, 10, 2)]
    ledger = RelationLedger(6)
    for a, b in zip(chain, chain[1:]):
        ledger.set_proved(a, b, "main")
    ledger.close_transitively()
    closure = nx.transitive_closure(nx.DiGraph(list(zip(chain, chain[1:]))))
    assert set(ledger.proved_pairs()) == set(closure.edges())


def _status_walk_closure(ledger):
    """The Warshall pass that walks status() pair by pair: the reference
    for close_transitively."""
    parts = partitions_of(ledger.n)
    for b in parts:
        above = [a for a in parts if a != b and ledger.status(a, b) == "proved"]
        below = [c for c in parts if c != b and ledger.status(b, c) == "proved"]
        for a in above:
            for c in below:
                if a != c and ledger.status(a, c) == "unknown":
                    ledger.set_proved(a, c, "transitive")


def _random_ledger(n, seed, refuted):
    rng = np.random.default_rng(seed)
    parts = partitions_of(n)
    pairs = [(a, b) for a in parts for b in parts if a != b]
    ledger = RelationLedger(n)
    chosen = rng.permutation(len(pairs))[:int(rng.integers(len(parts), 3 * len(parts)))]
    for k in chosen:
        ledger.set_proved(*pairs[k], ("cor:n1n", "bacher", "clr", "main")[k % 4])
    if refuted:
        witness = {"kind": "family", "family": "complete", "n": n}
        for k in rng.permutation(len(pairs))[:len(parts)]:
            if ledger.status(*pairs[k]) == "unknown":
                ledger.set_refuted(*pairs[k], witness, 1.0, True, "scan")
    # a ledger holds no pair of a shape with itself
    with pytest.raises(ValueError, match="not a pair of two different partitions"):
        ledger.set_proved(parts[1], parts[1], "main")
    return ledger


def _entry_fields(ledger):
    return {key: (e.status, e.tag, e.witness, e.margin, e.exact)
            for key, e in ledger.entries.items()}


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("refuted", [False, True], ids=["proved", "with-refuted"])
def test_close_transitively_equals_the_status_walk(n, refuted):
    for seed in range(6):
        ledger = _random_ledger(n, 100 * n + seed, refuted)
        reference = _random_ledger(n, 100 * n + seed, refuted)
        before = {key for key, e in ledger.entries.items() if e.status == "refuted"}
        ledger.close_transitively()
        _status_walk_closure(reference)
        assert _entry_fields(ledger) == _entry_fields(reference)
        assert {key for key, e in ledger.entries.items() if e.status == "refuted"} == before
        assert len(ledger.entries) > len(before) + 3


# sha256 of seed_known(n).to_json(), n <= 14 recorded before the seeding and
# the writer worked on partition indices, n = 15..18 before the ledger kept
# its decisions on p x p arrays, n = 19 and 20 before seeding took its
# lambda_1 vectors from closed forms instead of a nested-star walk; a
# deliberate format change updates them
SEEDED_SHA256 = {
    2: "5e1d4f46bf662d357ce0f41770fc6111388fc67f12e21afc5b56d4c195f509e0",
    3: "2a927c3acad4d855795ecd5be9a4577531fb0ce6972619dc244e36d44590be81",
    4: "dc39f364896c1071ba684588010925782c87a38b5b5ff0ef75df4b9121e3bde7",
    5: "26688da3c18490543a9a7c3ad3ab657151c432215648a4b8b8a58810c4128909",
    6: "af4a025cd5dcfca6a867a00f38b2c6c155d96810681b05637866808c46f4f24f",
    7: "1897ae2cba7c5da6800e41e043d870ec1e00270143a30c224ebee6d359b652e0",
    8: "52893c0610879a7caa076b5568dc90885ba5b6d6efa790392a4dd26374f842c8",
    9: "74f7581cb54a002823ba2b77e2b4f324ce6867ade73c1204d5d4c01a6eb613d0",
    10: "3e977ade8f58cf57858d8962b33d421e97838490502db2389c1591630fe7633b",
    11: "2bcab99508bb6779912b1994b1a989fc871ee3831ef4588718b87499e7db5247",
    12: "06702e13fae23e820d3d4c206e9440cc8a847039d62bf7fe2069e74fbb2c48b6",
    13: "2fc92728db9a9d5bd706d62e951ef15d8fff3e2054a1e82bd99549190a99a7a6",
    14: "82857f29203fc4856a9b2c6cf859097b683705f0143c37a38fd2cad03c9f2d56",
    15: "da1b1340f16940ed2cebae1694a7319e625b62a951f19acf16192fb86dfd326d",
    16: "b01d80398f54fdbe14799b3f6a4df829406155d7c5e84201d4d361ee6c17aa47",
    17: "2865bf0c9666ed58266d7c239339d140c908b175fb73a22b2b782ff7da5fbf1e",
    18: "ed8c8bca2dc8f696947faf51b666f483088ad1152d925de897c97586266cd696",
    19: "10b1b22e318b94cf4f0c45e8e70123db4cb0c313d6197ee2843cec247e8bcca0",
    20: "7c8263b6f2192526350d50b26359be5be5a48d6f0125e3a764d56f1a3ad7f25c",
}


@pytest.mark.parametrize("n", sorted(SEEDED_SHA256))
def test_seeded_ledger_bytes_are_pinned(n):
    text = seed_known(n).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEEDED_SHA256[n]


def test_seed_known_refuses_a_rule_that_refutes_a_proved_pair(monkeypatch):
    # the hook chain read backwards proves (n-1, 1) above (n), which the
    # lexicographic rule refutes
    hook = order.hook
    monkeypatch.setattr(order, "hook", lambda n, k: hook(n, n - 1 - k))
    with pytest.raises(LedgerConflict, match=r"^\(6,1\) >= \(7\) already proved$"):
        seed_known(7)


@pytest.mark.parametrize("tag", ["ds81", "remark1"])
def test_seed_known_refuses_a_witness_without_a_positive_margin(monkeypatch, tag):
    n = 7
    parts = partitions_of(n)
    table = order.dominance_table(n)
    # the first lexicographically ascending pair (i > j) the tag decides
    i, j = next((i, j) for i in range(len(parts)) for j in range(i)
                if table[j, i] == (tag == "ds81"))
    # the closed form that gives the tag's lambda_1 column, tied at (i, j)
    source = "complete_graph_eigenvalue" if tag == "ds81" else "remark_lambda1_scaled"
    column = getattr(order, source)

    def tied(shape):
        return column(parts[j] if shape == parts[i] else shape)

    monkeypatch.setattr(order, source, tied)
    with pytest.raises(LedgerConflict,
                       match=f"^{tag} witness fails on {parts[i]} vs {parts[j]}$"):
        seed_known(n)


def test_seed_known_makes_no_nested_star_walk(monkeypatch):
    # every seeded lambda_1 is a closed form: a walk anywhere in seeding fails
    import aldous.spectral as spectral

    def walk(*args):
        raise AssertionError("seed_known walked the Young lattice")

    monkeypatch.setattr(order, "nested_star_lambda1_scaled", walk)
    monkeypatch.setattr(spectral, "nested_star_lambda1_scaled", walk)
    monkeypatch.setattr(spectral, "_chains", walk)
    for n in range(2, 13):
        text = seed_known(n).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEEDED_SHA256[n]


def test_relation_entries_are_slotted():
    entry = next(iter(seed_known(4).entries.values()))
    assert not hasattr(entry, "__dict__")


def test_seeded_witnesses_recheck():
    ledger = seed_known(5)
    for pair in ledger.refuted_pairs():
        margin = recheck_witness(ledger.entry(*pair))
        assert margin > 0


def test_recheck_witness_compares_the_stored_margin():
    ledger = seed_known(5)
    for pair in ledger.refuted_pairs():
        entry = ledger.entry(*pair)
        stored = entry.margin
        # exact margins must match to the last bit
        entry.margin = stored * (1 + 1e-12)
        with pytest.raises(LedgerConflict, match="stored margin"):
            recheck_witness(entry)
        entry.margin = stored
    ledger, _ = scan(6, families=("cycles", "paths"), budget=1)
    numeric = [ledger.entry(*p) for p in ledger.refuted_pairs()
               if not ledger.entry(*p).exact]
    assert numeric
    for entry in numeric:
        stored = entry.margin
        entry.margin = stored * (1 + 1e-8)
        assert recheck_witness(entry) == stored
        entry.margin = stored * (1 + 1e-4)
        with pytest.raises(LedgerConflict, match="stored margin"):
            recheck_witness(entry)
        entry.margin = stored


def _ledgers_to_recheck():
    """seed_known(9), the scans the CLI runs at n = 5..7 by default and the
    n = 12 exact-family scan."""
    yield seed_known(9)
    for n in (5, 6, 7):
        yield scan(n)[0]
    yield scan(12, families=EXACT_FAMILIES, budget=5, seed=0)[0]


def test_recheck_ledger_margins_are_those_of_recheck_witness(monkeypatch):
    found = {}
    recheck = order._recheck

    def recorded(witness, n, shapes, i, j, margins, flags, tol):
        margins_found, problems = recheck(witness, n, shapes, i, j, margins, flags, tol)
        for k, margin in enumerate(margins_found):
            found[shapes[i[k]], shapes[j[k]]] = margin
        return margins_found, problems

    monkeypatch.setattr(order, "_recheck", recorded)
    for ledger in _ledgers_to_recheck():
        found.clear()
        assert order.recheck_ledger(ledger) == []
        pairs = ledger.refuted_pairs()
        assert set(found) == set(pairs)
        with monkeypatch.context() as m:
            m.setattr(order, "_recheck", recheck)
            assert [recheck_witness(ledger.entry(*pair)) for pair in pairs] == [
                found[pair] for pair in pairs]


def test_recheck_ledger_lists_each_tampered_pair_in_pairs_order():
    ledger, _ = scan(6, budget=20, seed=3)
    pairs = ledger.refuted_pairs()
    numeric = [pair for pair in pairs if not ledger.entry(*pair).exact]
    assert numeric and pairs[0] != numeric[0] != pairs[-1]
    # tampered in the reverse of pairs order: the last pair's margin, the
    # exact flag of a numeric refutation, the first pair's witness
    data = json.loads(ledger.to_json())
    records = {(record["sigma"], record["tau"]): record for record in data["entries"]}
    last, flag, first = (records[str(s), str(t)] for s, t in (pairs[-1], numeric[0], pairs[0]))
    last["margin"] *= 1.5
    flag["exact"] = True
    first["witness"] = {"kind": "graph", "n": 6, "edges": []}  # every lambda_1 is 0
    problems = order.recheck_ledger(RelationLedger.from_json(json.dumps(data)))
    assert [pair for pair, _ in problems] == [pairs[0], numeric[0], pairs[-1]]
    assert [message.split(" (")[0] for _, message in problems] == [
        "stored witness no longer refutes", "stored exact flag True of",
        f"stored margin {last['margin']!r} of"]


def test_check_pair_margin_is_the_exact_lambda1_difference():
    from aldous.spectral import nested_star_extremes

    rng = np.random.default_rng(11)
    checked = refuted = 0
    for n in range(3, 10):
        parts = partitions_of(n)
        graphs = [star_graph(n, n), complete_graph(n), graph_family("clique", n, k=n - 1),
                  quasi_complete_graph(n, [float(x) for x in rng.integers(0, 4, n - 1)]),
                  quasi_complete_graph(n, list(rng.random(n - 1)))]
        for graph in graphs:
            weights = quasi_complete_weights(graph)
            for _ in range(12):
                sigma, tau = (parts[int(k)] for k in rng.choice(len(parts), 2, replace=False))
                gap = nested_star_extremes(sigma, weights)[0] - nested_star_extremes(tau, weights)[0]
                ref = check_pair(sigma, tau, graph)
                checked += 1
                if gap > 0:
                    refuted += 1
                    assert ref.exact and ref.margin == float(gap)
                else:
                    assert ref is None
    assert checked == 420 and 0 < refuted < checked


def test_seed_known_reaches_n16():
    ledger = seed_known(16)
    separators = [ledger.entry(*p) for p in ledger.refuted_pairs()
                  if ledger.entry(*p).tag in ("remark1", "ds81")]
    assert len(separators) == 231 * 230 // 2
    assert all(entry.margin > 0 for entry in separators)


def test_ledger_conflict_detection():
    ledger = seed_known(4)
    with pytest.raises(LedgerConflict, match=r"^\(2,2\) >= \(2,1,1\) already refuted$"):
        ledger.set_proved(Partition([2, 2]), Partition([2, 1, 1]), "clr")
    with pytest.raises(LedgerConflict, match=r"^\(4\) >= \(3,1\) already proved$"):
        ledger.set_refuted(
            Partition([4]), Partition([3, 1]),
            {"kind": "family", "family": "complete", "n": 4}, 1.0, True,
        )
    # a pair decided the same way again keeps its first entry
    text = ledger.to_json()
    ledger.set_proved(Partition([4]), Partition([3, 1]), "main")
    ledger.set_refuted(Partition([2, 2]), Partition([2, 1, 1]), {}, 5.0, False)
    assert ledger.to_json() == text


def test_ledger_json_round_trip():
    ledger, _ = scan(4, budget=5, seed=1)
    text = ledger.to_json()
    back = RelationLedger.from_json(text)
    assert back.to_json() == text
    data = json.loads(text)
    assert data["n"] == 4
    assert len(data["entries"]) == 20


def _reference_json(ledger):
    """The ledger as one json.dumps(indent=2, sort_keys=True) call writes
    it: the bytes to_json must reproduce."""
    entries = []
    for sigma, tau in ledger.pairs():
        entry = ledger.entry(sigma, tau)
        record = {"sigma": str(sigma), "tau": str(tau)}
        if entry is None:
            record["status"] = "unknown"
        else:
            record["status"] = entry.status
            record["tag"] = entry.tag
            if entry.status == "refuted":
                record["witness"] = entry.witness
                record["margin"] = entry.margin
                record["exact"] = entry.exact
        entries.append(record)
    return json.dumps({"n": ledger.n, "entries": entries}, indent=2, sort_keys=True)


_AWKWARD_LEDGER = json.dumps({"n": 4, "entries": [
    {"sigma": "3,1", "tau": "4", "status": "refuted", "tag": "scan", "exact": False,
     "margin": 1e-300, "witness": {"kind": "graph", "n": 4, "edges": [[1, 2, 1], [2, 3, 2]]}},
    {"sigma": "2,2", "tau": "4", "status": "refuted", "tag": "scan", "exact": True,
     "margin": 1e300, "witness": {"kind": "graph", "n": 4, "edges": [],
                                  "note": "tab\t, quote \", newline\n, \u00e9"}},
    {"sigma": "2,1,1", "tau": "4", "status": "refuted", "tag": "scan", "exact": False,
     "margin": 2.0, "witness": {"kind": "family", "family": "star", "n": 4,
                                "params": {"k": 3}}},
    {"sigma": "2,1,1", "tau": "3,1", "status": "refuted", "margin": 3,
     "witness": {}},
    {"sigma": "4", "tau": "2,2", "status": "proved", "tag": "cor:n1n"},
    # equal margins that to_json must still write apart
    {"sigma": "1,1,1,1", "tau": "4", "status": "refuted", "margin": 0.0, "witness": {}},
    {"sigma": "1,1,1,1", "tau": "3,1", "status": "refuted", "margin": -0.0, "witness": {}},
]})


@pytest.mark.parametrize("build", [
    *(lambda n=n: seed_known(n) for n in range(2, 13)),
    *(lambda n=n: scan(n, budget=12, seed=n)[0] for n in range(4, 8)),
    lambda: RelationLedger(1),
    lambda: RelationLedger.from_json(_AWKWARD_LEDGER),
], ids=[*(f"seed{n}" for n in range(2, 13)), *(f"scan{n}" for n in range(4, 8)),
        "empty", "awkward"])
def test_to_json_writes_the_bytes_of_one_indented_dump(build):
    ledger = build()
    text = ledger.to_json()
    assert text == _reference_json(ledger)
    assert RelationLedger.from_json(text).to_json() == text


def test_set_refuted_refuses_what_from_json_refuses():
    # a ledger never holds a refutation its own to_json output could not
    # load: a non-finite or non-real margin, a non-bool exact, a non-dict
    # witness
    ledger = RelationLedger(3)
    sigma, tau = Partition([2, 1]), Partition([3])
    witness = {"kind": "family", "family": "complete", "n": 3}
    for bad_witness, margin, exact, message in [
            (witness, float("nan"), True, "margin must be a finite real, got nan"),
            (witness, float("inf"), False, "margin must be a finite real, got inf"),
            (witness, "1.0", False, "margin must be a finite real, got '1.0'"),
            (witness, True, False, "margin must be a finite real, got True"),
            (witness, 10**400, False, "margin must be a finite real"),
            (witness, 1.0, "yes", "exact must be a bool, got 'yes'"),
            (witness, 1.0, 1, "exact must be a bool, got 1"),
            ("complete", 1.0, True, "witness must be an object, got 'complete'"),
            (None, 1.0, True, "witness must be an object, got None")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            ledger.set_refuted(sigma, tau, bad_witness, margin, exact)
    assert ledger.status(sigma, tau) == "unknown" and not ledger.entries
    ledger.set_refuted(sigma, tau, witness, Fraction(1, 3), True)
    assert ledger.entry(sigma, tau).margin == 1 / 3
    assert RelationLedger.from_json(ledger.to_json()).to_json() == ledger.to_json()


def test_ledger_refuses_pairs_it_cannot_hold():
    # a pair of a shape with itself, or with a shape of another size, has
    # no cell: to_json and every pair list would drop it
    ledger = RelationLedger(3)
    witness = {"kind": "family", "family": "complete", "n": 3}
    for sigma, tau in [(Partition([2, 1]), Partition([2, 1])),
                       (Partition([4]), Partition([3, 1])),
                       (Partition([3]), Partition([2, 2])),
                       (Partition([2, 1]), (2, 1))]:
        for call in (lambda: ledger.set_proved(sigma, tau, "main"),
                     lambda: ledger.set_refuted(sigma, tau, witness, 1.0, True),
                     lambda: ledger.status(sigma, tau),
                     lambda: ledger.entry(sigma, tau)):
            with pytest.raises(ValueError, match="is not a pair of two different "
                                                 "partitions of 3$"):
                call()
    assert not ledger.entries and ledger.unknown_count() == 6


def test_ledger_entries_are_read_only():
    ledger = seed_known(5)
    sigma, tau = Partition([2, 2, 1]), Partition([5])
    entry = ledger.entry(sigma, tau)
    with pytest.raises(TypeError):
        ledger.entries[(sigma, tau)] = order.RelationEntry(sigma, tau, "proved", "main")
    with pytest.raises(TypeError):
        del ledger.entries[(sigma, tau)]
    assert ledger.entry(sigma, tau) == entry and entry.status == "refuted"


@pytest.mark.parametrize("build", [lambda: seed_known(9),
                                   lambda: scan(7, budget=12, seed=7)[0]],
                         ids=["seed9", "scan7"])
def test_from_json_restores_the_ledger_arrays(build):
    ledger = build()
    loaded = RelationLedger.from_json(ledger.to_json())
    for name in ("code", "margin", "exact"):
        before, after = getattr(ledger, name), getattr(loaded, name)
        assert before.dtype == after.dtype and np.array_equal(before, after), name
    assert loaded.witness.tolist() == ledger.witness.tolist()
    assert (ledger.code > len(order.PROVED_TAGS)).any()
    assert {type(e.margin) for e in loaded.entries.values() if e.status == "refuted"} == {float}


def test_from_json_writes_the_cells_it_parsed(monkeypatch):
    # the loader parses and checks its records, then writes each array by
    # one mask, as seeding and the scan do: it calls no method of the
    # ledger, so it neither looks a cell up again (`_cell`) nor writes one
    # cell at a time (`set_proved`, `set_refuted`)
    def no_call(*args, **kwargs):
        raise AssertionError("from_json called a ledger method")

    for ledger in (seed_known(9), scan(7, budget=12, seed=7)[0],
                   scan(6, ("random",), budget=20, seed=1)[0],
                   RelationLedger.from_json(_AWKWARD_LEDGER)):
        text = ledger.to_json()
        with monkeypatch.context() as m:
            for name, attr in vars(RelationLedger).items():
                if callable(attr) and name not in ("__init__", "from_json"):
                    m.setattr(RelationLedger, name, no_call)
            loaded = RelationLedger.from_json(text)
        assert loaded.to_json() == text


def _witness_objects(ledger):
    """The distinct witness objects of a ledger's refuted cells, by id."""
    return {id(w): w for w in ledger.witness[ledger.code > len(order.PROVED_TAGS)].tolist()}


def test_a_loaded_ledger_shares_one_dict_per_distinct_witness():
    for ledger in _ledgers_to_recheck():
        loaded = RelationLedger.from_json(ledger.to_json())
        texts = [json.dumps(w, sort_keys=True) for w in _witness_objects(loaded).values()]
        assert len(texts) == len(set(texts)) == len(_witness_objects(ledger))
    # equal as sorted JSON text, whatever the key order, is one dict; an
    # int and a float of one value, or 0.0 and -0.0, are two
    star = {"kind": "family", "family": "star", "n": 4, "params": {"k": 4}}
    witnesses = [star, dict(reversed(star.items())), {**star, "params": {"k": 4.0}},
                 {"kind": "graph", "n": 4, "edges": [[1, 2, 0.0]]},
                 {"kind": "graph", "n": 4, "edges": [[1, 2, -0.0]]}, {}, {}]
    pairs = list(RelationLedger(4).pairs())[:len(witnesses)]
    loaded = RelationLedger.from_json(json.dumps({"n": 4, "entries": [
        {"sigma": str(s), "tau": str(t), "status": "refuted", "margin": 1.0, "witness": w}
        for (s, t), w in zip(pairs, witnesses)]}))
    held = [loaded.entry(*pair).witness for pair in pairs]
    assert held == witnesses
    assert [id(w) for w in held] == [id(held[k]) for k in (0, 0, 2, 3, 4, 5, 5)]
    assert list(held[1]) == list(star)  # the first record's dict is the one kept


def test_recheck_ledger_groups_by_identity_with_no_json_encoding(monkeypatch):
    ledgers = [RelationLedger.from_json(ledger.to_json()) for ledger in _ledgers_to_recheck()]
    expected = [order.recheck_ledger(ledger) for ledger in ledgers]
    witnesses = []
    recheck = order._recheck

    def recorded(witness, *args):
        witnesses.append(witness)
        return recheck(witness, *args)

    def no_encoding(self, o):
        raise AssertionError("the re-check encoded JSON")

    monkeypatch.setattr(json.JSONEncoder, "encode", no_encoding)
    monkeypatch.setattr(order, "_recheck", recorded)
    for ledger, problems in zip(ledgers, expected):
        witnesses.clear()
        assert order.recheck_ledger(ledger) == problems == []
        # one evaluation per witness object, and each object once
        assert sorted(map(id, witnesses)) == sorted(_witness_objects(ledger))


def test_to_json_byte_cases_cover_every_witness_kind():
    # the splits refute every pair a random graph refutes in the default
    # scans, so the random-graph witnesses come from random-only scans
    kinds = set()
    for n in range(4, 8):
        for families in (SCAN_FAMILIES, ("random",)):
            for entry in scan(n, families, budget=12, seed=n)[0].entries.values():
                if entry.status == "refuted":
                    kinds.add((entry.witness["kind"], "params" in entry.witness))
    assert {("graph", False), ("quasi", False), ("family", False),
            ("family", True)} <= kinds


@pytest.mark.parametrize("text, message", [
    ("[]", "ledger JSON must be"),
    ('{"n": 5, "entries": null}', "entries must be a list"),
    ('{"n": 5}', "entries must be a list"),
    ('{"n": 5, "entries": [1]}', "entry 0 must be an object"),
    ('{"n": "5", "entries": []}', "n must be an int >= 1, got '5'"),
    ('{"n": 0, "entries": []}', "n must be an int >= 1"),
    ('{"n": true, "entries": []}', "n must be an int >= 1"),
    ('{"entries": []}', "n must be an int >= 1, got None"),
    ('{"n": 5, "entries": [{"sigma": "3,3", "tau": "4,1", "status": "proved", '
     '"tag": "clr"}]}', "entry 0 sigma '3,3' is not a partition of 5"),
    ('{"n": 5, "entries": [{"sigma": "4,1", "status": "unknown"}]}', "empty partition"),
    ('{"n": 5, "entries": [{"sigma": "4,1", "tau": "x", "status": "unknown"}]}',
     "malformed partition token"),
    ('{"n": 5, "entries": [{"sigma": "4,1", "tau": "3,2", "status": "open"}]}',
     "status must be proved, refuted or unknown, got 'open'"),
    ('{"n": 5, "entries": [{"sigma": "4,1", "tau": "3,2"}]}', "got None"),
    ('{"n": 5, "entries": [{"sigma": "4,1", "tau": "3,2", "status": "proved"}]}',
     "unknown citation tag None"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": 1.0, "exact": true, "witness": "complete"}]}',
     "witness must be an object, got 'complete'"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": NaN, "witness": {}}]}', "margin must be a finite real, got nan"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": "1", "witness": {}}]}', "margin must be a finite real"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": true, "witness": {}}]}', "margin must be a finite real"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": 1' + "0" * 400 + ', "witness": {}}]}', "margin must be a finite real"),
    ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", "status": "refuted", '
     '"margin": 1.0, "exact": 1, "witness": {}}]}', "exact must be a bool, got 1"),
    ("{", "Expecting"),
    # a shape paired with itself, which to_json never writes, whatever the
    # status: the pair lists skip the diagonal, so nothing would check it
    ('{"n": 3, "entries": [{"sigma": "3", "tau": "3", "status": "refuted", "tag": "scan", '
     '"margin": 1.0, "exact": true, "witness": {"kind": "family", "family": "complete", '
     '"n": 3}}]}', "^entry 0: sigma and tau are the same partition$"),
    ('{"n": 3, "entries": [{"sigma": "3", "tau": "2,1", "status": "proved", "tag": "clr"}, '
     '{"sigma": "2,1", "tau": "2,1", "status": "unknown"}]}',
     "^entry 1: sigma and tau are the same partition$"),
    # a pair given twice, whatever its status: to_json writes each pair once
    ('{"n": 3, "entries": [{"sigma": "3", "tau": "2,1", "status": "unknown"}, '
     '{"sigma": "3", "tau": "2,1", "status": "unknown"}]}',
     r"^entry 1: \(3\) >= \(2,1\) given twice$"),
])
def test_ledger_from_json_rejects_bad_documents(text, message):
    with pytest.raises(ValueError, match=message):
        RelationLedger.from_json(text)


def test_pair_lists_equal_the_status_walk():
    scanned, _ = scan(6, budget=30, seed=0)
    ledgers = [scanned, RelationLedger.from_json(scanned.to_json()), seed_known(8),
               RelationLedger(4), _random_ledger(6, 3, refuted=True)]
    # a pair on partitions of another size is refused, so it is in no list
    with pytest.raises(ValueError, match="not a pair of two different partitions of 6"):
        ledgers[-1].set_proved(Partition([5]), Partition([4, 1]), "main")
    for ledger in ledgers:
        for status, listed in (("unknown", ledger.unknown_pairs()),
                               ("proved", ledger.proved_pairs()),
                               ("refuted", ledger.refuted_pairs())):
            assert listed == [pair for pair in ledger.pairs()
                              if ledger.status(*pair) == status]
        assert ledger.unknown_count() == len(ledger.unknown_pairs())
    assert all(lists for lists in (scanned.unknown_pairs(), scanned.proved_pairs(),
                                   scanned.refuted_pairs()))


def test_ledger_pair_count_is_p_n_times_p_n_minus_one():
    for n in range(1, 26):
        pairs = len(partitions_of(n)) * (len(partitions_of(n)) - 1)
        assert order._pairs_exceed(n, pairs - 1) and not order._pairs_exceed(n, pairs)
    # the largest ledger seed_known writes loads; one size up does not
    assert 392_502 <= order.MAX_LEDGER_PAIRS < 626_472
    assert RelationLedger.from_json('{"n": 20, "entries": []}').n == 20
    for n in (21, 40, 200, 10**9):
        with pytest.raises(ValueError, match="MAX_LEDGER_PAIRS"):
            RelationLedger.from_json(json.dumps({"n": n, "entries": []}))
        with pytest.raises(ValueError, match="MAX_LEDGER_PAIRS"):
            RelationLedger(n)


def test_seed_known_and_scan_refuse_a_ledger_over_max_pairs(monkeypatch):
    def unlisted(n):
        raise AssertionError(f"partitions of {n} listed")

    monkeypatch.setattr(order, "partitions_of", unlisted)
    for n in (21, 40, 10**9):
        with pytest.raises(ValueError, match="MAX_LEDGER_PAIRS"):
            seed_known(n)
        with pytest.raises(ValueError, match="MAX_LEDGER_PAIRS"):
            scan(n, budget=1)


@pytest.mark.parametrize("witness, message", [
    ({"kind": "graph", "n": 4, "edges": [[1, 2, 1.0]]}, "equal to 3, got 4"),
    ({"kind": "family", "family": "complete", "n": True}, "got True"),
    ({"kind": "family", "family": "complete", "n": 3.0}, "got 3.0"),
    ({"kind": "family", "family": ["star"], "n": 3}, "unknown graph family"),
    ({"kind": "family", "family": "cycle", "n": 3, "params": {"k": 3}},
     "known keys"),
    ({"kind": "family", "family": "star", "n": 3, "params": {"k": "3"}},
     "family 'star' params"),
    ({"kind": "quasi", "n": 3, "weights": [1]}, "list of 2"),
    ({"kind": "quasi", "n": 3, "weights": [1, -1]}, "nonnegative rationals"),
    ({"kind": "quasi", "n": 3, "weights": [1, True]}, "nonnegative rationals"),
    ({"kind": "quasi", "n": 3, "weights": [1, "1/0"]}, "nonnegative rationals"),
    ({"kind": "quasi", "n": 3, "weights": [1, float("inf")]}, "nonnegative rationals"),
    ({"kind": "quasi", "n": 3, "weights": [1, "nan"]}, "nonnegative rationals"),
    ({"kind": "quasi", "n": 3, "weights": [1, [1]]}, "nonnegative rationals"),
    ({"kind": "tree", "n": 3}, "unknown witness kind"),
    ({"kind": "family", "family": "random", "n": 3}, "needs param 'seed'"),
    ({"kind": "family", "family": "weighted_star", "n": 3, "params": {"a": [1, -5]}},
     r"negative weight on edge \(1,3\)"),
    ({"kind": "family", "family": "weighted_star", "n": 3, "params": {"a": [1, float("nan")]}},
     "weights must be finite"),
])
def test_witness_graph_rejects_malformed_witnesses(witness, message):
    with pytest.raises(ValueError, match=message):
        witness_graph(witness, 3)


# each table family at n = 5 with its required params only, and the graph
# the direct constructor call builds
_MINIMAL_FAMILIES = {
    "complete": ({}, complete_graph(5)),
    "star": ({}, star_graph(5, 5)),
    "clique": ({}, complete_on_first(5, 5)),
    "cycle": ({}, cycle_graph(5)),
    "path": ({}, path_graph(5)),
    "matching": ({}, matching_graph(5, 2)),
    "quasi": ({"a": [1, 0, 2, 0.5]}, quasi_complete_graph(5, [1, 0, 2, 0.5])),
    "weighted_star": ({"a": [1, 0, 2, 0.5]}, weighted_star_graph(5, [1, 0, 2, 0.5])),
    "random": ({"seed": 3}, random_graph(5, 3, 0.5)),
}


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_family_witness_with_minimal_params_is_the_constructor_graph(family):
    assert set(_MINIMAL_FAMILIES) == set(GRAPH_FAMILIES)
    params, expected = _MINIMAL_FAMILIES[family]
    witness = {"kind": "family", "family": family, "n": 5, "params": params}
    assert witness_graph(witness, 5) == expected
    assert graph_family(family, 5, **params) == expected
    for key in params:
        with pytest.raises(ValueError, match=f"needs param '{key}'"):
            graph_family(family, 5, **{k: v for k, v in params.items() if k != key})


def test_structured_scan_families_sweep_table_params_only():
    for name, (family, params_at) in order._STRUCTURED_FAMILIES.items():
        assert name in SCAN_FAMILIES and family in GRAPH_FAMILIES
        takes = GRAPH_FAMILIES[family][1]
        for n in range(2, 13):  # scan needs n >= 2
            for params in params_at(n):
                assert params.keys() <= takes.keys()
                graph_family(family, n, **params)


def test_witness_graph_checks_n_only_against_a_given_ledger_n():
    complete = {"kind": "family", "family": "complete", "n": 4}
    assert witness_graph(complete) == complete_graph(4)
    with pytest.raises(ValueError, match="equal to 3"):
        witness_graph(complete, 3)
    quasi = {"kind": "quasi", "n": 3, "weights": [0.5, "1/4"]}
    assert witness_graph(quasi, 3) == quasi_complete_graph(3, [0.5, 0.25])


def test_scan_consistency_small():
    for n in (4, 5):
        ledger, report = scan(n, budget=25, seed=42)
        assert report.consistent
        for pair in ledger.refuted_pairs():
            assert recheck_witness(ledger.entry(*pair)) > 0


def test_scan_deterministic():
    for args, kwargs in [
        ((5,), {"budget": 10, "seed": 7}),
        # shapes above dim_cap skipped on every numeric graph
        ((6,), {"budget": 60, "seed": 5, "dim_cap": 9}),
        # the default families mix nested stars and numeric graphs in one
        # block, and stacks skip the nested stars
        ((7,), {"budget": 20, "seed": 42}),
        # both members of a conjugate pair take their stacks from one chain
        ((8, ("random",)), {"budget": 8, "seed": 0}),
        ((8, ("random",)), {"budget": 8, "seed": 11}),
    ]:
        first, first_report = scan(*args, **kwargs)
        second, second_report = scan(*args, **kwargs)
        assert first.to_json() == second.to_json()
        assert asdict(first_report) == asdict(second_report)
        if "dim_cap" in kwargs:
            assert first_report.skipped_shapes > 0
        if args[0] >= 7:
            assert first_report.numeric_evaluations > 0
            assert first_report.refutations_found > 0


def test_scan_leaves_transposition_cache_empty():
    # assembly builds no per-transposition images, so memory stays O(dim^2)
    rep_transposition.cache_clear()
    lambda_extremes.cache_clear()
    scan(6, families=("random",), budget=2, seed=11)
    assert rep_transposition.cache_info().currsize == 0


def reference_scan(n, families=SCAN_FAMILIES, budget=100, tol=1e-9, seed=0,
                   dim_cap=DEFAULT_DIM_CAP):
    """The scan one (shape, graph) evaluation at a time through the cached
    lambda_extremes, with the per-graph merge scan keeps. The report also
    counts the numeric evaluations, as numeric_evaluations."""
    ledger = order.seed_known(n)
    report = ScanReport(n)
    parts = partitions_of(n)

    def undecided(pairs):
        todo = [p for p in pairs if ledger.status(*p) != "refuted"]
        return todo, sorted({s for pair in todo for s in pair}, key=parts.index)

    todo, shapes = undecided(ledger.pairs())
    report.numeric_evaluations = 0
    for family in families:
        for graph, witness in _family_graphs(family, n, budget, seed):
            report.graphs_tried += 1
            if not todo:
                continue
            values, exact_flags = {}, {}
            for shape in shapes:
                try:
                    values[shape], _, exact_flags[shape] = lambda_extremes(
                        shape, graph, dim_cap=dim_cap)
                except DimensionCapExceeded:
                    report.skipped_shapes += 1
                    continue
                report.numeric_evaluations += not exact_flags[shape]
            found = report.refutations_found
            for sigma, tau in todo:
                if sigma not in values or tau not in values:
                    continue
                exact = exact_flags[sigma] and exact_flags[tau]
                margin = values[sigma] - values[tau]
                if not refutes(margin, exact, sigma, tau, graph.wt, tol):
                    continue
                witness = witness or graph_witness(graph)
                if ledger.status(sigma, tau) == "proved":
                    report.contradictions.append(
                        {"sigma": str(sigma), "tau": str(tau),
                         "margin": float(margin), "witness": witness})
                    continue
                ledger.set_refuted(sigma, tau, witness, float(margin), exact, "scan")
                report.refutations_found += 1
            if report.refutations_found > found:
                todo, shapes = undecided(todo)
    refuted = [e for e in ledger.entries.values() if e.status == "refuted"]
    numeric = [e.margin for e in refuted if not e.exact]
    report.refutations_exact = len(refuted) - len(numeric)
    report.refutations_numeric = len(numeric)
    report.min_numeric_margin = min(numeric, default=None)
    return ledger, report


class ScanRecorder:
    """Counts scan's spectrum calls and records its stacks as (shape,
    graphs) through the order module's bindings: the assembled ones and
    those derived for the mate of a conjugate pair. At each solve it also
    notes, as (shape, slices solved, slices), every other stack still
    alive."""

    def __init__(self, monkeypatch):
        self.solves = []
        self.stacks = []
        self.alive = []
        live = []
        spectrum = order.spectrum

        def counted(m, *args, **kwargs):
            self.solves.append(len(m))
            alive = [entry for entry in live if entry[1]() is not None]
            own, = [entry for entry in alive if np.shares_memory(m, entry[1]())]
            own[2] += 1
            self.alive.append([(shape, solved, size) for shape, _, solved, size in
                               (entry for entry in alive if entry is not own)])
            return spectrum(m, *args, **kwargs)

        def recording(make, graphs_at):
            def recorded(shape, *args, **kwargs):
                stack = make(shape, *args, **kwargs)
                self.stacks.append((shape, list(args[graphs_at])))
                # the array owning the floats lives as long as any slice does
                owner = stack if stack.base is None else stack.base
                live.append([shape, weakref.ref(owner), 0, len(stack)])
                return stack
            return recorded

        monkeypatch.setattr(order, "spectrum", counted)
        # delta_matrices(shape, graphs, ...), conjugate_operators(shape, stack, graphs)
        for name, graphs_at in (("delta_matrices", 0), ("conjugate_operators", 1)):
            monkeypatch.setattr(order, name, recording(getattr(order, name), graphs_at))

    def no_solved_stack_kept(self):
        """No stack outlived the solve of its last slice."""
        return all(solved < size for alive in self.alive for _, solved, size in alive)


EXACT_FAMILIES = ("splits", "cliques")
# (n, budget, dim_cap, families, blocks): blocks, if set, patches
# STACK_FLOATS to blocks n^2, so that the scan reads the candidates
# `blocks` graphs at a time, and each stack holds at most that many
LOOP_CASES = [
    (4, 30, DEFAULT_DIM_CAP, SCAN_FAMILIES, None),
    (5, 60, DEFAULT_DIM_CAP, SCAN_FAMILIES, None),
    (6, 10, DEFAULT_DIM_CAP, SCAN_FAMILIES, None),  # below every shape's stack step at n = 6
    (6, 150, DEFAULT_DIM_CAP, SCAN_FAMILIES, None),  # above the step of the dim-16 shapes
    (7, 20, DEFAULT_DIM_CAP, SCAN_FAMILIES, None),
    (7, 15, 20, SCAN_FAMILIES, None),  # shapes of dim 21 and 35 skipped
    (8, 5, DEFAULT_DIM_CAP, EXACT_FAMILIES, None),  # nested stars only: no solve
    # blocks of 8 and 6 graphs: some mix nested stars with numeric graphs,
    # and stacks of 1 to 8 graphs end at block edges
    (6, 40, DEFAULT_DIM_CAP, SCAN_FAMILIES, 8),
    (7, 15, 20, SCAN_FAMILIES, 6),
    (8, 5, DEFAULT_DIM_CAP, EXACT_FAMILIES, 5),  # one walk per block of 5 nested stars
    (12, 5, DEFAULT_DIM_CAP, EXACT_FAMILIES, None),  # the scan test_exact_family_scan_is_pinned pins
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, budget, dim_cap, families, blocks", LOOP_CASES, ids=[
    f"{n}-{budget}-{dim_cap}" + ("" if families == SCAN_FAMILIES else "-exact")
    + ("" if blocks is None else f"-blocks{blocks}")
    for n, budget, dim_cap, families, blocks in LOOP_CASES])
def test_scan_equals_the_one_graph_at_a_time_loop(monkeypatch, n, budget, dim_cap, families,
                                                  blocks, seed):
    lambda_extremes.cache_clear()
    expected, expected_report = reference_scan(n, families, budget=budget, seed=seed,
                                               dim_cap=dim_cap)
    if blocks is not None:
        monkeypatch.setattr(order, "STACK_FLOATS", blocks * n * n)
        # at least three blocks, some mixing nested stars and numeric graphs
        # unless every candidate is a nested star
        kinds = [quasi_complete_weights(graph) is None
                 for family in families for graph, _ in _family_graphs(family, n, budget, seed)]
        assert len(kinds) > 2 * blocks
        mixed = [len(set(kinds[k:k + blocks])) == 2 for k in range(0, len(kinds), blocks)]
        assert any(mixed) == (families == SCAN_FAMILIES)
    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(n, families, budget=budget, seed=seed, dim_cap=dim_cap)
    assert ledger.to_json() == expected.to_json()
    assert asdict(report) == asdict(expected_report)
    if blocks is not None:
        assert all(len(graphs) <= blocks for _, graphs in recorder.stacks)
    assert (report.skipped_shapes > 0) == (dim_cap < DEFAULT_DIM_CAP)
    # one solve per numeric evaluation of the reference, and only numeric
    # graphs assembled
    assert len(recorder.solves) == expected_report.numeric_evaluations
    assert all(quasi_complete_weights(graph) is None
               for _, graphs in recorder.stacks for graph in graphs)


def test_scan_assembles_a_block_ahead_and_solves_per_evaluation(monkeypatch):
    from aldous.partitions import num_standard_tableaux

    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(6, budget=150, seed=0)
    candidates = [c for family in SCAN_FAMILIES for c in _family_graphs(family, 6, 150, 0)]
    numeric = [graph for graph, _ in candidates if quasi_complete_weights(graph) is None]
    # exact graphs sit between numeric ones: a stack runs across them
    kinds = [quasi_complete_weights(graph) is None for graph, _ in candidates]
    assert any(kinds[k] and not kinds[k + 1] and any(kinds[k + 2:])
               for k in range(len(kinds) - 1))
    stacks_of = {}
    for shape, graphs in recorder.stacks:
        stacks_of.setdefault(shape, []).append(graphs)
    for shape, stacks in stacks_of.items():
        step = max(1, STACK_FLOATS // max(num_standard_tableaux(shape), 6) ** 2)
        # consecutive runs of the numeric graphs, each a full step but the
        # one reaching the end of the candidates
        start = numeric.index(stacks[0][0])
        for graphs in stacks:
            assert graphs == numeric[start:start + step]
            start += len(graphs)
    # the budget is above the step of the dim-16 shapes: they assemble again
    assert max(len(stacks) for stacks in stacks_of.values()) > 1
    # every shape stays in a proved pair, so every assembled operator is solved
    assert sum(len(g) for _, g in recorder.stacks) == len(recorder.solves)
    assert report.refutations_found > 0
    assert recorder.no_solved_stack_kept()


def test_scan_keeps_no_stack_past_its_last_solve(monkeypatch):
    # one graph per stack for the shapes of dimension 9 and more, two for
    # the others: a stack is freed right after its last solve, not when
    # the next stack replaces it
    monkeypatch.setattr(order, "STACK_FLOATS", 100)
    expected, _ = scan(6, budget=12, seed=3)
    recorder = ScanRecorder(monkeypatch)
    ledger, _ = scan(6, budget=12, seed=3)
    assert ledger.to_json() == expected.to_json()
    assert {len(graphs) for _, graphs in recorder.stacks} == {1, 2}
    assert recorder.no_solved_stack_kept()
    # at most one stack per shape, and no single-graph stack, outlives a solve
    assert max(len(alive) for alive in recorder.alive) < len(partitions_of(6))
    assert all(size == 2 for alive in recorder.alive for _, _, size in alive)


def test_scan_reads_candidates_only_as_far_as_a_stack_reaches(monkeypatch):
    # blocks of two graphs, as many as the largest stack takes, and stacks
    # of one and two: the scan reads a random graph only with the block of
    # the stacks that need it, never a block ahead
    n, budget = 5, 40
    expected, expected_report = scan(n, ("random",), budget=budget, seed=7)
    monkeypatch.setattr(order, "STACK_FLOATS", 2 * n * n)
    read = []
    make = order.random_graph

    def counted_graph(*args):
        read.append(make(*args))
        return read[-1]

    reach = []
    assemble = order.delta_matrices

    def recorded(shape, graphs, *args):
        index = {id(graph): i for i, graph in enumerate(read)}
        reach.append((len(read), max(index[id(graph)] for graph in graphs) + 1))
        return assemble(shape, graphs, *args)

    monkeypatch.setattr(order, "random_graph", counted_graph)
    monkeypatch.setattr(order, "delta_matrices", recorded)
    ledger, report = scan(n, ("random",), budget=budget, seed=7)
    assert ledger.to_json() == expected.to_json()
    assert asdict(report) == asdict(expected_report)
    for count, end in reach:
        assert count == end + end % 2  # the read blocks end with the stack's
    assert reach[0][0] <= 2 and max(end for _, end in reach) == budget
    assert len(read) == report.graphs_tried == budget


def numeric_candidates(n, families, budget, seed):
    """How many candidates of a scan are not nested stars."""
    return sum(quasi_complete_weights(graph) is None
               for family in families for graph, _ in _family_graphs(family, n, budget, seed))


def assert_evaluates_every_shape(recorder, report, expected_report, n, families, budget, seed):
    """The hand-made ledgers below leave shapes in no open pair. The
    reference stops evaluating such a shape; the scan, whose seeded ledgers
    keep every shape in play, evaluates every shape on every candidate. So
    every field of the two reports agrees but the evaluation counts, and
    the scan solves each shape under dim_cap once per numeric candidate."""
    fields, expected = asdict(report), asdict(expected_report)
    for name in ("numeric_evaluations", "skipped_shapes"):
        del fields[name], expected[name]
    assert fields == expected
    solves = numeric_candidates(n, families, budget, seed) * len(partitions_of(n))
    assert len(recorder.solves) == report.numeric_evaluations == solves
    assert report.skipped_shapes == 0
    assert recorder.no_solved_stack_kept()


def _ledger_open_only_at(pairs):
    """A seed_known stand-in: every pair refuted through the complete graph
    but the given ones, which stay unknown."""
    def seeded(size):
        ledger = RelationLedger(size)
        for pair in ledger.pairs():
            if pair not in pairs:
                ledger.set_refuted(*pair, {"kind": "family", "family": "complete",
                                           "n": size}, 1.0, True, "ds81")
        return ledger
    return seeded


@pytest.mark.parametrize("n", [5, 6])
def test_scan_solves_every_shape_after_its_pairs_are_refuted(monkeypatch, n):
    # this ledger leaves open only the false bottom >= top and hook >=
    # standard, refuted by the first graph, and the true standard >= hook:
    # every other shape is in no open pair from the start, and bottom and
    # top in none after the first graph, yet all are solved to the end
    bottom, top = Partition([1] * n), Partition([n])
    std, hook = Partition([n - 1, 1]), Partition([n - 2, 1, 1])
    open_pairs = {(bottom, top), (hook, std), (std, hook)}
    monkeypatch.setattr(order, "seed_known", _ledger_open_only_at(open_pairs))
    families = ("paths", "matchings", "random")
    lambda_extremes.cache_clear()
    expected, expected_report = reference_scan(n, families, budget=30, seed=4)
    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(n, families, budget=30, seed=4)
    assert ledger.to_json() == expected.to_json()
    assert_evaluates_every_shape(recorder, report, expected_report, n, families, 30, 4)
    assert report.refutations_found == 2
    assert {pair for pair in ledger.refuted_pairs() if pair in open_pairs} == {
        (bottom, top), (hook, std)}
    assert {shape for shape, _ in recorder.stacks} == set(partitions_of(n))


def test_scan_derives_each_mate_from_its_canonical_stack(monkeypatch):
    # only the pairs between 2,2,1,1 and 2,1,1,1,1 are open; every stack of
    # a non-canonical shape, theirs included, is derived from its canonical
    # mate's on the same graphs, right after that stack is solved
    n = 6
    first, second = Partition([2, 2, 1, 1]), Partition([2, 1, 1, 1, 1])
    monkeypatch.setattr(order, "seed_known",
                        _ledger_open_only_at({(first, second), (second, first)}))
    families = ("paths", "random")
    lambda_extremes.cache_clear()
    expected, expected_report = reference_scan(n, families, budget=12, seed=5)
    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(n, families, budget=12, seed=5)
    assert ledger.to_json() == expected.to_json()
    assert_evaluates_every_shape(recorder, report, expected_report, n, families, 12, 5)
    derived = [k for k, (shape, _) in enumerate(recorder.stacks) if _derived_from(shape)]
    mates = {shape for shape in partitions_of(n) if conjugate(shape).parts > shape.parts}
    assert {first, second} <= mates == {recorder.stacks[k][0] for k in derived}
    for k in derived:
        shape, graphs = recorder.stacks[k]
        assert recorder.stacks[k - 1] == (conjugate(shape), graphs)
    # no stack outlives its own solves: a canonical one is gone before
    # its mate's first solve
    assert all(alive == [] for alive in recorder.alive)


def test_scan_counts_the_candidates_left_once_every_pair_is_decided(monkeypatch):
    # only the false bottom >= top is open; the first graph, a star,
    # refutes it exactly, and the scan still evaluates and counts every
    # candidate
    n = 5
    bottom, top = Partition([1] * n), Partition([n])
    monkeypatch.setattr(order, "seed_known", _ledger_open_only_at({(bottom, top)}))
    lambda_extremes.cache_clear()
    expected, expected_report = reference_scan(n, budget=30, seed=2)
    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(n, budget=30, seed=2)
    assert ledger.to_json() == expected.to_json()
    assert_evaluates_every_shape(recorder, report, expected_report, n, SCAN_FAMILIES, 30, 2)
    assert report.refutations_found == 1 and report.refutations_numeric == 0
    assert report.graphs_tried == sum(
        1 for family in SCAN_FAMILIES for _ in _family_graphs(family, n, 30, 2))


@pytest.mark.parametrize("n", range(2, 13))
def test_seeded_ledgers_keep_every_shape_in_play(n):
    # scan evaluates every shape on every candidate; with a seeded ledger no
    # evaluation is wasted, since the top is proved above every other shape
    # and proved pairs stay open to be audited
    proved, decided = seed_known(n)._grid()
    todo = proved | ~decided
    np.fill_diagonal(todo, False)
    assert (todo.any(axis=0) | todo.any(axis=1)).all()
    assert proved[0, 1:].all()


def replayed_evaluations(ledger, n, budget, seed):
    """Evaluations a random-only scan had to make, replayed from its ledger
    by the rule of the benchmark's check: graph i evaluates every shape of a
    pair not refuted before it."""
    seeded = seed_known(n)
    graph_of = {json.dumps(graph_witness(random_graph(n, seed + i)), sort_keys=True): i
                for i in range(budget)}
    found_by = {}
    for pair in ledger.refuted_pairs():
        entry = ledger.entry(*pair)
        if entry.tag == "scan":
            found_by.setdefault(graph_of[json.dumps(entry.witness, sort_keys=True)],
                                set()).add(pair)
    refuted = set(seeded.refuted_pairs())
    total = 0
    for i in range(budget):
        total += len({s for pair in seeded.pairs() if pair not in refuted for s in pair})
        refuted |= found_by.get(i, set())
    return total


@pytest.mark.parametrize("n, budget, seed", [(6, 40, 0), (7, 10, 42), (8, 2, 1)])
def test_scan_solves_match_the_replayed_evaluations(monkeypatch, n, budget, seed):
    recorder = ScanRecorder(monkeypatch)
    ledger, report = scan(n, ("random",), budget=budget, seed=seed)
    assert report.refutations_found > 0
    assert len(recorder.solves) == replayed_evaluations(ledger, n, budget, seed)
    monkeypatch.undo()
    plain, plain_report = scan(n, ("random",), budget=budget, seed=seed)
    assert ledger.to_json() == plain.to_json()
    assert asdict(report) == asdict(plain_report)


# scan(n, budget=b, seed=42) with the default families: the count and
# sha256 of its refuted entries, each as
# [sigma, tau, tag, witness, exact, margin if exact else None] in pairs()
# order and dumped with sorted keys, and its report but the numeric margin
SCAN_PINS = {
    (6, 1000): (66, "48ff766fed2dc8e06f4040ab65763546d83c0e17eec54fe7aeb0ce921d16a9c7",
                {"n": 6, "graphs_tried": 1014, "refutations_found": 10, "skipped_shapes": 0,
                 "numeric_evaluations": 11044, "refutations_exact": 62,
                 "refutations_numeric": 4, "contradictions": []}),
    (7, 100): (123, "201ece1da4fc1ac82fc804de4f2c3fff719b15204a88f9059e89cbf4278b3e25",
               {"n": 7, "graphs_tried": 116, "refutations_found": 17, "skipped_shapes": 0,
                "numeric_evaluations": 1560, "refutations_exact": 120,
                "refutations_numeric": 3, "contradictions": []}),
}


@pytest.mark.parametrize("n, budget", sorted(SCAN_PINS))
def test_scan_ledger_and_report_are_pinned(n, budget):
    ledger, report = scan(n, budget=budget, seed=42)
    records = [[str(e.sigma), str(e.tau), e.tag, e.witness, e.exact,
                e.margin if e.exact else None]
               for e in (ledger.entry(*pair) for pair in ledger.refuted_pairs())]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()
    fields = asdict(report)
    del fields["min_numeric_margin"]
    assert (len(records), digest, fields) == SCAN_PINS[n, budget]


def test_exact_family_scan_is_pinned():
    # every candidate is a nested star; reference_scan gives the same bytes
    # (LOOP_CASES)
    ledger, report = scan(12, families=EXACT_FAMILIES, budget=5, seed=0)
    digest = hashlib.sha256(ledger.to_json().encode("utf-8")).hexdigest()
    assert digest == "efdcbcd59937c6f54e33fd64025eb3ccf6cf532aed46a3c606aea485ea11c625"
    assert asdict(report) == {
        "n": 12, "graphs_tried": 21, "refutations_found": 546, "skipped_shapes": 0,
        "numeric_evaluations": 0, "refutations_exact": 3473, "refutations_numeric": 0,
        "min_numeric_margin": None, "contradictions": []}


def test_scan_refuses_unknown_and_repeated_families_before_seeding(monkeypatch):
    def seeded(n):
        raise AssertionError("seeded before the families were checked")

    monkeypatch.setattr(order, "seed_known", seeded)
    with pytest.raises(ValueError, match="^unknown scan family 'bogus'$"):
        scan(12, families=("splits", "cliques", "bogus"), budget=5)
    for retired in ("stars", "quasi"):
        with pytest.raises(ValueError, match=f"^unknown scan family '{retired}'$"):
            scan(12, families=("splits", retired), budget=5)
    with pytest.raises(ValueError, match="^repeated scan family 'random'$"):
        scan(6, families=("random", "random"), budget=2)


def test_incomparable_two_column_chain():
    for n in (6, 8, 9):
        chain = [Partition([2] * i + [1] * (n - 2 * i)) for i in range(1, n // 2 + 1)]
        star = star_graph(n, n)
        for i, j in combinations(range(len(chain)), 2):
            taller = chain[j]  # more rows of two boxes
            shorter = chain[i]
            ref = check_pair(taller, shorter, star)
            assert ref is not None and ref.exact
            assert ref.margin == float(j - i)
            assert content_sum(taller) > content_sum(shorter)


def test_check_matching_bound():
    assert check_matching_bound(Partition([7, 1]), 1).ok
    assert check_matching_bound(Partition([8]), 1).ok
    report = check_matching_bound(Partition([10, 2]), 2)
    assert report.ok and report.bound == 4
    with pytest.raises(ValueError):
        check_matching_bound(Partition([5, 3]), 1)  # not in the k=1 row class
    with pytest.raises(ValueError):
        check_matching_bound(Partition([5, 1, 1]), 2)  # n=7 < 4k=8


def test_check_matching_bounds_is_lambda_max_of_the_fixed_matching():
    instances = [(sigma, k) for k in (1, 2) for n in range(4 * k, 11)
                 for sigma in partitions_of(n) if in_row_class(sigma, k)]
    reports = check_matching_bounds(instances)
    rng = np.random.default_rng(0)
    for (sigma, k), report in zip(instances, reports, strict=True):
        graph = matching_graph(sigma.n, 2 * k)
        _, lam_max, exact = lambda_extremes(sigma, graph)
        assert not exact and report.worst == lam_max
        assert report == BoundReport("matching", lam_max <= 2 * k + 1e-9, 2 * k, lam_max)
        assert report.ok
        # relabelling the vertices conjugates the operator by an orthogonal
        # matrix, so one fixed matching stands for all of them
        labels = (rng.permutation(sigma.n) + 1).tolist()
        relabelled = WeightedGraph.from_edges(
            sigma.n, [(*sorted((labels[i - 1], labels[j - 1])), w) for i, j, w in graph.edges()])
        assert abs(lambda_extremes(sigma, relabelled)[1] - lam_max) <= 1e-9
    assert check_matching_bounds([]) == []
    with pytest.raises(ValueError, match="need n >= 4k = 8, got 7"):
        check_matching_bounds(instances[:3] + [(Partition([5, 1, 1]), 2)])


def test_check_onestar_bound():
    # lambda_max([n-1,1], star with l edges) = l + 1, tight
    for n in (6, 9):
        reports = check_onestar_bounds([(Partition([n - 1, 1]), 1, l) for l in range(1, n)])
        for l, report in enumerate(reports, start=1):
            assert report.ok and report.worst == l + 1
    (report,) = check_onestar_bounds([(Partition([12]), 0, 5)])
    assert report.worst == 0
    (report,) = check_onestar_bounds([(Partition([10, 1, 1]), 2, 3)])
    assert report.ok and report.worst <= 5
    assert check_onestar_bounds([]) == []
    with pytest.raises(ValueError, match="first-row >= n-1 class"):
        check_onestar_bounds([(Partition([6]), 0, 1), (Partition([4, 2]), 1, 1)])
    for l in (0, 6):
        with pytest.raises(ValueError, match="need 1 <= l <= 5"):
            check_onestar_bounds([(Partition([5, 1]), 1, l)])


def test_check_onestar_bounds_is_nested_star_extremes_per_instance():
    from aldous.spectral import nested_star_extremes

    instances = [(sigma, k, l)
                 for n in range(5, 13)
                 for k in range(0, 5)
                 for sigma in partitions_of(n) if in_row_class(sigma, k)
                 for l in range(1, n)]
    reports = check_onestar_bounds(reversed(instances))[::-1]
    assert len(reports) == len(instances)
    for (sigma, k, l), report in zip(instances, reports):
        star = [int(j == l) for j in range(1, sigma.n)]
        lam_max = nested_star_extremes(sigma, star)[1]
        assert report == BoundReport("onestar", lam_max <= l + k, l + k, float(lam_max))
        assert report.ok


def test_check_weightedstar_bound():
    # unit weights, k=1: bound n, star eigenvalue n-1+1 = n, tight
    n = 6
    (report,) = check_weightedstar_bounds([(Partition([5, 1]), 1, [1.0] * 5)])
    assert report.ok and abs(report.bound - 6.0) < 1e-12
    assert abs(report.worst - 6.0) < 1e-9
    assert check_weightedstar_bounds([(Partition([6]), 1, [1.0] * 5)])[0].ok
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = sorted(rng.random(11), reverse=True)
        sigma = Partition([10, 1, 1])
        assert check_weightedstar_bounds([(sigma, 2, a)])[0].ok
    with pytest.raises(ValueError):
        check_weightedstar_bounds([(Partition([5, 1]), 1, [1.0, 2.0, 1.0, 1.0, 1.0])])


def test_check_invariant_vector_bound():
    zero = WeightedGraph(np.zeros((6, 6)))
    assert check_invariant_vector_bounds([(Partition([5, 1]), 1, zero, [1])])[0].ok
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_graph(7, int(rng.integers(0, 1000)))
        vertices = [int(v) + 1 for v in rng.choice(7, size=2, replace=False)]
        assert check_invariant_vector_bounds([(Partition([5, 2]), 2, g, vertices)])[0].ok
    # classical gap bound at the minimum-degree vertex
    g = random_graph(6, 5)
    v = int(np.argmin(g.weights.sum(axis=1))) + 1
    assert check_invariant_vector_bounds([(Partition([5, 1]), 1, g, [v])])[0].ok


def test_lambda_extremes_many_is_lambda_extremes_per_pair(monkeypatch):
    shapes, graphs = [], []
    for n in (4, 5, 6):
        candidates = [random_graph(n, 10 + n), random_graph(n, 20 + n, density=0.3),
                      star_graph(n, n), quasi_complete_graph(n, [1] + [0] * (n - 2)),
                      weighted_star_graph(n, [1.0] + [0.0] * (n - 2)), cycle_graph(n)]
        for i, shape in enumerate(partitions_of(n)):
            for graph in candidates[i % 3:]:
                shapes.append(shape)
                graphs.append(graph)
    solved = []
    stacked = order.irrep_spectra

    def counted(shape, batch, *args, **kwargs):
        solved.extend(batch)
        return stacked(shape, batch, *args, **kwargs)

    monkeypatch.setattr(order, "irrep_spectra", counted)
    found = order._many(shapes, graphs)
    # counted before lambda_extremes, whose one-pair calls solve through _many too
    batched = list(solved)
    assert found == [lambda_extremes(s, g) for s, g in zip(shapes, graphs)]
    exact = [f for f, g in zip(found, graphs) if quasi_complete_weights(g) is not None]
    assert exact and all(e[2] and isinstance(e[0], Fraction) for e in exact)
    assert all(not f[2] for f, g in zip(found, graphs)
               if quasi_complete_weights(g) is None)
    assert order._many([], []) == []
    # each numeric (shape, graph) pair solved once, no nested star solved
    assert len(batched) == len(found) - len(exact)
    assert all(quasi_complete_weights(g) is None for g in batched)


def test_bound_checks_over_many_instances_match_single_checks():
    rng = np.random.default_rng(5)
    stars, vectors = [], []
    for size in (5, 6, 7):
        for k in (1, 2):
            sigma = Partition([size - k] + [1] * k)
            for _ in range(3):
                a = sorted(rng.random(size - 1).tolist(), reverse=True)
                stars.append((sigma, k, a))
                graph = random_graph(size, int(rng.integers(0, 1000)))
                vertices = [int(v) + 1 for v in rng.choice(size, size=k, replace=False)]
                vectors.append((sigma, k, graph, vertices))
    # a nested-star weighted star (one edge (1,2)) is still evaluated exactly
    stars.append((Partition([4, 1]), 1, [1, 0, 0, 0]))
    reports = check_weightedstar_bounds(stars)
    assert reports == [check_weightedstar_bounds([inst])[0] for inst in stars]
    assert reports[-1].worst == float(lambda_extremes(
        Partition([4, 1]), weighted_star_graph(5, [1, 0, 0, 0]))[1])
    reports = check_invariant_vector_bounds(vectors)
    assert reports == [check_invariant_vector_bounds([inst])[0] for inst in vectors]
    assert all(r.ok for r in reports)
    with pytest.raises(ValueError):
        check_weightedstar_bounds(stars + [(Partition([5, 1]), 1, [1.0, 2.0, 1.0, 1.0, 1.0])])


def test_scan_report_counts_the_ledger_refutations():
    ledger, report = scan(6, budget=30, seed=0)
    refuted = [ledger.entry(*pair) for pair in ledger.refuted_pairs()]
    numeric = [e.margin for e in refuted if not e.exact]
    assert numeric  # random graphs refute some pairs numerically at n = 6
    assert report.refutations_exact + report.refutations_numeric == len(refuted)
    assert report.refutations_numeric == len(numeric)
    assert report.min_numeric_margin == min(numeric, default=None)
    _, seeded_only = scan(4, families=(), budget=0)
    assert seeded_only.refutations_exact == len(seed_known(4).refuted_pairs())
    assert (seeded_only.refutations_numeric, seeded_only.min_numeric_margin) == (0, None)


def test_check_reducing():
    # the matching graph reduces row-class against column-class shapes
    h = matching_graph(8, 2)
    assert check_reducing(h, Partition([7, 1]), Partition([2] + [1] * 6))
    assert check_reducing(h, Partition([8]), Partition([1] * 8))
    zero = WeightedGraph(np.zeros((4, 4)))
    assert check_reducing(zero, Partition([2, 2]), Partition([2, 1, 1]))
    # K_4 on the incomparable pair: evaluates without error either way
    check_reducing(complete_graph(4), Partition([2, 2]), Partition([2, 1, 1]))


def reducing_by_conjugate(h, sigma, tau, tol=1e-9):
    """The reducing test as first written: lambda_max on sigma plus
    lambda_max on the conjugate of tau against twice the total weight,
    re-summed from the exact weights on the exact route."""
    _, lam_s, exact_s = lambda_extremes(sigma, h)
    _, lam_t, exact_t = lambda_extremes(conjugate(tau), h)
    weights = quasi_complete_weights(h)
    if exact_s and exact_t and weights is not None:
        wt = sum(w * k for k, w in enumerate(weights, start=1))
        return lam_s + lam_t <= 2 * wt
    return lam_s + lam_t <= 2 * h.wt + tol


def test_check_reducing_equals_the_conjugate_form():
    # lambda_max(sigma) <= lambda_1(tau) is the conjugate form, since the
    # operator on tau' is 2 wt I minus the one on tau
    rng = np.random.default_rng(17)
    decisions = {True: 0, False: 0}
    for n in range(2, 7):
        graphs = [complete_graph(n), star_graph(n, n), path_graph(n)]
        graphs += [matching_graph(n, m) for m in range(1, n // 2 + 1)]
        graphs += [random_graph(n, 40 * n + i) for i in range(3)]
        graphs.append(quasi_complete_graph(n, [float(x) for x in rng.random(n - 1)]))
        for h in graphs:
            for sigma in partitions_of(n):
                for tau in partitions_of(n):
                    found = check_reducing(h, sigma, tau)
                    assert found == reducing_by_conjugate(h, sigma, tau), (h, sigma, tau)
                    decisions[found] += 1
    assert min(decisions.values()) > 100


def test_matching_and_irreducibility():
    assert support_matching_number(matching_graph(8, 4)) == 4
    assert support_matching_number(complete_graph(5)) == 2
    assert support_matching_number(star_graph(6, 4)) == 1
    assert is_h_irreducible(complete_graph(5), 2)
    assert not is_h_irreducible(matching_graph(8, 4), 2)


def test_star_decompose_triangle():
    stars = star_decompose(complete_graph(3), 1)
    assert len(stars) == 2
    total = sum(s.weights for s in stars)
    assert np.array_equal(total, complete_graph(3).weights)


def test_star_decompose_star_input():
    stars = star_decompose(star_graph(5, 3), 1)
    assert 1 <= len(stars) <= 2
    total = sum(s.weights for s in stars)
    assert np.array_equal(total, star_graph(5, 3).weights)


def test_star_decompose_k5():
    stars = star_decompose(complete_graph(5), 2)
    assert len(stars) <= 6
    total = sum(s.weights for s in stars)
    assert np.array_equal(total, complete_graph(5).weights)


def test_star_decompose_random_irreducible():
    rng = np.random.default_rng(10)
    for k in (1, 2):
        for trial in range(20):
            n = int(rng.integers(5, 10))
            w = np.zeros((n, n))
            centers = rng.choice(n, size=int(rng.integers(1, 2 * k)), replace=False)
            for c in centers:
                for j in range(n):
                    if j != c and rng.random() < 0.6:
                        w[c, j] = w[j, c] = float(rng.random())
            graph = WeightedGraph(w)
            if not is_h_irreducible(graph, k):
                continue
            stars = star_decompose(graph, k)
            assert len(stars) <= 4 * k - 2
            if stars:
                total = sum(s.weights for s in stars)
                assert np.array_equal(total, graph.weights)


def test_star_decompose_rejects_reducible():
    with pytest.raises(ValueError):
        star_decompose(matching_graph(8, 2), 1)


def test_export_dot_structure_and_determinism():
    ledger = seed_known(4)
    dot = export_dot(ledger)
    assert dot == export_dot(seed_known(4))
    assert '"4" -> "3,1";' in dot
    assert '"3,1" -> "2,2";' in dot
    assert '"3,1" -> "2,1,1";' in dot
    assert '"2,2" -> "1,1,1,1";' in dot
    assert '"2,1,1" -> "1,1,1,1";' in dot
    # transitive reduction drops the direct top-to-bottom arrow
    assert '"4" -> "1,1,1,1";' not in dot
    assert "incomparable" in dot


def test_export_dot_empty_ledger():
    dot = export_dot(RelationLedger(4))
    assert "digraph" in dot and "->" not in dot.replace("rankdir", "")


# indices into partitions_of(6) of a chain that runs against their order
_CHAIN_6 = (9, 4, 7, 1, 10, 2)


def _shortcut_ledger() -> RelationLedger:
    """The proved chain _CHAIN_6 plus one proved shortcut over three of its
    links, not closed transitively, and one mutually refuted pair."""
    parts = partitions_of(6)
    chain = [parts[i] for i in _CHAIN_6]
    ledger = RelationLedger(6)
    for a, b in zip(chain, chain[1:]):
        ledger.set_proved(a, b, "main")
    ledger.set_proved(chain[1], chain[4], "clr")
    witness = {"kind": "family", "family": "complete", "n": 6}
    ledger.set_refuted(parts[3], parts[5], witness, 1.0, True)
    ledger.set_refuted(parts[5], parts[3], witness, 1.0, True)
    return ledger


_DOT_LEDGERS = {
    **{f"seed_known({n})": lambda n=n: seed_known(n) for n in range(2, 13)},
    # the ledgers of `aldous scan --n 5` and `--n 6` with --budget 200 --seed 42
    **{f"scan({n})": lambda n=n: scan(n, budget=200, seed=42)[0] for n in (5, 6)},
    "shortcut": _shortcut_ledger,
}


@pytest.mark.parametrize("name", _DOT_LEDGERS)
def test_export_dot_is_the_networkx_transitive_reduction(name):
    ledger = _DOT_LEDGERS[name]()
    assert export_dot(ledger) == export_dot_networkx(ledger)


def test_export_dot_draws_no_shortcut_of_an_unclosed_ledger():
    dot = export_dot(_shortcut_ledger())
    parts = partitions_of(6)
    chain = [parts[i] for i in _CHAIN_6]
    # the chain's links only, row by row: each shape starts at most one
    links = sorted(zip(chain, chain[1:]), key=lambda link: parts.index(link[0]))
    assert [line for line in dot.splitlines() if "->" in line] == [
        *(f'  "{a}" -> "{b}";' for a, b in links),
        f'  "{parts[3]}" -> "{parts[5]}" [style=dotted, dir=none, label=incomparable];']


def test_export_dot_refuses_a_proved_cycle():
    parts = partitions_of(5)
    ledger = RelationLedger(5)
    for a, b in ((1, 4), (4, 2), (2, 1)):
        ledger.set_proved(parts[a], parts[b], "main")
    for draw in (export_dot, export_dot_networkx):
        with pytest.raises(LedgerConflict, match="^proved relation contains a cycle$"):
            draw(ledger)


def test_witness_graph_round_trip():
    star = {"kind": "family", "family": "star", "n": 5, "params": {"k": 4}}
    assert witness_graph(star) == star_graph(5, 4)
    raw = {"kind": "graph", "n": 3, "edges": [[1, 2, 0.5]]}
    assert witness_graph(raw) == WeightedGraph.from_edges(3, [(1, 2, 0.5)])
    quasi = {"kind": "quasi", "n": 3, "weights": ["1/2", "1/4"]}
    assert witness_graph(quasi) == quasi_complete_graph(3, [0.5, 0.25])
    families = [
        ({"family": "complete"}, complete_graph(5)),
        ({"family": "clique", "params": {"k": 3}}, complete_on_first(5, 3)),
        ({"family": "cycle"}, cycle_graph(5)),
        ({"family": "path"}, path_graph(5)),
        ({"family": "matching", "params": {"m": 2}}, matching_graph(5, 2)),
    ]
    for fields, graph in families:
        assert witness_graph({"kind": "family", "n": 5, **fields}) == graph


def test_rescaled_graph_refutes_no_proved_pair():
    # eigensolver noise grows with the operator norm; at 1e9 a fixed 10 * tol
    # threshold let it refute the proved pair [5] >= [4,1]
    base = random_graph(5, 3)
    proved = seed_known(5).proved_pairs()
    for scale in (1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12):
        graph = WeightedGraph(base.weights * scale)
        assert [pair for pair in proved if check_pair(*pair, graph)] == []


def test_refutes_rule():
    sigma, tau = Partition([3, 1]), Partition([2, 2])
    assert refutes(Fraction(1, 10**40), True, sigma, tau, 1e12)
    assert not refutes(0, True, sigma, tau, 0.0)
    assert not refutes(1e-8, False, sigma, tau, 1.0)
    assert refutes(2e-8, False, sigma, tau, 1.0)
    # dim 3, ||M|| <= 2e9: the noise floor is 16 * eps * 3 * 2e9, about 2.1e-5
    assert not refutes(2e-5, False, sigma, tau, 1e9)
    assert refutes(3e-5, False, sigma, tau, 1e9)


@pytest.mark.parametrize("wt", [1.0, 1e9])
@pytest.mark.parametrize("dim", [1, 90, 5000])
def test_kernel_agrees_with_refutes_at_each_threshold(monkeypatch, dim, wt):
    # shapes of any dimension: refutes reads it through the order module
    monkeypatch.setattr(order, "num_standard_tableaux", lambda shape: dim)
    sigma, tau = Partition([2]), Partition([1, 1])
    tol = order.DEFAULT_TOL
    floors = [10 * tol, 16 * np.finfo(float).eps * dim * 2 * wt]
    margins = [x for floor in floors for x in (floor, np.nextafter(floor, np.inf))]
    # lambda_1 of shape i is margins[i], then 0 and -1000: cell (i, -2)
    # holds margins[i] exactly, and the cells (i, -1) out of scope all clear
    # the rule
    lam1 = np.array(margins + [0.0, -1e3])
    p, k = len(lam1), len(margins)
    scope = np.zeros((p, p), dtype=bool)
    scope[:k, -2] = True
    none = np.zeros((p, p), dtype=bool)
    refuted, contradicted = order._refutations(lam1, None, scope, none, wt,
                                               np.full((p, p), dim))
    scalar = [refutes(margin, False, sigma, tau, wt) for margin in margins]
    assert refuted[:k, -2].tolist() == scalar
    assert not (refuted & ~scope).any() and not contradicted.any()
    # at a threshold nothing is refuted, one ulp above the larger one is
    assert scalar == [margin > max(floors) for margin in margins]
    assert scalar.count(True) == 1
    # a proved cell the rule separates is a contradiction, not a refutation
    refuted, contradicted = order._refutations(lam1, None, scope, scope, wt,
                                               np.full((p, p), dim))
    assert not refuted.any() and contradicted[:k, -2].tolist() == scalar
    assert not (contradicted & ~scope).any()


@pytest.mark.parametrize("numerator", [0, 1])
def test_kernel_agrees_with_refutes_on_exact_margins(numerator):
    # scaled integers: lambda_1 = lam1 / scale, so the one cell's margin is
    # 0 or 1e-301, far below every numeric threshold
    sigma, tau = Partition([2]), Partition([1, 1])
    scale = 10**301
    lam1 = np.array([numerator, 0], dtype=object)
    scope = np.array([[False, True], [False, False]])
    refuted, contradicted = order._refutations(lam1, scale, scope, np.zeros_like(scope))
    margin = Fraction(numerator, scale)
    assert refuted[0, 1] == refutes(margin, True, sigma, tau, 1.0) == (numerator > 0)
    assert not contradicted.any() and refuted.sum() == numerator
    ledger = RelationLedger(2)
    order._refute(ledger, refuted, lam1, scale, "scan", {})
    assert [(e.sigma, e.tau, e.margin, e.exact) for e in ledger.entries.values()] == (
        [(sigma, tau, float(margin), True)] if numerator else [])


def test_remark2_even_split_consistency():
    rng = np.random.default_rng(12)
    from aldous.spectral import quasi_complete_spectrum

    for m in (2, 3, 4, 5, 6):
        n = 2 * m
        for _ in range(20):
            a = [float(x) for x in rng.random(n - 1)]
            wide = quasi_complete_spectrum(Partition([m + 1, m - 1]), a)[0]
            even = quasi_complete_spectrum(Partition([m, m]), a)[0]
            assert wide <= even + 1e-9


def test_scan_consistency_n7_small_budget():
    ledger, rep = scan(7, budget=15, seed=5)
    assert rep.consistent
    for pair in ledger.refuted_pairs():
        assert recheck_witness(ledger.entry(*pair)) > 0


def test_scan_never_promotes_to_proved():
    seeded = seed_known(5)
    scanned, _ = scan(5, budget=40, seed=9)
    assert set(scanned.proved_pairs()) == set(seeded.proved_pairs())


def test_weighted_star_bound_is_not_quasi_complete():
    g = weighted_star_graph(5, [4.0, 3.0, 2.0, 1.0])
    assert quasi_complete_weights(g) is None


def test_perfbench_caches_still_expose_cache_info(tmp_path):
    # the benchmark reads these caches' sizes after every run
    from aldous import game, order, partitions, symrep

    for cached in (order.lambda_extremes, symrep.rep_transposition,
                   partitions.content_matrix, game._a_wins):
        info = cached.cache_info()
        assert info.currsize >= 0
    # and its tracer hooks, times and subtracts functions by name: an
    # untimed install still yields every per-layer metric the benchmark
    # declares (run.py adds trace_overhead_s)
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1.0, tmp_path / "missing.json")
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted([*metrics, "trace_overhead_s"]) == sorted(
        m["name"] for m in declared["per_layer"])
