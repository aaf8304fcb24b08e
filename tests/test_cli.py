import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aldous
from aldous.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from aldous.graphs import GRAPH_FAMILIES, random_graph
from aldous.order import RelationLedger


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_star_example(capsys):
    code, out, _ = run(capsys, "spectrum", "--shape", "2,1,1",
                       "--family", "star", "--k", "4")
    assert code == EXIT_OK
    assert "lambda1,2.0" in out
    assert "spectrum,2.0,5.0,5.0" in out


def test_spectrum_trivial_rep(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(random_graph(4, 5).to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "spectrum", "--shape", "4", "--graph", str(path))
    assert code == EXIT_OK
    assert "lambda1,0.0" in out


def test_spectrum_sign_rep_complete(capsys):
    code, out, _ = run(capsys, "--format", "json", "spectrum", "--shape", "1,1,1",
                       "--family", "complete", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["lambda1"] - 6.0) < 1e-9
    assert payload["exact"] == ["6"]


def test_check_pair_refutation_exit_code(capsys):
    code, out, _ = run(capsys, "check-pair", "--sigma", "2,2", "--tau", "2,1,1",
                       "--family", "star", "--k", "4")
    assert code == EXIT_VIOLATION
    assert "margin 1.0" in out
    code, out, _ = run(capsys, "check-pair", "--sigma", "2,1,1", "--tau", "2,2",
                       "--family", "star", "--k", "4")
    assert code == EXIT_OK
    assert "no refutation" in out


def test_check_pair_dimension_cap(capsys, monkeypatch):
    # the cap is checked before any solve: 2,2 is within it, yet nothing is
    # assembled once 3,1 is above it
    from aldous import order

    monkeypatch.setattr(order, "delta_matrices", lambda *args: pytest.fail("assembled"))
    argv = ("--dim-cap", "2", "check-pair", "--sigma", "3,1", "--tau", "2,2", "--family")
    assert run(capsys, *argv, "cycle") == (EXIT_USAGE, "", "error: dim 3 of 3,1 exceeds cap 2\n")
    # a nested star is evaluated exactly, with no operator to cap
    assert run(capsys, *argv, "star") == (
        EXIT_OK, "no refutation: (3,1) >= (2,2) consistent with this graph\n", "")


def test_hasse_re_checks_under_the_dimension_cap(capsys, monkeypatch, tmp_path):
    # a numeric witness on 3,1 (dim 3) passes under the default cap, and a
    # cap of 2, from the flag or from ALDOUS_DIM_CAP, refuses it
    from aldous.graphs import cycle_graph
    from aldous.order import check_pair
    from aldous.partitions import Partition

    sigma, tau = Partition([3, 1]), Partition([4])
    ledger = RelationLedger(4)
    ledger.set_refuted(sigma, tau, {"kind": "family", "family": "cycle", "n": 4},
                       check_pair(sigma, tau, cycle_graph(4)).margin, False)
    path = tmp_path / "ledger.json"
    path.write_text(ledger.to_json(), encoding="utf-8")
    assert run(capsys, "hasse", "--in", str(path))[0] == EXIT_OK
    refused = (EXIT_USAGE, "", "error: (3,1) >= (4): dim 3 of 3,1 exceeds cap 2\n")
    assert run(capsys, "--dim-cap", "2", "hasse", "--in", str(path)) == refused
    monkeypatch.setenv("ALDOUS_DIM_CAP", "2")
    assert run(capsys, "hasse", "--in", str(path)) == refused


def test_game_command(capsys):
    code, out, _ = run(capsys, "game", "--sigma", "3", "--tau", "2,1", "--trace")
    assert code == EXIT_OK
    assert "wins" in out
    assert "round 1" in out


def test_scan_then_hasse(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.json"
    code, _, err = run(capsys, "scan", "--n", "4", "--budget", "5",
                       "--out", str(ledger_path))
    assert code == EXIT_OK
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["contradictions"] == []
    assert summary["unknown"] == 0
    dot_path = tmp_path / "order.dot"
    code, _, _ = run(capsys, "hasse", "--in", str(ledger_path),
                     "--out", str(dot_path))
    assert code == EXIT_OK
    dot = dot_path.read_text(encoding="utf-8")
    assert '"4" -> "3,1";' in dot
    # the summary counts the unknown pairs the written ledger lists
    for n in (5, 6, 7):
        code, _, err = run(capsys, "scan", "--n", str(n), "--budget", "10",
                           "--out", str(ledger_path))
        assert code == EXIT_OK
        ledger = RelationLedger.from_json(ledger_path.read_text(encoding="utf-8"))
        unknown = json.loads(err.strip().splitlines()[-1])["unknown"]
        assert unknown == len(ledger.unknown_pairs()) > 0


def test_hasse_rejects_tampered_witnesses(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.json"
    assert run(capsys, "scan", "--n", "4", "--budget", "5",
               "--out", str(ledger_path))[0] == EXIT_OK
    data = json.loads(ledger_path.read_text(encoding="utf-8"))
    for record in data["entries"]:
        if record["status"] == "refuted":
            record["margin"] = -5.0
            record["witness"] = {"kind": "graph", "n": 4, "edges": []}
    ledger_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "no longer refutes" in err


def test_hasse_rejects_tampered_margins(capsys, tmp_path):
    from aldous.order import seed_known

    ledger_path = tmp_path / "ledger.json"
    data = json.loads(seed_known(4).to_json())
    for record in data["entries"]:
        if record["status"] == "refuted":
            record["margin"] = -5.0  # witness kept
    ledger_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "stored margin -5.0" in err

    assert run(capsys, "scan", "--n", "4", "--budget", "5",
               "--out", str(ledger_path))[0] == EXIT_OK
    code, out, _ = run(capsys, "hasse", "--in", str(ledger_path))
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_scan_determinism(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "scan", "--n", "4", "--budget", "6", "--out", str(first))
    run(capsys, "scan", "--n", "4", "--budget", "6", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_verify_suite_exit_codes(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--suite", "characters", "--n", "4")
    assert code == EXIT_OK
    assert "ok" in out and "FAIL" not in out
    summary = json.loads(err.strip().splitlines()[-1])
    assert set(summary) == {"suite", "checks", "failed", "elapsed_s"}
    assert summary["suite"] == "characters" and summary["failed"] == 0
    assert summary["checks"] == len(out.strip().splitlines())
    assert summary["elapsed_s"] >= 0

    import aldous.verify as verify

    def failing(n):
        result = verify.SuiteResult("characters")
        result.add("holds", True)
        result.add("breaks", False, excess=1.5)
        return result

    monkeypatch.setitem(verify.SUITES, "characters", failing)
    code, out, err = run(capsys, "verify", "--suite", "characters", "--n", "4")
    assert code == EXIT_VIOLATION
    assert out.splitlines() == ["ok holds", "FAIL breaks"]
    summary = json.loads(err.strip().splitlines()[-1])
    assert (summary["checks"], summary["failed"]) == (2, 1)
    assert summary["failures"] == [{"name": "breaks", "ok": False, "excess": 1.5}]


def test_characters_csv(capsys):
    code, out, _ = run(capsys, "characters", "--n", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 shapes
    assert lines[0].startswith("shape,")
    assert lines[1].split(",")[0] == "4"


def test_print_config_honors_env(capsys, monkeypatch):
    monkeypatch.setenv("ALDOUS_DIM_CAP", "123")
    code, out, _ = run(capsys, "print-config")
    assert code == EXIT_OK
    assert json.loads(out)["dim_cap"] == 123


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol": 1e-6, "budget": 7}), encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(config), "print-config")
    assert code == EXIT_OK
    assert json.loads(out)["budget"] == 7
    code, out, _ = run(capsys, "--config", str(config), "--tol", "1e-3",
                       "print-config")
    assert json.loads(out)["tol"] == 1e-3


def test_tableau_cap_option_is_gone(capsys, tmp_path):
    from aldous.partitions import Partition, content_matrix

    content_matrix.cache_clear()
    assert run(capsys, "--tableau-cap", "1", "print-config")[0] == EXIT_USAGE
    # the rejected flag leaves no process-wide cap behind
    assert content_matrix(Partition([3, 1])).shape == (3, 4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tableau_cap": 10}), encoding="utf-8")
    code, _, err = run(capsys, "--config", str(config), "print-config")
    assert code == EXIT_USAGE
    assert "unknown config key 'tableau_cap'" in err


# sha256 of the ledger this scan writes; every refutation in it is exact
EXACT_SCAN = ["scan", "--n", "6", "--families", "splits,cliques", "--budget", "10",
              "--seed", "3"]
EXACT_SCAN_SHA256 = "689179f73244de6d09963fb7bf028927dbe97f46562f815aa9ea266a0ec1eeba"


def test_workers_option_is_gone(capsys, tmp_path):
    plain, flagged = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *EXACT_SCAN, "--out", str(plain))[0] == EXIT_OK
    assert run(capsys, "--workers", "1", *EXACT_SCAN, "--out", str(flagged))[0] == EXIT_OK
    assert hashlib.sha256(flagged.read_bytes()).hexdigest() == EXACT_SCAN_SHA256
    assert flagged.read_bytes() == plain.read_bytes()
    for count in ("2", "0"):
        code, out, err = run(capsys, "--workers", count, *EXACT_SCAN)
        assert code == EXIT_USAGE and out == ""
        assert "--workers" in err and "Traceback" not in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workers": 1}), encoding="utf-8")
    code, out, err = run(capsys, "--config", str(config), *EXACT_SCAN)
    assert code == EXIT_USAGE and out == ""
    assert "unknown config key 'workers'" in err and "Traceback" not in err
    code, out, _ = run(capsys, "print-config")
    assert code == EXIT_OK
    assert "workers" not in json.loads(out)


def test_bad_dim_cap_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv("ALDOUS_DIM_CAP", "abc")
    code, out, err = run(capsys, "print-config")
    assert code == EXIT_USAGE and out == ""
    assert "ALDOUS_DIM_CAP must be an integer, got 'abc'" in err


def test_verify_runs_the_effective_seed(capsys, tmp_path, monkeypatch):
    from aldous import cli

    seeds = []
    real = cli.run_suite

    def recording(name, n, **params):
        seeds.append(params.get("seed"))
        return real(name, n, **params)

    monkeypatch.setattr(cli, "run_suite", recording)
    config = tmp_path / "config.json"
    config.write_text('{"seed": 3}', encoding="utf-8")
    verify = ["verify", "--suite", "hooks", "--n", "4"]
    assert run(capsys, "--config", str(config), *verify)[0] == EXIT_OK
    assert run(capsys, "--config", str(config), *verify, "--seed", "5")[0] == EXIT_OK
    assert run(capsys, *verify)[0] == EXIT_OK
    assert seeds == [3, 5, 0]


@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--dim-cap", "9"]])
def test_verify_refuses_tol_and_dim_cap(capsys, flag):
    code, out, err = run(capsys, *flag, "verify", "--suite", "hooks", "--n", "4")
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines() == [f"error: verify does not take {flag[0]}"]


GAME = ["game", "--sigma", "3,1", "--tau", "2,2"]


@pytest.mark.parametrize("flag, argv", [
    (["--dim-cap", "9"], ["characters", "--n", "4"]),
    (["--tol", "1e-3"], ["characters", "--n", "4"]),
    (["--format", "json"], ["characters", "--n", "4"]),
    (["--dim-cap", "9"], GAME),
    (["--tol", "1e-3"], GAME),
    (["--format", "json"], GAME),
    # hasse always writes DOT: even the default format, given, is refused
    (["--format", "csv"], ["hasse", "--in", "LEDGER"]),
    (["--format", "json"], ["hasse", "--in", "LEDGER"]),
    (["--tol", "0.5"], ["spectrum", "--shape", "3,1", "--family", "star"]),
    (["--format", "json"], ["scan", "--n", "4", "--budget", "1"]),
    (["--format", "json"],
     ["check-pair", "--sigma", "3,1", "--tau", "2,2", "--family", "complete"]),
    (["--format", "json"], ["verify", "--suite", "hooks", "--n", "4"]),
])
def test_global_flags_a_command_does_not_read_are_refused(capsys, tmp_path, flag, argv):
    from aldous.order import seed_known

    ledger = tmp_path / "ledger.json"
    ledger.write_text(seed_known(4).to_json(), encoding="utf-8")
    argv = [str(ledger) if a == "LEDGER" else a for a in argv]
    code, out, err = run(capsys, *flag, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines() == [f"error: {argv[0]} does not take {flag[0]}"]


def test_config_and_environment_values_are_shared_defaults(capsys, tmp_path, monkeypatch):
    # a config file or ALDOUS_DIM_CAP sets every global value for every
    # command, including those that read none of them
    config = tmp_path / "config.json"
    config.write_text('{"tol": 1e-3, "dim_cap": 9, "format": "json"}', encoding="utf-8")
    monkeypatch.setenv("ALDOUS_DIM_CAP", "9")
    for argv in (["characters", "--n", "3"], GAME, ["verify", "--suite", "hooks", "--n", "3"]):
        assert run(capsys, "--config", str(config), *argv)[0] == EXIT_OK
    code, out, _ = run(capsys, "--tol", "0.5", "--dim-cap", "7", "--format", "json",
                       "print-config")
    assert code == EXIT_OK
    assert {k: json.loads(out)[k] for k in ("tol", "dim_cap", "format")} == {
        "tol": 0.5, "dim_cap": 7, "format": "json"}


@pytest.mark.parametrize("suite, n", [
    ("hooks", 0), ("lemma9", 3), ("characters", 1), ("dual", 1), ("oracle", 2), ("qc", 1),
])
def test_verify_suite_with_no_checks_is_a_usage_error(capsys, suite, n):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(n))
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines() == [f"error: suite {suite!r} has no checks at n = {n}"]


@pytest.mark.parametrize("content, message", [
    ('{"tol": "x"}', "config key 'tol' must be a number, got 'x'"),
    ('{"tol": true}', "config key 'tol' must be a number, got True"),
    ('{"budget": 2.5}', "config key 'budget' must be an integer, got 2.5"),
    ('{"budget": false}', "config key 'budget' must be an integer, got False"),
    ('{"dim_cap": "big"}', "config key 'dim_cap' must be an integer, got 'big'"),
    ('{"workers": null}', "unknown config key 'workers'"),
    ('{"families": 3}', "config key 'families' must be a string, got 3"),
    ('[{"budget": 2}]', "config file must hold a JSON object"),
    ('{"tol": NaN}', "tol must be finite and nonnegative, got nan"),
    ('{"budget": -1}', "budget must be nonnegative, got -1"),
    ('{"seed": -5}', "seed must be nonnegative, got -5"),
    ('{"format": "xml"}', "format must be one of csv, json, got 'xml'"),
    # nested past the recursion limit: a RecursionError is a usage error
    pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded",
                 id="nested-too-deep"),
])
def test_bad_config_values_are_usage_errors(capsys, tmp_path, content, message):
    config = tmp_path / "config.json"
    config.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "--config", str(config), "scan", "--n", "4")
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--tol", "nan"], "tol must be finite and nonnegative, got nan"),
    (["--tol", "inf"], "tol must be finite and nonnegative, got inf"),
    (["--tol", "-1"], "tol must be finite and nonnegative, got -1.0"),
    (["scan", "--n", "4", "--budget", "-3"], "budget must be nonnegative, got -3"),
    (["scan", "--n", "3", "--seed", "-5"], "seed must be nonnegative, got -5"),
    (["scan", "--n", "4", "--families", "splits", "--seed", "-5"],
     "seed must be nonnegative, got -5"),
    (["verify", "--suite", "hooks", "--n", "4", "--seed", "-5"],
     "seed must be nonnegative, got -5"),
    (["verify", "--suite", "qc", "--n", "4", "--seed", "-5"],
     "seed must be nonnegative, got -5"),
])
def test_bad_tol_and_budget_flags_are_usage_errors(capsys, argv, message):
    if argv[0] not in ("scan", "verify"):
        argv = argv + ["scan", "--n", "4", "--budget", "1"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("families, message", [
    ("splits,cliques,bogus", "unknown scan family 'bogus'"),
    # retired: the splits decide every pair they did
    ("stars", "unknown scan family 'stars'"),
    ("splits,cliques,quasi", "unknown scan family 'quasi'"),
    # retired: first witness of no refuted pair at n = 5..11
    ("matchings", "unknown scan family 'matchings'"),
    ("random,random", "repeated scan family 'random'"),
    ("", "--families names no scan family"),
    (",,", "--families names no scan family"),
])
def test_scan_refuses_a_bad_family_list_before_seeding(capsys, monkeypatch, families,
                                                       message):
    # a scan of no graph, or of one graph list twice, has no meaning; an
    # unknown name fails before any family is seeded or scanned
    from aldous import order

    monkeypatch.setattr(order, "seed_known", lambda n: pytest.fail("seeded"))
    code, out, err = run(capsys, "scan", "--n", "12", "--families", families,
                         "--budget", "5")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_config_accepts_integer_tol_and_zero_budget(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"tol": 0, "budget": 0, "seed": 3}', encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(config), "print-config")
    assert code == EXIT_OK
    assert json.loads(out)["tol"] == 0 and json.loads(out)["budget"] == 0
    assert run(capsys, "--config", str(config), "scan", "--n", "4")[0] == EXIT_OK


def test_usage_errors(capsys):
    assert run(capsys, "spectrum", "--shape", "1,2",
               "--family", "complete")[0] == EXIT_USAGE
    assert run(capsys, "spectrum", "--shape", "2,1")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    assert run(capsys, "--format", "dot", "print-config")[0] == EXIT_USAGE
    assert run(capsys, "check-pair", "--sigma", "3", "--tau", "2,2",
               "--family", "complete")[0] == EXIT_USAGE
    # long shapes are no usage error: the walks over their diagrams do not
    # recurse (spectrum answers too, but its assembly is O(n^2) at 1200 boxes)
    for argv, first in ((["game", "--sigma", "1200", "--tau", "1199,1"],
                         "A holding (1200) wins against B holding (1199,1)"),
                        (["check-pair", "--sigma", "1200", "--tau", "1199,1", "--family", "star"],
                         "no refutation: (1200) >= (1199,1) consistent with this graph")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and out.splitlines()[0] == first and err == ""


def test_graph_shape_size_mismatch(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(random_graph(5, 1).to_json(), encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "--shape", "2,2", "--graph", str(path))
    assert code == EXIT_USAGE
    assert "error" in err


PAIR_3 = ["check-pair", "--sigma", "1,1,1", "--tau", "2,1"]
PAIR_4 = ["check-pair", "--sigma", "2,2", "--tau", "3,1"]


@pytest.mark.parametrize("argv, n, edges, message", [
    # nested-star support: the exact path would convert the weight
    (PAIR_3, 3, "[[1, 2, 1.0], [1, 3, Infinity], [2, 3, Infinity]]",
     "weights must be finite"),
    (PAIR_4, 4, "[[1, 2, 1.0], [2, 4, Infinity]]", "weights must be finite"),
    (["spectrum", "--shape", "2,2"], 4, "[[1, 2, NaN], [3, 4, 1.0]]",
     "weights must be finite"),
    # finite, but the exact margin 3e308 does not fit in a float
    (PAIR_3, 3, "[[1, 2, 1e308], [1, 3, 1e308], [2, 3, 1e308]]",
     "weights too large"),
    # malformed edge lists
    (PAIR_3, 3, "[[1.5, 2, 1.0]]", "vertices must be ints"),
    (PAIR_3, 3, "[[true, 2, 1.0]]", "vertices must be ints"),
    (PAIR_3, 3, '[[1, 2, "x"]]', "is not a real number"),
    (PAIR_3, "3.0", "[[1, 2, 1.0]]", "n must be a nonnegative int"),
    (PAIR_3, 3, "[[1, 2]]", "must be [i, j, weight]"),
    (PAIR_3, 3, "[[1, 2, 1.0, 4]]", "must be [i, j, weight]"),
    (PAIR_3, 3, "[[1, 2, 1.0], [1, 2, 0.5]]", "given twice"),
    (PAIR_3, 3, "null", "edges must be a list"),
    (["spectrum", "--shape", "2,1"], 3, "[[1.5, 2, 1.0]]", "vertices must be ints"),
    (["spectrum", "--shape", "2,1"], "3.0", "[[1, 2, 1.0]]", "n must be a nonnegative int"),
    (["spectrum", "--shape", "2,1"], 3, "[[1, 2, 1.0], [1, 2, 0.5]]", "given twice"),
    pytest.param(PAIR_3, 3, "[" * 100000 + "]" * 100000, "maximum recursion depth exceeded",
                 id="nested-too-deep"),
])
def test_non_finite_weights_are_usage_errors(capsys, tmp_path, argv, n, edges,
                                             message):
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": {n}, "edges": {edges}}}', encoding="utf-8")
    code, out, err = run(capsys, *argv, "--graph", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


def test_scan_summary_reports_skipped_shapes(capsys, tmp_path):
    code, _, err = run(capsys, "--dim-cap", "4", "scan", "--n", "5",
                       "--families", "random", "--budget", "2",
                       "--out", str(tmp_path / "ledger.json"))
    assert code == EXIT_OK
    summary = json.loads(err.strip().splitlines()[-1])
    # 3 shapes of 5 have dimension above 4; [5] >= p is proved for every p,
    # so every shape stays in the audited pairs and each of the 2 graphs
    # drops each of the 3 once, solving the other 4
    assert summary["skipped_shapes"] == 6
    assert summary["numeric_evaluations"] == 8
    code, _, err = run(capsys, "scan", "--n", "5", "--families", "random",
                       "--budget", "2", "--out", str(tmp_path / "ledger.json"))
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["skipped_shapes"] == 0
    assert summary["numeric_evaluations"] == 14


@pytest.mark.parametrize("n, budget, numeric", [(6, 30, True), (4, 5, False)])
def test_scan_summary_counts_the_ledger_refutations(capsys, tmp_path, n, budget,
                                                    numeric):
    ledger_path = tmp_path / "ledger.json"
    code, _, err = run(capsys, "scan", "--n", str(n), "--budget", str(budget),
                       "--out", str(ledger_path))
    assert code == EXIT_OK
    summary = json.loads(err.strip().splitlines()[-1])
    refuted = [record for record in json.loads(ledger_path.read_text())["entries"]
               if record["status"] == "refuted"]
    margins = [record["margin"] for record in refuted if not record["exact"]]
    assert bool(margins) == numeric
    assert summary["refutations_exact"] == len(refuted) - len(margins)
    assert summary["refutations_numeric"] == len(margins)
    assert summary["min_numeric_margin"] == min(margins, default=None)


@pytest.mark.parametrize("argv, message", [
    (["--suite", "dual", "--n", "6", "--graphs", "0"], "--graphs must be positive"),
    (["--suite", "qc", "--n", "4", "--samples", "-1"], "--samples must be positive"),
    (["--suite", "bounds", "--n", "6", "--trials", "0"], "--trials must be positive"),
    (["--suite", "consistency", "--n", "4", "--budget", "0"],
     "--budget must be positive"),
    (["--suite", "bounds", "--n", "4"], "the bounds suite needs n >= 5"),
    (["--suite", "bounds", "--n", "3"], "the bounds suite needs n >= 5"),
])
def test_verify_rejects_bad_counts(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, unused", [
    (["--suite", "characters", "--n", "4", "--graphs", "2", "--budget", "7"],
     ["budget", "graphs"]),
    (["--suite", "lemma9", "--n", "4", "--samples", "3"], ["samples"]),
    (["--suite", "oracle", "--n", "4", "--graphs", "2", "--trials", "5"], ["trials"]),
])
def test_verify_rejects_counts_the_suite_does_not_take(capsys, argv, unused):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"does not take {', '.join(unused)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--suite", "characters", "--n", "3", "--seed", "4"],  # seed dropped
    ["--suite", "lemma9", "--n", "4", "--seed", "1"],
    ["--suite", "hooks", "--n", "3", "--graphs", "2", "--seed", "1"],
    ["--suite", "qc", "--n", "3", "--samples", "2"],
    ["--suite", "dual", "--n", "3", "--graphs", "2"],
])
def test_verify_accepts_counts_the_suite_takes(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_OK
    assert json.loads(err.strip().splitlines()[-1])["failed"] == 0


def test_run_suite_drops_only_the_seed():
    from aldous.verify import run_suite

    assert run_suite("characters", 3, seed=5).passed
    with pytest.raises(ValueError, match="does not take samples"):
        run_suite("lemma9", 4, seed=5, samples=3)


def test_python_dash_m_entry_point():
    src = str(Path(aldous.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "aldous", "print-config"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["tol"] == 1e-9


@pytest.mark.parametrize("tamper, message", [
    (lambda w: w["edges"][0].__setitem__(0, 1.5), "vertices must be ints"),
    (lambda w: w["edges"][0].__setitem__(2, "x"), "is not a real number"),
    (lambda w: w.__setitem__("n", float(w["n"])), "n must be a nonnegative int"),
    (lambda w: w["edges"].append(list(w["edges"][0])), "given twice"),
    (lambda w: w.__setitem__("edges", None), "edges must be a list"),
])
def test_hasse_rejects_a_tampered_graph_witness(capsys, tmp_path, tamper, message):
    ledger = tmp_path / "ledger.json"
    assert run(capsys, "scan", "--n", "5", "--families", "random", "--budget", "5",
               "--seed", "1", "--out", str(ledger))[0] == EXIT_OK
    data = json.loads(ledger.read_text())
    witness = next(record["witness"] for record in data["entries"]
                   if record.get("witness", {}).get("kind") == "graph")
    tamper(witness)
    ledger.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_REFUTED_BY_A_STRING = ('{"n": 5, "entries": [{"sigma": "3,2", "tau": "4,1", '
                        '"status": "refuted", "margin": 1.0, "exact": true, '
                        '"witness": "complete"}]}')


@pytest.mark.parametrize("text, message", [
    ('{"n": 5, "entries": null}', "entries must be a list"),
    ('{"n": 5, "entries": [1]}', "entry 0 must be an object"),
    ("[]", "ledger JSON must be"),
    ('{"n": "5", "entries": []}', "n must be an int >= 1"),
    (_REFUTED_BY_A_STRING, "witness must be an object"),
    ('{"n": 5, "entries": [{"sigma": "3,3", "tau": "4,1", "status": "proved", '
     '"tag": "clr"}]}', "is not a partition of 5"),
    (_REFUTED_BY_A_STRING.replace('"refuted"', '"maybe"'), "status must be"),
    # hasse re-checks no witness on the diagonal
    ('{"n": 3, "entries": [{"sigma": "3", "tau": "3", "status": "refuted", "tag": "scan", '
     '"margin": 1.0, "exact": true, "witness": {"kind": "family", "family": "complete", '
     '"n": 3}}]}', "error: entry 0: sigma and tau are the same partition\n"),
    # nested past the recursion limit, the document or a record's witness
    pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded",
                 id="nested-too-deep"),
    pytest.param(_REFUTED_BY_A_STRING.replace('"complete"', "[" * 100000 + "]" * 100000),
                 "maximum recursion depth exceeded", id="witness-nested-too-deep"),
])
def test_hasse_rejects_a_malformed_ledger(capsys, tmp_path, text, message):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_hasse_refuses_a_pair_given_twice(capsys, tmp_path):
    from aldous.order import seed_known

    ledger = tmp_path / "ledger.json"
    data = json.loads(seed_known(5).to_json())
    refuted = next(record for record in data["entries"] if record["status"] == "refuted")
    proved = next(record for record in data["entries"] if record["status"] == "proved")
    # a refuted record again with its margin doubled, which went unchecked,
    # and a proved pair refuted again, which raised a conflict naming no entry
    for second in ({**refuted, "margin": 2 * refuted["margin"]},
                   {**proved, "status": "refuted", "tag": "scan", "margin": 1.0, "exact": True,
                    "witness": {"kind": "family", "family": "complete", "n": 5}}):
        ledger.write_text(json.dumps({**data, "entries": data["entries"] + [second]}),
                          encoding="utf-8")
        code, out, err = run(capsys, "hasse", "--in", str(ledger))
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: entry {len(data['entries'])}: ({second['sigma']}) >= "
                       f"({second['tau']}) given twice\n")


def _refuted_by(witness: dict, margin: float = 3.0) -> str:
    """An n = 3 ledger whose one record refutes 2,1 >= 3 by the witness."""
    return json.dumps({"n": 3, "entries": [{
        "sigma": "2,1", "tau": "3", "status": "refuted", "margin": margin,
        "exact": True, "witness": witness}]})


@pytest.mark.parametrize("witness, message", [
    ({"kind": "family", "family": "star", "n": 3, "params": [1]},
     "params must be a mapping"),
    ({"kind": "family", "family": "complete", "n": "3"}, "witness n must be"),
    ({"kind": "quasi", "n": 3, "weights": [1, None]}, "weights must be a list of 2"),
    ({"kind": "family", "family": "complete", "n": 3, "params": {"q": 1}},
     "params must be a mapping of its known keys"),
    ({"kind": "quasi", "n": 3, "weights": "12"}, "weights must be a list of 2"),
    # the split S_2 = ["1", "1"] (the triangle, margin 3) with its weights zeroed
    ({"kind": "quasi", "n": 3, "weights": ["0", "0"]}, "no longer refutes"),
    # rationals beyond float range
    ({"kind": "quasi", "n": 3, "weights": ["1e400", "0"]}, "weights must be finite"),
    ({"kind": "quasi", "n": 3, "weights": [10**400, 0]}, "weights must be finite"),
    ({"kind": "family", "family": "quasi", "n": 3, "params": {"a": [10**400, 0]}},
     "weights must be finite"),
])
def test_hasse_rejects_a_tampered_family_or_quasi_witness(capsys, tmp_path, witness,
                                                          message):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(_refuted_by(witness), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_hasse_accepts_the_untampered_witnesses(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    # lambda_1 of 2,1 is 3 on the triangle and 1 on the star at vertex 3
    for witness, margin in (({"kind": "family", "family": "complete", "n": 3}, 3.0),
                            ({"kind": "family", "family": "star", "n": 3,
                              "params": {"k": 3}}, 1.0),
                            ({"kind": "quasi", "n": 3, "weights": ["1", 1]}, 3.0)):
        ledger.write_text(_refuted_by(witness, margin), encoding="utf-8")
        assert run(capsys, "hasse", "--in", str(ledger))[0] == EXIT_OK


def test_hasse_builds_each_distinct_witness_once(capsys, tmp_path, monkeypatch):
    import aldous.order as order

    ledger = tmp_path / "ledger.json"
    assert run(capsys, "scan", "--n", "6", "--families", "random", "--budget", "20",
               "--seed", "1", "--out", str(ledger))[0] == EXIT_OK
    data = json.loads(ledger.read_text())
    refuted = [record for record in data["entries"] if record["status"] == "refuted"]
    distinct = {json.dumps(record["witness"], sort_keys=True) for record in refuted}
    kinds = [json.loads(key)["kind"] for key in distinct]
    assert {"graph", "family", "quasi"} <= set(kinds) and len(distinct) < len(refuted)
    calls = {"materialize": 0, "quasi": 0, "candidates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    blocks = order._lambda1_blocks

    def streamed(candidates, *args):
        def each():
            for candidate in candidates:
                calls["candidates"] += 1
                yield candidate
        return blocks(each(), *args)

    monkeypatch.setattr(order, "_materialize", counted("materialize", order._materialize))
    monkeypatch.setattr(order, "_quasi_weights", counted("quasi", order._quasi_weights))
    monkeypatch.setattr(order, "_lambda1_blocks", streamed)
    assert run(capsys, "hasse", "--in", str(ledger))[0] == EXIT_OK
    # each distinct witness is built once and streamed to the evaluator as
    # one candidate, for all its entries
    assert calls == {"materialize": len(distinct), "quasi": kinds.count("quasi"),
                     "candidates": len(distinct)}

    # a shared witness evaluated once still has every entry's margin compared
    shared = json.dumps(refuted[0]["witness"], sort_keys=True)
    last = [record for record in refuted
            if json.dumps(record["witness"], sort_keys=True) == shared][-1]
    assert last is not refuted[0]
    last["margin"] = last["margin"] + 1.0
    ledger.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "stored margin" in err


def test_hasse_checks_the_stored_exact_flag(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    assert run(capsys, "scan", "--n", "8", "--families", "random", "--budget", "6",
               "--seed", "0", "--out", str(ledger))[0] == EXIT_OK
    text = ledger.read_text()
    # a random graph's refutation claimed exact, a seeded exact one numeric
    for pick, kind in ((lambda r: (r["sigma"], r["tau"]) == ("6,1,1", "5,3"), "numeric"),
                       (lambda r: r.get("exact") is True, "exact")):
        data = json.loads(text)
        record = next(record for record in data["entries"] if pick(record))
        assert record["exact"] is (kind == "exact")
        record["exact"] = kind != "exact"
        ledger.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "hasse", "--in", str(ledger))
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: stored exact flag {record['exact']} of ({record['sigma']}) "
                       f">= ({record['tau']}) does not match its {kind} witness\n")


def test_hasse_names_the_first_pair_of_a_malformed_witness(capsys, tmp_path):
    from aldous.order import seed_known

    ledger = tmp_path / "ledger.json"
    data = json.loads(seed_known(6).to_json())
    refuted = [record for record in data["entries"] if record["status"] == "refuted"]
    # the last two refuted records share one malformed witness
    for record in refuted[-2:]:
        record["witness"] = {"kind": "family", "family": "star", "n": 6, "params": [1]}
    ledger.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    first = refuted[-2]
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: ({first['sigma']}) >= ({first['tau']}): family 'star' witness "
                   f"params must be a mapping of its known keys, got [1]\n")


@pytest.mark.parametrize("n", [40, 200])
def test_hasse_refuses_an_oversized_ledger(capsys, tmp_path, n):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"n": n, "entries": []}), encoding="utf-8")
    code, out, err = run(capsys, "hasse", "--in", str(ledger))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_LEDGER_PAIRS" in err


@pytest.mark.parametrize("n", ["21", "1000000000"])
def test_scan_refuses_a_ledger_over_max_pairs(capsys, tmp_path, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--n", n, "--out", str(tmp_path / "ledger.json"))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_LEDGER_PAIRS" in err
    assert not (tmp_path / "ledger.json").exists()


@pytest.mark.parametrize("density", ["2", "nan", "-1"])
def test_bad_density_is_a_usage_error(capsys, density):
    code, out, err = run(capsys, "spectrum", "--shape", "2,1", "--family", "random",
                         "--density", density)
    assert code == EXIT_USAGE
    assert "density must be in [0, 1]" in err and "Traceback" not in err


# the family flags each graph family reads, and a value it accepts at n = 4
_FLAG_VALUES = {"--k": "3", "--m": "1", "--weights": "1,2,3", "--density": "0.3"}
_FAMILY_READS = {"complete": (), "star": ("--k",), "clique": ("--k",), "cycle": (),
                 "path": (), "matching": ("--m",), "quasi": ("--weights",),
                 "weighted_star": ("--weights",), "random": ("--density",)}


@pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_a_family_flag_the_family_does_not_take_is_a_usage_error(capsys, family, flag):
    assert set(_FAMILY_READS) == set(GRAPH_FAMILIES)
    code, out, err = run(capsys, "spectrum", "--shape", "2,1,1", "--family", family,
                         flag, _FLAG_VALUES[flag])
    if flag in _FAMILY_READS[family]:
        assert code == EXIT_OK and out.startswith("shape,2,1,1\n") and err == ""
    else:
        # the message names the flags, never a table key or the CLI's seed
        takes = ", ".join(_FAMILY_READS[family]) or "none"
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: family '{family}' does not take {flag} (it takes {takes})\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--shape", "2,1"],
    ["check-pair", "--sigma", "2,1", "--tau", "3"],
])
@pytest.mark.parametrize("family", ["quasi", "weighted_star"])
def test_a_family_without_its_required_flag_names_the_flag(capsys, argv, family):
    code, out, err = run(capsys, *argv, "--family", family)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: family '{family}' needs --weights\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--shape", "2,1"],
    ["check-pair", "--sigma", "2,1", "--tau", "3"],
])
@pytest.mark.parametrize("weights, message", [
    ("1,-1", "negative weight on edge (1,3)"),
    ("1,nan", "weights must be finite"),
    ("inf,1", "weights must be finite"),
])
def test_bad_weighted_star_weights_are_usage_errors(capsys, argv, weights, message):
    code, out, err = run(capsys, *argv, "--family", "weighted_star", "--weights", weights)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_hasse_refuses_a_weighted_star_witness_with_a_negative_weight(capsys, tmp_path):
    ledger = tmp_path / "ledger.json"
    # on the two unit edges alone, lambda_1 of 2,2 is 1 and that of 4 is 0
    for a, expected in (([1, 1, 0], EXIT_OK), ([1, 1, -5], EXIT_USAGE)):
        witness = {"kind": "family", "family": "weighted_star", "n": 4, "params": {"a": a}}
        ledger.write_text(json.dumps({"n": 4, "entries": [{
            "sigma": "2,2", "tau": "4", "status": "refuted", "margin": 1.0,
            "exact": False, "witness": witness}]}), encoding="utf-8")
        code, out, err = run(capsys, "hasse", "--in", str(ledger))
        assert code == expected
    assert out == ""
    assert err == "error: (2,2) >= (4): negative weight on edge (1,4)\n"


@pytest.mark.parametrize("flag, value", [("--family", "star"), ("--k", "3"), ("--m", "1"),
                                         ("--weights", "1,1"), ("--density", "0.5")])
def test_graph_file_takes_no_family_flag(capsys, tmp_path, flag, value):
    path = tmp_path / "g.json"
    path.write_text(random_graph(3, 5).to_json(), encoding="utf-8")
    for argv in (["spectrum", "--shape", "2,1"], ["check-pair", "--sigma", "2,1", "--tau", "3"]):
        code, out, err = run(capsys, *argv, "--graph", str(path), flag, value)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --graph takes no {flag}\n"


def test_consistency_suite_below_its_smallest_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "consistency", "--n", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: the consistency suite needs n >= 3\n"
