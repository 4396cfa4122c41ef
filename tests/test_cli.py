"""Command-line behavior: outputs, file round-trips, JSON, and exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from test_extremal import _planted_dense_3graph

from hyperf import (
    Orientation,
    PSetColoring,
    b_value,
    canonicalize,
    check_mono,
    complement,
    complete,
    complete_multipartite,
    f_bruteforce,
    f_count,
    join_k2,
    mop_fan,
    mop_random,
    random_hypergraph,
    read_path,
    to_text,
    write_path,
)
import hyperf.ramsey
import hyperf.verify
from hyperf.cli import main
from hyperf.hypercore import GENERATORS, degree_vectors, max_coordinate, orientation_from_rows
from hyperf.verify import SUITES, CheckResult, VerifySuiteReport


def test_gen_then_f_pipeline(tmp_path, capsys):
    target = tmp_path / "h.hg"
    assert main(["gen", "complete", "--n", "4", "--r", "3", "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(["f", str(target), "--p", "1", "--k", "1", "--method", "brute"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0"
    assert read_path(target) == complete(4, 3)


def test_mad_prints_exact_rational(tmp_path, capsys):
    target = tmp_path / "k5.hg"
    write_path(complete(5, 2), target)
    assert main(["mad", str(target)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4/1"
    assert out[1].startswith("witness:")
    assert main(["mad", str(target), "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4/1"]


def test_mad_json_spread_certifies_the_value(tmp_path, capsys):
    h = _planted_dense_3graph(32, 8, seed=4)
    target = tmp_path / "planted.hg"
    write_path(h, target)
    assert main(["mad", str(target), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["mad", "spread", "witness"]
    a, b = (int(x) for x in out["mad"].split("/"))
    assert Fraction(h.r * len(h.edges_inside(out["witness"])), len(out["witness"])) == Fraction(a, b)
    assert len(out["spread"]) == h.e
    received = [0] * h.n
    for edge, row in zip(h.edges, out["spread"]):
        assert len(row) == h.r and min(row) >= 0 and sum(row) == h.r * b
        for v, amount in zip(edge, row):
            received[v] += amount
    assert max(received) <= a
    assert main(["mad", str(target)]) == 0
    assert capsys.readouterr().out.splitlines() == [out["mad"], "witness: " + " ".join(map(str, out["witness"]))]


def test_orient_writes_verifiable_file(tmp_path, capsys):
    src = tmp_path / "h.hg"
    out = tmp_path / "h.or"
    write_path(complete(4, 3), src)
    assert main(["orient", str(src), "--max-outdeg", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    oriented = read_path(out)
    assert isinstance(oriented, Orientation)
    assert oriented.base == complete(4, 3)
    firsts = [0] * 4
    for order in oriented.orders:
        firsts[order[0]] += 1
    assert max(firsts) <= 1


def test_orient_json_rebuilds_the_orientation(tmp_path, capsys):
    # the feasible document carries n and r, so orientation_from_rows reads it back
    src = tmp_path / "h.hg"
    write_path(complete(5, 3), src)
    payload = _json_of(capsys, ["orient", str(src), "--max-outdeg", "2"])
    d = orientation_from_rows(payload["orders"], payload["n"], payload["r"])
    assert d.base == complete(5, 3)
    assert max_coordinate(d, 0) <= 2


def test_orient_infeasible_exit_two(tmp_path, capsys):
    src = tmp_path / "k5.hg"
    write_path(complete(5, 2), src)
    assert main(["orient", str(src), "--max-outdeg", "1"]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_orient_needs_exactly_one_mode(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(complete(3, 2), src)
    assert main(["orient", str(src)]) == 1


def _orientation_of(payload):
    ori = payload["orientation"]
    return orientation_from_rows(ori["orders"], ori["n"], ori["r"])


def test_f_json_roundtrip(tmp_path, capsys):
    src = tmp_path / "k4.hg"
    write_path(complete(4, 2), src)
    assert main(["f", str(src), "--json", "--method", "via-m"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2
    assert payload["method"] == "via-m"
    assert f_count(_orientation_of(payload), 1, 1) == 2


def test_f_brute_searches_by_nodes(tmp_path, capsys):
    # (3!)^20 orientations of K6^(3): a zero is found well inside the budget
    src = tmp_path / "k6.hg"
    write_path(complete(6, 3), src)
    assert main(["f", str(src), "--p", "2", "--k", "1", "--method", "brute", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0
    assert f_count(_orientation_of(payload), 2, 1) == 0


def test_f_auto_picks_closed_form(tmp_path, capsys):
    src = tmp_path / "k10.hg"
    write_path(complete(10, 2), src)
    assert main(["f", str(src), "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["4", "method: closed"]


def test_f_auto_recognises_complete_multipartite(tmp_path, capsys):
    g = complete_multipartite((3, 2, 2))
    src = tmp_path / "k322.hg"
    write_path(g, src)
    assert main(["f", str(src), "--k", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2", "method: closed"]
    write_path(canonicalize(g.edges[1:], g.n, 2), src)
    assert main(["f", str(src), "--k", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] != "method: closed"


def test_f_auto_checks_the_closed_forms_once(tmp_path, capsys, monkeypatch):
    calls = []
    closed_form = hyperf.ramsey.closed_form
    monkeypatch.setattr(hyperf.ramsey, "closed_form",
                        lambda *args: calls.append(args) or closed_form(*args))
    src = tmp_path / "h.hg"
    for g in (complete_multipartite((3, 2, 2)), complete(5, 2), canonicalize([(0, 1)], 3, 2)):
        write_path(g, src)
        calls.clear()
        assert main(["f", str(src), "--k", "1", "--json"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("g", [complete(5, 2), complete_multipartite((3, 2, 2)),
                               canonicalize([(0, 1), (1, 2), (2, 3)], 4, 2)],
                         ids=["K5", "K322", "path"])
def test_f_at_level_zero_counts_every_vertex(tmp_path, capsys, g):
    # at k = 0 every p-set is everywhere-full: auto takes the search, which
    # expands no node, and no closed form applies
    src = tmp_path / "h.hg"
    write_path(g, src)
    assert main(["f", str(src), "--k", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [str(g.n), "method: brute"]
    assert main(["f", str(src), "--k", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["method"], payload["budget_used"]) == (g.n, "brute", 0)
    assert main(["f", str(src), "--k", "0", "--method", "closed", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"applicable": False, "p": 1, "k": 0}


def test_f_closed_without_a_closed_form_prints_a_document(tmp_path, capsys):
    src = tmp_path / "path.hg"
    write_path(canonicalize([(0, 1), (1, 2)], 3, 2), src)
    assert main(["f", str(src), "--method", "closed", "--k", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"applicable": False, "p": 1, "k": 2}
    assert captured.err == "no closed form applies to this instance\n"


def test_b_json_coloring_roundtrip(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(complete(5, 3), src)
    assert main(["b", str(src), "--p", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b"] == 10
    data = payload["coloring"]
    coloring = PSetColoring(data["p"], data["colors"], {tuple(a): c for a, c in data["colored"]})
    assert len(coloring.colored) == 10
    assert check_mono(complete(5, 3), coloring) == []


def test_b_search_deeper_than_recursion_limit(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(canonicalize([(0, 1, 2)], 50, 3), src)
    assert main(["b", str(src), "--p", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["b"] == 1225


def test_chi_r_and_m_outputs(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(complete(6, 3), src)
    assert main(["chi-r", str(src), "--p", "2", "--quiet"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    k10 = tmp_path / "k10.hg"
    write_path(complete(10, 2), k10)
    assert main(["m", k10.as_posix(), "--k", "1", "--quiet"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_bounds_json_lists_rows(tmp_path, capsys):
    src = tmp_path / "k5.hg"
    write_path(complete(5, 2), src)
    assert main(["bounds", str(src), "--k", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in payload["bounds"]}
    assert {"independence", "chromatic", "degenerate-upper"} <= names


def test_tset_not_found_is_exit_two(tmp_path, capsys):
    oriented = Orientation(complete(3, 2), ((0, 1), (0, 2), (1, 2)))
    src = tmp_path / "t.or"
    src.write_text(to_text(oriented))
    assert main(["tset", str(src), "--p", "1", "--k", "1", "--t", "2"]) == 2
    capsys.readouterr()
    cyclic = Orientation(complete(3, 2), ((0, 1), (2, 0), (1, 2)))
    src.write_text(to_text(cyclic))
    assert main(["tset", str(src), "--p", "1", "--k", "1", "--t", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2"


def test_tset_rejects_plain_hypergraph(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(complete(3, 2), src)
    assert main(["tset", str(src), "--p", "1", "--k", "1", "--t", "1"]) == 1


def test_pack_fano_block_count(capsys):
    assert main(["pack", "--n", "7", "--r", "3", "--p", "2", "--k", "1", "--m", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "7"
    assert main(["pack", "--n", "6", "--r", "4", "--p", "2", "--k", "3"]) == 2


def test_pack_honours_the_budget(capsys):
    # the p = 2 scan of C(40, 17) blocks stops after 1000 of them
    assert main(["pack", "--n", "40", "--r", "3", "--p", "2", "--k", "1", "--budget", "1000"]) == 3
    assert "best found: 1" in capsys.readouterr().err
    assert main(["pack", "--n", "40", "--r", "3", "--p", "1", "--k", "1", "--budget", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "5"


def test_pack_and_tset_refuse_parameters_outside_their_domain(tmp_path, capsys):
    # a bad parameter is a usage error (exit 1), not "threshold unknown" (exit 2)
    assert main(["pack", "--n", "10", "--r", "3", "--p", "3", "--k", "1"]) == 1
    assert capsys.readouterr().err == "need p <= r-1 = 2, got p=3\n"
    assert main(["pack", "--n", "10", "--r", "3", "--p", "2", "--k", "0"]) == 1
    assert capsys.readouterr().err == "k must be an integer >= 1, got 0\n"
    src = tmp_path / "d.hg"
    write_path(orientation_from_rows(complete(4, 3).edges, 4, 3), src)
    assert main(["tset", str(src), "--p", "1", "--k", "-1", "--t", "2"]) == 1
    assert capsys.readouterr().err == "k must be an integer >= 0, got -1\n"


def test_missing_file_is_exit_one(capsys):
    assert main(["mad", "definitely-not-here.hg"]) == 1


def test_unknown_flag_is_exit_one(tmp_path, capsys):
    src = tmp_path / "h.hg"
    write_path(complete(3, 2), src)
    assert main(["f", str(src), "--definitely-not-a-flag"]) == 1


def test_budget_flag_exit_three(tmp_path, capsys):
    src = tmp_path / "k6.hg"
    write_path(complete(6, 2), src)
    assert main(["b", str(src), "--budget", "5"]) == 3
    assert "budget" in capsys.readouterr().err
    assert main(["b", str(src), "--p", "1", "--budget", "1"]) == 3
    assert "best found: 0" in capsys.readouterr().err.splitlines()


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    src = tmp_path / "k10.hg"
    write_path(complete(10, 2), src)
    monkeypatch.setenv("HYPERF_BUDGET", "5")
    assert main(["m", str(src), "--k", "1"]) == 3
    capsys.readouterr()
    # an explicit flag overrides the environment
    assert main(["m", str(src), "--k", "1", "--budget", "10000000"]) == 0
    monkeypatch.setenv("HYPERF_BUDGET", "not-a-number")
    assert main(["m", str(src), "--k", "1"]) == 1


def test_a_command_takes_only_the_flags_it_reads(tmp_path, capsys, monkeypatch):
    # HYPERF_BUDGET reaches the commands that search, and a flag that a
    # command does not read is a usage error
    src = tmp_path / "k4.hg"
    write_path(complete(4, 2), src)
    assert main(["mad", str(src)]) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("HYPERF_BUDGET", "abc")
    assert main(["mad", str(src)]) == 0
    assert capsys.readouterr() == plain
    assert main(["m", str(src)]) == 1
    assert capsys.readouterr().err == "HYPERF_BUDGET must be an integer >= 0, got 'abc'\n"
    monkeypatch.delenv("HYPERF_BUDGET")
    # nor is a prefix of a flag taken for the flag: --budget is not
    # --budget-file, --max not --max-outdeg, --meth not --method
    for argv in (["mad", str(src), "--seed", "2"], ["chi-r", str(src), "--p", "2", "--seed", "5"],
                 ["degeneracy", str(src), "--budget", "9"],
                 ["gen", "complete", "--n", "4", "--r", "3", "--budget", "2"],
                 ["orient", str(src), "--budget", "caps.txt"], ["orient", str(src), "--max", "1"],
                 ["f", str(src), "--meth", "brute"]):
        assert main(argv) == 1
        unread = " ".join(argv[-2:])
        assert capsys.readouterr() == ("", f"hyperf: unrecognized arguments: {unread}\n")


def test_negative_budget_flag_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "k5.hg"
    write_path(complete(5, 3), src)
    assert main(["b", str(src), "--p", "2", "--budget", "-5"]) == 1
    assert "--budget must be an integer >= 0, got -5" in capsys.readouterr().err


def test_negative_budget_env_var_is_a_usage_error(tmp_path, capsys, monkeypatch):
    src = tmp_path / "k5.hg"
    write_path(complete(5, 3), src)
    monkeypatch.setenv("HYPERF_BUDGET", "-1")
    assert main(["chi-r", str(src), "--p", "2"]) == 1
    assert "HYPERF_BUDGET must be an integer >= 0, got -1" in capsys.readouterr().err


def test_gen_json_output(capsys):
    assert main(["gen", "complete", "--n", "3", "--r", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 3, "r": 2, "edges": [[0, 1], [0, 2], [1, 2]]}


def _json_of(capsys, argv, code=0):
    assert main([*argv, "--json"]) == code
    return json.loads(capsys.readouterr().out)


_FREPORT_KEYS = {"value", "method", "budget_used", "orientation", "witness_parts",
                 "witness_remainder", "witness_coloring"}
_VERIFY_KEYS = {"suite", "seed", "passed", "failed", "seconds", "checks"}


@pytest.mark.parametrize("argv, code, keys", [
    (["gen", "complete", "--n", "3", "--r", "2"], 0, {"n", "r", "edges"}),
    (["gen", "complete", "--n", "3", "--r", "2", "-o", "{dir}/out.hg"], 0,
     {"written", "n", "r", "e"}),
    (["mad", "{k4}"], 0, {"mad", "witness", "spread"}),
    (["degeneracy", "{k4}"], 0, {"degeneracy", "order"}),
    (["orient", "{k4}", "--max-outdeg", "2"], 0, {"feasible", "n", "r", "orders"}),
    (["orient", "{k4}", "--max-outdeg", "1"], 2,
     {"feasible", "witness", "edges_inside", "capacity"}),
    (["f", "{k4}"], 0, _FREPORT_KEYS),
    (["f", "{k4}", "--method", "via-m"], 0, _FREPORT_KEYS),
    (["f", "{k43}", "--p", "2", "--method", "brute"], 0, _FREPORT_KEYS),
    (["f", "{k53}", "--p", "2", "--method", "via-b"], 0, _FREPORT_KEYS),
    (["chi-r", "{k53}", "--p", "2"], 0, {"chi_r", "p"}),
    (["b", "{k53}", "--p", "2"], 0, {"b", "p", "coloring"}),
    (["m", "{k4}", "--k", "1"], 0, {"m", "k", "parts", "remainder"}),
    (["bounds", "{k4}", "--k", "1"], 0, {"k", "bounds"}),
    (["tset", "{cyclic}", "--p", "1", "--k", "1", "--t", "3"], 0, {"found", "tset"}),
    (["tset", "{cyclic}", "--p", "1", "--k", "2", "--t", "3"], 2, {"found", "p", "k", "t"}),
    (["pack", "--n", "7", "--r", "3", "--p", "2", "--k", "1", "--m", "3"], 0,
     {"m", "blocks", "count"}),
    (["verify", "multipartite"], 0, _VERIFY_KEYS),
    (["f", "{path}", "--method", "closed"], 2, {"applicable", "p", "k"}),
])
def test_json_payload_keys(tmp_path, capsys, argv, code, keys):
    files = {"dir": tmp_path, "k4": tmp_path / "k4.hg", "k43": tmp_path / "k43.hg",
             "k53": tmp_path / "k53.hg", "cyclic": tmp_path / "cyclic.or",
             "path": tmp_path / "path.hg"}
    write_path(complete(4, 2), files["k4"])
    write_path(complete(4, 3), files["k43"])
    write_path(complete(5, 3), files["k53"])
    write_path(Orientation(complete(3, 2), ((0, 1), (2, 0), (1, 2))), files["cyclic"])
    write_path(canonicalize([(0, 1), (1, 2)], 3, 2), files["path"])
    payload = _json_of(capsys, [arg.format(**files) for arg in argv], code)
    assert set(payload) == keys
    if argv[0] == "b":
        assert set(payload["coloring"]) == {"p", "colors", "colored"}
    elif argv[0] == "bounds":
        assert all(set(row) == {"name", "side", "value", "applicable", "inputs", "note"}
                   for row in payload["bounds"])
    elif argv[0] == "verify":
        assert all(set(check) == {"instance", "relation", "values", "ok"}
                   for check in payload["checks"])


def test_json_verify_all_lists_the_suites(capsys, monkeypatch):
    two = {name: SUITES[name] for name in ("multipartite", "ramsey-chi")}
    monkeypatch.setattr(hyperf.verify, "SUITES", two)  # what run_all reads
    payload = _json_of(capsys, ["verify", "all"])
    assert set(payload) == {"suites"}
    assert [rep["suite"] for rep in payload["suites"]] == ["multipartite", "ramsey-chi"]
    assert all(set(rep) == _VERIFY_KEYS for rep in payload["suites"])


def test_json_encodings(tmp_path, capsys):
    # a Fraction is "a/b", an orientation {n, r, orders}, and a p-set
    # colouring its sorted [p-set, colour] pairs
    k5, k43, k53 = tmp_path / "k5.hg", tmp_path / "k43.hg", tmp_path / "k53.hg"
    write_path(complete(5, 2), k5)
    write_path(complete(4, 3), k43)
    write_path(complete(5, 3), k53)
    assert _json_of(capsys, ["mad", str(k5)])["mad"] == "4/1"
    rows = {row["name"]: row for row in _json_of(capsys, ["bounds", str(k5), "--k", "1"])["bounds"]}
    assert rows["average-degree"]["value"] == "3/1"
    assert rows["average-degree"]["inputs"] == {"avg_degree": "4/1"}
    brute = _json_of(capsys, ["f", str(k43), "--p", "2", "--method", "brute"])
    orders = [list(o) for o in f_bruteforce(complete(4, 3), 2, 1).orientation.orders]
    assert brute["orientation"] == {"n": 4, "r": 3, "orders": orders}
    colored = [[list(a), c] for a, c in sorted(b_value(complete(5, 3), 2).coloring.colored.items())]
    coloring = _json_of(capsys, ["b", str(k53), "--p", "2"])["coloring"]
    assert coloring == {"p": 2, "colors": 3, "colored": colored}
    via_b = _json_of(capsys, ["f", str(k53), "--p", "2", "--method", "via-b"])
    assert via_b["witness_coloring"] == colored


# (argv, exit code, stdout lines, stdout lines under --quiet), run in the
# directory that holds the files the test writes
_PINNED = [
    (["gen", "complete", "--n", "3", "--r", "2"], 0,
     ["hypergraph n=3 r=2", "e 0 1", "e 0 2", "e 1 2"],
     ["hypergraph n=3 r=2", "e 0 1", "e 0 2", "e 1 2"]),
    (["gen", "complete", "--n", "3", "--r", "2", "-o", "out.hg"], 0,
     ["wrote out.hg: n=3 r=2 e=3"], []),
    (["mad", "g.hg"], 0, ["2/1", "witness: 0 1 2 3"], ["2/1"]),
    (["degeneracy", "g.hg"], 0, ["2", "order: 4 3 0 1 2"], ["2"]),
    (["orient", "g.hg", "--max-outdeg", "1"], 0,
     ["oriented n=5 r=2", "o 0 1", "o 2 0", "o 1 2", "o 3 2"],
     ["oriented n=5 r=2", "o 0 1", "o 2 0", "o 1 2", "o 3 2"]),
    (["orient", "g.hg", "--max-outdeg", "1", "-o", "out.or"], 0, ["wrote out.or"], []),
    (["orient", "k4.hg", "--max-outdeg", "1"], 2,
     ["infeasible: vertices 0 1 2 3 span 6 edges but have total capacity 4"],
     ["infeasible: vertices 0 1 2 3 span 6 edges but have total capacity 4"]),
    (["f", "g.hg"], 0, ["1", "method: via-m"], ["1"]),
    (["f", "k4.hg", "--k", "2", "--method", "closed"], 0, ["0", "method: closed"], ["0"]),
    (["f", "g.hg", "--method", "closed"], 2, [], []),
    (["f", "k43.hg", "--p", "2", "--method", "brute"], 0, ["0", "method: brute"], ["0"]),
    (["chi-r", "k53.hg", "--p", "2"], 0, ["2"], ["2"]),
    (["b", "k53.hg", "--p", "2"], 0,
     ["10", "coloring: 0-1:0 0-2:0 0-3:0 0-4:0 1-2:1 1-3:1 1-4:2 2-3:2 2-4:1 3-4:1"], ["10"]),
    (["m", "g.hg", "--k", "1"], 0, ["5", "part 0: 0 1 2 3 4", "part 1: "], ["5"]),
    (["bounds", "g.hg", "--k", "1"], 0,
     ["independence: lower -1  [not applicable]  (vacuous: f >= 0)",
      "degenerate-upper: upper 1",
      "degenerate-lower: lower -1  [not applicable]  (vacuous: f >= 0)",
      "chromatic: lower 1",
      "average-degree: upper None  [not applicable]  (needs average degree >= 4k-2 = 2)",
      "independence-upper: upper 2", "chromatic-ratio: upper 1", "triangle-hitting: lower 1",
      "clique-factor: lower -5  [not applicable]  (vacuous: f >= 0)"],
     ["degenerate-upper: upper 1", "chromatic: lower 1", "independence-upper: upper 2",
      "chromatic-ratio: upper 1", "triangle-hitting: lower 1"]),
    (["tset", "cyclic.or", "--p", "1", "--k", "1", "--t", "3"], 0, ["0 1 2"], ["0 1 2"]),
    (["tset", "cyclic.or", "--p", "1", "--k", "2", "--t", "3"], 2,
     ["no 3-set with all 1-subsets everywhere-full at level 2"],
     ["no 3-set with all 1-subsets everywhere-full at level 2"]),
    (["pack", "--n", "7", "--r", "3", "--p", "2", "--k", "1", "--m", "3"], 0,
     ["7", "blocks of size 3: 0 1 2; 0 3 4; 0 5 6; 1 3 5; 1 4 6; 2 3 6; 2 4 5"], ["7"]),
    (["pack", "--n", "4", "--r", "3", "--p", "2", "--k", "1"], 0, ["0"], ["0"]),
    (["verify", "pinned"], 4,
     ["pinned: 1 passed, 1 failed (0.00s)", "  FAIL bad: x == y sees {'x': 1, 'y': 2}"],
     ["pinned: 1 passed, 1 failed (0.00s)"]),
]


@pytest.mark.parametrize("argv, code, text, quiet", _PINNED)
def test_text_and_quiet_stdout_are_pinned(tmp_path, capsys, monkeypatch, argv, code, text, quiet):
    def pinned(seed=1, budget=None):
        checks = [CheckResult(instance="good", relation="x == x", values={"x": 1}, ok=True),
                  CheckResult(instance="bad", relation="x == y", values={"x": 1, "y": 2}, ok=False)]
        return VerifySuiteReport(suite="pinned", seed=seed, checks=checks)

    monkeypatch.setitem(SUITES, "pinned", pinned)
    write_path(canonicalize([(0, 1), (1, 2), (2, 3), (0, 2)], 5, 2), tmp_path / "g.hg")
    write_path(complete(4, 2), tmp_path / "k4.hg")
    write_path(complete(4, 3), tmp_path / "k43.hg")
    write_path(complete(5, 3), tmp_path / "k53.hg")
    write_path(Orientation(complete(3, 2), ((0, 1), (2, 0), (1, 2))), tmp_path / "cyclic.or")
    monkeypatch.chdir(tmp_path)
    for flags, expected in (([], text), (["--quiet"], quiet)):
        assert main([*argv, *flags]) == code
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


def test_gen_missing_params_exit_one(capsys):
    assert main(["gen", "complete", "--n", "3"]) == 1


# per family: the flags it needs, the generator called directly on the
# --input graph, and the flags its missing-flag message names
_GEN_FAMILIES = {
    "complete": (["--n", "5", "--r", "3"], lambda g: complete(5, 3), "--n, --r"),
    "multipartite": (["--sizes", "3,2,2"], lambda g: complete_multipartite((3, 2, 2)), "--sizes"),
    "mop-fan": (["--n", "6"], lambda g: mop_fan(6), "--n"),
    "mop-random": (["--n", "9", "--seed", "4"], lambda g: mop_random(9, 4), "--n"),
    "join-k2": (["--input", "{g}"], join_k2, "--input"),
    "complement": (["-i", "{g}"], complement, "--input"),
    "random": (["--n", "7", "--r", "3", "--m", "9", "--seed", "2"],
               lambda g: random_hypergraph(7, 3, 9, 2), "--n, --r, --m"),
}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_gen_builds_every_family_from_its_flags(tmp_path, capsys, family):
    flags, build, needed = _GEN_FAMILIES[family]
    g = canonicalize([(0, 1), (1, 2), (2, 3)], 5, 2)
    write_path(g, tmp_path / "g.hg")
    assert main(["gen", family, *(f.format(g=tmp_path / "g.hg") for f in flags)]) == 0
    assert capsys.readouterr().out == to_text(build(g))
    assert main(["gen", family]) == 1
    assert capsys.readouterr() == ("", f"hyperf gen {family}: missing {needed}\n")


# a value for each family flag that some generator reads
_FAMILY_VALUES = {"--n": "5", "--r": "3", "--m": "2", "--sizes": "2,2", "--input": "{g}"}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_gen_refuses_the_family_flags_its_generator_does_not_read(tmp_path, capsys, family):
    flags, _, _ = _GEN_FAMILIES[family]
    write_path(canonicalize([(0, 1), (1, 2)], 4, 2), tmp_path / "g.hg")
    given = {"--input" if f == "-i" else f for f in flags}
    extra = [f for f in _FAMILY_VALUES if f not in given]
    assert extra
    for flag in extra:
        argv = ["gen", family, *flags, flag, _FAMILY_VALUES[flag]]
        assert main([f.format(g=tmp_path / "g.hg") for f in argv]) == 1
        assert capsys.readouterr() == ("", f"hyperf gen {family}: unexpected {flag}\n")
    argv = ["gen", family, *flags, *(x for f in extra for x in (f, _FAMILY_VALUES[f]))]
    assert main([f.format(g=tmp_path / "g.hg") for f in argv]) == 1
    assert capsys.readouterr().err == f"hyperf gen {family}: unexpected {', '.join(extra)}\n"


def test_gen_multipartite_rejects_non_integer_sizes(capsys):
    assert main(["gen", "multipartite", "--sizes", "3,x"]) == 1
    err = capsys.readouterr().err
    assert "--sizes" in err and "'3,x'" in err and "Traceback" not in err


def test_budget_file_rejects_a_repeated_vertex(tmp_path, capsys):
    src = tmp_path / "k3.hg"
    write_path(complete(3, 2), src)
    caps = tmp_path / "caps.txt"
    caps.write_text("0 2\n1 1\n2 0\n", encoding="utf-8")
    assert main(["orient", str(src), "--budget-file", str(caps)]) == 0
    capsys.readouterr()
    # keeping the last cap of vertex 0 would make the budget infeasible (exit 2)
    caps.write_text("0 2\n1 1\n2 0\n0 0\n", encoding="utf-8")
    assert main(["orient", str(src), "--budget-file", str(caps)]) == 1
    assert f"{caps}:4: vertex 0 already has a cap" in capsys.readouterr().err


def test_budget_file_rejects_a_malformed_line(tmp_path, capsys):
    src = tmp_path / "k3.hg"
    write_path(complete(3, 2), src)
    caps = tmp_path / "caps.txt"
    for bad in ("1 x", "1", "1 2 3"):
        caps.write_text(f"# caps\n0 2\n{bad}\n", encoding="utf-8")
        assert main(["orient", str(src), "--budget-file", str(caps)]) == 1
        assert capsys.readouterr() == ("", f"{caps}:3: expected 'vertex cap', got {bad!r}\n")


def test_empty_input_file_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "empty.hg"
    src.write_text("# no header\n", encoding="utf-8")
    assert main(["mad", str(src)]) == 1
    assert capsys.readouterr() == ("", "empty input\n")


def test_hypergraph_commands_read_the_base_of_an_oriented_file(tmp_path, capsys):
    # an oriented file stands for its hypergraph wherever no orientation is read
    g = canonicalize([(0, 1), (1, 2), (2, 3), (0, 2)], 5, 2)
    write_path(g, tmp_path / "g.hg")
    write_path(orientation_from_rows([(1, 0), (2, 1), (3, 2), (2, 0)], 5, 2), tmp_path / "g.or")
    for argv in (["mad"], ["degeneracy"], ["orient", "--max-outdeg", "1"], ["f", "--k", "2"],
                 ["chi-r"], ["b"], ["m"], ["bounds"]):
        outs = []
        for name in ("g.hg", "g.or"):
            assert main([argv[0], str(tmp_path / name), *argv[1:], "--json"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1], argv


def test_budget_exit_prints_the_bracket(tmp_path, capsys):
    src = tmp_path / "k63.hg"
    write_path(complete(6, 3), src)
    assert main(["chi-r", str(src), "--p", "2", "--budget", "1"]) == 3
    assert capsys.readouterr() == (
        "", "budget exhausted: coloring search exceeded 1 nodes\nbracket: [2, 5]\n")


def test_f_budget_exit_reports_f_not_m(tmp_path, capsys):
    # no closed form, so f = n - M(H,1) runs M's staged search; its exit
    # reports n minus M's incumbent and M's bracket turned over, which
    # holds f at every budget short of the 288 nodes that finish
    g = random_hypergraph(14, 2, 60, seed=2)
    src = tmp_path / "g.hg"
    write_path(g, src)
    assert main(["f", str(src), "--k", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["method"]) == (2, "via-m")
    for budget in range(288):
        assert main(["f", str(src), "--k", "2", "--budget", str(budget)]) == 3
        err = capsys.readouterr().err.splitlines()
        best, bracket = int(err[1].removeprefix("best found: ")), err[2].removeprefix("bracket: ")
        lower, upper = map(int, bracket.strip("[]").split(", "))
        assert lower <= 2 <= upper == best, (budget, err)
    assert main(["f", str(src), "--k", "2", "--budget", "100"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: M search exceeded 100 nodes\nbest found: 2\nbracket: [1, 2]\n")


def test_non_utf8_input_file_is_one_line_error(tmp_path, capsys):
    src = tmp_path / "bad.hg"
    src.write_bytes(b"\xff\xfe")
    assert main(["mad", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{src}: not UTF-8 text (invalid start byte at byte 0)"]


def test_non_utf8_budget_file_is_one_line_error(tmp_path, capsys):
    src = tmp_path / "k3.hg"
    write_path(complete(3, 2), src)
    caps = tmp_path / "caps.txt"
    caps.write_bytes(b"0 2\n\xff\xfe\n")
    assert main(["orient", str(src), "--budget-file", str(caps)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{caps}: not UTF-8 text (invalid start byte at byte 4)"]


def test_verify_suite_passes(capsys):
    assert main(["verify", "ramsey-chi"]) == 0
    assert "ramsey-chi: 4 passed, 0 failed" in capsys.readouterr().out


def test_verify_unknown_suite_exit_one(capsys):
    assert main(["verify", "no-such-suite"]) == 1


def test_verify_failure_exit_four(capsys, monkeypatch):
    def doomed(seed=1, budget=None):
        check = CheckResult(instance="x", relation="y == z", values={}, ok=False)
        return VerifySuiteReport(suite="doomed", seed=seed, checks=[check])

    monkeypatch.setitem(SUITES, "doomed", doomed)
    assert main(["verify", "doomed"]) == 4
    out = capsys.readouterr().out
    assert "1 failed" in out and "FAIL x" in out


@pytest.mark.parametrize("suite, name, wrong, seen", [
    ("hakimi", "max_coordinate", lambda d, i: 99, "k=0 bound not attained"),
    ("hakimi", "mad_bruteforce", lambda h: -1, "k=0 feasibility mismatch"),
    ("accounting", "f_count", lambda d, p, k: k, "p=1 count not monotone in k"),
    ("accounting", "degree_vectors",
     lambda d, p: {a: [c + 1 for c in row] for a, row in degree_vectors(d, p).items()},
     "position 0 sum != e"),
    ("complement", "f_via_m", lambda g, k, budget: SimpleNamespace(value=-1), "'mismatches': 100"),
])
def test_a_suite_catches_a_wrong_route(suite, name, wrong, seen, capsys, monkeypatch):
    # one route made to answer wrongly fails checks, and `hyperf verify` exits 4
    monkeypatch.setattr(hyperf.verify, name, wrong)
    assert hyperf.verify.verify_suite(suite).failed > 0
    assert main(["verify", suite]) == 4
    assert seen in capsys.readouterr().out


def test_verify_hakimi_json_prints_mad_as_a_fraction(capsys):
    # Mad leaves through to_json like `hyperf mad --json`: an integral one is "a/1"
    payload = _json_of(capsys, ["verify", "hakimi"])
    mads = [check["values"]["mad"] for check in payload["checks"]]
    assert all("/" in mad for mad in mads)
    assert any(mad.endswith("/1") and mad != "0/1" for mad in mads)


def test_verify_json_roundtrip(capsys):
    assert main(["verify", "multipartite", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == sum(not check["ok"] for check in payload["checks"]) == 0
    assert payload["passed"] == len(payload["checks"])
    assert payload["suite"] == "multipartite"


def test_module_entry_point(tmp_path):
    src = tmp_path / "k5.hg"
    write_path(complete(5, 2), src)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperf.cli", "mad", str(src), "--quiet"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4/1"
