"""Command-line interface: determinism, exit codes, CSV shapes."""

import hashlib
import json

import pytest

from dynsp.apsp import StitchFailure
from dynsp.cli import CSV_HEADER, STRUCTURES, main
from dynsp.gadgets import BfsProvider
from dynsp.reporter import NoWitnessFound


def gen_random(tmp_path, name="s.txt", n=10, updates=12, seed=3):
    out = tmp_path / name
    rc = main(
        [
            "gen", "random", "--n", str(n), "--p", "0.25",
            "--updates", str(updates), "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_gen_is_byte_deterministic(tmp_path):
    a = gen_random(tmp_path, "a.txt")
    b = gen_random(tmp_path, "b.txt")
    assert a.read_bytes() == b.read_bytes()
    c = gen_random(tmp_path, "c.txt", seed=4)
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("structure", ["bfs-oracle", "exact-apsp", "path-reporter"])
def test_exact_structures_verify_clean(tmp_path, structure, capsys):
    script = gen_random(tmp_path)
    rc = main(
        ["verify", "--structure", structure, "--script", str(script), "--D", "6"]
    )
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("PASS")


def test_approx_structures_verify_clean(tmp_path, capsys):
    script = gen_random(tmp_path)
    for structure in ("approx-apsp", "spanner-comb"):
        rc = main(
            [
                "verify", "--structure", structure, "--script", str(script),
                "--eps", "1.0", "--k", "1",
            ]
        )
        assert rc == 0, capsys.readouterr().out


def test_run_emits_versioned_csv(tmp_path):
    script = gen_random(tmp_path)
    out = tmp_path / "run.csv"
    rc = main(
        [
            "run", "--structure", "exact-apsp", "--script", str(script),
            "--D", "6", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "index,kind,u,v,answer,extra"
    kinds = {line.split(",")[1] for line in lines[2:]}
    assert kinds == {"update", "dist", "path"}
    # replaying is deterministic
    out2 = tmp_path / "run2.csv"
    main(
        [
            "run", "--structure", "exact-apsp", "--script", str(script),
            "--D", "6", "--out", str(out2),
        ]
    )
    assert out.read_bytes() == out2.read_bytes()


def test_run_agrees_with_bfs_oracle_on_dist_rows(tmp_path):
    script = gen_random(tmp_path)
    outs = []
    for structure in ("exact-apsp", "bfs-oracle"):
        out = tmp_path / f"{structure}.csv"
        main(
            [
                "run", "--structure", structure, "--script", str(script),
                "--D", "10", "--out", str(out),
            ]
        )
        outs.append(
            [
                l
                for l in out.read_text().splitlines()[2:]
                if l.split(",")[1] == "dist"
            ]
        )
    assert outs[0] == outs[1]


def test_bench_csv_shape(tmp_path):
    script = gen_random(tmp_path, updates=5)
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench", "--structure", "bfs-oracle", "--script", str(script),
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "metric,count,median_s,p90_s,p99_s"
    assert lines[2].startswith("update,") and lines[3].startswith("query,")


def test_gadget_gen_writes_script_and_sidecar(tmp_path):
    out = tmp_path / "g.txt"
    rc = main(
        [
            "gen", "oumv-fully", "--n", "3", "--alpha", "0.5", "--beta", "2",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "g.txt.json").read_text())
    assert set(meta) == {
        "label", "thresholds", "expected_bits", "query_pair", "restore_marks"
    }
    assert len(meta["thresholds"]) == len(meta["expected_bits"]) == 3
    rc = main(
        ["verify", "--structure", "bfs-oracle", "--script", str(out)]
    )
    assert rc == 0


def test_kcycle_gen_writes_one_file_per_repetition(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("3\n0 1\n1 2\n2 0\n")
    out = tmp_path / "kc"
    rc = main(
        [
            "gen", "kcycle", "--k", "3", "--mode", "fully", "--c", "1",
            "--graph", str(graph), "--seed", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    reps = sorted(tmp_path.glob("kc.rep*"))
    assert len(reps) == 2 * 27  # script plus sidecar per repetition
    assert (tmp_path / "kc.rep000").exists()
    assert (tmp_path / "kc.rep000.json").exists()


def test_verify_fails_when_the_structure_answers_wrong(tmp_path, monkeypatch, capsys):
    script = gen_random(tmp_path)
    monkeypatch.setattr(BfsProvider, "dist", lambda self, u, v: 0.0)
    assert main(["verify", "--structure", "bfs-oracle", "--script", str(script)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_checks_path_lengths_against_the_certificate(tmp_path, monkeypatch, capsys):
    script = tmp_path / "p.txt"
    script.write_text("N 5 0\nE 0 1\nE 1 2\nE 2 3\nE 0 4\nE 4 3\nQP 0 3\n")
    argv = ["verify", "--structure", "bfs-oracle", "--script", str(script)]
    monkeypatch.setattr(BfsProvider, "path", lambda self, u, v: [0, 1, 2, 3])
    assert main(argv) == 1
    assert capsys.readouterr().out == "FAIL at event 0: path length 3, oracle 2\n"
    monkeypatch.setattr(BfsProvider, "path", lambda self, u, v: None)
    assert main(argv) == 1
    assert capsys.readouterr().out == "FAIL at event 0: path length inf, oracle 2\n"


@pytest.mark.parametrize("text", ["", "# no header\n\n"], ids=["empty", "comment-only"])
def test_kcycle_graph_without_a_header_is_a_usage_error(tmp_path, capsys, text):
    graph = tmp_path / "g.edges"
    graph.write_text(text)
    assert main(["gen", "kcycle", "--graph", str(graph), "--out", str(tmp_path / "kc")]) == 2
    assert capsys.readouterr().err == "error: graph file is missing its n header line\n"


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "--structure", "nope", "--script", "x"]) == 2
    assert main(["verify", "--structure", "bfs-oracle", "--script", str(tmp_path / "missing.txt")]) == 2
    assert main(["gen", "kcycle", "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    assert main(["gen", "kcycle", "--n", "24", "--k", "3", "--out", str(tmp_path / "kc")]) == 2
    assert capsys.readouterr().err == "error: gen kcycle needs --graph\n"


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
@pytest.mark.parametrize("D", ["0", "-1"])
def test_degree_bound_below_one_is_a_usage_error(tmp_path, capsys, command, D):
    script = gen_random(tmp_path)
    argv = [command, "--structure", "exact-apsp", "--script", str(script), "--D", D]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --D must be at least 1, got {D}\n"


@pytest.mark.parametrize("structure", ["approx-apsp", "steiner"])
def test_spanner_eps_is_checked_before_any_query(tmp_path, capsys, structure):
    # every query lies within D, so no answer would read the spanner
    script = tmp_path / "near.txt"
    script.write_text("N 5 0\nE 0 1\nE 1 2\nE 2 3\nI 3 4\nQD 0 4\nQP 0 3\nD 1 2\nQD 0 1\n")
    out = tmp_path / "out.csv"
    argv = ["run", "--structure", structure, "--script", str(script), "--out", str(out)]
    assert main(argv + ["--eps", "0", "--D", "8"]) == 2
    assert capsys.readouterr().err == "error: ApproxApsp needs 0 < eps <= 2\n"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--k", "--b"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_spanner_alg_levels_and_scale_below_one_are_usage_errors(tmp_path, capsys, option, value):
    script = gen_random(tmp_path)
    out = tmp_path / "out.csv"
    argv = ["run", "--structure", "spanner-alg", "--script", str(script), option, value]
    assert main(argv + ["--out", str(out)]) == 2
    name = option[2:]
    assert capsys.readouterr().err == f"error: need {name} >= 1, got {name} = {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("structure", ["spanner-comb", "approx-apsp", "steiner"])
@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_spanner_levels_are_usage_errors(tmp_path, capsys, structure, value):
    script = gen_random(tmp_path)
    out = tmp_path / "out.csv"
    argv = ["run", "--structure", structure, "--script", str(script), "--k", value]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: need k >= 0, got k = {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("structure", ["spanner-comb", "approx-apsp"])
def test_level_zero_spanner_is_verified(tmp_path, structure):
    script = gen_random(tmp_path)
    assert main(["verify", "--structure", structure, "--script", str(script), "--k", "0"]) == 0


def test_structures_tuple_is_stable():
    assert STRUCTURES == (
        "exact-apsp",
        "approx-apsp",
        "path-reporter",
        "spanner-comb",
        "spanner-alg",
        "steiner",
        "bfs-oracle",
    )


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
def test_library_failure_exits_3_with_one_line(tmp_path, capsys, command):
    # terminals 0 and 2 sit in different components: steiner.Disconnected
    script = tmp_path / "split.txt"
    script.write_text("N 4 0\nE 0 1\nE 2 3\nT+ 0\nT+ 2\n")
    assert main([command, "--structure", "steiner", "--script", str(script)]) == 3
    err = capsys.readouterr().err
    assert err == "error: Disconnected: terminals split into 2 groups: [[0], [2]]\n"


@pytest.mark.parametrize(
    "exc",
    [NoWitnessFound(1, 2, 7), StitchFailure("segment (1, 2) exceeds D=4")],
    ids=["NoWitnessFound", "StitchFailure"],
)
def test_witness_failures_exit_3(tmp_path, capsys, monkeypatch, exc):
    def fail(self, u, v):
        raise exc

    script = gen_random(tmp_path)
    monkeypatch.setattr(BfsProvider, "dist", fail)
    assert main(["run", "--structure", "bfs-oracle", "--script", str(script)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


PATHLESS = {"spanner-comb", "spanner-alg", "steiner"}


@pytest.mark.parametrize("structure", STRUCTURES)
def test_every_structure_verifies_clean(tmp_path, structure, capsys):
    # 16 distance and 16 path queries; path queries count where paths are reported
    script = gen_random(tmp_path, n=14, updates=16)
    argv = ["verify", "--structure", structure, "--script", str(script)]
    assert main(argv + ["--D", "2", "--k", "1"]) == 0
    checked = 16 if structure in PATHLESS else 32
    assert capsys.readouterr().out == f"PASS ({checked} queries checked)\n"


def test_verify_counts_only_the_queries_it_checked(tmp_path, capsys):
    script = gen_random(tmp_path, n=20, updates=40)
    text = script.read_text().splitlines()
    assert sum(line.startswith("QD ") for line in text) == 40
    assert sum(line.startswith("QP ") for line in text) == 40
    argv = ["verify", "--structure", "spanner-comb", "--script", str(script)]
    assert main(argv + ["--eps", "1.0", "--k", "1"]) == 0
    assert capsys.readouterr().out == "PASS (40 queries checked)\n"


# sha256 of `dynsp run` CSV on one generated script (and, for steiner, on
# a script with terminal events); a refactor must keep these byte-identical
RUN_CSV_SHA256 = {
    "exact-apsp": "026c415351dfd01bc913c57dbe9b6545819985f28aa406caacc7f2c746308f84",
    "approx-apsp": "dbaa3f79aedcf9ad54a00d8e014fce8ff6ade7b3ed7de427fd6e55ad4a30e1e7",
    "path-reporter": "1f4af46cd9e708c45dc5808cb1c91a480a671fe08df858d35068c198ca74e70c",
    "spanner-comb": "7a48374030fed90091693d17e9ca7d0fa0192069d515436aea23ed009572163e",
    "spanner-alg": "863465017804ff8b39dcac3de8ac70620a43330bc832ead132b9781b9a967aa4",
    "steiner": "b7edfd5404965c82832850406410a5182658f3535517ad2f0ec3a9a3c26c4767",
    "bfs-oracle": "026c415351dfd01bc913c57dbe9b6545819985f28aa406caacc7f2c746308f84",
}

TERMINAL_SCRIPT = (
    "N 8 0\nE 0 1\nE 1 2\nE 2 3\nE 3 4\nE 4 5\nE 5 6\nE 6 7\nE 0 7\n"
    "T+ 0\nT+ 4\nQD 0 4\nI 2 6\nQD 0 4\nQP 1 5\nT+ 6\nPH 0\nD 3 4\nT- 4\n"
    "QD 0 6\nI 0 4\nT+ 3\nQD 3 7\n"
)
STEINER_TERMINAL_CSV_SHA256 = "bace1e0672f1de59c77e28360747bd73232ffe5553a0a5ebd4d5ba29b67c8a00"


def run_csv_sha256(tmp_path, structure, script, *extra):
    out = tmp_path / f"{structure}.csv"
    argv = ["run", "--structure", structure, "--script", str(script), "--out", str(out)]
    assert main(argv + list(extra)) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_run_csv_matches_the_recorded_hashes(tmp_path):
    script = gen_random(tmp_path, n=16, updates=24, seed=5)
    got = {
        st: run_csv_sha256(tmp_path, st, script, "--D", "3", "--k", "1")
        for st in STRUCTURES
    }
    assert got == RUN_CSV_SHA256
    terminal = tmp_path / "terminal.txt"
    terminal.write_text(TERMINAL_SCRIPT)
    assert run_csv_sha256(tmp_path, "steiner", terminal) == STEINER_TERMINAL_CSV_SHA256


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("structure", [s for s in STRUCTURES if s != "steiner"])
def test_terminal_events_on_edge_only_structures_exit_2(tmp_path, capsys, command, structure):
    script = tmp_path / "terminal.txt"
    script.write_text(TERMINAL_SCRIPT)
    assert main([command, "--structure", structure, "--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: not an edge event: AddTerminal(v=0)\n"
    assert captured.out == ""


def test_directed_script_paths_follow_arcs(tmp_path, capsys):
    script = tmp_path / "directed.txt"
    script.write_text("N 4 1\nE 0 1\nE 1 2\nE 2 0\nE 0 3\nQP 1 3\nQD 1 3\nQP 3 0\nD 2 0\nQP 1 3\n")
    rows = []
    for structure in ("bfs-oracle", "exact-apsp", "path-reporter"):
        assert main(["verify", "--structure", structure, "--script", str(script)]) == 0
        assert main(["run", "--structure", structure, "--script", str(script)]) == 0
        rows.append(capsys.readouterr().out.splitlines()[-5:])
    assert rows[0] == rows[1] == rows[2]
    assert rows[0][0] == "0,path,1,3,1-2-0-3,"


# counters each structure's --stats line must hold: the path-core reads
# wherever a path core reads, the spanner's rebuilds, and the queries the
# exact APSP answered through H or from its kept closure alone.  steiner's
# provider runs at --D 3 on an 8-vertex script, so some reads go past D
STATS_KEYS = {
    "exact-apsp": {"block_reads", "column_reads", "stitched", "closure_answers"},
    "path-reporter": {"block_reads", "column_reads"},
    "spanner-alg": {"updates", "reporter_block_reads", "reporter_column_reads"},
    "approx-apsp": {"block_reads", "column_reads", "spanner_rows", "spanner_rebuilds"},
    "spanner-comb": {"updates", "rebuilds", "trees"},
    "steiner": {"block_reads", "column_reads", "closure_reads", "spanner_rows", "spanner_rebuilds"},
}


@pytest.mark.parametrize("structure", sorted(STATS_KEYS))
def test_run_stats_prints_one_json_line_and_keeps_the_csv(tmp_path, capsys, structure):
    if structure == "steiner":  # a script without terminals reads nothing
        script = tmp_path / "terminal.txt"
        script.write_text(TERMINAL_SCRIPT)
    else:
        script = gen_random(tmp_path, n=16, updates=24, seed=5)
    argv = ["run", "--structure", structure, "--script", str(script), "--D", "3", "--k", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == 0
    counted = capsys.readouterr()
    assert counted.out == plain.out and plain.err == ""
    lines = counted.err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats and all(isinstance(v, int) for v in stats.values())
    assert STATS_KEYS[structure] <= stats.keys()
    assert all(stats[key] > 0 for key in STATS_KEYS[structure])
    assert main(argv + ["--stats"]) == 0
    assert capsys.readouterr().err == counted.err  # deterministic


def test_steiner_takes_its_degree_bound_from_the_command_line(tmp_path, capsys):
    # at --D 2 some distances on the 16-vertex script lie past D, so the
    # provider answers their rows from its spanner
    script = gen_random(tmp_path, n=16, updates=24, seed=5)
    argv = ["--structure", "steiner", "--script", str(script), "--D", "2", "--k", "1"]
    assert main(["run", "--stats", *argv, "--out", str(tmp_path / "o.csv")]) == 0
    assert json.loads(capsys.readouterr().err)["spanner_rows"] > 0
    assert main(["verify", *argv]) == 0


@pytest.mark.parametrize("structure", ["bfs-oracle"])
def test_run_stats_on_a_structure_without_counters_exits_2(tmp_path, capsys, structure):
    script = gen_random(tmp_path)
    argv = ["run", "--structure", structure, "--script", str(script), "--stats"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --stats: structure {structure!r} keeps no counters\n"
