"""Command-line interface: determinism, exit codes, CSV shapes."""

import json

import pytest

from dynsp.apsp import StitchFailure
from dynsp.cli import CSV_HEADER, STRUCTURES, main
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
    from dynsp import cli

    monkeypatch.setattr(cli._BfsAdapter, "dist", lambda self, u, v: 0.0)
    assert main(["verify", "--structure", "bfs-oracle", "--script", str(script)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "--structure", "nope", "--script", "x"]) == 2
    assert main(["verify", "--structure", "bfs-oracle", "--script", str(tmp_path / "missing.txt")]) == 2
    assert main(["gen", "kcycle", "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
@pytest.mark.parametrize("D", ["0", "-1"])
def test_degree_bound_below_one_is_a_usage_error(tmp_path, capsys, command, D):
    script = gen_random(tmp_path)
    argv = [command, "--structure", "exact-apsp", "--script", str(script), "--D", D]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --D must be at least 1, got {D}\n"


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
    from dynsp import cli

    def fail(self, u, v):
        raise exc

    script = gen_random(tmp_path)
    monkeypatch.setattr(cli._BfsAdapter, "dist", fail)
    assert main(["run", "--structure", "bfs-oracle", "--script", str(script)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"
