import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from youngdim import (
    YoungDiagram,
    dim_exact,
    greedy_sequence,
    max_dimension_core,
    parse_partition,
)
from youngdim import cli
from youngdim.cli import main
from youngdim.errors import NonDivisibleHookProduct
from youngdim.records import record_to_json, record_for

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_dim_reports_one_record_per_partition(capsys):
    rc, out, _ = run(capsys, ["dim", "4,2,1"])
    assert rc == 0
    obj = json.loads(out)
    assert (obj["n"], obj["rows"], obj["dim"], obj["source"]) == (7, "4,2,1", "35", "oracle")
    assert obj["log_dim"] == pytest.approx(math.log(35))

    rc, out, _ = run(capsys, ["dim", "2,1", "3,1,1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert [json.loads(x)["dim"] for x in lines] == ["2", "6"]


def test_dim_rejects_bad_input(capsys):
    rc, out, err = run(capsys, ["dim", "nope"])
    assert (rc, out) == (2, "")
    assert err.startswith("error:")
    rc, _, err = run(capsys, ["dim", "1,2"])
    assert rc == 2
    rc, _, err = run(capsys, ["dim", ""])
    assert rc == 2


def test_seq_plain_matches_library_greedy(capsys):
    rc, out, _ = run(capsys, ["seq", "--n", "6"])
    assert rc == 0
    expected = [record_to_json(record_for(d, "greedy")) for d in greedy_sequence(6)]
    assert out.strip().splitlines() == expected


def test_seq_shake_is_seed_deterministic(capsys):
    argv = ["seq", "--n", "14", "--start", "3,2,1", "--shake", "2", "--variant", "3"]
    rc, first, _ = run(capsys, argv)
    assert rc == 0
    assert all(json.loads(x)["source"] == "branches" for x in first.strip().splitlines())
    rc, again, _ = run(capsys, argv)
    assert again == first
    rc, shifted, _ = run(capsys, argv + ["--seed", "7"])
    assert rc == 0
    assert shifted != first


def test_seq_flag_conflicts(capsys):
    rc, _, err = run(capsys, ["seq", "--n", "9", "--variant", "2"])
    assert rc == 2
    assert "--shake" in err
    rc, _, err = run(capsys, ["seq", "--n", "9", "--shake", "1", "--restrict-core"])
    assert rc == 2


def test_seq_restrict_core_dead_end_start(capsys):
    rc, out, err = run(capsys, ["seq", "--n", "5", "--start", "3", "--restrict-core"])
    assert (rc, out) == (2, "")
    assert err == "error: no core-subgraph child for (3,)\n"
    rc, out, _ = run(capsys, ["seq", "--n", "3", "--start", "2", "--restrict-core"])
    assert rc == 0
    assert [json.loads(x)["rows"] for x in out.strip().splitlines()] == ["2", "2,1"]


def test_seq_shake_source_tag(capsys):
    rc, out, _ = run(capsys, ["seq", "--n", "8", "--start", "2,1", "--shake", "1"])
    assert rc == 0
    assert all(json.loads(x)["source"] == "shake" for x in out.strip().splitlines())


def test_search_astar_uniform_cost_payload(capsys):
    rc, out, _ = run(capsys, ["search", "astar", "--n", "12", "--uniform-cost"])
    assert rc == 0
    obj = json.loads(out)
    entry = max_dimension_core(12)
    assert obj["dim"] == str(entry.dim)
    assert parse_partition(obj["rows"]) in entry.maximizers
    assert obj["n"] == 12
    assert obj["mode"] == "uniform-cost"
    assert obj["cost"] == pytest.approx(math.lgamma(13) - math.log(entry.dim))


def test_search_astar_depth_from_start(capsys):
    rc, out, _ = run(capsys, ["search", "astar", "--depth", "2", "--start", "2,1"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 5
    found = parse_partition(obj["rows"])
    assert all(found.row_length(i) >= r for i, r in enumerate([2, 1], start=1))


def test_search_astar_conjugates_outside_core(capsys):
    rc, out, _ = run(capsys, ["search", "astar", "--depth", "1", "--start", "3,1"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["rows"] == "3,1,1"
    assert obj["dim"] == "6"


def test_search_astar_argument_errors(capsys):
    rc, _, err = run(capsys, ["search", "astar"])
    assert rc == 2
    rc, _, err = run(capsys, ["search", "astar", "--n", "9", "--depth", "2"])
    assert rc == 2
    rc, _, err = run(capsys, ["search", "astar", "--n", "9", "--start", "4,2,2"])
    assert rc == 2
    assert "core" in err
    rc, out, err = run(capsys, ["search", "astar", "--depth", "0"])
    assert (rc, out) == (2, "")
    assert err == "error: depth must be at least 1, got 0\n"


def test_improve_pipeline(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    better = tmp_path / "better.jsonl"
    csv = tmp_path / "ratios.csv"
    rc, _, _ = run(capsys, ["seq", "--n", "16", "--out", str(runs)])
    assert rc == 0
    rc, out, err = run(
        capsys,
        ["improve", "--in", str(runs), "--depth", "3", "--out", str(better), "--ratios-out", str(csv)],
    )
    assert rc == 0
    assert "improved sizes: [15]" in err
    new15 = json.loads(better.read_text().splitlines()[14])
    assert (new15["rows"], new15["dim"], new15["source"]) == ("5,4,3,2,1", "292864", "improve")
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "n,ratio,log_ratio,improved"
    by_n = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    assert by_n["15"][3] == "true"
    assert float(by_n["15"][1]) == pytest.approx(292864 / 243243)
    assert by_n["14"][1:] == ["1.0", "0.0", "false"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for path in (runs, empty):
        rc, _, err = run(capsys, ["improve", "--in", str(path), "--depth", "0"])
        assert rc == 2
        assert err == "error: depth must be at least 1, got 0\n"


def test_oracle_max_known_value(capsys):
    rc, out, _ = run(capsys, ["oracle", "max", "--n", "4"])
    assert rc == 0
    assert json.loads(out) == {"n": 4, "dim": "3", "maximizers": ["2,1,1", "3,1"]}


def test_oracle_table_to_file(tmp_path, capsys):
    path = tmp_path / "table.jsonl"
    rc, out, _ = run(capsys, ["oracle", "table", "--max-n", "6", "--out", str(path)])
    assert (rc, out) == (0, "")
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert [x["n"] for x in lines] == [1, 2, 3, 4, 5, 6]
    assert lines[5] == {"n": 6, "dim": "16", "maximizers": ["3,2,1"]}


def test_verify_theorem_clean(capsys):
    rc, out, _ = run(capsys, ["verify", "theorem", "--max-n", "8", "--hooks-max-n", "6"])
    assert rc == 0
    assert out.startswith("checked=")
    assert "violations=0" in out and "hook_failures=0" in out


def test_verify_conjecture_clean(capsys):
    rc, out, _ = run(capsys, ["verify", "conjecture", "--max-n", "8"])
    assert rc == 0
    summary = out.strip().splitlines()[0]
    assert "decreases=0" in summary
    blocked = [json.loads(x) for x in out.strip().splitlines()[1:]]
    assert all(b["kind"] == "blocked" for b in blocked)


def test_ratios_subcommand(tmp_path, capsys):
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    csv = tmp_path / "r.csv"
    old.write_text(record_to_json(record_for(YoungDiagram([4, 2, 2]), "greedy")) + "\n")
    new.write_text(record_to_json(record_for(YoungDiagram([4, 3, 1]), "astar")) + "\n")
    rc, _, _ = run(capsys, ["ratios", "--old", str(old), "--new", str(new), "--out", str(csv)])
    assert rc == 0
    assert csv.read_text().splitlines()[1].startswith("8,1.25,")


def test_global_flags_work_on_either_side(capsys):
    rc, before, _ = run(capsys, ["--max-exact-n", "0", "dim", "4,2,1"])
    assert rc == 0
    rc, after, _ = run(capsys, ["dim", "4,2,1", "--max-exact-n", "0"])
    assert rc == 0
    assert before == after
    assert json.loads(before)["dim"] is None


def test_threads_flag_is_rejected(capsys):
    before, after = ["--threads", "2", "dim", "4,2,2"], ["dim", "4,2,2", "--threads", "2"]
    for argv in (before, after):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads" in captured.err


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NonDivisibleHookProduct("8! is not divisible")

    monkeypatch.setattr(cli, "record_for", broken)
    rc, out, err = run(capsys, ["dim", "4,2,2"])
    assert (rc, out) == (3, "")
    assert err == "internal error: NonDivisibleHookProduct: 8! is not divisible\n"


def test_output_is_unchanged_under_python_O():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in (["oracle", "table", "--max-n", "8"], ["dim", "4,2,2"]):
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "youngdim.cli", *argv],
                capture_output=True,
                env=env,
                check=False,
            )
            for flags in ([], ["-O"])
        )
        assert (plain.returncode, optimized.returncode) == (0, 0)
        assert plain.stdout and optimized.stdout == plain.stdout
