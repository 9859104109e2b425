import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from youngdim import (
    YoungDiagram,
    dim_exact,
    greedy_sequence,
    max_dimension_core,
    parse_partition,
)
from youngdim import cli, dimension, errors, oracle, records, transforms
from youngdim.cli import main
from youngdim.errors import InputError, NonDivisibleHookProduct
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


def test_seq_shake_computes_each_dimension_once(capsys, monkeypatch):
    # every shaken, grown and recorded diagram carries its dimension from
    # the exact growth and shrink steps, so only the start needs hooks
    calls = Counter()
    hook_product = dimension.hook_product

    def counting_hook_product(diagram):
        calls[diagram.rows] += 1
        return hook_product(diagram)

    monkeypatch.setattr(dimension, "hook_product", counting_hook_product)
    argv = ["seq", "--n", "40", "--start", "5,3,2,1", "--shake", "2", "--variant", "3"]
    rc, out, _ = run(capsys, argv + ["--seed", "1"])
    assert rc == 0
    assert calls == {(5, 3, 2, 1): 1}
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert obj["dim"] == str(dim_exact(parse_partition(obj["rows"])))


def test_seq_flag_conflicts(capsys):
    rc, out, err = run(capsys, ["seq", "--n", "9", "--variant", "2"])
    assert (rc, out, err) == (2, "", "error: --variant requires --shake\n")
    rc, out, err = run(capsys, ["seq", "--n", "9", "--shake", "1", "--restrict-core"])
    assert (rc, out) == (2, "")
    assert err == "error: --shake cannot be combined with --restrict-core\n"
    # k = 0 would print the greedy walk under a shake tag
    for variant in ([], ["--variant", "3"]):
        argv = ["seq", "--n", "6", "--start", "2,1", "--shake", "0", *variant]
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (2, "", "error: k must be in 1..3, got 0\n")
    rc, out, err = run(capsys, ["seq", "--start", "0", "--n", "3"])
    assert (rc, out, err) == (2, "", "error: start diagram must have at least one box\n")


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


# stdout read at the commit before the greedy walk grew one transition
# measure along its path; the last input is the benchmark's improve
# input, shaken from the last diagram of `seq --n 64`
GREEDY_64 = "13,10,9,7,6,5,4,3,2,2,1,1,1"
SEQ_GOLDEN = (
    (
        ["seq", "--n", "130"],
        "37cbfe494416f9dc76f5cd36fbc2a4b427d3d98941cacc13781ef2d07e3d17b8",
    ),
    (
        ["seq", "--n", "40", "--restrict-core"],
        "34f7d3f9c6cc87fa9485f0cc9582fedd5758f8c167c07e1ba4a2acf1e3c0204d",
    ),
    (
        ["seq", "--n", "130", "--start", GREEDY_64, "--shake", "4", "--variant", "3",
         "--seed", "1"],
        "ae5e655d34c3b26604d88fd249e42936f1c499eccfb44307004a2c3aa358a376",
    ),
)


def test_improve_input_starts_from_greedy_64():
    assert str(greedy_sequence(64)[-1]) == GREEDY_64


@pytest.mark.parametrize("argv,sha", SEQ_GOLDEN, ids=["greedy", "core", "improve-input"])
def test_seq_output_is_pinned(capsys, argv, sha):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


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


SEARCH_GOLDEN = (
    (
        ["--n", "30", "--uniform-cost"],
        '{"rows": "8,6,5,4,3,2,1,1", "n": 30, "dim": "1865134921890240",'
        ' "log_dim": 35.16210978956681, "c": 0.3956397915614105,'
        ' "cost": 39.49612655926334, "nodes_expanded": 2464, "frontier_peak": 619,'
        ' "mode": "uniform-cost"}',
    ),
    (
        ["--n", "60"],
        '{"rows": "12,10,8,7,5,5,4,3,2,2,1,1", "n": 60,'
        ' "dim": "2024412539888115680031267741229547520000",'
        ' "log_dim": 90.5060981814791, "c": 0.4916092053540112,'
        ' "cost": 98.1220752421925, "nodes_expanded": 394, "frontier_peak": 518,'
        ' "mode": "heuristic"}',
    ),
    (
        # (3, 1) is outside the core, so this searches from its conjugate
        ["--depth", "1", "--start", "3,1"],
        '{"rows": "3,1,1", "n": 5, "dim": "6", "log_dim": 1.791759469228055,'
        ' "c": 0.26921650335338454, "cost": 0.916290731874155,'
        ' "nodes_expanded": 1, "frontier_peak": 3, "mode": "heuristic"}',
    ),
)


@pytest.mark.parametrize(
    "args,line", SEARCH_GOLDEN, ids=["uniform-cost-30", "heuristic-60", "conjugate"]
)
def test_search_astar_stdout_is_golden_and_deterministic(capsys, args, line):
    # no stdout byte may depend on timing, so two runs print the same bytes
    outputs = [run(capsys, ["search", "astar", *args]) for _ in range(2)]
    assert outputs[0] == outputs[1] == (0, line + "\n", "")


def test_search_astar_argument_errors(capsys):
    for argv in (["search", "astar"], ["search", "astar", "--n", "9", "--depth", "2"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (2, "", "error: give exactly one of --n and --depth\n")
    rc, _, err = run(capsys, ["search", "astar", "--n", "9", "--start", "4,2,2"])
    assert rc == 2
    assert "core" in err
    rc, out, err = run(capsys, ["search", "astar", "--depth", "0"])
    assert (rc, out) == (2, "")
    assert err == "error: depth must be at least 1, got 0\n"
    rc, out, err = run(capsys, ["search", "astar", "--start", "0", "--n", "3"])
    assert (rc, out, err) == (2, "", "error: start diagram must have at least one box\n")


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
    rc, out, err = run(capsys, ["oracle", "table", "--max-n", "12", "--out", str(path)])
    assert (rc, out, err) == (0, "", "")
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert [x["n"] for x in lines] == list(range(1, 13))
    assert lines[5] == {"n": 6, "dim": "16", "maximizers": ["3,2,1"]}
    # stdout carries the file's bytes
    rc, out, err = run(capsys, ["oracle", "table", "--max-n", "12"])
    assert (rc, err) == (0, "")
    assert out.encode() == path.read_bytes()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "022c321e628218f3992cacb472c21c93aed5d600a509aa6510154e3df908fd48"
    )


def test_oracle_size_bound_is_checked_before_any_work(capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept before the bound check")

    monkeypatch.setattr(oracle, "_sweep", no_sweep)
    for argv, bad, lo in (
        (["oracle", "table", "--max-n", "61"], 61, 1),
        (["oracle", "table", "--max-n", "0"], 0, 1),
        (["oracle", "table", "--max-n", "-3"], -3, 1),
        (["oracle", "max", "--n", "0"], 0, 1),
        (["oracle", "max", "--n", "61"], 61, 1),
        (["verify", "theorem", "--max-n", "61"], 61, 1),
        (["verify", "theorem", "--max-n", "0"], 0, 1),
        (["verify", "theorem", "--max-n", "26", "--hooks-max-n", "61"], 61, 0),
        (["verify", "theorem", "--hooks-max-n", "-1"], -1, 0),
        (["verify", "conjecture", "--max-n", "61"], 61, 1),
        (["verify", "conjecture", "--max-n", "0"], 0, 1),
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"error: n={bad} outside exhaustive range {lo}..60\n"


def test_verify_theorem_clean(capsys):
    rc, out, _ = run(capsys, ["verify", "theorem", "--max-n", "8", "--hooks-max-n", "6"])
    assert rc == 0
    assert out.startswith("checked=")
    assert "violations=0" in out and "hook_failures=0" in out


def test_verify_theorem_with_no_hook_bases(capsys):
    rc, out, _ = run(capsys, ["verify", "theorem", "--max-n", "12", "--hooks-max-n", "0"])
    assert rc == 0
    assert "violations=0" in out and " hook_pairs=0 hook_failures=0\n" in out


def test_verify_conjecture_clean(capsys):
    rc, out, _ = run(capsys, ["verify", "conjecture", "--max-n", "8"])
    assert rc == 0
    summary = out.strip().splitlines()[0]
    assert "decreases=0" in summary
    blocked = [json.loads(x) for x in out.strip().splitlines()[1:]]
    assert all(b["kind"] == "blocked" for b in blocked)


# the exact lines a failing sweep prints; no real sweep finds one
VIOLATION_LINE = (
    '{"kind": "dimension", "input": [3, 2, 1], "output": [3, 3],'
    ' "dim_input": "16", "dim_output": "5"}'
)
HOOK_FAILURE_LINE = '{"kind": "hooks", "base": [2, 1], "upper": [1, 3], "lower": [3, 1]}'


@pytest.mark.parametrize(
    "violations,hook_failures",
    [(1, 1), (1, 0), (0, 1)],
    ids=["both", "violation", "hook-failure"],
)
def test_verify_theorem_prints_each_finding_and_exits_3(
    capsys, monkeypatch, violations, hook_failures
):
    sweep = transforms.ReflectionSweep(
        7, 3, 3, 11, [((3, 2, 1), (3, 3), 16, 5)] * violations
    )
    hooks = (4, [((2, 1), (1, 3), (3, 1))] * hook_failures)
    monkeypatch.setattr(transforms, "symmetrize_sweep", lambda max_n: sweep)
    monkeypatch.setattr(transforms, "reflection_hooks_sweep", lambda max_n: hooks)
    rc, out, err = run(capsys, ["verify", "theorem", "--max-n", "6", "--hooks-max-n", "3"])
    assert (rc, err) == (3, "")
    lines = [
        f"checked=7 strict=3 equal=3 skipped=11 violations={violations}"
        f" hook_pairs=4 hook_failures={hook_failures}",
        *[VIOLATION_LINE] * violations,
        *[HOOK_FAILURE_LINE] * hook_failures,
    ]
    assert out == "".join(f"{line}\n" for line in lines)


def test_verify_conjecture_prints_decreases_and_blocked_lines(capsys, monkeypatch):
    sweep = transforms.BalanceSweep(
        9, 4, 2, [((3, 2), (4, 1), 5, 4)], [((5,), (5,)), ((2, 2), None)]
    )
    monkeypatch.setattr(transforms, "balance_sweep", lambda max_n: sweep)
    rc, out, err = run(capsys, ["verify", "conjecture", "--max-n", "5"])
    assert rc == 0
    assert out == (
        "checked=9 increased=4 equal=2 blocked=2 decreases=1\n"
        '{"kind": "decrease", "input": [3, 2], "output": [4, 1],'
        ' "dim_input": "5", "dim_output": "4"}\n'
        '{"kind": "blocked", "input": [5], "stuck": [5]}\n'
        '{"kind": "blocked", "input": [2, 2], "stuck": null}\n'
    )
    assert err == "warning: 1 dimension decreases recorded\n"


# stdout read at the commit before the transform sweeps moved onto
# oracle.all_dimensions; the sweeps must reproduce it byte for byte,
# including the order of the blocked lines.
VERIFY_GOLDEN = (
    (
        ["verify", "theorem", "--max-n", "26", "--hooks-max-n", "16"],
        "1b19c3f40cac136ecc18559a79a4ac8f49fa121c6539e28c8a78b03b635ed8e5",
        1,
        "checked=995 strict=264 equal=731 skipped=10736 violations=0"
        " hook_pairs=38 hook_failures=0",
    ),
    (
        ["verify", "theorem", "--max-n", "50", "--hooks-max-n", "50"],
        "56e93e48c89306a2fe6804dfa9269a372aea78caec9a6eb0d7f98ff1e1220731",
        1,
        "checked=26300 strict=11898 equal=14402 skipped=1269670 violations=0"
        " hook_pairs=6480 hook_failures=0",
    ),
    (
        ["verify", "conjecture", "--max-n", "20"],
        "161c005440bdceeb892b731a1489a95a69da41fb4750984a0bcab1f52cd79cbb",
        565,
        "checked=2713 increased=904 equal=1245 blocked=564 decreases=0",
    ),
)


@pytest.mark.parametrize("argv,sha,lines,first", VERIFY_GOLDEN, ids=["theorem", "theorem-50", "conjecture"])
def test_verify_output_is_pinned(capsys, argv, sha, lines, first):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == first
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("argv,sha,lines,first", VERIFY_GOLDEN[::2], ids=["theorem", "conjecture"])
def test_verify_output_is_pinned_after_a_fresh_import(argv, sha, lines, first):
    # verify imports the transforms on its first run, in a process that
    # has not loaded them yet
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"""
import contextlib, hashlib, io, sys
sys.path.insert(0, {src!r})
from youngdim.cli import main
loaded = "youngdim.transforms" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main({argv!r})
print(loaded, rc, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert (proc.stdout, proc.stderr) == (f"False 0 {sha}\n", "")


def test_ratios_subcommand(tmp_path, capsys):
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    csv = tmp_path / "r.csv"
    old.write_text(record_to_json(record_for(YoungDiagram([4, 2, 2]), "greedy")) + "\n")
    new.write_text(record_to_json(record_for(YoungDiagram([4, 3, 1]), "astar")) + "\n")
    rc, _, _ = run(capsys, ["ratios", "--old", str(old), "--new", str(new), "--out", str(csv)])
    assert rc == 0
    assert csv.read_text().splitlines()[1].startswith("8,1.25,")


@pytest.mark.parametrize("key", ["log_dim", "c"])
def test_non_finite_record_floats_exit_2(tmp_path, capsys, key):
    lines = [record_to_json(record_for(d, "greedy")) for d in greedy_sequence(4)]
    obj = json.loads(lines[2])
    obj[key] = float("nan")
    lines[2] = json.dumps(obj)
    bad = tmp_path / "bad.jsonl"
    good = tmp_path / "good.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    good.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    csv = tmp_path / "r.csv"
    message = f"error: line 3: field {key} is not finite\n"
    for argv in (
        ["ratios", "--old", str(bad), "--new", str(good), "--out", str(csv)],
        ["ratios", "--old", str(good), "--new", str(bad), "--out", str(csv)],
        ["improve", "--in", str(bad), "--depth", "1", "--ratios-out", str(csv)],
    ):
        assert run(capsys, argv) == (2, "", message)
    assert not csv.exists()


def test_bad_record_dims_exit_2(tmp_path, capsys):
    # 4,2,1 has dimension 35, so int("3_5", 10) would match it; a record
    # without its exact dimension must still match its rows, and so must
    # one whose dim, log_dim and c agree with each other on 36
    lines = [record_to_json(record_for(d, "greedy")) for d in greedy_sequence(7)]
    good = tmp_path / "good.jsonl"
    good.write_text("\n".join(lines) + "\n")
    obj = json.loads(lines[6])
    assert obj["rows"] == "4,2,1"
    csv = tmp_path / "r.csv"
    log36 = math.log(36)
    for change, message in (
        ({"dim": "3_5"}, "field dim is not a decimal integer"),
        ({"dim": None, "log_dim": 50.0, "c": 123.0}, "log_dim disagrees with rows"),
        (
            {"dim": "36", "log_dim": log36, "c": records._normalized(7, log36)},
            "field dim disagrees with rows",
        ),
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:6] + [json.dumps({**obj, **change})]) + "\n")
        for argv in (
            ["ratios", "--old", str(good), "--new", str(bad), "--out", str(csv)],
            ["improve", "--in", str(bad), "--depth", "1", "--ratios-out", str(csv)],
        ):
            assert run(capsys, argv) == (2, "", f"error: line 7: {message}\n")
            assert not csv.exists()


@pytest.mark.parametrize(
    "head, bad",
    [
        (0, b"\xff\xfe"),  # a UTF-16 byte-order mark
        (2, b"[" * 200_000),
        (2, b'{"n": ' + b"1" * 5001 + b"}"),
        # a whole record for rows "1" whose n is one 200,000-digit literal
        (2, b'{"n": ' + b"1" * 200_000 + b', "rows": "1", "log_dim": 0.0, "dim": "1",'
            b' "c": 0.0, "source": "greedy"}'),
    ],
    ids=["bom", "deep", "long-int", "long-n"],
)
def test_unreadable_record_lines_exit_2(tmp_path, capsys, head, bad):
    lines = [record_to_json(record_for(d, "greedy")).encode() for d in greedy_sequence(3)]
    good = tmp_path / "good.jsonl"
    good.write_bytes(b"\n".join(lines) + b"\n")
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(lines[:head] + [bad] + lines[head:]) + b"\n")
    csv = tmp_path / "r.csv"
    for argv in (
        ["ratios", "--old", str(path), "--new", str(good), "--out", str(csv)],
        ["improve", "--in", str(path), "--depth", "1", "--ratios-out", str(csv)],
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: line {head + 1}: ") and err.count("\n") == 1
        assert len(err) < 200
        assert not csv.exists()


def test_dim_prints_exact_dimensions_of_any_length(tmp_path, capsys):
    # the staircase with 85 rows (n = 3655) has a dimension of more
    # digits than CPython converts between int and str by default
    stairs = ",".join(str(r) for r in range(85, 0, -1))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, ["dim", stairs, "--max-exact-n", "5000"])
    assert (rc, err) == (0, "")
    assert len(json.loads(out)["dim"]) > 4300
    path = tmp_path / "stairs.jsonl"
    path.write_text(out)
    csv = tmp_path / "r.csv"
    # reading the record back checks its dim against the rows
    rc, _, err = run(capsys, ["ratios", "--old", str(path), "--new", str(path), "--out", str(csv)])
    assert (rc, err) == (0, "")
    assert csv.read_text().splitlines()[1] == "3655,1.0,0.0,false"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_improve_computes_each_dimension_once(tmp_path, capsys, monkeypatch):
    # load_records checks each input record's dim against its rows, one
    # hook product per record; the diagrams improve reads carry that dim,
    # and each search grows its found diagram's dimension from them
    runs = tmp_path / "runs.jsonl"
    better = tmp_path / "better.jsonl"
    rc, _, _ = run(capsys, ["seq", "--n", "40", "--out", str(runs)])
    assert rc == 0
    calls = Counter()
    hook_product = dimension.hook_product

    def counting_hook_product(diagram):
        calls[diagram.rows] += 1
        return hook_product(diagram)

    # the record check multiplies by the hook product itself
    monkeypatch.setattr(dimension, "hook_product", counting_hook_product)
    monkeypatch.setattr(records, "hook_product", counting_hook_product)
    rc, _, _ = run(capsys, ["improve", "--in", str(runs), "--depth", "3", "--out", str(better)])
    assert rc == 0
    assert len(calls) == 40 and max(calls.values()) == 1
    # conjugates share a dimension, so no pair has both sides computed
    for rows in calls:
        mirror = YoungDiagram(rows).conjugate_rows()
        assert mirror == rows or mirror not in calls


def test_improve_parses_each_record_once(tmp_path, capsys, monkeypatch):
    # improve searches from the diagrams that loading parsed and checked;
    # records past --max-exact-n carry no dim and are parsed once too
    runs = tmp_path / "runs.jsonl"
    rc, _, _ = run(
        capsys, ["seq", "--n", "40", "--max-exact-n", "20", "--out", str(runs)]
    )
    assert rc == 0
    calls = []
    parse = records.parse_partition

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(records, "parse_partition", counted)
    monkeypatch.setattr(cli, "parse_partition", counted)
    rc, _, err = run(capsys, ["improve", "--in", str(runs), "--depth", "3"])
    assert rc == 0 and err.startswith("improved sizes: ")
    assert len(calls) == 40 and len(set(calls)) == 40


def test_global_flags_work_on_either_side(capsys):
    rc, before, _ = run(capsys, ["--max-exact-n", "0", "dim", "4,2,1"])
    assert rc == 0
    rc, after, _ = run(capsys, ["dim", "4,2,1", "--max-exact-n", "0"])
    assert rc == 0
    assert before == after
    assert json.loads(before)["dim"] is None
    # a bad global flag value is reported by the full parser, by its name
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "x", "dim", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: invalid int value: 'x'" in captured.err


def test_threads_flag_is_rejected(capsys):
    before, after = ["--threads", "2", "dim", "4,2,2"], ["dim", "4,2,2", "--threads", "2"]
    for argv in (before, after):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads" in captured.err


def _in_process(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_reused_parser_carries_no_state_between_calls(capsys, monkeypatch):
    # each call in one process prints what a fresh process prints for the
    # same argv: no flag value, default or error carries over
    seq = ["seq", "--n", "20", "--start", "3,2,1", "--shake", "2", "--variant", "3"]
    calls = (
        ["--max-exact-n", "0", "dim", "4,2,1"],
        ["dim", "4,2,1"],
        [*seq, "--seed", "7"],
        seq,
        ["--threads", "2", "dim", "4,2,2"],
        ["dim", "4,2,2"],
        ["--help"],
        ["dim", "3,1"],
    )
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width in both
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    seen = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "youngdim.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        got = _in_process(capsys, argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append(got)
    assert [rc for rc, _, _ in seen] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert json.loads(seen[0][1])["dim"] is None and json.loads(seen[1][1])["dim"] == "35"
    assert seen[2][1] != seen[3][1]


def test_help_lists_every_subcommand(capsys):
    for argv, first, listed in (
        (["--help"], "usage: youngdim ", "{dim,seq,search,improve,oracle,verify,ratios}"),
        (["search", "astar", "--help"], "usage: youngdim search astar", ""),
    ):
        once, again = (_in_process(capsys, argv) for _ in range(2))
        assert once == again
        rc, out, err = once
        assert (rc, err) == (0, "") and out.startswith(first) and listed in out


def test_input_error_base_is_pinned():
    # the classes whose messages the command line reports as bad input
    # (exit 2), each with the builtin base library callers catch
    input_errors = {
        "UsageError": ValueError,
        "PartitionError": ValueError,
        "NonMonotoneRows": ValueError,
        "NegativeRowLength": ValueError,
        "PartitionParseError": ValueError,
        "EmptyDiagramError": ValueError,
        "SizeBoundExceeded": ValueError,
        "InvalidK": ValueError,
        "InvalidM": ValueError,
        "InvalidPath": ValueError,
        "InvalidDepth": ValueError,
        "NoCoreChild": RuntimeError,
        "BalanceNotApplicable": ValueError,
        "ShapeBlocked": RuntimeError,
        "EmptySearchSpace": RuntimeError,
        "CoreMembershipError": ValueError,
        "NotAGrowthSequence": ValueError,
        "RecordSchemaError": ValueError,
        "KeyMismatch": ValueError,
    }
    internal_errors = {
        "InvariantViolation": RuntimeError,
        "NonDivisibleHookProduct": RuntimeError,
        "InvalidResultShape": RuntimeError,
        "BoxOutsideDiagram": ValueError,
        "NotAddable": ValueError,
        "NotRemovable": ValueError,
        "AsymmetricBoxesNotIsolated": ValueError,
        "DegenerateOverlap": ValueError,
    }
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception) and cls is not InputError
    }
    assert set(classes) == set(input_errors) | set(internal_errors)
    for name, base in {**input_errors, **internal_errors}.items():
        assert issubclass(classes[name], base)
        assert issubclass(classes[name], InputError) == (name in input_errors)


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NonDivisibleHookProduct("8! is not divisible")

    monkeypatch.setattr(cli, "record_for", broken)
    rc, out, err = run(capsys, ["dim", "4,2,2"])
    assert (rc, out) == (3, "")
    assert err == "internal error: NonDivisibleHookProduct: 8! is not divisible\n"


def test_closed_stdout_exits_141_quietly(tmp_path):
    # a reader that stops early (`| head -1`) is not bad input: the pipe
    # breaks mid-run for long output and at the last flush for short
    # output, and either way the command exits 141 with an empty stderr
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cli_cmd = [sys.executable, "-m", "youngdim.cli"]
    for argv in (
        ["seq", "--n", "400"],
        ["verify", "conjecture", "--max-n", "16"],
        ["dim", "4,2,2"],
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [*cli_cmd, *argv], stdout=write, stderr=subprocess.PIPE, env=env, check=False
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b""), argv
    # a missing output directory is still bad input
    missing = tmp_path / "missing" / "runs.jsonl"
    done = subprocess.run(
        [*cli_cmd, "seq", "--n", "4", "--out", str(missing)],
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 2 and done.stderr.startswith(b"error: "), done.stderr


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
