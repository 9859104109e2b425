"""The four benchmark workloads: their CLI tasks, inputs and output checks.

Each workload is a fixed list of CLI invocations (tasks) run through
`youngdim.cli.main`.  A check returns the problems it found in one
task's output; a task with any problem, a raised error or a non-zero
exit code counts as failed.  Checks use `reference.py` and the pinned
tables in `pins.json`, never the library function that produced the
output, except that the improve output must reload through the
library's own `load_records`.

Sizes are chosen so that one job (all tasks once) takes one to five
seconds on a 2-CPU box, which lets a run time several jobs and report a
median.  Smoke sizes finish in well under a second.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

import reference

SEARCH_KEYS = {
    "rows",
    "n",
    "dim",
    "log_dim",
    "c",
    "cost",
    "nodes_expanded",
    "frontier_peak",
    "mode",
}
# The one timing field the CLI prints on stdout; its value is never compared.
TIMING_KEYS = {"wall_time_s"}

# Counts of the current uniform-cost search; the traced run must repeat them.
PINNED_NODES_EXPANDED = {22: 592, 30: 2464}


@dataclass
class TaskOutput:
    argv: list
    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class Context:
    seed: int
    smoke: bool
    work: str
    pins: dict
    yd: object = None
    inputs: dict = field(default_factory=dict)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and not isinstance(a, bool) and abs(a - b) <= tol


def check_search_json(stdout: str, n: int, mode: str, pinned: dict | None) -> list[str]:
    """Field-by-field check of one `search astar` result; wall_time_s is skipped."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"expected one JSON line, got {len(lines)}"]
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(obj, dict) or set(obj) - TIMING_KEYS != SEARCH_KEYS:
        return [f"unexpected fields {sorted(obj) if isinstance(obj, dict) else obj!r}"]
    problems = []
    try:
        rows = reference.parse_rows(obj["rows"])
    except (ValueError, TypeError, AttributeError):
        return [f"rows {obj['rows']!r} do not parse"]
    if obj["n"] != n or sum(rows) != n:
        problems.append(f"size {obj['n']} / rows sum {sum(rows)}, expected {n}")
        return problems
    if not reference.in_core(rows):
        problems.append(f"{obj['rows']} is outside the core subgraph")
    dim = reference.hook_dim(rows)
    if obj["dim"] != str(dim):
        problems.append(f"dim {obj['dim']!r} but rows {obj['rows']} have dim {dim}")
    if pinned is not None:
        if str(dim) != pinned["dim"] or obj["rows"] not in pinned["maximizers"]:
            problems.append(f"{obj['rows']} is not a pinned core maximizer at n={n}")
    ln_dim = math.log(dim)
    ln_fact = math.lgamma(n + 1)
    if not _close(obj["log_dim"], ln_dim, 1e-9 * max(1.0, ln_dim)):
        problems.append(f"log_dim {obj['log_dim']!r} != {ln_dim!r}")
    if not _close(obj["c"], -(ln_dim - 0.5 * ln_fact) / math.sqrt(n), 1e-9):
        problems.append(f"c {obj['c']!r} disagrees with dim")
    if not _close(obj["cost"], ln_fact - ln_dim, 1e-6):
        problems.append(f"cost {obj['cost']!r} != ln n! - ln dim")
    for key in ("nodes_expanded", "frontier_peak"):
        if not _is_int(obj[key]) or obj[key] < 0:
            problems.append(f"{key} {obj[key]!r} is not a count")
    if obj["mode"] != mode:
        problems.append(f"mode {obj['mode']!r}, expected {mode!r}")
    return problems


class Workload:
    name = ""

    def tasks(self, ctx: Context) -> list[list[str]]:
        raise NotImplementedError

    def prepare(self, ctx: Context) -> None:
        """Make the workload's inputs from the seed (set-up, timed as setup_s)."""

    def before_job(self, ctx: Context) -> None:
        """Remove what a previous job left, so a stale file cannot pass a check."""

    def check(self, index: int, out: TaskOutput, ctx: Context) -> list[str]:
        raise NotImplementedError

    def corrupt(self, out: TaskOutput, ctx: Context) -> None:
        """Damage one output the way a wrong result would look."""
        out.stdout = corrupt_dim(out.stdout)

    def quality(self, outputs: list[TaskOutput], ctx: Context) -> dict:
        """Workload-specific result quality, as {name: (value, unit)}."""
        return {}


def corrupt_dim(text: str) -> str:
    """Change the first digit of the first exact dimension in the text."""

    def bump(m):
        digit = "2" if m.group(2) == "1" else "1"
        return m.group(1) + digit

    return re.sub(r'("dim": ")(\d)', bump, text, count=1)


class SearchExact(Workload):
    name = "search-exact"

    def sizes(self, ctx):
        return range(8, 13) if ctx.smoke else range(22, 31)

    def tasks(self, ctx):
        return [["search", "astar", "--n", str(n), "--uniform-cost"] for n in self.sizes(ctx)]

    def check(self, index, out, ctx):
        n = list(self.sizes(ctx))[index]
        return check_search_json(out.stdout, n, "uniform-cost", ctx.pins["core_max"][n - 1])


class SearchHeuristic(Workload):
    name = "search-heuristic"

    def sizes(self, ctx):
        return (20, 25) if ctx.smoke else (60, 70, 80, 90)

    def tasks(self, ctx):
        return [["search", "astar", "--n", str(n)] for n in self.sizes(ctx)]

    def check(self, index, out, ctx):
        n = self.sizes(ctx)[index]
        return check_search_json(out.stdout, n, "heuristic", None)

    def quality(self, outputs, ctx):
        gaps = []
        for n, out in zip(self.sizes(ctx), outputs):
            greedy = int(ctx.pins["greedy_core_dim"][str(n)])
            gaps.append(math.log(int(json.loads(out.stdout)["dim"])) - math.log(greedy))
        return {"log_dim_vs_greedy": (min(gaps), "nats")}


class OracleTable(Workload):
    name = "oracle-table"

    def max_n(self, ctx):
        return 12 if ctx.smoke else 38

    def tasks(self, ctx):
        return [["oracle", "table", "--max-n", str(self.max_n(ctx))]]

    def check(self, index, out, ctx):
        lines = out.stdout.splitlines()
        expected = ctx.pins["max_table"][: self.max_n(ctx)]
        if len(lines) != len(expected):
            return [f"{len(lines)} table rows, expected {len(expected)}"]
        for line, want in zip(lines, expected):
            try:
                got = json.loads(line)
            except json.JSONDecodeError as exc:
                return [f"table row is not JSON: {exc}"]
            if got != want:
                return [f"row for n={want['n']} differs from the pinned table: {line}"]
        return []


class Improve(Workload):
    name = "improve"

    def shape(self, ctx):
        # (final size, size where the greedy head ends, shake k, variant m)
        return (24, 12, 2, 2) if ctx.smoke else (130, 64, 4, 3)

    def paths(self, ctx):
        return {
            key: os.path.join(ctx.work, f"improve-{key}")
            for key in ("head.jsonl", "tail.jsonl", "in.jsonl", "out.jsonl", "ratios.csv")
        }

    def prepare(self, ctx):
        n, head, k, m = self.shape(ctx)
        p = self.paths(ctx)
        main = ctx.yd.cli.main
        if main(["seq", "--n", str(head), "--out", p["head.jsonl"]]) != 0:
            raise RuntimeError("seq failed while making the improve input")
        with open(p["head.jsonl"], encoding="utf-8") as fh:
            head_lines = fh.read().splitlines()
        start = json.loads(head_lines[-1])["rows"]
        argv = ["seq", "--n", str(n), "--start", start, "--shake", str(k)]
        argv += ["--variant", str(m), "--seed", str(ctx.seed), "--out", p["tail.jsonl"]]
        if main(argv) != 0:
            raise RuntimeError("seq --shake failed while making the improve input")
        with open(p["tail.jsonl"], encoding="utf-8") as fh:
            lines = head_lines[:-1] + fh.read().splitlines()
        old = [json.loads(line) for line in lines]
        if [rec["n"] for rec in old] != list(range(1, n + 1)):
            raise RuntimeError("improve input does not cover sizes 1..n")
        for rec in old:
            if rec["dim"] != str(reference.hook_dim(reference.parse_rows(rec["rows"]))):
                raise RuntimeError(f"seq wrote a wrong dim for {rec['rows']}")
        with open(p["in.jsonl"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        ctx.inputs["old_dims"] = [int(rec["dim"]) for rec in old]

    def tasks(self, ctx):
        p = self.paths(ctx)
        return [
            ["improve", "--in", p["in.jsonl"], "--depth", "3", "--out", p["out.jsonl"],
             "--ratios-out", p["ratios.csv"]]
        ]

    def before_job(self, ctx):
        p = self.paths(ctx)
        for key in ("out.jsonl", "ratios.csv"):
            if os.path.exists(p[key]):
                os.remove(p[key])

    def corrupt(self, out, ctx):
        path = self.paths(ctx)["out.jsonl"]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt_dim(text))

    def check(self, index, out, ctx):
        p = self.paths(ctx)
        old_dims = ctx.inputs["old_dims"]
        n = len(old_dims)
        if out.stdout:
            return ["improve wrote records to stdout despite --out"]
        try:
            records = ctx.yd.records.load_records(p["out.jsonl"])
        except Exception as exc:
            return [f"output does not reload through load_records: {exc!r}"]
        if [rec.n for rec in records] != list(range(1, n + 1)):
            return [f"output sizes are not 1..{n}"]
        problems = []
        new_dims = []
        for rec, old in zip(records, old_dims):
            dim = reference.hook_dim(reference.parse_rows(rec.rows))
            new_dims.append(dim)
            if rec.dim != str(dim) or rec.source != "improve":
                problems.append(f"record n={rec.n} has dim {rec.dim!r}, rows give {dim}")
            if dim < old:
                problems.append(f"size {rec.n} got worse")
        problems += self._check_ratios(p["ratios.csv"], old_dims, new_dims)
        return problems

    @staticmethod
    def _read_ratios(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    def _check_ratios(self, path, old_dims, new_dims):
        try:
            table = self._read_ratios(path)
        except OSError as exc:
            return [f"ratios CSV unreadable: {exc}"]
        if not table or table[0] != ["n", "ratio", "log_ratio", "improved"]:
            return ["ratios CSV header is wrong"]
        if [row[0] for row in table[1:]] != [str(i) for i in range(1, len(old_dims) + 1)]:
            return ["ratios CSV sizes are wrong"]
        for row, old, new in zip(table[1:], old_dims, new_dims):
            want = math.log(new) - math.log(old)
            if abs(float(row[2]) - want) > 1e-9 or row[3] != ("true" if new > old else "false"):
                return [f"ratios CSV row {row} disagrees with the records"]
        return []

    def quality(self, outputs, ctx):
        table = self._read_ratios(self.paths(ctx)["ratios.csv"])
        return {"log_dim_gain": (math.fsum(float(row[2]) for row in table[1:]), "nats")}


WORKLOADS = {w.name: w for w in (SearchExact(), SearchHeuristic(), OracleTable(), Improve())}
