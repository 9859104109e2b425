"""Smoke self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

For every workload it checks that a run prints every metric named in
BENCHMARK.json with its unit and no failures, that a deliberately
corrupted output (a wrong `dim` digit) raises `failed_frac`, and that a
directory holding only BENCHMARK.json and bench/ makes the benchmark
exit non-zero without a result.  It also recomputes the pinned tables.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pins
import run

SECONDS = 0.5


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def expect_metrics(result: dict, wanted: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        fail(f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")


def bare_checkout_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith('{"correct"')):
            fail("a checkout without src/ produced a result")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not run.use_checkout_src():
        fail("no youngdim package under src/")
    for workload in run.WORKLOADS:
        _, result = run.run(workload, 3, SECONDS, False, smoke=True)
        if not result["correct"] or result["failed"]:
            fail(f"{workload}: smoke run failed")
        expect_metrics(result, spec["end_to_end"], workload)
        _, result = run.run(workload, 3, SECONDS, True, smoke=True)
        if not result["correct"] or result["failed"]:
            fail(f"{workload}: traced smoke run failed")
        expect_metrics(result, spec["per_layer"], f"{workload} traced")
        report, result = run.run(workload, 3, SECONDS, False, smoke=True, corrupt=True)
        if result["correct"] or report["failed_frac"] <= 0:
            fail(f"{workload}: a corrupted output was not caught")
        print(f"{workload}: metrics complete, corruption caught")
    bare_checkout_fails()
    print("bare checkout: exits non-zero without a result")
    if pins.compute() != pins.load():
        fail("pins.json differs from the independent oracle")
    print("pins: match the independent oracle")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
