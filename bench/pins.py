"""Pinned reference tables for the benchmark's output checks.

The tables are computed without the search, the oracle or the greedy
walk under test: partitions, core membership and the greedy-in-core
walk come from `reference.py`, and every maximum is taken over
youngdim's corner-removal recursion (`dim_recursive`), an oracle
independent of the hook formula the library computes dimensions with.

    python3 bench/pins.py          # write bench/pins.json
    python3 bench/pins.py --check  # recompute and compare with bench/pins.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

MAX_TABLE_N = 38
CORE_MAX_N = 30
GREEDY_CORE_N = (20, 25, 60, 70, 80, 90)


def _argmax(n: int, dim, keep) -> dict:
    best, arg = -1, []
    for rows in reference.partitions(n):
        if not keep(rows):
            continue
        d = dim(rows)
        if d > best:
            best, arg = d, [rows]
        elif d == best:
            arg.append(rows)
    return {
        "n": n,
        "dim": str(best),
        "maximizers": [reference.format_rows(r) for r in sorted(arg)],
    }


def compute() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from youngdim import YoungDiagram, dim_recursive

    def dim(rows):
        return dim_recursive(YoungDiagram(rows), max_size=MAX_TABLE_N)

    return {
        "max_table": [_argmax(n, dim, lambda r: True) for n in range(1, MAX_TABLE_N + 1)],
        "core_max": [
            _argmax(n, dim, reference.in_core) for n in range(1, CORE_MAX_N + 1)
        ],
        "greedy_core_dim": {
            str(n): str(reference.hook_dim(reference.greedy_core(n)))
            for n in GREEDY_CORE_N
        },
    }


def load() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    args = parser.parse_args(argv)
    pins = compute()
    if args.check:
        same = pins == load()
        print("pins match" if same else "pins DIFFER from bench/pins.json")
        return 0 if same else 1
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
