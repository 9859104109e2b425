"""A fixed piece of pure-Python work that measures the machine's current speed.

On a shared machine the same job can take twice as long from one minute
to the next while neighbours load the CPU.  Timing this loop right
before and after each task, and scaling the task's time by
NOMINAL_S / (mean of the two), gives the task's time at a fixed nominal
speed.  The loop mixes what youngdim spends its time on: tuple building,
big-integer products, dict and heap traffic.  It uses no youngdim code
and none of the checks' reference code, so a change to either never
changes the yardstick.
"""

from __future__ import annotations

import heapq
import math
import time

# Median time of one `work()` on a 2-CPU x86-64 VM with Python 3.11.7.
NOMINAL_S = 0.015


def _partitions(n: int):
    stack = [((), n, n)]
    while stack:
        prefix, remaining, cap = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        for part in range(1, min(remaining, cap) + 1):
            stack.append((prefix + (part,), remaining - part, part))


def work() -> int:
    total = 0
    for rows in _partitions(21):
        conj = [sum(1 for r in rows if r > j) for j in range(rows[0])]
        hooks = 1
        for i, r in enumerate(rows):
            for j in range(r):
                hooks *= r - j + conj[j] - i - 1
        total += math.factorial(21) // hooks
    seen: dict = {}
    heap: list = []
    for rows in _partitions(20):
        seen[rows] = len(seen)
        heapq.heappush(heap, (sum(r * r for r in rows) / (len(rows) + 1), rows))
        for i in range(len(rows) + 1):
            cur = rows[i] if i < len(rows) else 0
            if i == 0 or rows[i - 1] > cur:
                seen.setdefault(rows[:i] + (cur + 1,) + rows[i + 1 :], 0)
    while heap:
        heapq.heappop(heap)
    return total + len(seen)


def measure() -> float:
    """Seconds one `work()` takes right now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
