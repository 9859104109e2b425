"""Small reference implementations that share no code with youngdim.

The benchmark checks the program's outputs with these, so a faster
version of a library function cannot pass a check by agreeing with
itself.  Diagrams are plain tuples of non-increasing row lengths.
"""

from __future__ import annotations

import math


def parse_rows(text: str) -> tuple[int, ...]:
    rows = tuple(int(tok, 10) for tok in text.split(",")) if text else ()
    if any(r < 1 for r in rows) or any(b > a for a, b in zip(rows, rows[1:])):
        raise ValueError(f"not a partition: {text!r}")
    return rows


def format_rows(rows) -> str:
    return ",".join(str(r) for r in rows)


def conjugate(rows) -> tuple[int, ...]:
    return tuple(sum(1 for r in rows if r > j) for j in range(rows[0] if rows else 0))


def hook_dim(rows) -> int:
    """Dimension by the hook length formula: n! over the product of hooks."""
    conj = conjugate(rows)
    hooks = 1
    for i, r in enumerate(rows):
        for j in range(r):
            hooks *= (r - j - 1) + (conj[j] - i - 1) + 1
    dim, rem = divmod(math.factorial(sum(rows)), hooks)
    if rem:
        raise ArithmeticError(f"hook product does not divide n! for {rows}")
    return dim


def in_core(rows) -> bool:
    """Every box outside the base subdiagram lies below the diagonal, one per row.

    The base subdiagram keeps min(row i, column i) boxes of row i, so
    row i (1-based) has row_i - base_i boxes outside it; the last one,
    at column row_i, is above the diagonal when row_i > i.
    """
    conj = conjugate(rows)
    for i, r in enumerate(rows, 1):
        extra = r - min(r, conj[i - 1] if i <= len(conj) else 0)
        if extra > 1 or (extra == 1 and r > i):
            return False
    return True


def partitions(n: int):
    """Every partition of n as a row tuple, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    stack = [((), n, n)]
    while stack:
        prefix, remaining, cap = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        for part in range(1, min(remaining, cap) + 1):
            stack.append((prefix + (part,), remaining - part, part))


def addable(rows) -> list[tuple[int, ...]]:
    """Children of a diagram, ordered by the (row, col) of the added box."""
    out = []
    for i in range(len(rows) + 1):
        cur = rows[i] if i < len(rows) else 0
        if i == 0 or rows[i - 1] > cur:
            out.append(rows[:i] + (cur + 1,) + rows[i + 1 :])
    return out


def greedy_core(target: int) -> tuple[int, ...]:
    """Greedy growth inside the core subgraph from one box up to `target` boxes.

    Each step takes the core child of largest dimension, which is the
    most probable Plancherel step; ties go to the smallest (row, col).
    """
    rows: tuple[int, ...] = (1,)
    while sum(rows) < target:
        best = None
        for child in addable(rows):
            if in_core(child):
                d = hook_dim(child)
                if best is None or d > best[0]:
                    best = (d, child)
        rows = best[1]
    return rows
