"""Brute-force ground truth over all partitions of a given size.

Everything here is deliberately exhaustive: enumerate every partition,
compute every exact dimension, and take the argmax.  The results anchor
the heuristics and the search, which must never beat or contradict them.
The default size bound keeps a full table run in the minutes range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import YoungDiagram
from .dimension import dim_exact
from .errors import SizeBoundExceeded

DEFAULT_BOUND = 45


def partitions(n: int):
    """Yield every partition of n as a diagram, in descending lexicographic order."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    for rows in rec(n, n, ()):
        yield YoungDiagram._from_valid(rows)


_pcount = [1]


def partition_count(n: int) -> int:
    """Number of partitions of n, by the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcount[m - g]
            g = k * (3 * k + 1) // 2
            if g <= m:
                total += sign * _pcount[m - g]
            k += 1
        _pcount.append(total)
    return _pcount[n]


@dataclass(frozen=True)
class MaxTableEntry:
    """All diagrams of maximum dimension at one size, plus that dimension."""

    n: int
    maximizers: tuple[YoungDiagram, ...]
    dim: int


def _argmax_entry(n: int, bound: int, diagrams) -> MaxTableEntry:
    """Every diagram of maximum dimension among `diagrams`, sorted by rows."""
    if n < 1 or n > bound:
        raise SizeBoundExceeded(f"n={n} outside exhaustive range 1..{bound}")
    best = -1
    arg: list[YoungDiagram] = []
    for lam in diagrams:
        d = dim_exact(lam)
        if d > best:
            best, arg = d, [lam]
        elif d == best:
            arg.append(lam)
    arg.sort(key=lambda lam: lam.rows)
    return MaxTableEntry(n=n, maximizers=tuple(arg), dim=best)


def max_dimension_diagrams(n: int, *, bound: int = DEFAULT_BOUND) -> MaxTableEntry:
    """Exact argmax of dimension over all partitions of n.

    Returns every maximizer; the set is closed under conjugation since
    conjugates share a dimension.
    """
    return _argmax_entry(n, bound, partitions(n))


def max_dimension_core(n: int, *, bound: int = DEFAULT_BOUND) -> MaxTableEntry:
    """Argmax of dimension over the partitions of n inside the core subgraph."""
    core = (lam for lam in partitions(n) if lam.in_core_subgraph())
    return _argmax_entry(n, bound, core)


def max_table(max_n: int, *, bound: int = DEFAULT_BOUND) -> list[MaxTableEntry]:
    """Maximum-dimension table for every size 1..max_n."""
    return [max_dimension_diagrams(n, bound=bound) for n in range(1, max_n + 1)]


@dataclass
class GeometryReport:
    """Outcome of checking every maximizer against the core-shape predicates."""

    checked: int
    failures: list


def verify_max_geometry(
    n_max: int,
    *,
    table: list[MaxTableEntry] | None = None,
    bound: int = DEFAULT_BOUND,
) -> GeometryReport:
    """Check that every maximizer sits in the core subgraph up to conjugation.

    Also checks that its asymmetric boxes are isolated (at most one per
    row and column).  Failures are reported, never raised: these are
    observed regularities, not proven facts.
    """
    if table is None:
        table = max_table(n_max, bound=bound)
    checked = 0
    failures = []
    for entry in table:
        if entry.n > n_max:
            continue
        for lam in entry.maximizers:
            checked += 1
            if not (lam.in_core_subgraph() or lam.conjugate().in_core_subgraph()):
                failures.append((entry.n, lam.rows, "core"))
            if not lam.has_isolated_asymmetric_boxes():
                failures.append((entry.n, lam.rows, "isolated"))
    return GeometryReport(checked=checked, failures=failures)


@dataclass
class OneBoxReport:
    """Outcome of checking how far each maximizer is from its base subdiagram."""

    checked: int
    exceptions: list


def verify_one_box_claim(
    n_max: int,
    *,
    table: list[MaxTableEntry] | None = None,
    bound: int = DEFAULT_BOUND,
) -> OneBoxReport:
    """Check that every maximizer has at most one box outside its base subdiagram."""
    if table is None:
        table = max_table(n_max, bound=bound)
    checked = 0
    exceptions = []
    for entry in table:
        if entry.n > n_max:
            continue
        for lam in entry.maximizers:
            checked += 1
            excess = lam.size - lam.base_subdiagram().size
            if excess > 1:
                exceptions.append((entry.n, lam.rows, excess))
    return OneBoxReport(checked=checked, exceptions=exceptions)
