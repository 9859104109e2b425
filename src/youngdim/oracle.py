"""Brute-force ground truth over all partitions up to a given size.

Everything here is deliberately exhaustive.  One depth-first sweep
visits every partition with at most N boxes once, building it from the
bottom row up and updating its first-column hooks row by row, so each
exact dimension costs a few multiplications and one exact division
(a nonzero remainder raises).  The argmax over each size gives the
whole table 1..N in one pass.  Each frame carries every top row's
product of new hook differences, so a child's Delta is one multiply.
Since dim λ = dim λ′, the maximum tables take the half sweep: it
yields only partitions whose top row is at least their row count, one
of each conjugate pair, and prunes every frame that cannot reach one.
Each yield stands for its pair, and the conjugates of the final
maximizers are taken once, so every maximizer set is found whole.  The
tables pass their running best per size as the sweep's floor: every
partition is still divided and checked, but only those that reach
their size's best so far are yielded.  The results anchor the
heuristics and the search, which must never beat or contradict them.
One size bound, `DEFAULT_BOUND`, holds for every exhaustive query.
The sweep is the library's one partition enumeration:
`all_dimensions(n)` reads one size from it, and the balance sweep
calls it once per size, so it holds one size at a time.
`_partition_counts` gives p(n) without one.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .diagram import YoungDiagram, _bad_rows, _conj
from .errors import NonDivisibleHookProduct, SizeBoundExceeded

DEFAULT_BOUND = 60


def _check_size(n: int, lo: int = 1) -> None:
    """Raise SizeBoundExceeded unless lo <= n <= DEFAULT_BOUND; call first."""
    if not lo <= n <= DEFAULT_BOUND:
        raise SizeBoundExceeded(f"n={n} outside exhaustive range {lo}..{DEFAULT_BOUND}")


class MaxTableEntry(NamedTuple):
    """All diagrams of maximum dimension at one size, plus that dimension."""

    n: int
    maximizers: tuple[YoungDiagram, ...]
    dim: int


def _sweep(max_n: int, min_n: int = 1, half: bool = False, floor=None):
    """Yield (size, rows, dim) once for every partition with min_n..max_n boxes.

    Depth first, building each partition from its bottom row up.  With
    k rows the first-column hooks are h_i = rows_i + k - i, and
    dim = size! * Delta / F with Delta = prod_{i<j} (h_i - h_j) and
    F = prod_i h_i! (Fulton, Young Tableaux, section 4.1).  A new top row
    of length r over m rows of s - r boxes has hook h = r + m and leaves
    the hooks below it unchanged, so a child multiplies the parent's
    Delta by prod_j (h - h_j) and its F by h!.  Its dimension is then
    (s! / h!) * Delta_child / F_parent, read from a table of rising
    factorials (s - h = s - r - m does not depend on r), and a nonzero
    remainder means broken bookkeeping and raises.  Sizes below min_n
    are visited, as bottom rows, but not divided.

    A frame (size, rows, Delta, F, lo, diffs, k) is popped once and
    walks its top rows r = lo + i up to max_n - size in one loop; diffs[i]
    is that row's prod_j (h - h_j), all 1 at the root, and k, the row
    count of each child, is 1 at the root.  The child pushed at r has
    k + 1 and top rows r + j with hook h + j + 1, the parent's hook for
    row r + j + 1, so its diffs[j] is diffs[r + 1 - lo + j] * (j + 1).
    A child is pushed if r <= last, the longest top row that leaves
    room for a partition above it (that test only gets harder as r
    grows), and divided and yielded if r >= first, the shortest top row
    in the size window; a row between the two is skipped.  The stack
    holds at most (max_n - size) // 2 pushed children from each frame
    on the path, each with max_n - size - lo + 1 entries of diffs.

    With `half` set, only partitions whose top row is at least their
    row count are yielded: one of each conjugate pair, since conjugates
    share a dimension.  So a child with top row r and k rows is yielded
    only if r >= k, and pushed only if a partition above it can be:
    every one has a top row of at least max(r, k + 1).

    `floor`, if given, holds a dimension per size: a divided child is
    yielded only if it reaches its size's floor, read at that moment,
    so the consumer may raise it between yields (`_max_entries` passes
    its running best).  The remainder is checked before the floor.
    """
    if floor is None:
        floor = [0] * (max_n + 1)
    fact = [1]
    for i in range(1, max_n + 1):
        fact.append(fact[-1] * i)
    # rising[d][h] = (h + d)! / h!
    rising = [[fact[h + d] // fact[h] for h in range(max_n + 1 - d)]
              for d in range(max_n + 1)]
    counting = range(1, max_n + 1)
    # frame: size, rows (top first), Delta, F, lowest top row, hook
    # differences, row count of each child
    stack = [(0, (), 1, 1, 1, [1] * max_n, 1)]
    while stack:
        size, rows, delta, fprod, lo, diffs, k = stack.pop()
        room = max_n - size
        # size + r + (max(r, k + 1) if half else r) <= max_n up to here
        last = room // 2 if not half or room >= 2 * k + 2 else room - k - 1
        # r >= 1 already, so only the half bound r >= k can raise first
        first = min_n - size
        if half and first < k:
            first = k
        rise = rising[size - k + 1]
        for r, q in enumerate(diffs, lo):
            if last < r < first:
                continue
            h = r + k - 1
            p = q * delta
            if r >= first:
                dim, rem = divmod(rise[h] * p, fprod)
                if rem:
                    raise NonDivisibleHookProduct(
                        f"hook product does not divide {size + r}! for {(r,) + rows}"
                    )
                if dim >= floor[size + r]:
                    yield size + r, (r,) + rows, dim
            if r <= last:
                stack.append((size + r, (r,) + rows, p, fprod * fact[h], r,
                              list(map(mul, diffs[r + 1 - lo : room + 2 - r - lo], counting)),
                              k + 1))


def _partition_counts(max_n: int) -> list[int]:
    """p(0), ..., p(max_n), the partition counts, adding parts k = 1, 2, ... in turn."""
    counts = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for s in range(k, max_n + 1):
            counts[s] += counts[s - k]
    return counts


def all_dimensions(n: int) -> dict[tuple[int, ...], int]:
    """Every partition of n (a rows tuple) mapped to its exact dimension.

    One sweep gives the whole size; keys come in descending
    lexicographic order.  The bound is checked before any work.
    """
    _check_size(n)
    return dict(sorted(((rows, dim) for _, rows, dim in _sweep(n, n)), reverse=True))


def _max_entries(lo: int, hi: int, keep=None) -> list[MaxTableEntry]:
    """Maximum entries for sizes lo..hi (lo is 1 or hi) from one half sweep.

    The sweep yields one of each conjugate pair, and only if it ties or
    beats its size's best so far: `best` is the sweep's floor.  Each
    yield stands for its pair, and only the yielded rows are kept; the
    conjugates come in once, for the final maximizers of each size.
    `keep`, if given, filters row tuples: a pair counts if either side
    passes, and only the sides that pass are listed.  Maximizers are
    deduplicated and sorted by rows.  The bound is checked before any
    work.
    """
    _check_size(hi)
    best = [-1] * (hi + 1)
    arg: list[list[tuple[int, ...]]] = [[] for _ in range(hi + 1)]
    for size, rows, dim in _sweep(hi, lo, half=True, floor=best):
        if keep is not None and not (keep(rows) or keep(_conj(rows))):
            continue
        if dim > best[size]:
            best[size], arg[size] = dim, [rows]
        else:
            arg[size].append(rows)
    return [
        MaxTableEntry(
            n=n,
            maximizers=tuple(
                YoungDiagram._from_valid(r)
                for r in sorted({c for rows in arg[n] for c in (rows, _conj(rows))})
                if keep is None or keep(r)
            ),
            dim=best[n],
        )
        for n in range(lo, hi + 1)
    ]


def max_dimension_diagrams(n: int) -> MaxTableEntry:
    """Exact argmax of dimension over all partitions of n.

    Returns every maximizer; the set is closed under conjugation since
    conjugates share a dimension.
    """
    return _max_entries(n, n)[0]


def max_dimension_core(n: int) -> MaxTableEntry:
    """Argmax of dimension over the partitions of n inside the core subgraph."""
    return _max_entries(n, n, keep=lambda rows: not _bad_rows(rows, _conj(rows)))[0]


def max_table(max_n: int) -> list[MaxTableEntry]:
    """Maximum-dimension table for every size 1..max_n, from one sweep."""
    return _max_entries(1, max_n)


class GeometryReport(NamedTuple):
    """Outcome of checking every maximizer against the core-shape predicates."""

    checked: int
    failures: list


def verify_max_geometry(
    n_max: int,
    *,
    table: list[MaxTableEntry] | None = None,
) -> GeometryReport:
    """Check that every maximizer sits in the core subgraph up to conjugation.

    Also checks that its asymmetric boxes are isolated (at most one per
    row and column).  Failures are reported, never raised: these are
    observed regularities, not proven facts.
    """
    if table is None:
        table = max_table(n_max)
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


class OneBoxReport(NamedTuple):
    """Outcome of checking how far each maximizer is from its base subdiagram."""

    checked: int
    exceptions: list


def verify_one_box_claim(
    n_max: int,
    *,
    table: list[MaxTableEntry] | None = None,
) -> OneBoxReport:
    """Check that every maximizer has at most one box outside its base subdiagram."""
    if table is None:
        table = max_table(n_max)
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
