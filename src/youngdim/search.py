"""Best-first search for high-dimension diagrams inside the core subgraph.

The search space is a spanning tree of the core subgraph.  A node is a
diagram plus a bitmask of frozen rows.  Its children are the
core-preserving single-box extensions in unfrozen rows (row k + 1 for
the box that starts a new row), best transition probability first, and
picking a lower-ranked child freezes the row of every better-ranked
box in that whole subtree.  A frozen row's addable box stays the same
until it is added, so no two root paths reach the same diagram: the
tree covers each core diagram exactly once and A* needs no
re-expansion logic.

A search node is a plain tuple: rows, conjugate, size, frozen rows, path
cost, a transition measure, and its exact dimension as its parent's
times (n + 1) * p, divided out when the node is popped
(`plancherel._grow_dim`).  A node's measure holds only its live boxes:
it is grown from its parent's in O(m) (`plancherel._grow`) with the
node's frozen mask, which drops the frozen rows.  Each node is scanned
once for its core edges (`plancherel._core_edges`).  A uniform-cost
child holds a reference to its parent's measure, shared with its
siblings, plus the box it adds, and grows and scans its own when it is
expanded.  A heuristic child below the target level grows and scans
once at push, takes its estimate from the scan and keeps the scan for
its expansion; a heuristic child at the target level has h = 0 and is
never expanded, so it costs nothing.  The scan is ranked only on
expansion, once per node.  Since each diagram is pushed once, no
per-diagram cache is kept.  `tree_children` is the one child builder
with the freeze rule, for `astar` and `tree_sweep` alike, and both grow
each node's measure from its parent's.  `search_from` searches from any
diagram that is in the core subgraph up to conjugation; a result
reports the found diagram, its exact dimension, the path cost, two
node counts and the mode, and nothing that depends on timing.

Edge weights are negative log transition probabilities, which makes the
cost of any root path ln(n!) - ln(dim) and turns shortest path into
highest dimension.  The heuristic scales a node's cheapest unfrozen
outgoing edge by the remaining level count; it is fast but carries no
optimality guarantee.  Uniform-cost mode (h = 0) is exact and is what
the oracle comparisons test against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .diagram import YoungDiagram
from .dimension import dim_exact
from .errors import (
    CoreMembershipError,
    EmptySearchSpace,
    InvalidDepth,
    InvariantViolation,
    NotAGrowthSequence,
)
from .oracle import _check_size, all_dimensions
from .plancherel import _core_edges, _grow, _grow_dim, _measure, _rank


@dataclass(frozen=True)
class SearchResult:
    diagram: YoungDiagram
    dim: int
    cost: float
    nodes_expanded: int
    frontier_peak: int
    mode: str


def tree_children(
    rows: tuple[int, ...], conj: tuple[int, ...], frozen: int, edges: list[tuple]
) -> list[tuple]:
    """The children through a node's core edges, best first.

    A node is a core diagram's rows and conjugate plus its frozen-row
    mask (bit r set means row r never grows); `edges` is the core scan
    of its live transition measure (`plancherel._core_edges` over
    `plancherel._grow`), which holds no frozen row.  The edges are
    ranked here, in place, by the exact sort of `plancherel._rank`.
    Returns (rows, conj, frozen, weight, row, col, num, den) per child.
    The child through the r-th edge inherits the parent's frozen rows
    plus the rows of every edge ranked before r, so no two root paths
    can reach the same diagram.  Adding box (r, c) sets row r to length
    c and column c to height r.  Called once per expanded node.
    """
    out = []
    for weight, r, c, num, den in _rank(edges):
        out.append(
            (rows[: r - 1] + (c,) + rows[r:], conj[: c - 1] + (r,) + conj[c:],
             frozen, weight, r, c, num, den)
        )
        frozen |= 1 << r
    return out


def remaining_cost_estimate(levels: int, edges: list[tuple]) -> float:
    """Cheapest core edge out of a node times the levels left.

    `edges` is the node's core scan (`plancherel._core_edges`), so the
    estimate needs no edge work of its own.  Zero at the target level
    and at dead ends.  Not admissible in general: deeper levels can
    have cheaper edges.
    """
    if levels <= 0 or not edges:
        return 0.0
    return min(edges)[0] * levels


def astar(
    n_target: int,
    *,
    start: YoungDiagram | None = None,
    uniform_cost: bool = False,
) -> SearchResult:
    """Search the greedy path tree for a minimum-cost diagram at a level.

    Pops the frontier by f = g + h, ties broken toward larger g and then
    lexicographically smaller rows.  In uniform-cost mode the first
    popped diagram at the target level has the maximum dimension among
    all core diagrams of that size reachable from `start`.

    A heap entry is (f, -g, rows, conj, size, frozen, measure, box,
    edges, scaled, num, den), with dimension scaled * num / den.  With
    box None, `measure` is the node's own live measure: the start's, and
    a heuristic child's below the target level, grown once at push with
    the child's frozen mask; that child's core scan `edges` is taken
    once at push too, for h, and kept for its expansion.  Otherwise
    `measure` is the parent's, shared with the siblings and grown
    through box only at expansion: uniform-cost children, and heuristic
    ones at the target level, where h is 0 and which are never
    expanded, so they cost no measure, scan or dimension work.  Each
    expanded node is scanned once and ranked once, by `tree_children`.
    Rows are unique in the heap, so comparisons never reach past them.
    """
    if start is None:
        start = YoungDiagram((1,))
    if not start.in_core_subgraph():
        raise CoreMembershipError(f"start {start.rows} is outside the core subgraph")
    if n_target < start.size:
        raise EmptySearchSpace(
            f"target level {n_target} is below the start size {start.size}"
        )
    rows = start.rows
    # the start is popped first whatever its f, so its h is never needed
    heap = [
        (0.0, -0.0, rows, start.conjugate_rows(), start.size, 0, _measure(rows), None,
         None, dim_exact(start), 1, 1)
    ]
    # each diagram is pushed at most once, so this set only guards that
    closed: set[tuple] = set()
    nodes_expanded = 0
    frontier_peak = 1
    while heap:
        _, g, rows, conj, size, frozen, measure, box, edges, scaled, num, den = (
            heapq.heappop(heap)
        )
        g = -g  # the entry keeps only -g; negation is exact
        if rows in closed:
            raise InvariantViolation(f"tree path uniqueness violated at {rows}")
        closed.add(rows)
        dim = _grow_dim(scaled, num, den)
        if size == n_target:
            return SearchResult(
                diagram=YoungDiagram._from_valid(rows, conj, dim),
                dim=dim,
                cost=g,
                nodes_expanded=nodes_expanded,
                frontier_peak=frontier_peak,
                mode="uniform-cost" if uniform_cost else "heuristic",
            )
        nodes_expanded += 1
        if box is not None:
            measure = _grow(*measure, *box, frozen)
        if edges is None:
            edges = _core_edges(rows, conj, measure[0])
        size += 1
        levels = n_target - size
        scaled = dim * size
        for crows, cconj, cfrozen, weight, r, c, num, den in tree_children(
            rows, conj, frozen, edges
        ):
            cg = g + weight
            if uniform_cost or not levels:
                entry = (cg, -cg, crows, cconj, size, cfrozen, measure, (r, c), None,
                         scaled, num, den)
            else:
                grown = _grow(*measure, r, c, cfrozen)
                cedges = _core_edges(crows, cconj, grown[0])
                h = remaining_cost_estimate(levels, cedges)
                entry = (cg + h, -cg, crows, cconj, size, cfrozen, grown, None, cedges,
                         scaled, num, den)
            heapq.heappush(heap, entry)
        frontier_peak = max(frontier_peak, len(heap))
    raise EmptySearchSpace(
        f"no diagram of size {n_target} reachable from {start.rows}"
    )


@dataclass
class TreeSweep:
    """Coverage census of the greedy path tree up to a level."""

    visited: int
    duplicates: list
    missing: list
    dead_ends: list


def tree_sweep(max_n: int) -> TreeSweep:
    """Walk the whole tree to level max_n and compare against enumeration.

    Every core diagram of every size up to max_n must be visited exactly
    once.  Dead ends (nodes below the last level with no children) are
    recorded; the frozen rows make these possible, and the heuristic
    relies on them reporting a zero remaining-cost estimate.  The
    census reads one size at a time from `oracle.all_dimensions`, so
    max_n must lie in its range; that is checked before the walk.
    As in uniform-cost `astar`, a child holds its parent's transition
    measure and the box it adds, and grows its own live measure and
    scans it only when it is expanded.
    """
    _check_size(max_n)
    counts: dict[tuple, int] = {}
    dead_ends = []
    stack = [((1,), (1,), 0, _measure((1,)), None)]
    while stack:
        rows, conj, frozen, measure, box = stack.pop()
        counts[rows] = counts.get(rows, 0) + 1
        if sum(rows) >= max_n:
            continue
        if box is not None:
            measure = _grow(*measure, *box, frozen)
        kids = tree_children(rows, conj, frozen, _core_edges(rows, conj, measure[0]))
        if not kids:
            dead_ends.append(rows)
        stack.extend((*kid[:3], measure, kid[4:6]) for kid in kids)
    duplicates = sorted(rows for rows, c in counts.items() if c > 1)
    missing = [
        rows
        for n in range(1, max_n + 1)
        for rows in all_dimensions(n)
        if YoungDiagram._from_valid(rows).in_core_subgraph() and rows not in counts
    ]
    return TreeSweep(
        visited=len(counts),
        duplicates=duplicates,
        missing=missing,
        dead_ends=dead_ends,
    )


def search_from(
    diagram: YoungDiagram,
    n_target: int,
    *,
    uniform_cost: bool = False,
) -> tuple[YoungDiagram, SearchResult]:
    """`astar` from a diagram in the core subgraph up to conjugation.

    A diagram outside the core subgraph is searched from its conjugate,
    and the found diagram is conjugated back; the result itself
    describes the search as run.  Returns (found diagram, result).  If
    neither side is in the core subgraph the diagram is rejected.
    """
    start = diagram
    if not start.in_core_subgraph():
        start = diagram.conjugate()
        if not start.in_core_subgraph():
            raise CoreMembershipError(
                f"neither {diagram.rows} nor its conjugate is in the core subgraph"
            )
    result = astar(n_target, start=start, uniform_cost=uniform_cost)
    found = result.diagram if start is diagram else result.diagram.conjugate()
    return found, result


def local_improve(diagram: YoungDiagram, depth: int = 3) -> YoungDiagram:
    """Grow a diagram by `depth` levels with a heuristic `search_from`."""
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    return search_from(diagram, diagram.size + depth)[0]


@dataclass(frozen=True)
class ImproveOutcome:
    sequence: tuple
    improved_sizes: tuple
    skipped_sizes: tuple


def sequence_improve(seq: list[YoungDiagram], depth: int) -> ImproveOutcome:
    """Try to replace each sequence element by a deep-searched competitor.

    For each element, searches `depth` levels ahead and keeps whichever
    of the found diagram and the existing element of that size has the
    larger exact dimension.  Elements whose size plus depth runs off the
    end are left alone, as are elements outside the core subgraph on
    both sides (their sizes are reported as skipped).
    """
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    for i, lam in enumerate(seq):
        if lam.size != i + 1:
            raise NotAGrowthSequence(
                f"element {i} has size {lam.size}, expected {i + 1}"
            )
    new = list(seq)
    improved = []
    skipped = []
    for idx, lam in enumerate(seq):
        tgt = idx + depth
        if tgt >= len(seq):
            break
        try:
            cand = local_improve(lam, depth)
        except CoreMembershipError:
            skipped.append(lam.size)
            continue
        if dim_exact(cand) > dim_exact(new[tgt]):
            new[tgt] = cand
            improved.append(cand.size)
    return ImproveOutcome(
        sequence=tuple(new),
        improved_sizes=tuple(improved),
        skipped_sizes=tuple(skipped),
    )
