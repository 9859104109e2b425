"""Best-first search for high-dimension diagrams inside the core subgraph.

The search space is a spanning tree of the core subgraph.  A node is a
diagram plus a bitmask of frozen rows.  Its children are the
core-preserving single-box extensions in unfrozen rows (row k + 1 for
the box that starts a new row), best transition probability first, and
picking a lower-ranked child freezes the row of every better-ranked
box in that whole subtree.  A frozen row's addable box stays the same
until it is added, so no two root paths reach the same diagram: the
tree covers each core diagram exactly once and A* needs no
re-expansion logic.  `astar` is the one walk of the tree: the tests
take their census of it (every core diagram up to a level pushed once,
and the dead ends) from `astar`'s own pushes.

A search node is a plain tuple: rows, conjugate, size, frozen rows, path
cost, a transition measure, and its exact dimension as its parent's
times (n + 1) * p, divided out when the node is popped
(`plancherel._grow_dim`).  A node's measure holds only its live boxes:
it is grown from its parent's in O(m) with the node's frozen mask,
which drops the frozen rows, and the same pass scans the grown measure
for its core edges (`plancherel._grow`); only the start's measure comes
from the full formula and is scanned by `plancherel._core_edges`.
Each node is grown at most once, and only once its entry reaches the
top of the heap.  Until then a child holds a reference to its parent's
measure, shared with its siblings, plus the box it adds.  A
uniform-cost child is keyed by its exact f and grows its measure when
it is expanded; a heuristic child at the target level has h = 0 and
is never expanded, so it costs no measure or scan work.  A heuristic
child below the target level is lazy: it is keyed by g + h_lb, a lower
bound on g + h that Kerov's one-box update gives from the parent's
measure, with the core test run on the child for an entry that would
raise the bound (`_child_bound`, `_cost_floor`).  When that entry is
popped, the child grows its measure, takes its exact h from the scan,
and goes back on the heap with key g + h and the scan kept for its
expansion.  Every key is at most the node's exact key and rows are
unique in the heap, so entries with exact keys leave the heap in the
same order as if every child had been grown at push: rows, costs and
both node counts do not change, and a child whose bound never reaches
the top is never grown.  The scan is ranked only on expansion, once per
node (`plancherel._rank`), and `astar` pushes each child straight from
the ranked scan under the freeze rule, in one push loop for both modes.
Since each diagram is pushed once, no per-diagram cache is kept.
`search_from` searches from any diagram that is in the core subgraph
up to conjugation; a result reports the found diagram, its exact
dimension, the path cost, two node counts and the mode, and nothing
that depends on timing.

Edge weights are negative log transition probabilities, which makes the
cost of any root path ln(n!) - ln(dim) and turns shortest path into
highest dimension.  The heuristic scales a node's cheapest unfrozen
outgoing edge by the remaining level count; it is fast but carries no
optimality guarantee.  Uniform-cost mode (h = 0) is exact and is what
the oracle comparisons test against.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .diagram import YoungDiagram, _core_ok
from .dimension import dim_exact
from .errors import (
    CoreMembershipError,
    EmptySearchSpace,
    InvalidDepth,
    InvariantViolation,
    NotAGrowthSequence,
)
from .plancherel import _core_edges, _grow, _grow_dim, _measure, _rank


class SearchResult(NamedTuple):
    diagram: YoungDiagram
    dim: int
    cost: float
    nodes_expanded: int
    frontier_peak: int
    mode: str


def remaining_cost_estimate(levels: int, edges: list[tuple]) -> float:
    """h: the cheapest core edge out of a node times the levels left.

    `edges` is the node's core scan (from `plancherel._grow`, or
    `plancherel._core_edges` for the start), so the estimate needs no
    edge work of its own.
    Zero at the target level and at dead ends.  Not admissible in
    general: deeper levels can have cheaper edges.  A heuristic child
    below the target level gets h only when its key, bounded below by
    `_child_bound` and `_cost_floor`, reaches the top of the heap.
    """
    if levels <= 0 or not edges:
        return 0.0
    return min(edges)[0] * levels


def _child_bound(
    addables: list[tuple],
    crows: tuple[int, ...],
    cconj: tuple[int, ...],
    cfrozen: int,
    r: int,
    c: int,
    p: float,
) -> float:
    """u >= the best live core transition probability of one child.

    `addables` is the parent's live measure, entries (z, zr, zc, num,
    den); the child adds box (r, c) of probability p, has rows crows and
    conjugate cconj (built in `astar`'s push loop) and frozen rows
    cfrozen.  Adding the box of content x turns every other entry z into
    p(z) (z - x)^2 / ((z - x)^2 - 1), and the fresh boxes x - 1 and
    x + 1 share 1 - sum p'(z) <= p(x), since every factor is above 1.
    So u is the largest updated p(z) over the parent's entries that stay
    live and pass the core test in the child, or p(x) if a fresh box is
    live and core.  `_core_ok` tests an entry on the child only when it
    would raise u.  u is 0 exactly when the child has no live core box,
    a dead end.  Floats only: a few roundings, which `_cost_floor`
    absorbs.
    """
    x = c - r
    u = 0.0
    for z, zr, zc, num, den in addables:
        if z == x or cfrozen >> zr & 1:
            continue
        d = (z - x) * (z - x)
        q = num / den * d / (d - 1)
        if q > u and _core_ok(crows, cconj, zr, zc):
            u = q
    # the fresh boxes: x + 1 at (r, c + 1), unless row r - 1 has
    # length c, and x - 1 at (r + 1, c), if row r + 1 has length c - 1
    if p > u and (
        (
            (r == 1 or crows[r - 2] > c)
            and not cfrozen >> r & 1
            and _core_ok(crows, cconj, r, c + 1)
        )
        or (
            (crows[r] if r < len(crows) else 0) == c - 1
            and not cfrozen >> r + 1 & 1
            and _core_ok(crows, cconj, r + 1, c)
        )
    ):
        u = p
    return u


def _cost_floor(levels: int, u: float) -> float:
    """h_lb <= h for a child whose `_child_bound` value is u.

    levels * -ln u, less a margin of 1e-9 relative that covers the float
    roundings of u and of the edge weights, and never below 0; 0 for a
    dead end (u = 0), whose h is 0.
    """
    if not u:
        return 0.0
    h = -math.log(u) * levels
    return max(0.0, h - 1e-9 * (1.0 + abs(h)))


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
    box None, `measure` is the node's own live measure and `edges` its
    core scan, and f is exact.  Otherwise `measure` is the parent's,
    shared with the siblings, and the node has not been grown.  A
    uniform-cost child has f = g and grows through box on expansion; a
    heuristic child at the target level has f = g too and is never
    expanded.  A heuristic child below the target level has
    f = g + h_lb <= g + h; when it is popped it is grown and pushed
    back with f = g + h and box None.  That evaluation is neither an
    expansion nor a frontier update, and the entry replaces itself, so
    the heap holds one entry per node and `len(heap)` after each
    expansion is what an eager search would have.  Since no key is
    above its exact value, the entry with the least exact key is always
    evaluated before it is passed, so nodes are expanded in the eager
    order and `nodes_expanded` and `frontier_peak` do not change.  A
    popped entry with a box below the target level is grown and scanned
    in one place, whatever the mode, and only a heuristic one goes back
    on the heap.  Each expanded node is ranked once, and one push loop
    serves both modes: each child is pushed straight from the ranked
    scan, and only a heuristic child below the target level adds
    h_lb to its key, read from the parent's live measure and the
    child's own core test.  Rows are unique in the heap, so comparisons
    never reach past them.
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
    conj = start.conjugate_rows()
    measure = _measure(rows)
    # the start is popped first whatever its f, so its h is never needed
    heap = [
        (0.0, -0.0, rows, conj, start.size, 0, measure, None,
         _core_edges(rows, conj, measure[0], []), dim_exact(start), 1, 1)
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
        if box is not None and size < n_target:
            measure, edges = _grow(*measure, *box, frozen, rows, conj)
            if not uniform_cost:
                # a lazy heuristic child: push it back with its exact
                # key; this is not an expansion
                h = remaining_cost_estimate(n_target - size, edges)
                heapq.heappush(
                    heap,
                    (g + h, -g, rows, conj, size, frozen, measure, None, edges,
                     scaled, num, den),
                )
                continue
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
        size += 1
        levels = n_target - size
        scaled = dim * size
        # a heuristic child below the target level is keyed by g + h_lb
        bound = not uniform_cost and levels > 0
        # the child through each ranked edge freezes the rows of the edges
        # ranked before it; adding box (r, c) sets row r to length c and
        # column c to height r
        for weight, r, c, num, den in _rank(edges):
            crows = rows[: r - 1] + (c,) + rows[r:]
            cconj = conj[: c - 1] + (r,) + conj[c:]
            cg = f = g + weight
            if bound:
                f += _cost_floor(
                    levels,
                    _child_bound(measure[0], crows, cconj, frozen, r, c, num / den),
                )
            heapq.heappush(
                heap,
                (f, -cg, crows, cconj, size, frozen, measure, (r, c), None,
                 scaled, num, den),
            )
            frozen |= 1 << r
        frontier_peak = max(frontier_peak, len(heap))
    # Unreachable: a first-ranked child keeps its parent's frozen mask, so
    # the chain of first children from the start keeps mask 0; a core
    # diagram with k rows has row 1 <= k, so its new-row box (k + 1, 1) is
    # always a live core child, and the chain reaches the target level.
    raise EmptySearchSpace(
        f"no diagram of size {n_target} reachable from {start.rows}"
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
    neither side is in the core subgraph the diagram is rejected.  The
    core test is `astar`'s own, so a core start is tested once and a
    conjugated one twice.
    """
    try:
        result = astar(n_target, start=diagram, uniform_cost=uniform_cost)
    except CoreMembershipError:
        pass
    else:
        return result.diagram, result
    try:
        result = astar(n_target, start=diagram.conjugate(), uniform_cost=uniform_cost)
    except CoreMembershipError:
        raise CoreMembershipError(
            f"neither {diagram.rows} nor its conjugate is in the core subgraph"
        ) from None
    return result.diagram.conjugate(), result


def local_improve(diagram: YoungDiagram, depth: int = 3) -> YoungDiagram:
    """Grow a diagram by `depth` levels with a heuristic `search_from`."""
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    return search_from(diagram, diagram.size + depth)[0]


class ImproveOutcome(NamedTuple):
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
