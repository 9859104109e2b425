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

Edge weights are negative log transition probabilities, which makes the
cost of any root path ln(n!) - ln(dim) and turns shortest path into
highest dimension.  The heuristic scales a node's cheapest unfrozen
outgoing edge by the remaining level count; it is fast but carries no
optimality guarantee.  Uniform-cost mode (h = 0) is exact and is what
the oracle comparisons test against.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .diagram import YoungDiagram
from .dimension import dim_exact, log_dim, normalized_dim
from .errors import (
    CoreMembershipError,
    EmptySearchSpace,
    InvalidDepth,
    InvariantViolation,
    NotAGrowthSequence,
)
from .plancherel import _edges


@dataclass(frozen=True)
class TreeNode:
    """A search-tree node; bit r of `frozen` set means row r never grows."""

    diagram: YoungDiagram
    frozen: int
    g: float


@dataclass(frozen=True)
class SearchResult:
    diagram: YoungDiagram
    dim: int
    log_dim: float
    normalized: float
    cost: float
    nodes_expanded: int
    frontier_peak: int
    elapsed: float
    mode: str


def tree_children(node: TreeNode, *, candidates: list | None = None) -> list[TreeNode]:
    """Children of a tree node, in candidate order.

    Candidates are `plancherel._edges` tuples (weight, row, col, num,
    den) for the node's core edges, best first.  The child through the
    r-th unfrozen candidate inherits the parent's frozen rows plus the
    rows of every candidate ranked before r, so no two root paths can
    reach the same diagram.  Each child carries its conjugate: adding
    box (r, c) sets row r to length c and column c to height r.
    """
    rows = node.diagram.rows
    conj = node.diagram.conjugate_rows()
    if candidates is None:
        candidates = _edges(rows, conj, True)
    frozen = node.frozen
    children = []
    for weight, r, c, _, _ in candidates:
        bit = 1 << r
        if frozen & bit:
            continue
        child = YoungDiagram._from_valid(
            rows[: r - 1] + (c,) + rows[r:], conj[: c - 1] + (r,) + conj[c:]
        )
        children.append(TreeNode(child, frozen, node.g + weight))
        frozen |= bit
    return children


def remaining_cost_estimate(node: TreeNode, n_target: int, candidates: list) -> float:
    """Cheapest unfrozen outgoing edge times the number of levels left.

    `candidates` are the node's `plancherel._edges` tuples.  Zero at the
    target level and at dead ends.  Not admissible in general: deeper
    levels can have cheaper edges.
    """
    levels = n_target - node.diagram.size
    if levels <= 0:
        return 0.0
    usable = [w for w, r, _, _, _ in candidates if not node.frozen & 1 << r]
    if not usable:
        return 0.0
    return min(usable) * levels


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
    """
    if start is None:
        start = YoungDiagram((1,))
    if not start.in_core_subgraph():
        raise CoreMembershipError(f"start {start.rows} is outside the core subgraph")
    if n_target < start.size:
        raise EmptySearchSpace(
            f"target level {n_target} is below the start size {start.size}"
        )
    t0 = time.perf_counter()
    cache: dict[tuple, list] = {}

    def cands(diagram):
        rows = diagram.rows
        got = cache.get(rows)
        if got is None:
            # never empty: a new bottom row keeps a core diagram in the core
            got = cache[rows] = _edges(rows, diagram.conjugate_rows(), True)
        return got

    heap: list = []
    tick = itertools.count()

    def push(node):
        if uniform_cost:
            h = 0.0
        else:
            h = remaining_cost_estimate(node, n_target, cands(node.diagram))
        heapq.heappush(
            heap, (node.g + h, -node.g, node.diagram.rows, next(tick), node)
        )

    push(TreeNode(start, 0, 0.0))
    closed: set[tuple] = set()
    nodes_expanded = 0
    frontier_peak = len(heap)
    while heap:
        _, _, rows, _, node = heapq.heappop(heap)
        if rows in closed:
            raise InvariantViolation(f"tree path uniqueness violated at {rows}")
        closed.add(rows)
        if node.diagram.size == n_target:
            return SearchResult(
                diagram=node.diagram,
                dim=dim_exact(node.diagram),
                log_dim=log_dim(node.diagram),
                normalized=normalized_dim(node.diagram),
                cost=node.g,
                nodes_expanded=nodes_expanded,
                frontier_peak=frontier_peak,
                elapsed=time.perf_counter() - t0,
                mode="uniform-cost" if uniform_cost else "heuristic",
            )
        nodes_expanded += 1
        for child in tree_children(node, candidates=cands(node.diagram)):
            push(child)
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
    relies on them reporting a zero remaining-cost estimate.
    """
    from .oracle import partitions

    counts: dict[tuple, int] = {}
    dead_ends = []
    stack = [TreeNode(YoungDiagram((1,)), 0, 0.0)]
    while stack:
        node = stack.pop()
        rows = node.diagram.rows
        counts[rows] = counts.get(rows, 0) + 1
        if node.diagram.size >= max_n:
            continue
        kids = tree_children(node)
        if not kids:
            dead_ends.append(rows)
        stack.extend(kids)
    duplicates = sorted(rows for rows, c in counts.items() if c > 1)
    missing = []
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            if lam.in_core_subgraph() and lam.rows not in counts:
                missing.append(lam.rows)
    return TreeSweep(
        visited=len(counts),
        duplicates=duplicates,
        missing=missing,
        dead_ends=dead_ends,
    )


def core_start(diagram: YoungDiagram) -> tuple[YoungDiagram, bool]:
    """A search start for `diagram` and whether it is the conjugate.

    A diagram outside the core subgraph is searched through its
    conjugate, and the result must be conjugated back; if neither side
    is in the core subgraph the diagram is rejected.
    """
    if diagram.in_core_subgraph():
        return diagram, False
    flipped = diagram.conjugate()
    if not flipped.in_core_subgraph():
        raise CoreMembershipError(
            f"neither {diagram.rows} nor its conjugate is in the core subgraph"
        )
    return flipped, True


def local_improve(
    diagram: YoungDiagram, depth: int = 3, *, uniform_cost: bool = False
) -> YoungDiagram:
    """Grow a diagram by `depth` levels via the tree search from `core_start`."""
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    start, flipped = core_start(diagram)
    result = astar(start.size + depth, start=start, uniform_cost=uniform_cost)
    return result.diagram.conjugate() if flipped else result.diagram


@dataclass(frozen=True)
class ImproveOutcome:
    sequence: tuple
    improved_sizes: tuple
    skipped_sizes: tuple


def sequence_improve(
    seq: list[YoungDiagram], depth: int, *, uniform_cost: bool = False
) -> ImproveOutcome:
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
            cand = local_improve(lam, depth, uniform_cost=uniform_cost)
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
