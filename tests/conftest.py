import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from youngdim import (
    Box,
    GrowthPath,
    YoungDiagram,
    astar,
    dim_exact,
    reflected,
    transition_edges,
    transition_prob,
)
from youngdim import search
from youngdim.diagram import _runs
from youngdim.errors import (
    BalanceNotApplicable,
    DegenerateOverlap,
    EmptySearchSpace,
    InvariantViolation,
    NoCoreChild,
    NotAddable,
    ShapeBlocked,
)
from youngdim.oracle import MaxTableEntry, _max_entries, _sweep
from youngdim.plancherel import _core_edges, _grow, _grow_dim, _measure
from youngdim.search import SearchResult, remaining_cost_estimate
from youngdim.transforms import _expected_hooks

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def partitions(n):
    """Every partition of n as a diagram, in descending lexicographic order.

    The library enumerates partitions only through the oracle's one
    sweep over first-column hooks (`oracle.all_dimensions`); this
    recursive form is the cross-check.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    for rows in rec(n, n, ()):
        yield YoungDiagram(rows)


_pcount = [1]


def partition_count(n):
    """Number of partitions of n, by the pentagonal-number recurrence.

    Shares no code with either enumeration, so it checks their counts.
    """
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


def symmetrize_by_boxes(diagram):
    """Output rows and strict flag of `symmetrize`, built from sets of boxes.

    The output is the base subdiagram, plus the above-diagonal
    asymmetric boxes, plus the mirror image of every below-diagonal
    one, rebuilt row by row; it is strict when both sides are occupied.
    The library moves the below-diagonal boxes on the rows tuple
    instead; this box-set form is the cross-check.
    """
    up, down = diagram.asymmetric_boxes()
    target = set(diagram.base_subdiagram().boxes()) | set(up)
    target.update(reflected(b) for b in down)
    rows = []
    for i in range(1, max((r for r, _ in target), default=0) + 1):
        cols = {c for r, c in target if r == i}
        if cols != set(range(1, len(cols) + 1)):
            raise ValueError(f"row {i} is not contiguous: {sorted(cols)}")
        rows.append(len(cols))
    return YoungDiagram(rows).rows, bool(up) and bool(down)


@st.composite
def partition_diagrams(draw, max_n=14):
    """Random diagram with 1..max_n boxes, drawn row by row."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    remaining = n
    cap = n
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        rows.append(part)
        cap = part
        remaining -= part
    return YoungDiagram(rows)


def hook_ratio(diagram, box):
    """Exact dim(diagram + box) / dim(diagram), hook by hook.

    Only hooks in the added box's row and column change, so the ratio
    is (n+1) times the product of old over new hooks on those lines.
    The library computes transition probabilities from box contents
    instead; this slow form is the cross-check.
    """
    bigger = diagram.add_box(box)
    r, c = box
    num = diagram.size + 1
    den = 1
    for j in range(1, diagram.row_length(r) + 1):
        num *= diagram.hook_length(Box(r, j))
        den *= bigger.hook_length(Box(r, j))
    for i in range(1, diagram.col_height(c) + 1):
        num *= diagram.hook_length(Box(i, c))
        den *= bigger.hook_length(Box(i, c))
    return Fraction(num, den)


def argmax_by_hook_product(n, keep=None):
    """Maximum entry at size n by enumerating its partitions again.

    Every partition of n gets a full hook product (`dim_exact`) and
    `keep` filters diagrams; maximizers are sorted by rows.  The library
    reads every size from one sweep over first-column hooks instead;
    this per-size form is the cross-check.
    """
    best = -1
    arg = []
    for lam in partitions(n):
        if keep is not None and not keep(lam):
            continue
        d = dim_exact(lam)
        if d > best:
            best, arg = d, [lam]
        elif d == best:
            arg.append(lam)
    arg.sort(key=lambda lam: lam.rows)
    return MaxTableEntry(n=n, maximizers=tuple(arg), dim=best)


def argmax_over_full_sweep(max_n, keep=None):
    """Maximum entries for sizes 1..max_n from one full oracle sweep.

    Every partition is a candidate in its own right, both sides of each
    conjugate pair divided out, and `keep` filters row tuples that tie
    or beat the best kept so far; maximizers are sorted by rows.  The
    library's tables take the half sweep, one side of each pair, and
    bring in conjugates instead; this form is the cross-check.
    """
    best = [-1] * (max_n + 1)
    arg = [[] for _ in range(max_n + 1)]
    for size, rows, dim in _sweep(max_n):
        if dim < best[size] or (keep is not None and not keep(rows)):
            continue
        if dim > best[size]:
            best[size], arg[size] = dim, [rows]
        else:
            arg[size].append(rows)
    return [
        MaxTableEntry(
            n=n,
            maximizers=tuple(YoungDiagram(r) for r in sorted(arg[n])),
            dim=best[n],
        )
        for n in range(1, max_n + 1)
    ]


def edges_by_children(diagram, restrict_core=False):
    """Transition edges built child by child, best first.

    Every addable box is added with `add_box`, its child tested with
    `in_core_subgraph` when restrict_core is set, and its probability
    computed by `transition_prob`; the edges are stable-sorted by exact
    probability descending over the ascending box order, and NoCoreChild
    is raised when no core child exists.  The library reads all edges
    and the child core tests from one pass over rows and conjugate
    instead; this per-child form is the cross-check.
    """
    edges = [
        transition_prob(diagram, b)
        for b in diagram.addable_boxes()
        if not restrict_core or diagram.add_box(b).in_core_subgraph()
    ]
    if restrict_core and not edges:
        raise NoCoreChild(f"no core-subgraph child for {diagram.rows}")
    edges.sort(key=lambda e: e.probability, reverse=True)
    return edges


def greedy_by_edge_lists(start, target, restrict_core=False):
    """The greedy walk from start to the target size, diagram by diagram.

    Each step ranks every edge of the current diagram afresh
    (`transition_edges`, which raises NoCoreChild at a core dead end)
    and adds the best box with `add_box`, so every dimension comes from
    the hook formula when asked for.  The library's `greedy_grow` grows
    one transition measure and one exact dimension along the walk
    instead; this per-diagram form is the cross-check.
    """
    out = [start]
    while out[-1].size < target:
        out.append(out[-1].add_box(transition_edges(out[-1], restrict_core)[0].box))
    return out


def shake_by_boxes(diagram, k, m, seed):
    """`shake_variant` diagram by diagram, with the same seeded draws.

    Each addition draws from the m best edges of `transition_edges` and
    adds its box with `add_box`; each removal ranks every corner by the
    hook-formula dimension that `remove_box` leaves, then by the corner,
    and draws from the m weakest.  The library carries rows and exact
    dimensions through Kerov's one-box steps instead; this per-diagram
    form is the cross-check.
    """
    rng = random.Random(seed)
    cur = diagram
    for _ in range(k):
        pool = transition_edges(cur)[:m]
        cur = cur.add_box(pool[rng.randrange(len(pool))].box)
    for _ in range(k):
        ranked = sorted((dim_exact(cur.remove_box(c)), c) for c in cur.removable_boxes())
        cur = cur.remove_box(ranked[rng.randrange(min(m, len(ranked)))][1])
    return cur


def balanced_by_boxes(diagram, index):
    """`transforms._balanced` box by box, on diagrams.

    Each step takes the top box of column `index` with `can_remove` and
    `remove_box`, or the next box of row `index` with `can_add` and
    `add_box`, building a diagram per box.  The library moves whole runs
    on the (rows, conj) tuples instead; this per-box form is the
    cross-check, with the same errors, messages and stuck diagrams.
    """
    if index < 1:
        raise ValueError(f"line index must be at least 1, got {index}")
    c = diagram.col_height(index)
    r = diagram.row_length(index)
    d = c - r
    if d <= 0:
        raise BalanceNotApplicable(
            f"column {index} (height {c}) does not exceed row {index} (length {r})"
        )
    moves = (d + 1) // 2
    cur = diagram
    for _ in range(moves):
        top = Box(cur.col_height(index), index)
        if not cur.can_remove(top):
            raise ShapeBlocked(
                f"box {tuple(top)} is not a removable corner", diagram=cur
            )
        cur = cur.remove_box(top)
    for _ in range(moves):
        nxt = Box(index, cur.row_length(index) + 1)
        if not cur.can_add(nxt):
            raise ShapeBlocked(f"box {tuple(nxt)} is not addable", diagram=cur)
        cur = cur.add_box(nxt)
    new_d = cur.col_height(index) - cur.row_length(index)
    if new_d not in (0, -1):
        raise InvariantViolation(f"balance left difference {new_d} at line {index}")
    return cur


def to_core_by_boxes(diagram):
    """`transforms._to_core` on diagrams, through `balanced_by_boxes`.

    A line whose row is longer is balanced on `conjugate()` objects and
    conjugated back; the library swaps the rows and conj tuples instead.
    """
    cur = diagram
    seen = {cur.rows}
    while not (cur.in_core_subgraph() or cur.conjugate().in_core_subgraph()):
        moved = False
        bound = max(cur.row_count, cur.row_length(1))
        for i in range(1, bound + 1):
            d = cur.col_height(i) - cur.row_length(i)
            try:
                if d >= 1:
                    cur = balanced_by_boxes(cur, i)
                elif d <= -1:
                    cur = balanced_by_boxes(cur.conjugate(), i).conjugate()
                else:
                    continue
            except ShapeBlocked:
                continue
            moved = True
        if not moved:
            raise ShapeBlocked("no balance step applies", diagram=cur)
        if cur.rows in seen:
            raise ShapeBlocked("balance rounds cycled", diagram=cur)
        seen.add(cur.rows)
    return cur


def hook_identities_by_boxes(base, upper, lower):
    """`check_reflection_hook_identities` on diagrams, box by box.

    Builds the two pivot shapes with `add_box` and reads each pivot hook
    with `hook_length`.  The library reads the hooks from rows and
    conjugates grown from the base's tuple; this is the cross-check, with
    the same errors and messages.
    """
    if not base.is_symmetric():
        raise ValueError(f"base {base.rows} is not symmetric")
    k, l = upper
    t, s = lower
    if k >= l:
        raise NotAddable(f"upper box {tuple(upper)} is not above the diagonal")
    if t <= s:
        raise NotAddable(f"lower box {tuple(lower)} is not below the diagonal")
    addable = _runs(base.rows)[0]
    for box in (upper, lower):
        if tuple(box) not in addable:
            raise NotAddable(f"{tuple(box)} is not addable to {base.rows}")
    if k == s:
        raise DegenerateOverlap(
            f"{tuple(upper)} and {tuple(lower)} are mirror images"
        )
    with_upper = base.add_box(upper)
    with_lower = with_upper.add_box(lower)
    with_reflected = with_upper.add_box(reflected(lower))
    boxes, before, after = _expected_hooks(k, l, t, s)
    if any(
        with_lower.hook_length(box) != b or with_reflected.hook_length(box) != a
        for box, b, a in zip(boxes, before, after)
    ):
        return False
    return math.prod(after) < math.prod(before)


def forbidden_set_children(diagram, forbidden, g):
    """Children of a search-tree node under the forbidden-box rule.

    Candidates are the core-preserving boxes, exact probability
    descending and then box ascending; the child through the r-th
    allowed candidate forbids the allowed candidates ranked before it.
    Returns (diagram, forbidden, g) triples.  The library freezes whole
    rows in an integer mask instead; this set form is the cross-check.
    """
    cands = edges_by_children(diagram, restrict_core=True)
    usable = [c for c in cands if c.box not in forbidden]
    return [
        (
            diagram.add_box(c.box),
            forbidden | frozenset(u.box for u in usable[:rank]),
            g + c.weight,
        )
        for rank, c in enumerate(usable)
    ]


def random_diagram(n, rng):
    """Uniform-ish random diagram of size n grown box by box."""
    cur = YoungDiagram(())
    for _ in range(n):
        cur = cur.add_box(rng.choice(cur.addable_boxes()))
    return cur


def random_growth_path(diagram, rng):
    """A random path from the empty diagram to the given one."""
    boxes = []
    cur = diagram
    while cur.size:
        corner = rng.choice(cur.removable_boxes())
        boxes.append(corner)
        cur = cur.remove_box(corner)
    boxes.reverse()
    return GrowthPath(start=YoungDiagram(()), steps=tuple(boxes))


@pytest.fixture(scope="session")
def core_table_40():
    """Core-subgraph maximum entries for sizes 1..40, from one sweep."""
    return _max_entries(
        1,
        40,
        keep=lambda rows: YoungDiagram._from_valid(rows).in_core_subgraph(),
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


def ranked_children(rows, conj, frozen, edges):
    """A search node's children through its core scan, best first.

    `edges` is the node's core scan as (weight, r, c, num, den) in
    top-row-first order; it is stable-sorted by exact `Fraction`
    probability descending, so ties keep row ascending, and the child
    through the k-th edge freezes the rows of the k edges ranked before
    it.  Returns (rows, conj, frozen, weight, r, c, num, den) per
    child, with each child's rows and conjugate rebuilt by `add_box`.
    The library ranks over a common denominator and builds each child
    inside its push loop instead; this list form is the cross-check.
    """
    out = []
    parent = YoungDiagram._from_valid(rows, conj)
    for weight, r, c, num, den in sorted(edges, key=lambda e: -Fraction(e[3], e[4])):
        child = parent.add_box(Box(r, c))
        out.append((child.rows, child.conjugate_rows(), frozen, weight, r, c, num, den))
        frozen |= 1 << r
    return out


def eager_heuristic_astar(n_target, start=None):
    """Heuristic `astar` with every child below the target level grown at push.

    Each such child grows its live measure and its core scan (`_grow`)
    as it is pushed, so its heap key is g + h from the start, and it
    keeps the scan for its expansion; children come from
    `ranked_children`.  The library pushes such a child with a lower
    bound on h and grows it only when that key reaches the top of the
    heap; this eager loop is the cross-check that the pop order, and so
    every output, is the same.
    """
    if start is None:
        start = YoungDiagram((1,))
    rows = start.rows
    conj = start.conjugate_rows()
    measure = _measure(rows)
    heap = [
        (0.0, -0.0, rows, conj, start.size, 0, measure, None,
         _core_edges(rows, conj, measure[0]), dim_exact(start), 1, 1)
    ]
    nodes_expanded = 0
    frontier_peak = 1
    while heap:
        _, g, rows, conj, size, frozen, measure, box, edges, scaled, num, den = (
            heapq.heappop(heap)
        )
        g = -g
        dim = _grow_dim(scaled, num, den)
        if size == n_target:
            return SearchResult(
                diagram=YoungDiagram._from_valid(rows, conj, dim),
                dim=dim,
                cost=g,
                nodes_expanded=nodes_expanded,
                frontier_peak=frontier_peak,
                mode="heuristic",
            )
        nodes_expanded += 1
        size += 1
        levels = n_target - size
        scaled = dim * size
        for crows, cconj, cfrozen, weight, r, c, num, den in ranked_children(
            rows, conj, frozen, edges
        ):
            cg = g + weight
            if not levels:
                entry = (cg, -cg, crows, cconj, size, cfrozen, None, None, None,
                         scaled, num, den)
            else:
                grown, cedges = _grow(*measure, r, c, cfrozen, crows, cconj)
                h = remaining_cost_estimate(levels, cedges)
                entry = (cg + h, -cg, crows, cconj, size, cfrozen, grown, None, cedges,
                         scaled, num, den)
            heapq.heappush(heap, entry)
        frontier_peak = max(frontier_peak, len(heap))
    raise EmptySearchSpace(f"no diagram of size {n_target} reachable from {start.rows}")


class PushLog:
    """Stands in for `heapq` inside `search` and records every child pushed.

    `pushed[rows]` lists, as (rows, conj, frozen, g, box), the children
    pushed while the node with those rows was being expanded, in push
    order; `node[rows]` holds (conj, frozen, g) of each popped node.  A
    lazy child's push-back carries no box and is not a child.  With
    fifo set, entries leave in push order, so `astar` walks the tree
    level by level and expands every node below its target level.
    """

    def __init__(self, fifo=False):
        self.fifo = fifo
        self.current = None
        self.pushed = {}
        self.node = {}

    def heappush(self, heap, entry):
        if entry[7] is not None:
            self.pushed.setdefault(self.current, []).append(
                (entry[2], entry[3], entry[5], -entry[1], entry[7])
            )
        if self.fifo:
            heap.append(entry)
        else:
            heapq.heappush(heap, entry)

    def heappop(self, heap):
        entry = heap.pop(0) if self.fifo else heapq.heappop(heap)
        self.current = entry[2]
        self.node[entry[2]] = (entry[3], entry[5], -entry[1])
        return entry


def logged_astar(monkeypatch, n_target, *, fifo=False, **kwargs):
    log = PushLog(fifo)
    monkeypatch.setattr(search, "heapq", log)
    return log, astar(n_target, **kwargs)


def tree_census(monkeypatch, max_n):
    """The greedy path tree up to level max_n, read from `astar`'s own pushes.

    With `PushLog`'s FIFO, uniform-cost `astar(max_n)` expands every node
    below level max_n before it pops one at max_n, so its pushes are
    every edge of the tree.  Returns (rows, dead_ends): the root's rows
    and those of every pushed child, one per push, and the sorted rows of
    the expanded nodes that pushed nothing.
    """
    log, _ = logged_astar(monkeypatch, max_n, fifo=True, uniform_cost=True)
    rows = [(1,)] + [kid[0] for kids in log.pushed.values() for kid in kids]
    dead_ends = sorted(
        r for r in log.node if sum(r) < max_n and r not in log.pushed
    )
    return rows, dead_ends
