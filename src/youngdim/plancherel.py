"""The Plancherel growth process on the Young graph.

Growing a diagram one box at a time with transition probabilities
p(diagram -> diagram + b) = dim(diagram + b) / ((n + 1) * dim(diagram))
defines a random walk whose edge weights -ln(p) turn dimension search
into shortest-path search: the cost of any growth path from the one-box
diagram to a diagram of size n equals ln(n!) - ln(dim), independent of
the route taken.

The probabilities come from Kerov's transition measure (S. Kerov,
Transition probabilities of continual Young diagrams and the Markov
moment problem, Funct. Anal. Appl. 27, 1993).  Box (i, j) has content
j - i.  The addable boxes have contents x_0 < ... < x_m, the removable
corners have contents y_1 < ... < y_m interlacing them, and
p(x_k) = prod_i (x_k - y_i) / prod_{j != k} (x_k - x_j): an exact
rational from small-integer products, with no hook lengths.

The measure also has an exact one-box update.  Adding the box of
content x turns x into a corner content, so every other addable z keeps
p'(z) = p(z) * (z - x)^2 / ((z - x)^2 - 1), and the only new addables
are x - 1 and x + 1, each unless a corner of that content blocks it.
`_grow` applies this in O(m), with the full formula only for the new
addables.  A measure holds only live boxes: `_grow` drops the entries
of rows a search node has frozen, which no descendant reads, and keeps
every addable and corner content for the full formula.  As
p(x) = dim(diagram + b) / ((n + 1) * dim), a child's exact dimension is
one exact division from its parent's (`_grow_dim`); Kerov's
cotransition measure gives the same step for a removal (`_shrink_dim`).

One kernel serves every walk, and one step grows and scans.  `_grow`
updates a measure by one box and, in the same loop over the parent's
entries, tests each of the child's live boxes for the core subgraph
(`diagram._core_ok`), so it returns the child's core scan with its
measure.  `_core_edges` scans only a measure from the full formula
(`_measure`): the start of a search or of a core-restricted greedy
walk, and `transition_edges`.  It takes any diagram, core or not, and
keeps exactly the boxes whose child is core; `_grow` scans only core
children, where the two agree.  `_rank` orders edges by exact
probability; the search ranks each node's scan once, on expansion, and
pushes its children straight from it, and the greedy walk
(`greedy_grow`) and the shake's additions take their edge from the
measure they grow box by box (`_step`), carrying rows, conjugate and
exact dimension along, as does `path_cost`, which reads each step's
weight from it.  The shake's removals rank the corners of a rows tuple
by the dimension each leaves (`_shrink_dim`) and build one diagram at
the end.

Also provides the shaking perturbation and the multi-branch heuristic
built on the greedy walk.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .diagram import Box, YoungDiagram, _bad_rows, _core_ok, _runs
from .dimension import dim_exact
from .errors import (
    InvalidK, InvalidM, InvalidPath, InvariantViolation, NoCoreChild, NotAddable
)


class TransitionEdge(NamedTuple):
    box: Box
    probability: Fraction
    weight: float


def transition_prob(diagram: YoungDiagram, box) -> TransitionEdge:
    """Exact transition probability for adding one box, with -ln weight.

    The weight is taken from the reduced fraction.
    """
    r, c = box
    boxes, _, xs, ys = _contents(diagram.rows)
    if (r, c) not in boxes:
        raise NotAddable(f"cannot add box {tuple(box)} to {diagram.rows}")
    num, den = _prob(c - r, xs, ys)
    return TransitionEdge(Box(r, c), Fraction(num, den), math.log(den) - math.log(num))


def _contents(rows: tuple[int, ...]) -> tuple[list, list, list[int], list[int]]:
    """Addable boxes, corners, and the contents of each, top row first."""
    boxes, corners = _runs(rows)
    return boxes, corners, [c - r for r, c in boxes], [c - r for r, c in corners]


def _prob(x: int, xs, ys) -> tuple[int, int]:
    """Reduced p(x) = prod_i (x - y_i) / prod_{z != x} (x - z), as (num, den)."""
    num = den = 1
    for y in ys:
        num *= x - y
    for z in xs:
        if z != x:
            den *= x - z
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _measure(
    rows: tuple[int, ...],
) -> tuple[list[tuple], tuple[int, ...], tuple[int, ...]]:
    """Kerov's transition measure of a diagram, from the full formula.

    Returns (addables, xs, corners): addables holds (x, r, c, num, den)
    for every addable box (r, c) of content x = c - r, top row first,
    where num / den is the reduced p(x); xs holds every addable content
    and corners every corner content, both top row first.
    """
    boxes, _, xs, ys = _contents(rows)
    measure = [(c - r, r, c, *_prob(c - r, xs, ys)) for r, c in boxes]
    return measure, tuple(xs), tuple(ys)


def _grow(
    addables: list[tuple],
    xs: tuple[int, ...],
    corners: tuple[int, ...],
    r: int,
    c: int,
    frozen: int = 0,
    rows: tuple[int, ...] | None = None,
    conj: tuple[int, ...] | None = None,
) -> tuple[tuple[list[tuple], tuple[int, ...], tuple[int, ...]], list[tuple] | None]:
    """The measure after adding addable box (r, c), and its core scan, in O(m).

    Every other p(z) is multiplied by (z - x)^2 / ((z - x)^2 - 1) and
    reduced by one gcd, to the full formula's reduced fraction; addable
    contents are at least 2 apart, so the factor is positive.  The new
    addables x + 1 at (r, c + 1) and x - 1 at (r + 1, c) get the full
    formula over the child's xs, unless the corner of that content, at
    (r - 1, c) or (r, c - 1), blocks them; that corner then stops being
    one.

    Entries in a row whose bit is set in `frozen` are dropped.  A frozen
    row keeps its addable box until that box is added and stays frozen
    in every descendant, so no descendant reads a dropped entry; xs and
    the corners stay whole, so every kept value is what the full
    formula gives.

    Given the child's rows and conjugate, the same loop tests each kept
    entry with `_core_ok` on the child: (weight, r, c, num, den) in the
    measure's order.  For a core child, which is every child a walk
    inside the core grows, that is what `_core_edges` gives over the
    child's live measure.  Without the rows it is None, for walks that
    never read a core edge.
    """
    x = c - r
    out = []
    scan = None if rows is None else []
    at = scan_at = 0
    for z, zr, zc, num, den in addables:
        if z == x:
            at = len(out)
            if scan is not None:
                scan_at = len(scan)
        elif not frozen >> zr & 1:
            d = (z - x) * (z - x)
            num *= d
            den *= d - 1
            g = math.gcd(num, den)
            num //= g
            den //= g
            out.append((z, zr, zc, num, den))
            if scan is not None and _core_ok(rows, conj, zr, zc):
                scan.append((math.log(den) - math.log(num), zr, zc, num, den))
    # contents and corners interlace, top row first, so x's neighbours are
    # corners[i - 1] (content x + 1, which blocks (r, c + 1)) and
    # corners[i] (content x - 1, which blocks (r + 1, c))
    i = xs.index(x)
    above = i and corners[i - 1] == x + 1
    below = i < len(corners) and corners[i] == x - 1
    ys = corners[: i - 1 if above else i] + (x,) + corners[i + 1 if below else i :]
    right = () if above else (x + 1,)
    down = () if below else (x - 1,)
    xs = xs[:i] + right + down + xs[i + 1 :]
    if down and not frozen >> r + 1 & 1:
        num, den = _prob(x - 1, xs, ys)
        out.insert(at, (x - 1, r + 1, c, num, den))
        if scan is not None and _core_ok(rows, conj, r + 1, c):
            scan.insert(scan_at, (math.log(den) - math.log(num), r + 1, c, num, den))
    if right and not frozen >> r & 1:
        num, den = _prob(x + 1, xs, ys)
        out.insert(at, (x + 1, r, c + 1, num, den))
        if scan is not None and _core_ok(rows, conj, r, c + 1):
            scan.insert(scan_at, (math.log(den) - math.log(num), r, c + 1, num, den))
    return (out, xs, ys), scan


def _grow_dim(scaled: int, num: int, den: int) -> int:
    """dim(diagram + b) from scaled = (n + 1) * dim and p(b) = num / den, exactly."""
    q, rem = divmod(scaled * num, den)
    if rem:
        raise InvariantViolation("a transition measure gave a non-integer dimension")
    return q


def _shrink_dim(dim: int, n: int, y: int, xs, ys) -> int:
    """dim(diagram - c) = -dim * prod_i (y - x_i) / (n * prod_{y' != y} (y - y')).

    c is the corner of content y; xs and ys are the diagram's addable
    and corner contents (`_contents`), dim and n its dimension and size.
    """
    den = n * math.prod(y - z for z in ys if z != y)
    return _grow_dim(-dim, math.prod(y - x for x in xs), den)


def _core_edges(
    rows: tuple[int, ...],
    conj: tuple[int, ...],
    addables: list[tuple],
    bad: list[int] | None = None,
) -> list[tuple[float, int, int, int, int]]:
    """The edges into the core subgraph out of any diagram, unranked.

    One scan over the transition measure `addables`: every box (r, c)
    whose child is in the core subgraph, as (weight, r, c, num, den)
    with weight = log(den) - log(num) of the reduced p, in the
    measure's top-row-first order.  Adding (r, c) changes only row r
    and column c, so the child is core when rows r and c pass there
    (`_core_ok`) and every row the diagram already fails (`_bad_rows`;
    a core diagram has none) is row r or row c.  A caller that has
    already tested the diagram passes its bad rows as `bad`, `[]` for a
    core one, and the rows are not walked again.  Only a measure from
    the full formula (`_measure`) needs it: `_grow` scans the measures
    it grows itself, whose diagrams are core.
    """
    if bad is None:
        bad = _bad_rows(rows, conj)
    # `not bad` spares a core diagram, every search's start, a generator per box
    return [
        (math.log(den) - math.log(num), r, c, num, den)
        for _, r, c, num, den in addables
        if _core_ok(rows, conj, r, c) and (not bad or all(b == r or b == c for b in bad))
    ]


def _rank(edges: list[tuple]) -> list[tuple]:
    """Sort edges in place by exact probability descending, and return them.

    One stable sort on exact integers over a common denominator, so
    edges in top-row-first order keep ties by row ascending.  Only num
    and den are read, which a measure entry (x, r, c, num, den) and a
    scan entry (weight, r, c, num, den) hold in the same places, so a
    walk that reads no core edge ranks a copy of its measure, with no
    logs.
    """
    if len(edges) > 1:
        common = math.lcm(*[e[4] for e in edges])
        edges.sort(key=lambda e: -e[3] * (common // e[4]))
    return edges


def transition_edges(
    diagram: YoungDiagram, restrict_core: bool = False
) -> list[TransitionEdge]:
    """Edges for every addable box, best first.

    Ordered by exact probability descending (equivalently, child
    dimension descending), ties by ascending (row, col).  With
    restrict_core, only boxes whose addition stays inside the core
    subgraph are kept; NoCoreChild is raised when none do.
    """
    rows = diagram.rows
    edges = _measure(rows)[0]
    if restrict_core:
        edges = _core_edges(rows, diagram.conjugate_rows(), edges)
        if not edges:
            raise NoCoreChild(f"no core-subgraph child for {rows}")
    return [
        TransitionEdge(Box(r, c), Fraction(num, den), math.log(den) - math.log(num))
        for _, r, c, num, den in _rank(edges)
    ]


class GrowthPath(NamedTuple):
    """An ordered list of box additions from a start diagram."""

    start: YoungDiagram
    steps: tuple[Box, ...]


def path_cost(path: GrowthPath) -> float:
    """Sum of edge weights along the path.

    Every prefix must stay a valid diagram.  For a path from the empty
    diagram the total equals ln(n!) - ln(dim(final)).  Each step's p is
    read from one measure grown along the path, reduced as in `_prob`.
    """
    rows = path.start.rows
    measure = _measure(rows)
    total = 0.0
    for b in path.steps:
        r, c = b
        found = [e[3:] for e in measure[0] if e[1:3] == (r, c)]
        if not found:
            raise InvalidPath(f"step {tuple(b)} invalid after {rows}")
        num, den = found[0]
        total += math.log(den) - math.log(num)
        measure, _ = _grow(*measure, r, c)
        rows = rows[: r - 1] + (c,) + rows[r:]
    return total


def greedy_step(diagram: YoungDiagram, restrict_core: bool = False) -> TransitionEdge:
    """The maximum-probability edge, compared with exact rationals.

    Ties break toward the ascending (row, col) smallest box.  Breaking
    them by (col, row) instead walks the conjugate of every diagram.
    """
    return transition_edges(diagram, restrict_core)[0]


def _step(
    rows: tuple[int, ...],
    conj: tuple[int, ...],
    measure: tuple,
    dim: int,
    size: int,
    scan: bool,
    r: int,
    c: int,
    num: int,
    den: int,
) -> tuple:
    """Rows, conjugate, live measure, core scan and exact dimension after one box.

    Adding box (r, c) of probability num / den sets row r to length c
    and column c to height r; size is the child's.  The core scan is
    None unless `scan` is set.
    """
    rows = rows[: r - 1] + (c,) + rows[r:]
    conj = conj[: c - 1] + (r,) + conj[c:]
    if scan:
        measure, edges = _grow(*measure, r, c, 0, rows, conj)
    else:
        measure, edges = _grow(*measure, r, c)
    return rows, conj, measure, edges, _grow_dim(dim * size, num, den)


def greedy_grow(
    start: YoungDiagram, target: int, restrict_core: bool = False
) -> list[YoungDiagram]:
    """Greedy growth from start up to the target size, inclusive of both.

    Each step takes the best edge (`greedy_step`'s choice) from the
    current measure, grows the measure and the exact dimension through
    it, and builds the child from its rows, conjugate and dimension.
    With restrict_core, only the start can lie outside the core: its
    edges come from `_core_edges`, every child after it is core, and
    `_grow` scans it.
    """
    if target < start.size:
        raise InvalidPath(f"target {target} below start size {start.size}")
    rows = start.rows
    conj = start.conjugate_rows()
    measure = _measure(rows)
    scan = _core_edges(rows, conj, measure[0]) if restrict_core else None
    dim = dim_exact(start)
    out = [start]
    for size in range(start.size + 1, target + 1):
        edges = _rank(list(measure[0]) if scan is None else scan)
        if not edges:
            raise NoCoreChild(f"no core-subgraph child for {rows}")
        rows, conj, measure, scan, dim = _step(
            rows, conj, measure, dim, size, restrict_core, *edges[0][1:]
        )
        out.append(YoungDiagram._from_valid(rows, conj, dim))
    return out


def greedy_sequence(n: int, restrict_core: bool = False) -> list[YoungDiagram]:
    """Greedy sequence from the one-box diagram: sizes 1 through n."""
    if n < 1:
        raise InvalidPath(f"sequence length must be at least 1, got {n}")
    return greedy_grow(YoungDiagram([1]), n, restrict_core)


def shake_variant(diagram: YoungDiagram, k: int, m: int, seed: int) -> YoungDiagram:
    """Shake a diagram: add k boxes one by one, then remove k corners.

    Each added box is drawn uniformly from the m most probable ones, and
    each removed corner from the m whose removal leaves the lowest
    dimension.  The result has the original size but usually a
    different shape; no dimension guarantee is made, since shaking can
    lower it.  Seeded and fully deterministic; with m = 1 every draw has
    one candidate, so the result does not depend on the seed.  The
    additions grow one measure and exact dimension box by box, as
    `greedy_grow` does; the removals carry the rows tuple and the exact
    dimension through Kerov's cotransition step (`_shrink_dim`).
    """
    if not 1 <= k <= diagram.size:
        raise InvalidK(f"k must be in 1..{diagram.size}, got {k}")
    if m < 1:
        raise InvalidM(f"m must be at least 1, got {m}")
    rng = random.Random(seed)
    rows = diagram.rows
    conj = diagram.conjugate_rows()
    measure = _measure(rows)
    dim = dim_exact(diagram)
    for size in range(diagram.size + 1, diagram.size + k + 1):
        pool = _rank(list(measure[0]))[:m]
        edge = pool[rng.randrange(len(pool))]
        rows, conj, measure, _, dim = _step(
            rows, conj, measure, dim, size, False, *edge[1:]
        )
    for size in range(diagram.size + k, diagram.size, -1):
        _, corners, xs, ys = _contents(rows)
        ranked = sorted((_shrink_dim(dim, size, c - r, xs, ys), r, c) for r, c in corners)
        dim, r, c = ranked[rng.randrange(min(m, len(ranked)))]
        # removing corner (r, c) sets row r to length c - 1, and a corner
        # in column 1 is the last row
        rows = rows[: r - 1] + (c - 1,) + rows[r:] if c > 1 else rows[:-1]
    return YoungDiagram._from_valid(rows, None, dim)


def branches(
    diagram: YoungDiagram,
    m: int,
    k: int,
    target: int,
    *,
    seed_base: int = 0,
) -> list[YoungDiagram]:
    """Best-per-size over m greedy branches started from shaken variants.

    Branch s starts from shake_variant(diagram, k, m, seed=seed_base+s),
    so k is in 1..size(diagram); the unshaken walk is `greedy_grow`.
    The result holds one diagram per size from size(diagram) to target,
    the best by exact dimension with lexicographically smallest rows on
    ties; every diagram carries its dimension, so ranking computes none.
    """
    if m < 1:
        raise InvalidM(f"m must be at least 1, got {m}")
    if target < diagram.size:
        raise InvalidPath(f"target {target} below start size {diagram.size}")
    grown = [
        greedy_grow(shake_variant(diagram, k, m, seed_base + s), target)
        for s in range(m)
    ]
    return [
        min(same_size, key=lambda d: (-dim_exact(d), d.rows))
        for same_size in zip(*grown)
    ]
