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

Also provides the greedy walk, the shaking perturbation, and the
multi-branch heuristic built on top of both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .diagram import Box, YoungDiagram
from .dimension import dim_exact
from .errors import InvalidK, InvalidM, InvalidPath, NoCoreChild, NotAddable


@dataclass(frozen=True)
class TransitionEdge:
    box: Box
    probability: Fraction
    weight: float


def transition_prob(diagram: YoungDiagram, box) -> TransitionEdge:
    """Exact transition probability for adding one box, with -ln weight.

    Walks the runs of equal row lengths once: each run starts with an
    addable box (content r - i for a run of length r starting after
    row i) and ends with a corner; the new bottom row adds the addable
    box of content -k.  The weight is taken from the reduced fraction.
    """
    if not diagram.can_add(box):
        raise NotAddable(f"cannot add box {tuple(box)} to {diagram.rows}")
    x = box[1] - box[0]
    rows = diagram.rows
    num = den = 1
    prev = 0
    for i, r in enumerate(rows):
        if r != prev:
            if i:
                num *= x - prev + i
            if r - i != x:
                den *= x - r + i
            prev = r
    k = len(rows)
    if k:
        num *= x - prev + k
    if x != -k:
        den *= x + k
    p = Fraction(num, den)
    weight = math.log(p.denominator) - math.log(p.numerator)
    return TransitionEdge(Box(*box), p, weight)


def transition_edges(
    diagram: YoungDiagram, restrict_core: bool = False
) -> list[TransitionEdge]:
    """Edges for every addable box, best first.

    Ordered by exact probability descending (equivalently, child
    dimension descending), ties by ascending (row, col).  With
    restrict_core, only boxes whose addition stays inside the core
    subgraph are kept; NoCoreChild is raised when none do.
    """
    edges = []
    for b in diagram.addable_boxes():
        if restrict_core and not diagram.add_box(b).in_core_subgraph():
            continue
        edges.append(transition_prob(diagram, b))
    if restrict_core and not edges:
        raise NoCoreChild(f"no core-subgraph child for {diagram.rows}")
    # addable_boxes ascends by (row, col) and a reversed sort is stable
    edges.sort(key=lambda e: e.probability, reverse=True)
    return edges


@dataclass(frozen=True)
class GrowthPath:
    """An ordered list of box additions from a start diagram."""

    start: YoungDiagram
    steps: tuple[Box, ...]


def path_cost(path: GrowthPath) -> float:
    """Sum of edge weights along the path.

    Every prefix must stay a valid diagram.  For a path from the empty
    diagram the total equals ln(n!) - ln(dim(final)).
    """
    cur = path.start
    total = 0.0
    for b in path.steps:
        try:
            edge = transition_prob(cur, b)
        except NotAddable as exc:
            raise InvalidPath(f"step {tuple(b)} invalid after {cur.rows}") from exc
        total += edge.weight
        cur = cur.add_box(b)
    return total


def greedy_step(
    diagram: YoungDiagram, restrict_core: bool = False, *, mirror_ties: bool = False
) -> TransitionEdge:
    """The maximum-probability edge, compared with exact rationals.

    Ties break toward the ascending (row, col) smallest box; mirror_ties
    flips the tie-break to (col, row), which is the conjugate convention.
    """
    edges = transition_edges(diagram, restrict_core)
    if mirror_ties:
        return min(edges, key=lambda e: (-e.probability, (e.box.col, e.box.row)))
    return edges[0]


def greedy_grow(
    start: YoungDiagram,
    target: int,
    restrict_core: bool = False,
    *,
    mirror_ties: bool = False,
) -> list[YoungDiagram]:
    """Greedy growth from start up to the target size, inclusive of both."""
    if target < start.size:
        raise InvalidPath(f"target {target} below start size {start.size}")
    out = [start]
    cur = start
    while cur.size < target:
        cur = cur.add_box(greedy_step(cur, restrict_core, mirror_ties=mirror_ties).box)
        out.append(cur)
    return out


def greedy_sequence(
    n: int, restrict_core: bool = False, *, mirror_ties: bool = False
) -> list[YoungDiagram]:
    """Greedy sequence from the one-box diagram: sizes 1 through n."""
    if n < 1:
        raise InvalidPath(f"sequence length must be at least 1, got {n}")
    return greedy_grow(
        YoungDiagram([1]), n, restrict_core, mirror_ties=mirror_ties
    )


def _removal_ranking(diagram: YoungDiagram) -> list[Box]:
    """Corners ordered by the dimension left after removal, weakest first."""
    return sorted(
        diagram.removable_boxes(),
        key=lambda c: (dim_exact(diagram.remove_box(c)), c),
    )


def shake(diagram: YoungDiagram, k: int) -> YoungDiagram:
    """Add the k most probable boxes, then drop the k weakest corners.

    The result has the original size but usually a different shape.  No
    dimension guarantee is made; shaking can lower it.
    """
    if not 1 <= k <= diagram.size:
        raise InvalidK(f"k must be in 1..{diagram.size}, got {k}")
    cur = diagram
    for _ in range(k):
        cur = cur.add_box(greedy_step(cur).box)
    for _ in range(k):
        cur = cur.remove_box(_removal_ranking(cur)[0])
    return cur


def shake_variant(diagram: YoungDiagram, k: int, m: int, seed: int) -> YoungDiagram:
    """Shake, but draw each step uniformly from the m best candidates.

    Seeded and fully deterministic; m = 1 reproduces shake exactly.
    """
    if not 1 <= k <= diagram.size:
        raise InvalidK(f"k must be in 1..{diagram.size}, got {k}")
    if m < 1:
        raise InvalidM(f"m must be at least 1, got {m}")
    rng = random.Random(seed)
    cur = diagram
    for _ in range(k):
        pool = transition_edges(cur)[:m]
        cur = cur.add_box(pool[rng.randrange(len(pool))].box)
    for _ in range(k):
        ranked = _removal_ranking(cur)
        pool = ranked[: min(m, len(ranked))]
        cur = cur.remove_box(pool[rng.randrange(len(pool))])
    return cur


def branches(
    diagram: YoungDiagram, m: int, k: int, target: int, *, seed_base: int = 0
) -> list[YoungDiagram]:
    """Best-per-size over m greedy branches started from shaken variants.

    Branch s starts from shake_variant(diagram, k, m, seed=seed_base+s);
    k = 0 skips shaking and every branch starts from the diagram itself.
    The result holds one diagram per size from size(diagram) to target,
    the best by exact dimension with lexicographically smallest rows on
    ties.
    """
    if m < 1:
        raise InvalidM(f"m must be at least 1, got {m}")
    if target < diagram.size:
        raise InvalidPath(f"target {target} below start size {diagram.size}")
    starts = [
        diagram if k == 0 else shake_variant(diagram, k, m, seed=seed_base + s)
        for s in range(m)
    ]
    grown = [greedy_grow(s, target) for s in starts]
    return [
        min(same_size, key=lambda d: (-dim_exact(d), d.rows))
        for same_size in zip(*grown)
    ]
