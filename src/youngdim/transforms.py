"""Shape transforms that move asymmetric boxes across the main diagonal.

A diagram splits into its base subdiagram (the largest symmetric part)
plus asymmetric boxes above and below the diagonal.  When no row and no
column carries two asymmetric boxes, reflecting every below-diagonal
asymmetric box to its mirror position yields a valid diagram whose
dimension is strictly larger whenever both sides were occupied.  The
closed-form hook accounting behind that fact is checkable box by box,
and `check_reflection_hook_identities` does exactly that.

`balance` is the generalized move: it shifts half of a row/column
imbalance from the taller column onto its row.  `balance_to_core`
iterates such moves until the diagram (or its conjugate) lands in the
core subgraph; the dimension is expected, but not proven, to rise.

`symmetrize` and balancing work on the rows and conjugate tuples (a
conjugate from scratch is `diagram._conj`), boxes are plain (row, col)
pairs, and nothing computes a dimension until its report.  The balance
sweep reads every partition of a size with its exact dimension from
`oracle.all_dimensions`, one size at a time, so it computes no hook
products and holds no other size.  The other two sweeps enumerate no
partitions: the hook sweep lists the symmetric bases from their
diagonal hook lengths, with their box pairs from `diagram._runs`, and
the symmetrize sweep builds from them only the diagrams it checks (a
base plus one box of some of its mirror pairs), with two hook products
each.  The reports and tallies are immutable `NamedTuple`s: the
symmetrize and balance sweeps count into locals and build their tally
once, at the end.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import NamedTuple

from .diagram import YoungDiagram, _bad_rows, _conj, _runs
from .dimension import dim_exact
from .errors import (
    AsymmetricBoxesNotIsolated,
    BalanceNotApplicable,
    DegenerateOverlap,
    InvalidResultShape,
    InvariantViolation,
    NotAddable,
    ShapeBlocked,
)
from .oracle import _check_size, _partition_counts, all_dimensions


class TransformReport(NamedTuple):
    input: YoungDiagram
    output: YoungDiagram
    dim_input: int
    dim_output: int
    strict_expected: bool


def _report(
    diagram: YoungDiagram, output: YoungDiagram, strict: bool = False
) -> TransformReport:
    """A transform's report: the two diagrams and their exact dimensions."""
    return TransformReport(
        input=diagram,
        output=output,
        dim_input=dim_exact(diagram),
        dim_output=dim_exact(output),
        strict_expected=strict,
    )


def _symmetrized(rows, conj) -> tuple[tuple[int, ...], bool]:
    """Output rows of `symmetrize` and its strict flag.

    The asymmetric boxes must be isolated.  Row i then carries one
    asymmetric box exactly when rows_i == conj_i + 1, at column rows_i,
    below the diagonal when rows_i < i and above it otherwise.  Each
    below box (i, rows_i) moves to its mirror (rows_i, i).  The output
    is strict when both sides were occupied.
    """
    out = list(rows)
    width = len(conj)
    up = down = False
    for i, r in enumerate(rows, 1):
        if r != (conj[i - 1] if i <= width else 0) + 1:
            continue
        if r < i:
            out[i - 1] -= 1
            out[r - 1] += 1
            down = True
        else:
            up = True
    while out and out[-1] == 0:
        out.pop()
    if any(a < b for a, b in zip(out, out[1:])):
        raise InvalidResultShape(f"reflected rows are not a diagram: {out}")
    return tuple(out), up and down


def symmetrize(diagram: YoungDiagram) -> TransformReport:
    """Reflect all below-diagonal asymmetric boxes above the diagonal.

    Requires every row and column to hold at most one asymmetric box.
    With nothing below the diagonal the output is the input itself; with
    nothing above it the output is the conjugate, at equal dimension.
    When both sides are occupied the output dimension is strictly
    larger, and the report's strict_expected flag records that claim.
    """
    if not diagram.has_isolated_asymmetric_boxes():
        raise AsymmetricBoxesNotIsolated(
            f"a row or column of {diagram.rows} carries two asymmetric boxes"
        )
    rows, strict = _symmetrized(diagram.rows, diagram.conjugate_rows())
    return _report(diagram, YoungDiagram._from_valid(rows), strict)


def _expected_hooks(k: int, l: int, t: int, s: int):
    """Closed-form hook values for the four pivot boxes.

    Returns (boxes, before, after): the pivot boxes, their hooks in the
    diagram holding the below-diagonal box, and their hooks after that
    box is reflected above the diagonal.
    """
    if k < s:
        boxes = ((s, k), (t, k), (k, s), (k, t))
        before = (l - s + t - k - 1, l - t + s - k, t - k + l - s + 1, s - k + l - t)
        after = (l - s + t - k, l - t + s - k - 1, t - k + l - s, l - t + s - k + 1)
    else:
        boxes = ((s, k), (l, s), (k, s), (s, l))
        before = (l - s + t - k - 1, t - l + k - s, t - k + l - s + 1, k - s + t - l)
        after = (l - s + t - k, t - l + k - s - 1, t - k + l - s, k - s + t - l + 1)
    return boxes, before, after


def _grown(rows, *lines) -> list[int]:
    """Rows (or conj) padded with a zero, plus one box on each given line."""
    out = [*rows, 0]
    for i in lines:
        out[i - 1] += 1
    return out


def check_reflection_hook_identities(base: YoungDiagram, upper, lower) -> bool:
    """Verify the hook accounting for one above/below box pair.

    `base` must be symmetric, `upper` = (k, l) with k < l and `lower` =
    (t, s) with t > s must both be addable to it.  The function builds,
    from the base's rows, the rows and conjugate of the diagram with both
    boxes and of the one with the lower box reflected, then checks that
    the four pivot hooks match their closed forms in both shapes and
    that the pivot hook product strictly drops, which is what makes the
    reflected diagram's dimension strictly larger.
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

    # The checks above keep the two boxes, and the lower box's mirror
    # (s, t), in different rows and columns, so each adds one to its
    # row and its column.  The base is symmetric: its rows are its conj.
    low_rows, low_conj = _grown(base.rows, k, t), _grown(base.rows, l, s)
    ref_rows, ref_conj = _grown(base.rows, k, s), _grown(base.rows, l, t)
    boxes, before, after = _expected_hooks(k, l, t, s)

    # hook(r, c) = rows_r - c + conj_c - r + 1
    if any(
        low_rows[r - 1] + low_conj[c - 1] - r - c + 1 != b
        or ref_rows[r - 1] + ref_conj[c - 1] - r - c + 1 != a
        for (r, c), b, a in zip(boxes, before, after)
    ):
        return False
    return math.prod(after) < math.prod(before)


def _balanced(rows, conj, index) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (rows, conj) after one `balance` move, without its report."""
    if index < 1:
        raise ValueError(f"line index must be at least 1, got {index}")
    c = conj[index - 1] if index <= len(conj) else 0
    r = rows[index - 1] if index <= len(rows) else 0
    if c <= r:
        raise BalanceNotApplicable(
            f"column {index} (height {c}) does not exceed row {index} (length {r})"
        )
    moves = (c - r + 1) // 2
    low = c - moves
    # a row's box in column index is a corner once the row ends there, below
    # the height of column index + 1; in column 1 the emptied rows go
    reach = conj[index] if index < len(conj) else 0
    top = max(low, reach)
    rows = rows[:top] + ((index - 1,) * (c - top) if index > 1 else ()) + rows[c:]
    if reach > low:
        stuck = YoungDiagram._from_valid(rows)
        raise ShapeBlocked(f"box {(reach, index)} is not a removable corner", diagram=stuck)
    conj = conj[: index - 1] + ((low,) if low else ()) + conj[index:]
    # the row then grows while the row above it is longer
    above = rows[index - 2] if 1 < index <= len(rows) + 1 else 0
    end = r + moves if index == 1 else min(r + moves, above)
    rows = rows[: index - 1] + (end,) + rows[index:] if end else rows
    if end < r + moves:
        stuck = YoungDiagram._from_valid(rows)
        raise ShapeBlocked(f"box {(index, end + 1)} is not addable", diagram=stuck)
    conj = conj[:r] + (index,) * moves + conj[end:]
    new_d = (conj[index - 1] if index <= len(conj) else 0) - rows[index - 1]
    if new_d not in (0, -1):
        raise InvariantViolation(f"balance left difference {new_d} at line {index}")
    return rows, conj


def balance(diagram: YoungDiagram, index: int) -> TransformReport:
    """Move half of a column's excess over its row onto that row.

    With c the height of column `index` and r the length of row `index`,
    requires d = c - r > 0 and moves ceil(d / 2) boxes from the top of
    the column to the end of the row, one corner at a time.  Any step
    that would pass through an invalid shape raises ShapeBlocked with
    the stuck diagram attached.
    """
    rows, conj = _balanced(diagram.rows, diagram.conjugate_rows(), index)
    return _report(diagram, YoungDiagram._from_valid(rows, conj))


def balance_to_core(diagram: YoungDiagram) -> TransformReport:
    """Iterate balance rounds until the core subgraph is reached.

    Each round walks the line indices in ascending order and applies
    every unblocked move in place: a line whose column is taller is
    balanced directly, a line whose row is longer through the
    conjugate.  Membership is tested between rounds, not between the
    moves of one round; stopping inside a round on the first membership
    hit is what produces endpoint dimension drops, since a single move
    can land in the core one step below a much better round result.
    Raises ShapeBlocked when a round makes no move or the round results
    cycle.  The dimension is expected to never drop input to output,
    but that is measured by the sweeps, not asserted here.
    """
    rows = _to_core(diagram.rows, diagram.conjugate_rows())
    return _report(diagram, diagram if rows == diagram.rows else YoungDiagram._from_valid(rows))


def _to_core(rows: tuple[int, ...], conj: tuple[int, ...]) -> tuple[int, ...]:
    """The end rows of `balance_to_core`, without its report."""
    seen = {rows}
    while _bad_rows(rows, conj) and _bad_rows(conj, rows):
        moved = False
        for i in range(1, max(len(rows), len(conj)) + 1):
            c = conj[i - 1] if i <= len(conj) else 0
            d = c - (rows[i - 1] if i <= len(rows) else 0)
            try:
                if d >= 1:
                    rows, conj = _balanced(rows, conj, i)
                elif d <= -1:
                    conj, rows = _balanced(conj, rows, i)
                else:
                    continue
            except ShapeBlocked:
                continue
            moved = True
        if not moved or rows in seen:
            why = "balance rounds cycled" if moved else "no balance step applies"
            raise ShapeBlocked(why, diagram=YoungDiagram._from_valid(rows, conj))
        seen.add(rows)
    return rows


class ReflectionSweep(NamedTuple):
    """Tally of an exhaustive symmetrize run over all diagrams of a size range."""

    checked: int
    strict: int
    equal: int
    skipped: int
    violations: list


def symmetrize_sweep(max_n: int) -> ReflectionSweep:
    """Symmetrize every diagram of every size up to max_n.

    Only the diagrams whose asymmetric boxes are isolated are built
    (`_isolated_partitions`), one size at a time; the rest of the p(n)
    partitions of each size count as skipped.  Each output and strict
    flag come from `_symmetrized`, and both dimensions from `dim_exact`.
    A violation is any strict case that fails to increase the dimension
    or any non-strict case whose dimension changes at all.
    """
    _check_size(max_n)
    counts = _partition_counts(max_n)
    checked = strict_count = equal = skipped = 0
    violations = []
    for n in range(1, max_n + 1):
        isolated = _isolated_partitions(n)
        checked += len(isolated)
        skipped += counts[n] - len(isolated)
        for rows in isolated:
            lam = YoungDiagram._from_valid(rows)
            out, strict = _symmetrized(rows, lam.conjugate_rows())
            dim_in = dim_exact(lam)
            dim_out = dim_exact(YoungDiagram._from_valid(out))
            ok = dim_out > dim_in if strict else dim_out == dim_in
            if not ok:
                violations.append((rows, out, dim_in, dim_out))
            elif dim_out > dim_in:
                strict_count += 1
            else:
                equal += 1
    return ReflectionSweep(checked, strict_count, equal, skipped, violations)


def _symmetric_partitions(n: int) -> list[tuple[int, ...]]:
    """Every symmetric partition of n, in descending lexicographic order.

    A symmetric partition is fixed by its diagonal hook lengths
    h_1 > ... > h_d, distinct odd parts of n: row i <= d has length
    i + (h_i - 1) / 2, and each row j below the Durfee square mirrors
    column j of the top rows, read from their conjugate.
    """
    out = []
    # (boxes left, largest hook allowed, top rows so far)
    stack = [(n, n, ())]
    while stack:
        left, cap, top = stack.pop()
        if not left:
            out.append(top + _conj(top)[len(top):])
            continue
        for h in range(min(cap, left), 0, -1):
            if h % 2:
                stack.append((left - h, h - 2, top + (len(top) + 1 + h // 2,)))
    out.sort(reverse=True)
    return out


def _isolated_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n with isolated asymmetric boxes, in descending order.

    Such a diagram is its symmetric base S plus, for each of k of S's
    upper addable boxes (i, j), i < j, either that box or its mirror
    (j, i): holding both would make the base larger, and the boxes of
    two pairs share no row or column.  So it is built from every
    symmetric partition of n - k.  Only the mirror of (1, S_1 + 1)
    starts a new row, since S_1 is S's row count.
    """
    out = []
    for k in range(n):
        for base in _symmetric_partitions(n - k):
            uppers = [(i, j) for i, j in _runs(base)[0] if i < j]
            for chosen in combinations(uppers, k):
                # each chosen (i, j) grows row i, or row j for its mirror
                for grown in product(*chosen):
                    rows = list(base) + [0]
                    for i in grown:
                        rows[i - 1] += 1
                    out.append(tuple(rows) if rows[-1] else tuple(rows[:-1]))
    out.sort(reverse=True)
    return out


def reflection_hooks_sweep(max_base_size: int) -> tuple[int, list]:
    """Check the hook identities for every valid pair over every symmetric base.

    Returns (pairs checked, failures).  Mirror-image pairs are skipped as
    degenerate.  Bases start at one box: the empty base has only the
    diagonal box (1, 1) addable, so it has no pair.  The bases of each
    size come from `_symmetric_partitions`, in the order
    `oracle.all_dimensions` lists them.
    """
    _check_size(max_base_size, lo=0)
    checked = 0
    failures = []
    for n in range(1, max_base_size + 1):
        for rows in _symmetric_partitions(n):
            base = YoungDiagram._from_valid(rows, rows)
            addable = _runs(rows)[0]
            uppers = [(i, j) for i, j in addable if i < j]
            lowers = [(i, j) for i, j in addable if i > j]
            for u in uppers:
                for w in lowers:
                    if u[0] == w[1]:
                        continue
                    checked += 1
                    if not check_reflection_hook_identities(base, u, w):
                        failures.append((rows, u, w))
    return checked, failures


class BalanceSweep(NamedTuple):
    """Tally of an exhaustive balance_to_core run."""

    checked: int
    increased: int
    equal: int
    decreased: list
    blocked: list


def balance_sweep(max_n: int) -> BalanceSweep:
    """Run balance_to_core on every diagram of every size up to max_n."""
    _check_size(max_n)
    checked = increased = equal = 0
    decreased = []
    blocked = []
    for n in range(1, max_n + 1):
        dims = all_dimensions(n)
        checked += len(dims)
        for rows, dim_in in dims.items():
            try:
                out = _to_core(rows, _conj(rows))
            except ShapeBlocked as exc:
                blocked.append((rows, exc.diagram.rows))
                continue
            dim_out = dims[out]
            if dim_out > dim_in:
                increased += 1
            elif dim_out == dim_in:
                equal += 1
            else:
                decreased.append((rows, out, dim_in, dim_out))
    return BalanceSweep(checked, increased, equal, decreased, blocked)
