"""Young diagrams as immutable integer partitions with box-level geometry.

Coordinates are 1-based (row, col) pairs.  Rows are indexed top to bottom
and row lengths are non-increasing, so a box (i, j) lies above the main
diagonal when i < j and below it when i > j.  Instances never change
value; every operation returns a new one, which keeps them safe to use
as cache keys and to share between search nodes.  A diagram caches its
conjugate, read from the run walk's corners (`_conj`), and, once known,
its exact dimension.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple

from .errors import (
    BoxOutsideDiagram,
    InvariantViolation,
    NegativeRowLength,
    NonMonotoneRows,
    NotAddable,
    NotRemovable,
)


class Box(NamedTuple):
    """A single cell, 1-based.  Tuples sort ascending by (row, col)."""

    row: int
    col: int


def _core_row_ok(i: int, r: int, c: int) -> bool:
    """The core-subgraph test for row i of length r over column height c."""
    return r <= c or (r == c + 1 and r < i)


def _core_ok(rows: tuple[int, ...], conj: tuple[int, ...], r: int, c: int) -> bool:
    """Whether adding addable box (r, c) keeps a core diagram in the core subgraph.

    Adding (r, c) changes only row r (to length c) and column c (to
    height r), so the child is in the core exactly when rows r and c
    pass the row rule there; a diagonal box always does.
    """
    return r == c or (
        _core_row_ok(r, c, conj[r - 1] if r <= len(conj) else 0)
        and _core_row_ok(c, rows[c - 1] if c <= len(rows) else 0, r)
    )


def _bad_rows(rows: tuple[int, ...], conj: tuple[int, ...]) -> list[int]:
    """The rows of a diagram that fail the core test, 1-based; none in the core."""
    k = len(rows)
    width = len(conj)
    bad = [
        i
        for i, r, c in zip(range(1, k + 1), rows, conj)
        if not _core_row_ok(i, r, c)
    ]
    # rows past the width have conj_i = 0 and fail only when longer than 1
    bad += [i for i in range(width + 1, k + 1) if rows[i - 1] > 1]
    return bad


def _runs(rows: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The addable boxes and the corners of a diagram, as (row, col), top row first.

    One pass over the runs of equal row lengths: a run of length r
    after row i starts with the addable box (i + 1, r + 1) and ends
    with a corner in its last row; the new bottom row adds the
    addable box (k + 1, 1).
    """
    k = len(rows)
    addables = []
    corners = []
    prev = 0
    for i, r in enumerate(rows):
        if r != prev:
            if i:
                corners.append((i, prev))
            addables.append((i + 1, r + 1))
            prev = r
    if k:
        corners.append((k, prev))
    addables.append((k + 1, 1))
    return addables, corners


def _conj(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate: column j's height is the last row of length at least j,
    so each corner (i, r), bottom first, sets columns up to r still unset."""
    conj = ()
    for i, r in reversed(_runs(rows)[1]):
        conj += (i,) * (r - len(conj))
    return conj


def reflected(box: Box) -> Box:
    """Mirror a box across the main diagonal."""
    return Box(box.col, box.row)


class YoungDiagram:
    """An integer partition together with the geometric queries used here.

    Equality and hashing go by the row tuple alone.  The conjugate row
    tuple and the exact dimension (`dim_exact`) are computed lazily and
    cached; the caches never affect equality.
    """

    def __init__(self, rows=()):
        cleaned = tuple(operator.index(r) for r in rows)
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        for r in cleaned:
            if r < 0:
                raise NegativeRowLength(f"negative row length {r}")
        for a, b in zip(cleaned, cleaned[1:]):
            if b > a:
                raise NonMonotoneRows(
                    f"row lengths must be non-increasing, got {a} before {b}"
                )
        self._rows = cleaned
        self._size = sum(cleaned)
        self._conj: tuple[int, ...] | None = None
        self._dim: int | None = None

    @classmethod
    def _from_valid(cls, rows: tuple[int, ...], conj=None, dim=None) -> "YoungDiagram":
        # Fast path for loops that already hold a valid tuple, and its
        # conjugate and exact dimension when they know them.
        d = cls.__new__(cls)
        d._rows = rows
        d._size = sum(rows)
        d._conj = conj
        d._dim = dim
        return d

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def size(self) -> int:
        return self._size

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, YoungDiagram):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self._rows)!r})"

    def __str__(self) -> str:
        return ",".join(str(r) for r in self._rows)

    def row_length(self, i: int) -> int:
        """Length of row i, zero when the row does not exist."""
        if 1 <= i <= len(self._rows):
            return self._rows[i - 1]
        return 0

    def conjugate_rows(self) -> tuple[int, ...]:
        if self._conj is None:
            self._conj = _conj(self._rows)
        return self._conj

    def col_height(self, j: int) -> int:
        """Height of column j, zero when the column does not exist."""
        conj = self.conjugate_rows()
        if 1 <= j <= len(conj):
            return conj[j - 1]
        return 0

    def conjugate(self) -> "YoungDiagram":
        """The diagram reflected across the main diagonal, same dimension."""
        return YoungDiagram._from_valid(self.conjugate_rows(), self._rows, self._dim)

    def is_symmetric(self) -> bool:
        return self._rows == self.conjugate_rows()

    def boxes(self) -> Iterator[Box]:
        for i, r in enumerate(self._rows, 1):
            for j in range(1, r + 1):
                yield Box(i, j)

    def __contains__(self, box) -> bool:
        r, c = box
        return 1 <= r <= len(self._rows) and 1 <= c <= self._rows[r - 1]

    def hook_length(self, box) -> int:
        """Arm plus leg plus one for a box of the diagram.

        The arm counts boxes to the right in the same row, the leg counts
        boxes further down the same column.
        """
        r, c = box
        if box not in self:
            raise BoxOutsideDiagram(f"box {(r, c)} outside diagram {self._rows}")
        return (self._rows[r - 1] - c) + (self.conjugate_rows()[c - 1] - r) + 1

    def addable_boxes(self) -> list[Box]:
        """Positions where one box can be appended, ascending by row.

        There is one position per distinct row length plus the new bottom
        row, so the list has (number of distinct row lengths + 1) entries.
        """
        return [Box(r, c) for r, c in _runs(self._rows)[0]]

    def removable_boxes(self) -> list[Box]:
        """Corner boxes (i, row_i) whose removal leaves a valid diagram."""
        return [Box(r, c) for r, c in _runs(self._rows)[1]]

    def can_add(self, box) -> bool:
        r, c = box
        return (r, c) in _runs(self._rows)[0]

    def can_remove(self, box) -> bool:
        r, c = box
        return (r, c) in _runs(self._rows)[1]

    def add_box(self, box) -> "YoungDiagram":
        if not self.can_add(box):
            raise NotAddable(f"cannot add box {tuple(box)} to {self._rows}")
        r, c = box
        return YoungDiagram._from_valid(self._rows[: r - 1] + (c,) + self._rows[r:])

    def remove_box(self, box) -> "YoungDiagram":
        if not self.can_remove(box):
            raise NotRemovable(f"cannot remove box {tuple(box)} from {self._rows}")
        r, c = box
        rows = self._rows
        # a corner in column 1 is the last row
        rows = rows[: r - 1] + (c - 1,) + rows[r:] if c > 1 else rows[:-1]
        return YoungDiagram._from_valid(rows)

    def base_subdiagram(self) -> "YoungDiagram":
        """The largest symmetric subdiagram: row-wise min with the conjugate."""
        # positive entries on both sides, and symmetric: its own conjugate
        mins = tuple(map(min, self._rows, self.conjugate_rows()))
        return YoungDiagram._from_valid(mins, mins)

    def asymmetric_boxes(self) -> tuple[frozenset[Box], frozenset[Box]]:
        """Boxes outside the base subdiagram, split into (above, below).

        Boxes on the main diagonal always belong to the base, which the
        loop checks rather than assumes.
        """
        base = self.base_subdiagram().rows
        up = set()
        down = set()
        for i, r in enumerate(self._rows, 1):
            b = base[i - 1] if i <= len(base) else 0
            for j in range(b + 1, r + 1):
                if j == i:
                    raise InvariantViolation("diagonal box escaped the base subdiagram")
                (up if j > i else down).add(Box(i, j))
        return frozenset(up), frozenset(down)

    def has_isolated_asymmetric_boxes(self) -> bool:
        """True when no row and no column carries two asymmetric boxes.

        Row i carries rows_i - conj_i asymmetric boxes when that is
        positive, and column i carries conj_i - rows_i, so the test is
        |rows_i - conj_i| <= 1 with both tuples padded by zeros.  Past
        the shorter tuple the longer one faces zeros, and it does not
        increase, so its first entry there decides.
        """
        rows, conj = self._rows, self.conjugate_rows()
        past = (rows if len(rows) > len(conj) else conj)[min(len(rows), len(conj)):]
        return (not past or past[0] <= 1) and all(
            -1 <= r - c <= 1 for r, c in zip(rows, conj)
        )

    def in_core_subgraph(self) -> bool:
        """Membership in the restricted growth graph used by the search.

        A diagram belongs to the core subgraph when every asymmetric box
        lies below the main diagonal and no two of them share a row:
        each row i has rows_i <= conj_i, or exactly one extra box
        (rows_i = conj_i + 1) in a column left of the diagonal
        (rows_i < i).  conj_i is zero past the width.
        """
        return not _bad_rows(self._rows, self.conjugate_rows())
