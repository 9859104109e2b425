"""Dimension of the irreducible representation attached to a diagram.

The dimension of a diagram with n boxes equals the number of standard
tableaux of that shape, computed exactly as n! divided by the product of
all hook lengths.  Two independent slow oracles (corner recursion and
direct tableau enumeration) are provided for cross-checking, plus a
log-domain variant for sizes where the integers get unwieldy.  The
ratio dim(diagram + box) / dim(diagram) is not computed here: it is
(n + 1) times the transition probability, which `plancherel` computes
from box contents without any hook lengths.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .diagram import YoungDiagram
from .errors import EmptyDiagramError, NonDivisibleHookProduct, SizeBoundExceeded


def hook_product(diagram: YoungDiagram) -> int:
    conj = diagram.conjugate_rows()
    p = 1
    for i, r in enumerate(diagram.rows, 1):
        for j in range(1, r + 1):
            p *= r - j + conj[j - 1] - i + 1
    return p


def dim_exact(diagram: YoungDiagram) -> int:
    """Exact dimension as an arbitrary-precision integer.

    The division of n! by the hook product must be exact; a nonzero
    remainder would mean the hook bookkeeping is broken, so it raises
    instead of truncating.
    """
    n = diagram.size
    if n == 0:
        return 1
    q, rem = divmod(math.factorial(n), hook_product(diagram))
    if rem:
        raise NonDivisibleHookProduct(
            f"hook product does not divide {n}! for {diagram.rows}"
        )
    return q


@lru_cache(maxsize=None)
def _count_by_corner_removal(rows: tuple[int, ...]) -> int:
    if not rows:
        return 1
    total = 0
    k = len(rows)
    for i in range(k):
        if i == k - 1 or rows[i + 1] < rows[i]:
            if rows[i] == 1:
                reduced = rows[:i]
            else:
                reduced = rows[:i] + (rows[i] - 1,) + rows[i + 1 :]
            total += _count_by_corner_removal(reduced)
    return total


def dim_recursive(diagram: YoungDiagram, max_size: int = 40) -> int:
    """Dimension by summing over removable corners, memoized.

    Independent of the hook formula.  The memo is keyed by the row tuple
    and shared between calls; the size cap keeps it bounded.
    """
    if diagram.size > max_size:
        raise SizeBoundExceeded(
            f"size {diagram.size} above recursion bound {max_size}"
        )
    return _count_by_corner_removal(diagram.rows)


def count_syt_enumeration(diagram: YoungDiagram, max_size: int = 12) -> int:
    """Dimension by enumerating every standard filling one at a time.

    Exponential and unmemoized on purpose: it is the ground-truth oracle
    the faster routines are tested against.
    """
    n = diagram.size
    if n > max_size:
        raise SizeBoundExceeded(f"size {n} above enumeration bound {max_size}")
    rows = diagram.rows
    k = len(rows)
    fill = [0] * k

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for i in range(k):
            if fill[i] < rows[i] and (i == 0 or fill[i - 1] > fill[i]):
                fill[i] += 1
                total += place(value + 1)
                fill[i] -= 1
        return total

    return place(1)


@lru_cache(maxsize=None)
def log_factorial(n: int) -> float:
    """Compensated sum of ln(m) for m = 1..n."""
    return math.fsum(math.log(m) for m in range(1, n + 1))


def log_dim(diagram: YoungDiagram) -> float:
    """Natural log of the dimension via compensated summation."""
    conj = diagram.conjugate_rows()
    hooks = []
    for i, r in enumerate(diagram.rows, 1):
        for j in range(1, r + 1):
            hooks.append(math.log(r - j + conj[j - 1] - i + 1))
    return log_factorial(diagram.size) - math.fsum(hooks)


def normalized_dim(diagram: YoungDiagram) -> float:
    """Scale-free dimension score; smaller means larger dimension.

    For a diagram of size n this is (-1/sqrt(n)) * ln(dim / sqrt(n!)).
    """
    n = diagram.size
    if n == 0:
        raise EmptyDiagramError("normalized dimension undefined for the empty diagram")
    # + 0.0 turns IEEE -0.0 into 0.0 for the n = 1 case
    return (-1.0 / math.sqrt(n)) * (log_dim(diagram) - 0.5 * log_factorial(n)) + 0.0

