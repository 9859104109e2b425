import math
from fractions import Fraction

import pytest
from hypothesis import given

from youngdim import (
    Box,
    YoungDiagram,
    count_syt_enumeration,
    dim_exact,
    dim_recursive,
    log_dim,
    log_factorial,
    normalized_dim,
    partitions,
    transition_prob,
)
from youngdim.errors import EmptyDiagramError, NotAddable, SizeBoundExceeded

from conftest import hook_ratio, partition_diagrams, random_diagram

KNOWN_DIMS = {
    (): 1,
    (1,): 1,
    (5,): 1,
    (1, 1, 1, 1): 1,
    (2, 1): 2,
    (2, 2): 2,
    (3, 1): 3,
    (2, 1, 1): 3,
    (3, 1, 1): 6,
    (2, 2, 1): 5,
    (3, 2, 1): 16,
    (3, 2, 2): 21,
    (3, 3, 1): 21,
    (4, 2, 1): 35,
    (3, 2, 1, 1): 35,
    (4, 2, 2): 56,
    (4, 3, 1): 70,
    (5, 2, 1): 64,
    (4, 2, 1, 1): 90,
    (4, 3, 2, 1): 768,
}


def test_dim_exact_known_values():
    for rows, expected in KNOWN_DIMS.items():
        assert dim_exact(YoungDiagram(rows)) == expected, rows


def test_dim_recursive_known_values():
    assert dim_recursive(YoungDiagram([1, 1])) == 1
    assert dim_recursive(YoungDiagram([2, 2])) == 2
    for rows, expected in KNOWN_DIMS.items():
        assert dim_recursive(YoungDiagram(rows)) == expected, rows


def test_dim_recursive_size_bound():
    tall = YoungDiagram([1] * 41)
    with pytest.raises(SizeBoundExceeded):
        dim_recursive(tall)
    assert dim_recursive(tall, max_size=41) == 1


def test_count_syt_enumeration_known_values():
    assert count_syt_enumeration(YoungDiagram([2, 1])) == 2
    assert count_syt_enumeration(YoungDiagram([1])) == 1
    assert count_syt_enumeration(YoungDiagram([2, 2, 1])) == 5
    with pytest.raises(SizeBoundExceeded):
        count_syt_enumeration(YoungDiagram([7, 6]))


def test_three_oracles_agree_small():
    for n in range(0, 9):
        for lam in partitions(n):
            d = dim_exact(lam)
            assert dim_recursive(lam) == d
            assert count_syt_enumeration(lam) == d


@given(partition_diagrams())
def test_conjugate_preserves_dimension(d):
    assert dim_exact(d) == dim_exact(d.conjugate())


def test_sum_of_squares_identity_spot():
    for n in (1, 5, 9, 12):
        assert sum(dim_exact(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


def test_log_dim_known_values():
    assert log_dim(YoungDiagram([1])) == 0.0
    assert abs(log_dim(YoungDiagram([2, 1])) - math.log(2)) < 1e-12
    assert abs(log_dim(YoungDiagram([3, 2, 1])) - math.log(16)) < 1e-12


def test_log_dim_tracks_exact(rng):
    for _ in range(60):
        lam = random_diagram(rng.randrange(1, 61), rng)
        exact = dim_exact(lam)
        rel = abs(log_dim(lam) - math.log(exact)) / max(1.0, abs(math.log(exact)))
        assert rel <= 1e-9


def test_log_factorial_matches_math():
    for n in (0, 1, 2, 7, 40, 170, 300):
        assert abs(log_factorial(n) - math.lgamma(n + 1)) < 1e-9 * max(
            1.0, math.lgamma(n + 1)
        )


def test_normalized_dim_known_values():
    assert normalized_dim(YoungDiagram([1])) == 0.0
    assert abs(normalized_dim(YoungDiagram([2])) - math.log(2) / (2 * math.sqrt(2))) < 1e-12
    # (-1/sqrt(3)) * ln(2/sqrt(6))
    expected = (-1 / math.sqrt(3)) * (math.log(2) - 0.5 * math.log(6))
    assert abs(normalized_dim(YoungDiagram([2, 1])) - expected) < 1e-12
    with pytest.raises(EmptyDiagramError):
        normalized_dim(YoungDiagram([]))


def test_normalized_dim_orders_like_exact_dim():
    for n in (5, 8, 11):
        lams = list(partitions(n))
        by_c = sorted(lams, key=lambda l: (normalized_dim(l), l.rows))
        by_dim = sorted(lams, key=lambda l: (-dim_exact(l), l.rows))
        # orderings agree up to exact-dimension ties
        assert [dim_exact(l) for l in by_c] == [dim_exact(l) for l in by_dim]


def test_hook_ratio_oracle_known_values():
    assert hook_ratio(YoungDiagram([]), Box(1, 1)) == 1
    assert hook_ratio(YoungDiagram([2]), Box(2, 1)) == 2
    assert hook_ratio(YoungDiagram([2, 1]), Box(1, 3)) == Fraction(3, 2)
    with pytest.raises(NotAddable):
        hook_ratio(YoungDiagram([2]), Box(1, 2))


def test_hook_ratio_oracle_random_identity(rng):
    for _ in range(120):
        lam = random_diagram(rng.randrange(1, 41), rng)
        b = rng.choice(lam.addable_boxes())
        ratio = hook_ratio(lam, b)
        assert ratio * dim_exact(lam) == dim_exact(lam.add_box(b))
        weight = transition_prob(lam, b).weight
        assert abs(weight + math.log(ratio / (lam.size + 1))) < 1e-9
