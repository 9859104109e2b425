import math
from fractions import Fraction

import pytest
from hypothesis import given

from youngdim import (
    Box,
    GrowthPath,
    YoungDiagram,
    branches,
    dim_exact,
    greedy_grow,
    greedy_sequence,
    greedy_step,
    partitions,
    path_cost,
    shake,
    shake_variant,
    transition_edges,
    transition_prob,
)
from youngdim.errors import (
    InvalidK,
    InvalidM,
    InvalidPath,
    NoCoreChild,
    NotAddable,
)

from conftest import hook_ratio, partition_diagrams, random_diagram, random_growth_path


def test_transition_prob_known_values():
    one = YoungDiagram([1])
    assert transition_prob(one, Box(1, 2)).probability == Fraction(1, 2)
    assert transition_prob(one, Box(2, 1)).probability == Fraction(1, 2)
    two = YoungDiagram([2])
    assert transition_prob(two, Box(1, 3)).probability == Fraction(1, 3)
    assert transition_prob(two, Box(2, 1)).probability == Fraction(2, 3)
    with pytest.raises(NotAddable):
        transition_prob(two, Box(3, 1))


def test_transition_weight_is_negative_log():
    edge = transition_prob(YoungDiagram([2]), Box(2, 1))
    assert abs(edge.weight - (-math.log(2 / 3))) < 1e-12
    assert edge.weight >= 0


def test_transition_probabilities_sum_to_one_exhaustive():
    for n in range(0, 13):
        for lam in partitions(n):
            total = sum(e.probability for e in transition_edges(lam))
            assert total == 1, lam.rows


def test_transition_prob_matches_hook_ratio_exhaustive():
    for n in range(0, 23):
        for lam in partitions(n):
            for b in lam.addable_boxes():
                want = hook_ratio(lam, b) / (n + 1)
                assert transition_prob(lam, b).probability == want, (lam.rows, b)


@given(partition_diagrams(max_n=80))
def test_transition_prob_matches_hook_ratio_large(d):
    for b in d.addable_boxes():
        edge = transition_prob(d, b)
        want = hook_ratio(d, b) / (d.size + 1)
        assert edge.probability == want
        assert edge.weight == math.log(want.denominator) - math.log(want.numerator)


@given(partition_diagrams())
def test_transition_conjugation_equivariance(d):
    for edge in transition_edges(d):
        mirrored = transition_prob(
            d.conjugate(), Box(edge.box.col, edge.box.row)
        )
        assert mirrored.probability == edge.probability


def test_transition_edges_are_best_first():
    for n in range(1, 13):
        for lam in partitions(n):
            edges = transition_edges(lam)
            assert sorted(e.box for e in edges) == sorted(lam.addable_boxes())
            keys = [(-e.probability, e.box) for e in edges]
            assert keys == sorted(keys)


def test_transition_edges_restrict_core():
    edges = transition_edges(YoungDiagram([1]), restrict_core=True)
    assert [e.box for e in edges] == [Box(2, 1)]
    with pytest.raises(NoCoreChild):
        transition_edges(YoungDiagram([3]), restrict_core=True)


def test_path_cost_known_values():
    empty = YoungDiagram(())
    assert path_cost(GrowthPath(empty, (Box(1, 1),))) == 0.0
    path = GrowthPath(empty, (Box(1, 1), Box(1, 2), Box(2, 1)))
    assert abs(path_cost(path) - (math.log(6) - math.log(2))) < 1e-10
    with pytest.raises(InvalidPath):
        path_cost(GrowthPath(empty, (Box(2, 1),)))


def test_path_cost_centrality_small(rng):
    # both orders into [2,1] cost the same
    empty = YoungDiagram(())
    a = path_cost(GrowthPath(empty, (Box(1, 1), Box(1, 2), Box(2, 1))))
    b = path_cost(GrowthPath(empty, (Box(1, 1), Box(2, 1), Box(1, 2))))
    assert abs(a - b) < 1e-10
    # and in general the cost only depends on the endpoint
    for _ in range(20):
        lam = random_diagram(rng.randrange(1, 26), rng)
        costs = [path_cost(random_growth_path(lam, rng)) for _ in range(8)]
        expected = math.lgamma(lam.size + 1) - math.log(dim_exact(lam))
        for c in costs:
            assert abs(c - expected) < 1e-8


def test_greedy_step_known_values():
    assert greedy_step(YoungDiagram([2])).box == Box(2, 1)
    assert greedy_step(YoungDiagram([1])).box == Box(1, 2)
    assert greedy_step(YoungDiagram([1]), restrict_core=True).box == Box(2, 1)
    assert greedy_step(YoungDiagram([1]), mirror_ties=True).box == Box(2, 1)


def test_greedy_sequence_known_values():
    seq = greedy_sequence(8)
    assert [s.rows for s in seq] == [
        (1,),
        (2,),
        (2, 1),
        (3, 1),
        (3, 1, 1),
        (3, 2, 1),
        (4, 2, 1),
        (4, 2, 1, 1),
    ]
    assert [s.rows for s in greedy_sequence(3)] == [(1,), (2,), (2, 1)]
    assert [s.rows for s in greedy_sequence(1)] == [(1,)]
    with pytest.raises(InvalidPath):
        greedy_sequence(0)


def test_greedy_mirror_ties_gives_conjugate_dims():
    left = greedy_sequence(12)
    right = greedy_sequence(12, mirror_ties=True)
    for a, b in zip(left, right):
        assert dim_exact(a) == dim_exact(b)


def test_greedy_grow_bounds():
    start = YoungDiagram([2, 1])
    seq = greedy_grow(start, 6)
    assert seq[0] == start and seq[-1].size == 6 and len(seq) == 4
    with pytest.raises(InvalidPath):
        greedy_grow(start, 2)


def test_greedy_restrict_core_stays_in_core():
    for lam in greedy_sequence(15, restrict_core=True):
        assert lam.in_core_subgraph()


def test_shake_known_trace():
    # add (1,3) (tied max prob, smallest box), then drop the corner whose
    # removal leaves the smallest dimension
    assert shake(YoungDiagram([2, 1]), 1).rows == (3,)
    with pytest.raises(InvalidK):
        shake(YoungDiagram([2, 1]), 0)
    with pytest.raises(InvalidK):
        shake(YoungDiagram([2, 1]), 4)


@given(partition_diagrams(max_n=12))
def test_shake_preserves_size(d):
    for k in (1, 2, 3):
        if k <= d.size:
            assert shake(d, k).size == d.size


def test_shake_variant_degenerate_and_deterministic():
    lam = YoungDiagram([3, 2, 1])
    for seed in (0, 7, 123):
        assert shake_variant(lam, 2, 1, seed) == shake(lam, 2)
    assert shake_variant(lam, 2, 2, 7) == shake_variant(lam, 2, 2, 7)
    assert shake_variant(lam, 2, 2, 7).size == lam.size
    with pytest.raises(InvalidM):
        shake_variant(lam, 1, 0, 0)
    with pytest.raises(InvalidK):
        shake_variant(lam, 0, 2, 0)


def test_branches_degenerate_is_greedy():
    lam = YoungDiagram([2, 1])
    out = branches(lam, 1, 0, 8)
    assert out == greedy_grow(lam, 8)


def test_branches_shape_and_dominance():
    lam = YoungDiagram([3, 2, 1])
    target = 12
    m, k = 4, 2
    best = branches(lam, m, k, target)
    assert len(best) == target - lam.size + 1
    assert [d.size for d in best] == list(range(lam.size, target + 1))
    # per-size best dominates every single branch
    for s in range(m):
        start = shake_variant(lam, k, m, seed=s)
        grown = greedy_grow(start, target)
        for picked, single in zip(best, grown):
            assert dim_exact(picked) >= dim_exact(single)
    with pytest.raises(InvalidM):
        branches(lam, 0, 1, 10)
    with pytest.raises(InvalidPath):
        branches(lam, 1, 1, 3)


def test_branches_seed_base_shifts_variants():
    lam = YoungDiagram([3, 2, 1])
    a = branches(lam, 3, 2, 10)
    b = branches(lam, 3, 2, 10, seed_base=0)
    assert a == b
