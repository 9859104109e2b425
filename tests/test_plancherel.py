import hashlib
import math
import random
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
    path_cost,
    shake_variant,
    transition_edges,
    transition_prob,
)
from youngdim.diagram import _core_ok
from youngdim.plancherel import (
    _contents,
    _core_edges,
    _grow,
    _grow_dim,
    _measure,
    _shrink_dim,
)
from youngdim.errors import (
    InvalidK,
    InvalidM,
    InvalidPath,
    InvariantViolation,
    NoCoreChild,
    NotAddable,
)

from conftest import (
    edges_by_children,
    greedy_by_edge_lists,
    hook_ratio,
    partition_diagrams,
    partitions,
    random_diagram,
    random_growth_path,
    shake_by_boxes,
)


def test_transition_prob_known_values():
    one = YoungDiagram([1])
    assert transition_prob(one, Box(1, 2)).probability == Fraction(1, 2)
    assert transition_prob(one, Box(2, 1)).probability == Fraction(1, 2)
    two = YoungDiagram([2])
    assert transition_prob(two, Box(1, 3)).probability == Fraction(1, 3)
    assert transition_prob(two, Box(2, 1)).probability == Fraction(2, 3)
    with pytest.raises(NotAddable, match=r"^cannot add box \(3, 1\) to \(2,\)$"):
        transition_prob(two, Box(3, 1))
    # a plain pair is read as a box; a malformed one is not
    assert transition_prob(two, (1, 3)) == transition_prob(two, Box(1, 3))
    assert type(transition_prob(two, (1, 3)).box) is Box
    with pytest.raises(ValueError, match="unpack"):
        transition_prob(two, (1, 3, 0))


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
    # a parent outside the core can still have a core child
    edges = transition_edges(YoungDiagram([2]), restrict_core=True)
    assert [e.box for e in edges] == [Box(2, 1)]
    with pytest.raises(NoCoreChild):
        transition_edges(YoungDiagram([3]), restrict_core=True)


def _edge_keys(diagram, restrict_core, edges_of):
    try:
        edges = edges_of(diagram, restrict_core)
    except NoCoreChild as exc:
        return ("NoCoreChild", str(exc))
    # bit-exact weights: compare their hex forms
    return [(e.box, e.probability, e.weight.hex()) for e in edges]


def test_transition_edges_match_child_loop_exhaustive():
    for n in range(0, 23):
        for lam in partitions(n):
            for restrict_core in (False, True):
                assert _edge_keys(lam, restrict_core, transition_edges) == _edge_keys(
                    lam, restrict_core, edges_by_children
                ), (lam.rows, restrict_core)


@given(partition_diagrams(max_n=80))
def test_transition_edges_match_child_loop_large(d):
    for restrict_core in (False, True):
        assert _edge_keys(d, restrict_core, transition_edges) == _edge_keys(
            d, restrict_core, edges_by_children
        )


def _assert_grown_measure_is_exact(d):
    addables, xs, corners = _measure(d.rows)
    for _, r, c, _, _ in addables:
        child = d.add_box(Box(r, c))
        crows, cconj = child.rows, child.conjugate_rows()
        full = _measure(crows)
        grown, scan = _grow(addables, xs, corners, r, c, 0, crows, cconj)
        # every (content, row, col, num, den), the contents and the corners
        assert grown == full, (d.rows, r, c)
        # without the child's rows the measure is the same and no scan is made
        assert _grow(addables, xs, corners, r, c) == (full, None)
        for _, gr, gc, num, den in grown[0]:
            edge = transition_prob(child, Box(gr, gc))
            assert Fraction(num, den) == edge.probability
            # the search's weight, bit for bit
            assert (math.log(den) - math.log(num)).hex() == edge.weight.hex()
        # every frozen mask over the child's addable rows drops exactly
        # those rows' entries, and xs and the corners stay whole; the
        # scan is every box that passes the per-box core test less the
        # frozen rows, and for a core child it holds exactly the live
        # boxes whose child is core
        live_rows = [e[1] for e in full[0]]
        full_scan = [
            (math.log(den) - math.log(num), gr, gc, num, den)
            for _, gr, gc, num, den in full[0]
            if _core_ok(crows, cconj, gr, gc)
        ]
        for bits in range(1 << len(live_rows)):
            frozen = sum(1 << row for j, row in enumerate(live_rows) if bits >> j & 1)
            want = [e for e in full[0] if not frozen >> e[1] & 1]
            grown, scan = _grow(addables, xs, corners, r, c, frozen, crows, cconj)
            assert grown == (want, *full[1:]), (d.rows, r, c, frozen)
            assert scan == [e for e in full_scan if not frozen >> e[1] & 1], (
                d.rows, r, c, frozen
            )
            if child.in_core_subgraph():
                assert [e[1:3] for e in scan] == [
                    (gr, gc)
                    for _, gr, gc, _, _ in want
                    if child.add_box(Box(gr, gc)).in_core_subgraph()
                ], (d.rows, r, c, frozen)


def _core_children(d):
    # (weight hex, row, col, num, den) of every box whose child is core,
    # in the measure's order, from the per-child test and `transition_prob`
    out = []
    for _, r, c, _, _ in _measure(d.rows)[0]:
        if d.add_box(Box(r, c)).in_core_subgraph():
            edge = transition_prob(d, Box(r, c))
            p = edge.probability
            out.append((edge.weight.hex(), r, c, p.numerator, p.denominator))
    return out


def test_core_edges_keep_exactly_the_core_children_of_any_diagram():
    # (3, 1) fails in row 1, and adding (2, 2) passes rows 2 and 2 but
    # leaves row 1 failing; only (3, 1) mends it
    d = YoungDiagram([3, 1])
    edges = _core_edges(d.rows, d.conjugate_rows(), _measure(d.rows)[0])
    assert [e[1:3] for e in edges] == [(3, 1)]
    for n in range(0, 13):
        for lam in partitions(n):
            rows, conj = lam.rows, lam.conjugate_rows()
            got = [
                (w.hex(), r, c, num, den)
                for w, r, c, num, den in _core_edges(rows, conj, _measure(rows)[0])
            ]
            assert got == _core_children(lam), lam.rows


def test_grown_measure_matches_full_formula_exhaustive():
    # core or not, every diagram of at most 22 boxes and every addable box
    for n in range(0, 23):
        for lam in partitions(n):
            _assert_grown_measure_is_exact(lam)


@given(partition_diagrams(max_n=80))
def test_grown_measure_matches_full_formula_large(d):
    _assert_grown_measure_is_exact(d)


def test_path_cost_known_values():
    empty = YoungDiagram(())
    assert path_cost(GrowthPath(empty, (Box(1, 1),))) == 0.0
    path = GrowthPath(empty, (Box(1, 1), Box(1, 2), Box(2, 1)))
    assert abs(path_cost(path) - (math.log(6) - math.log(2))) < 1e-10
    with pytest.raises(InvalidPath, match=r"^step \(2, 1\) invalid after \(\)$"):
        path_cost(GrowthPath(empty, (Box(2, 1),)))
    steps = (Box(1, 2), Box(1, 2))
    with pytest.raises(InvalidPath, match=r"^step \(1, 2\) invalid after \(2,\)$"):
        path_cost(GrowthPath(YoungDiagram([1]), steps))


def test_path_costs_are_pinned():
    # one seeded random path into every partition of size <= 12, and three
    # random boxes on from it; the digest pins every cost bit for bit
    rng = random.Random(27)
    costs = []
    for n in range(13):
        for lam in partitions(n):
            costs.append(path_cost(random_growth_path(lam, rng)).hex())
            steps, cur = [], lam
            for _ in range(3):
                b = rng.choice(cur.addable_boxes())
                steps.append(b)
                cur = cur.add_box(b)
            costs.append(path_cost(GrowthPath(lam, tuple(steps))).hex())
    digest = hashlib.sha256(",".join(costs).encode()).hexdigest()
    assert (len(costs), digest) == (
        544, "229cd54b2dd1bbc1aab4a231eee0fea723898355c88a047baa2b233ab86b0e83"
    )


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


def _tie_flipped_greedy(n):
    # the greedy walk with ties broken by ascending (col, row) instead
    seq = [YoungDiagram([1])]
    while seq[-1].size < n:
        edge = min(
            transition_edges(seq[-1]),
            key=lambda e: (-e.probability, (e.box.col, e.box.row)),
        )
        seq.append(seq[-1].add_box(edge.box))
    return seq


def test_tie_flipped_greedy_walks_the_conjugates():
    flipped = _tie_flipped_greedy(60)
    assert flipped[1] == YoungDiagram([1]).add_box(Box(2, 1))
    assert flipped == [d.conjugate() for d in greedy_sequence(60)]


def test_greedy_grow_bounds():
    start = YoungDiagram([2, 1])
    seq = greedy_grow(start, 6)
    assert seq[0] == start and seq[-1].size == 6 and len(seq) == 4
    with pytest.raises(InvalidPath):
        greedy_grow(start, 2)


def _walk(grow, start, restrict_core):
    try:
        return [(d.rows, dim_exact(d)) for d in grow(start, 20, restrict_core)]
    except NoCoreChild as exc:
        return ("NoCoreChild", str(exc))


def test_greedy_grow_matches_edge_list_walk():
    # every start of at most 10 boxes, core or not, grown to 20 boxes
    for n in range(0, 11):
        for start in partitions(n):
            for restrict_core in (False, True):
                assert _walk(greedy_grow, start, restrict_core) == _walk(
                    greedy_by_edge_lists, start, restrict_core
                ), (start.rows, restrict_core)


def test_greedy_restrict_core_stays_in_core():
    for lam in greedy_sequence(15, restrict_core=True):
        assert lam.in_core_subgraph()


def test_shake_known_trace():
    # add (1,3) (tied max prob, smallest box), then drop the corner whose
    # removal leaves the smallest dimension
    assert shake_variant(YoungDiagram([2, 1]), 1, 1, 0).rows == (3,)
    with pytest.raises(InvalidK):
        shake_variant(YoungDiagram([2, 1]), 0, 1, 0)
    with pytest.raises(InvalidK):
        shake_variant(YoungDiagram([2, 1]), 4, 1, 0)


@given(partition_diagrams(max_n=12))
def test_shake_preserves_size(d):
    for k in (1, 2, 3):
        if k <= d.size:
            assert shake_variant(d, k, 1, 0).size == d.size


def test_shake_variant_degenerate_and_deterministic():
    lam = YoungDiagram([3, 2, 1])
    # one candidate per step: the seed cannot matter
    for seed in (0, 7, 123):
        assert shake_variant(lam, 2, 1, seed).rows == (3, 1, 1, 1)
    assert shake_variant(lam, 2, 2, 7) == shake_variant(lam, 2, 2, 7)
    assert shake_variant(lam, 2, 2, 7).size == lam.size
    with pytest.raises(InvalidM):
        shake_variant(lam, 1, 0, 0)
    with pytest.raises(InvalidK):
        shake_variant(lam, 0, 2, 0)


def test_branches_reject_an_unshaken_start():
    # k = 0 would be the greedy walk, which is `greedy_grow`'s
    with pytest.raises(InvalidK):
        branches(YoungDiagram([3, 2, 1]), 3, 0, 12)


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


def test_shake_matches_box_level_shake():
    # every draw, m > 1 included: the rows and the carried dimension
    # equal a shake that adds and removes boxes one diagram at a time
    cases = 0
    for n in range(1, 11):
        for lam in partitions(n):
            for k in range(1, min(n, 3) + 1):
                for m in (1, 2, 3):
                    for seed in (0, 1, 2):
                        got = shake_variant(lam, k, m, seed)
                        want = shake_by_boxes(lam, k, m, seed)
                        assert (got.rows, got._dim) == (want.rows, dim_exact(want)), (
                            lam.rows, k, m, seed
                        )
                        cases += 1
    assert cases == 3690


def test_shrink_step_matches_the_hook_formula():
    # Kerov's cotransition measure gives the dimension left by every
    # corner removal of every partition up to size 18
    removals = 0
    for n in range(1, 19):
        for lam in partitions(n):
            _, _, xs, ys = _contents(lam.rows)
            dim = dim_exact(lam)
            for c in lam.removable_boxes():
                want = dim_exact(lam.remove_box(c))
                assert _shrink_dim(dim, n, c.col - c.row, xs, ys) == want
                removals += 1
    assert removals == 4582


def test_grow_step_raises_on_a_remainder():
    # (n + 1) * dim * p(b) is a dimension, so a remainder means broken
    # bookkeeping and is never truncated
    assert _grow_dim(3, 2, 3) == 2
    with pytest.raises(InvariantViolation):
        _grow_dim(3, 1, 2)


def test_grown_and_shaken_diagrams_carry_hook_formula_dimensions():
    # each diagram is rebuilt from its rows alone, so dim_exact runs the
    # hook formula on it
    grown = greedy_sequence(60)
    for seed in range(5):
        grown += branches(YoungDiagram([5, 3, 2, 1]), 3, 2, 30, seed_base=seed)
    for d in grown:
        assert d._dim == dim_exact(YoungDiagram(d.rows))
