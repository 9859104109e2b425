import math

import pytest
from hypothesis import given, strategies as st

from youngdim import (
    Box,
    YoungDiagram,
    astar,
    dim_exact,
    greedy_grow,
    greedy_sequence,
    local_improve,
    max_dimension_core,
    partitions,
    sequence_improve,
    transition_prob,
    tree_sweep,
)
from youngdim.errors import (
    CoreMembershipError,
    EmptySearchSpace,
    NotAGrowthSequence,
)
from youngdim import plancherel
from youngdim.plancherel import _edges
from youngdim.search import (
    TreeNode,
    remaining_cost_estimate,
    tree_children,
)

from conftest import forbidden_set_children


def test_edge_weight_known_values():
    def weight(rows, box):
        return transition_prob(YoungDiagram(rows), box).weight

    assert weight([1], Box(2, 1)) == pytest.approx(math.log(2))
    assert weight([2], Box(1, 3)) == pytest.approx(math.log(3))
    assert weight([2], Box(2, 1)) == pytest.approx(math.log(3) - math.log(2))


def test_tree_children_of_the_root():
    root = TreeNode(YoungDiagram([1]), 0, 0.0)
    kids = tree_children(root)
    # [2] has a box above the diagonal, so the only child kept is [1,1]
    assert [k.diagram.rows for k in kids] == [(1, 1)]
    assert kids[0].frozen == 0
    assert kids[0].g == pytest.approx(math.log(2))


def test_tree_children_rank_and_freeze():
    node = TreeNode(YoungDiagram([2, 1]), 0, 0.0)
    kids = tree_children(node)
    assert [k.diagram.rows for k in kids] == [(2, 1, 1), (2, 2)]
    # the lower-ranked sibling may never start the winner's row 3
    assert kids[0].frozen == 0
    assert kids[1].frozen == 1 << 3


def test_tree_children_respect_frozen_rows():
    node = TreeNode(YoungDiagram([2, 1]), 1 << 3, 0.0)
    kids = tree_children(node)
    assert [k.diagram.rows for k in kids] == [(2, 2)]
    assert kids[0].frozen == 1 << 3


def _core_edges(diagram):
    return _edges(diagram.rows, diagram.conjugate_rows(), True)


def test_remaining_cost_estimate_values():
    root = TreeNode(YoungDiagram([1]), 0, 0.0)
    cands = _core_edges(root.diagram)
    assert remaining_cost_estimate(root, 3, cands) == pytest.approx(2 * math.log(2))
    assert remaining_cost_estimate(root, 1, cands) == 0.0
    blocked = TreeNode(YoungDiagram([2, 2]), 1 << 3, 0.0)
    blocked_cands = _core_edges(blocked.diagram)
    assert remaining_cost_estimate(blocked, 9, blocked_cands) == 0.0


def test_frozen_rows_match_forbidden_sets_to_level_16():
    # walk both trees side by side; a frozen row must act exactly like
    # the forbidden box that would extend it
    stack = [(TreeNode(YoungDiagram([1]), 0, 0.0), frozenset())]
    visited = 0
    while stack:
        node, forbidden = stack.pop()
        visited += 1
        if node.diagram.size >= 16:
            continue
        kids = tree_children(node)
        want = forbidden_set_children(node.diagram, forbidden, node.g)
        assert [(k.diagram.rows, k.g) for k in kids] == [
            (d.rows, g) for d, _, g in want
        ]
        stack.extend((k, f) for k, (_, f, _) in zip(kids, want))
    assert visited == sum(
        1 for n in range(1, 17) for d in partitions(n) if d.in_core_subgraph()
    )


def test_search_builds_children_without_per_box_work(monkeypatch):
    calls = {"transition_prob": 0, "add_box": 0, "in_core_subgraph": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        plancherel, "transition_prob", counted("transition_prob", transition_prob)
    )
    for name in ("add_box", "in_core_subgraph"):
        monkeypatch.setattr(
            YoungDiagram, name, counted(name, getattr(YoungDiagram, name))
        )
    res = astar(30, uniform_cost=True)
    assert res.nodes_expanded == 2464
    # the one core test left is the start check
    assert calls == {"transition_prob": 0, "add_box": 0, "in_core_subgraph": 1}


def test_uniform_cost_search_finds_core_maximum():
    for n in range(1, 15):
        res = astar(n, uniform_cost=True)
        assert res.dim == max_dimension_core(n).dim
        assert res.diagram.size == n
        assert res.mode == "uniform-cost"
        assert res.cost == pytest.approx(
            math.lgamma(n + 1) - math.log(res.dim), abs=1e-8
        )


def test_heuristic_search_beats_greedy_and_counts_less():
    for n in (10, 13):
        res = astar(n)
        assert res.mode == "heuristic"
        assert res.dim >= dim_exact(greedy_sequence(n)[-1])
        exact = astar(n, uniform_cost=True)
        assert res.nodes_expanded <= exact.nodes_expanded


def test_heuristic_search_is_pinned():
    # heuristic results hang on float tie-breaks, so any drift in an
    # edge weight shows up here
    for n, rows, expanded, peak in (
        (60, (12, 10, 8, 7, 5, 5, 4, 3, 2, 2, 1, 1), 394, 518),
        (70, (14, 11, 9, 7, 6, 5, 4, 4, 3, 2, 2, 1, 1, 1), 659, 878),
        (80, (15, 12, 10, 8, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1, 1), 1221, 1736),
        (90, (15, 13, 11, 8, 8, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1, 1), 1991, 2882),
    ):
        res = astar(n)
        assert (res.diagram.rows, res.nodes_expanded, res.frontier_peak) == (
            rows,
            expanded,
            peak,
        )


def test_astar_trivial_and_error_cases():
    start = YoungDiagram([2, 1])
    res = astar(3, start=start)
    assert res.diagram == start
    assert res.nodes_expanded == 0
    with pytest.raises(EmptySearchSpace):
        astar(2, start=start)
    with pytest.raises(CoreMembershipError):
        astar(9, start=YoungDiagram([4, 2, 2]))


def test_tree_sweep_covers_core_exactly_once():
    sweep = tree_sweep(10)
    assert sweep.duplicates == []
    assert sweep.missing == []
    assert sweep.visited == 59
    assert sweep.dead_ends == [(2, 2), (3, 3, 3)]
    core_count = sum(
        1 for n in range(1, 11) for d in partitions(n) if d.in_core_subgraph()
    )
    assert sweep.visited == core_count


def test_local_improve_small_cases():
    assert local_improve(YoungDiagram([2, 1]), depth=1).rows == (2, 1, 1)
    # a start outside the core is searched through its conjugate
    assert local_improve(YoungDiagram([3, 1]), depth=1).rows == (3, 1, 1)
    with pytest.raises(CoreMembershipError):
        local_improve(YoungDiagram([4, 2, 2]), depth=2)


def test_sequence_improve_lifts_the_first_greedy_miss():
    seq = greedy_sequence(18)
    out = sequence_improve(seq, 3)
    assert out.improved_sizes == (15,)
    assert out.skipped_sizes == ()
    assert [d.size for d in out.sequence] == [d.size for d in seq]
    assert out.sequence[14].rows == (5, 4, 3, 2, 1)
    assert dim_exact(out.sequence[14]) == 292864
    for old, new in zip(seq, out.sequence):
        assert dim_exact(new) >= dim_exact(old)


def test_sequence_improve_rejects_gaps():
    with pytest.raises(NotAGrowthSequence):
        sequence_improve([YoungDiagram([1]), YoungDiagram([2, 1])], 2)


@given(st.integers(min_value=1, max_value=12))
def test_greedy_grow_stays_under_search_optimum(n):
    grown = greedy_grow(YoungDiagram([1]), n, restrict_core=True)
    assert dim_exact(grown[-1]) <= astar(n, uniform_cost=True).dim
