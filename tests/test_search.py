import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from youngdim import (
    Box,
    YoungDiagram,
    astar,
    branches,
    dim_exact,
    dim_recursive,
    greedy_grow,
    greedy_sequence,
    local_improve,
    max_dimension_core,
    search_from,
    sequence_improve,
    transition_prob,
)
from youngdim.errors import (
    CoreMembershipError,
    EmptySearchSpace,
    InvalidDepth,
    InvariantViolation,
    NotAGrowthSequence,
)
from youngdim import diagram, dimension, plancherel, search
from youngdim.plancherel import _core_edges, _measure
from youngdim.search import (
    _child_bound,
    _cost_floor,
    remaining_cost_estimate,
)

from conftest import (
    logged_astar,
    eager_heuristic_astar,
    forbidden_set_children,
    partitions,
    ranked_children,
    tree_census,
)


def test_edge_weight_known_values():
    def weight(rows, box):
        return transition_prob(YoungDiagram(rows), box).weight

    assert weight([1], Box(2, 1)) == pytest.approx(math.log(2))
    assert weight([2], Box(1, 3)) == pytest.approx(math.log(3))
    assert weight([2], Box(2, 1)) == pytest.approx(math.log(3) - math.log(2))


def _scan(rows, frozen):
    # the core scan of a node's live measure: its unfrozen rows only
    conj = YoungDiagram(rows).conjugate_rows()
    live = [a for a in _measure(rows)[0] if not frozen >> a[1] & 1]
    return conj, _core_edges(rows, conj, live)


def test_astar_pushes_the_roots_child(monkeypatch):
    for uniform_cost in (True, False):
        # to level 3, the heuristic pushes the root's child lazily
        log, _ = logged_astar(monkeypatch, 3, uniform_cost=uniform_cost)
        kids = log.pushed[(1,)]
        # [2] has a box above the diagonal, so the only child kept is [1,1]
        assert [k[0] for k in kids] == [(1, 1)]
        assert kids[0][1] == YoungDiagram([1, 1]).conjugate_rows()
        assert kids[0][2] == 0
        assert kids[0][3] == pytest.approx(math.log(2))
        assert kids[0][4] == (2, 1)


def test_astar_push_loops_rank_and_freeze(monkeypatch):
    for uniform_cost in (True, False):
        log, _ = logged_astar(
            monkeypatch, 5, start=YoungDiagram([2, 1]), uniform_cost=uniform_cost
        )
        kids = log.pushed[(2, 1)]
        assert [k[0] for k in kids] == [(2, 1, 1), (2, 2)]
        # the lower-ranked sibling may never start the winner's row 3
        assert [k[2] for k in kids] == [0, 1 << 3]


def test_astar_push_loops_respect_frozen_rows(monkeypatch):
    for uniform_cost in (True, False):
        # level by level from [2, 1]: [2, 2] is expanded with row 3
        # frozen, and its only other addable box leaves the core
        log, res = logged_astar(
            monkeypatch, 5, fifo=True, start=YoungDiagram([2, 1]),
            uniform_cost=uniform_cost,
        )
        assert res.nodes_expanded == 3
        assert log.node[(2, 2)][1] == 1 << 3
        assert (2, 2) not in log.pushed
        # with row 3 unfrozen, [2, 2] pushes the child in row 3
        log, _ = logged_astar(
            monkeypatch, 5, start=YoungDiagram([2, 2]), uniform_cost=uniform_cost
        )
        assert [k[0] for k in log.pushed[(2, 2)]] == [(2, 2, 1)]


def test_astar_pushes_children_straight_from_the_ranked_scan(monkeypatch):
    # every expansion's pushes are the reference children of its scan,
    # with g = the parent's g + weight, bit for bit
    for n, uniform_cost, expanded, children in (
        (22, True, 592, 758),
        (30, True, 2464, 3080),
        (60, False, 394, 911),
    ):
        log, res = logged_astar(monkeypatch, n, uniform_cost=uniform_cost)
        assert res.nodes_expanded == expanded
        assert sum(len(kids) for kids in log.pushed.values()) == children
        for rows, kids in log.pushed.items():
            conj, frozen, g = log.node[rows]
            want = ranked_children(rows, conj, frozen, _scan(rows, frozen)[1])
            assert kids == [
                (k[0], k[1], k[2], g + k[3], (k[4], k[5])) for k in want
            ], rows


def _estimate(levels, rows, frozen):
    return remaining_cost_estimate(levels, _scan(rows, frozen)[1])


def test_remaining_cost_estimate_values():
    # from [1]: to level 3 is two levels, to level 1 none
    assert _estimate(2, (1,), 0) == pytest.approx(2 * math.log(2))
    assert _estimate(0, (1,), 0) == 0.0
    # [2, 2] with row 3 frozen has no usable edge
    assert _estimate(5, (2, 2), 1 << 3) == 0.0


def test_frozen_rows_match_forbidden_sets_to_level_16(monkeypatch):
    # walk both trees side by side; a frozen row must act exactly like
    # the forbidden box that would extend it.  Level by level, astar
    # expands every node below level 17 before it pops one at 17
    log, res = logged_astar(monkeypatch, 17, fifo=True, uniform_cost=True)
    core_nodes = sum(
        1 for n in range(1, 17) for d in partitions(n) if d.in_core_subgraph()
    )
    assert res.nodes_expanded == core_nodes
    stack = [((1,), 0.0, frozenset())]
    visited = 0
    while stack:
        rows, g, forbidden = stack.pop()
        visited += 1
        if sum(rows) >= 16:
            continue
        kids = log.pushed.get(rows, [])
        want = forbidden_set_children(YoungDiagram(rows), forbidden, g)
        assert [(k[0], k[3]) for k in kids] == [(d.rows, dg) for d, _, dg in want]
        assert [k[1] for k in kids] == [d.conjugate_rows() for d, _, _ in want]
        stack.extend((k[0], k[3], f) for k, (_, f, _) in zip(kids, want))
    assert visited == core_nodes


def test_child_bounds_hold_to_level_16(monkeypatch):
    # for every child in the tree below level 16: the bound rule, in
    # exact rationals, is at least the child's best live core
    # probability, is 0 only at a dead end, and the library's float u
    # follows it; the key floor stays at or under h for any level count
    log, _ = logged_astar(monkeypatch, 17, fifo=True, uniform_cost=True)
    stack = [((1,), 0)]
    checked = 0
    while stack:
        rows, frozen = stack.pop()
        if sum(rows) >= 16:
            continue
        parent = YoungDiagram(rows)
        live = [a for a in _measure(rows)[0] if not frozen >> a[1] & 1]
        kids = log.pushed.get(rows, [])
        for crows, cconj, cfrozen, _, (r, c) in kids:
            child = YoungDiagram(crows)
            added = Box(r, c)
            p = transition_prob(parent, added).probability
            u = _child_bound(live, crows, cconj, cfrozen, r, c, float(p))

            def live_core(box):
                return (
                    not cfrozen >> box.row & 1
                    and child.add_box(box).in_core_subgraph()
                )

            cands = []
            for b in parent.addable_boxes():
                if b != added and live_core(b):
                    d = Fraction((b.col - b.row - (c - r)) ** 2)
                    cands.append(transition_prob(parent, b).probability * d / (d - 1))
            if any(
                live_core(b)
                for b in child.addable_boxes()
                if b not in parent.addable_boxes()
            ):
                cands.append(p)
            exact = max(cands, default=Fraction(0))
            best = max(
                (
                    transition_prob(child, b).probability
                    for b in child.addable_boxes()
                    if live_core(b)
                ),
                default=Fraction(0),
            )
            assert exact >= best
            assert (exact == 0) == (best == 0) == (u == 0)
            assert u == pytest.approx(float(exact), rel=1e-12)
            cedges = _scan(crows, cfrozen)[1]
            for levels in (1, 2, 5, 40):
                assert _cost_floor(levels, u) <= remaining_cost_estimate(levels, cedges)
            checked += 1
        stack.extend((k[0], k[2]) for k in kids)
    # one check per tree node from level 2 to 16
    assert checked == sum(
        1 for n in range(2, 17) for d in partitions(n) if d.in_core_subgraph()
    )


def _same_search(got, want):
    return (
        got.diagram.rows, got.cost.hex(), got.nodes_expanded, got.frontier_peak,
        got.dim, got.diagram._dim,
    ) == (
        want.diagram.rows, want.cost.hex(), want.nodes_expanded, want.frontier_peak,
        want.dim, want.dim,
    )


def test_heuristic_astar_matches_eager_oracle():
    # a lazy child's key is at most its exact key, so entries leave the
    # heap with their exact keys in the eager loop's order
    for n in range(2, 101):
        assert _same_search(astar(n), eager_heuristic_astar(n))
    # every start of the improve input (greedy to 63, then the shaken
    # branches from greedy 64 to 130), at depths 1 to 5
    greedy = greedy_sequence(64)
    starts = greedy[:63] + branches(greedy[-1], 3, 4, 130, seed_base=1)
    searched = 0
    for diagram in starts:
        start = diagram if diagram.in_core_subgraph() else diagram.conjugate()
        if not start.in_core_subgraph():
            continue
        for depth in range(1, 6):
            n = start.size + depth
            assert _same_search(astar(n, start=start), eager_heuristic_astar(n, start))
            searched += 1
    # three of the 130 lie outside the core subgraph on both sides
    assert searched == 5 * 127


def test_search_builds_children_without_per_box_work(monkeypatch):
    calls = {"transition_prob": 0, "add_box": 0, "in_core_subgraph": 0, "_measure": 0}

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
    full_measure = counted("_measure", _measure)
    monkeypatch.setattr(plancherel, "_measure", full_measure)
    monkeypatch.setattr(search, "_measure", full_measure)
    # bit-exact costs: a weight drift inside any tolerance shows here
    for n, uniform_cost, expanded, cost in (
        (22, True, 592, "0x1.a0cc900c66237p+4"),
        (30, True, 2464, "0x1.3bf8113395b45p+5"),
        (60, False, 394, "0x1.887d014ad378ep+6"),
    ):
        for name in calls:
            calls[name] = 0
        res = astar(n, uniform_cost=uniform_cost)
        assert (res.nodes_expanded, res.cost.hex()) == (expanded, cost)
        # the one core test left is the start check, and the one full
        # transition measure is the start's: every other node's is grown
        assert calls == {
            "transition_prob": 0,
            "add_box": 0,
            "in_core_subgraph": 1,
            "_measure": 1,
        }


def test_search_builds_each_nodes_edges_once(monkeypatch):
    # uniform-cost: every expanded node but the start grows its measure
    # from its parent's, and the same pass scans it for core edges; the
    # start's measure comes from the full formula and is the one scanned
    # on its own.  Each expansion ranks its scan once.  heuristic: a
    # child below the target level is pushed with a lower bound on h
    # and grows its measure and scan once, only when that entry is
    # popped, for its exact h; expanding it ranks the scan it kept.
    # Children never popped, and children at the target level (h = 0),
    # cost no measure or scan work.
    calls = {"_grow": 0, "_core_edges": 0, "_rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(search, name, counted(name, getattr(search, name)))
    depth_3 = YoungDiagram((9, 7, 6, 5, 4, 3, 2, 2, 1, 1, 1))
    for n, start, uniform_cost, expanded, grown in (
        (22, None, True, 592, 591),
        (30, None, True, 2464, 2463),
        (60, None, False, 394, 460),
        (44, depth_3, False, 5, 4),
    ):
        calls.update(_grow=0, _core_edges=0, _rank=0)
        res = astar(n, start=start, uniform_cost=uniform_cost)
        assert res.nodes_expanded == expanded
        assert calls == {"_grow": grown, "_core_edges": 1, "_rank": expanded}


def test_astar_raises_when_a_diagram_is_reached_twice(monkeypatch):
    # the tree reaches each diagram once; a ranking that lists every
    # edge twice pushes each child twice, and the closed set says so
    real = search._rank
    monkeypatch.setattr(search, "_rank", lambda edges: real(edges) * 2)
    with pytest.raises(InvariantViolation, match="uniqueness"):
        astar(4, uniform_cost=True)


def test_astar_walk_grows_each_measure_from_its_parent(monkeypatch):
    # walking the whole tree to level 18, only the root's measure comes
    # from the full formula and is scanned on its own; every other
    # expanded node grows and scans its own once, and the leaves at
    # level 18 grow none
    calls = {"_measure": 0, "_grow": 0, "_core_edges": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(search, name, counted(name, getattr(search, name)))
    rows, dead_ends = tree_census(monkeypatch, 18)
    assert (len(rows), len(dead_ends)) == (425, 27)
    assert calls == {"_measure": 1, "_grow": 340, "_core_edges": 1}


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


def test_every_core_diagram_can_grow_a_new_row():
    # why astar's last EmptySearchSpace cannot fire: a core diagram with
    # k rows has row 1 <= k, so its new-row box (k + 1, 1) is a core child,
    # and the chain of first-ranked children, whose frozen mask stays 0,
    # always has one to reach the target level
    core = [d for n in range(1, 21) for d in partitions(n) if d.in_core_subgraph()]
    assert len(core) == 650
    for d in core:
        rows = d.rows
        edges = _core_edges(rows, d.conjugate_rows(), _measure(rows)[0], [])
        assert (len(rows) + 1, 1) in [e[1:3] for e in edges]


def test_astar_walk_covers_core_exactly_once(monkeypatch):
    rows, dead_ends = tree_census(monkeypatch, 10)
    core = {
        d.rows for n in range(1, 11) for d in partitions(n) if d.in_core_subgraph()
    }
    assert len(rows) == len(set(rows)) == len(core) == 59
    assert set(rows) == core
    assert dead_ends == [(2, 2), (3, 3, 3)]


def test_local_improve_small_cases():
    assert local_improve(YoungDiagram([2, 1]), depth=1).rows == (2, 1, 1)
    # a start outside the core is searched through its conjugate
    assert local_improve(YoungDiagram([3, 1]), depth=1).rows == (3, 1, 1)
    with pytest.raises(CoreMembershipError):
        local_improve(YoungDiagram([4, 2, 2]), depth=2)
    with pytest.raises(InvalidDepth, match="depth must be at least 1, got 0"):
        local_improve(YoungDiagram([2, 1]), 0)


def test_search_from_flips_through_the_conjugate():
    # (4, 1) is outside the core: the search runs from (2, 1, 1, 1) and
    # its result is conjugated back, while the result keeps the search's own
    found, result = search_from(YoungDiagram([4, 1]), 7)
    assert (found.rows, result.diagram.rows) == ((4, 2, 1), (3, 2, 1, 1))
    assert result.dim == dim_exact(found) == 35
    found, result = search_from(YoungDiagram([2, 1]), 4, uniform_cost=True)
    assert found is result.diagram and result.mode == "uniform-cost"
    with pytest.raises(
        CoreMembershipError,
        match=r"neither \(4, 2, 2\) nor its conjugate is in the core subgraph",
    ):
        search_from(YoungDiagram([4, 2, 2]), 9)


def test_search_from_tests_core_membership_once_per_side(monkeypatch):
    calls = []
    bad_rows = diagram._bad_rows

    def counted(rows, conj):
        calls.append(rows)
        return bad_rows(rows, conj)

    monkeypatch.setattr(diagram, "_bad_rows", counted)
    monkeypatch.setattr(plancherel, "_bad_rows", counted)
    conjugated = 0
    for lam in greedy_sequence(40):
        core = lam.in_core_subgraph()
        conjugated += not core
        calls.clear()
        search_from(lam, lam.size + 3)
        assert calls == ([lam.rows] if core else [lam.rows, lam.conjugate_rows()])
    assert 0 < conjugated < 40
    # (4, 1) is searched from its conjugate, and (4, 2, 2) fails both sides
    calls.clear()
    search_from(YoungDiagram([4, 1]), 7)
    assert calls == [(4, 1), (2, 1, 1, 1)]
    calls.clear()
    with pytest.raises(CoreMembershipError):
        search_from(YoungDiagram([4, 2, 2]), 9)
    assert calls == [(4, 2, 2), (3, 3, 1, 1)]


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


def test_sequence_improve_skips_elements_outside_the_core_on_both_sides():
    # (3, 3) and its conjugate (2, 2, 2) are both outside the core subgraph
    seq = list(greedy_sequence(8))
    seq[5] = YoungDiagram([3, 3])
    out = sequence_improve(seq, 1)
    assert out.skipped_sizes == (6,)
    # size 5's one-level search replaces the weak (3, 3)
    assert out.improved_sizes == (6,)
    assert dim_exact(out.sequence[5]) > dim_exact(seq[5])
    assert out.sequence[6:] == tuple(seq[6:])


def test_sequence_improve_computes_each_dimension_once(monkeypatch):
    calls = []
    hook_product = dimension.hook_product

    def counted(diagram):
        calls.append(diagram.rows)
        return hook_product(diagram)

    monkeypatch.setattr(dimension, "hook_product", counted)
    seq = greedy_sequence(40)
    out = sequence_improve(seq, 3)
    assert out.improved_sizes == (15, 22, 37, 38, 39)
    # the greedy sequence and every search grow their diagrams'
    # dimensions from the one-box start's, the only hook product
    assert calls == [(1,)]
    for d in out.sequence:
        assert dim_exact(d) == dim_recursive(d)
    assert calls == [(1,)]


def test_astar_results_carry_hook_formula_dimensions():
    for n in range(1, 31):
        for uniform_cost in (False, True):
            result = astar(n, uniform_cost=uniform_cost)
            want = dim_exact(YoungDiagram(result.diagram.rows))
            assert result.dim == result.diagram._dim == want


def test_sequence_improve_rejects_gaps():
    with pytest.raises(NotAGrowthSequence):
        sequence_improve([YoungDiagram([1]), YoungDiagram([2, 1])], 2)


@given(st.integers(min_value=1, max_value=12))
def test_greedy_grow_stays_under_search_optimum(n):
    grown = greedy_grow(YoungDiagram([1]), n, restrict_core=True)
    assert dim_exact(grown[-1]) <= astar(n, uniform_cost=True).dim
