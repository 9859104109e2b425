"""End-to-end gates for the toolkit, one test per shipped guarantee.

Each test prints a single ACCEPTANCE line when it passes; a failing
test shows up through pytest itself.  Tolerances are 1e-8 where a
float comparison is unavoidable and exact equality everywhere else.
"""

import math
import random
import time
import warnings

import pytest

from youngdim import (
    GrowthPath,
    YoungDiagram,
    astar,
    balance_sweep,
    count_syt_enumeration,
    dim_exact,
    dim_recursive,
    greedy_grow,
    greedy_sequence,
    log_dim,
    log_factorial,
    max_dimension_core,
    max_table,
    partition_count,
    partitions,
    path_cost,
    reflection_hooks_sweep,
    symmetrize,
    symmetrize_sweep,
    transition_edges,
    tree_sweep,
    verify_max_geometry,
    verify_one_box_claim,
)

COST_TOL = 1e-8


def _gate(num, label):
    print("ACCEPTANCE %02d %s: PASS" % (num, label))


@pytest.fixture(scope="module")
def table_40():
    t0 = time.perf_counter()
    table = max_table(40)
    return table, time.perf_counter() - t0


def test_01_dimension_methods_agree():
    # Hook formula vs corner-removal recursion, exhaustively.
    for n in range(1, 21):
        for lam in partitions(n):
            assert dim_exact(lam) == dim_recursive(lam)
    # Hook formula vs one-at-a-time enumeration of standard fillings.
    for n in range(1, 11):
        for lam in partitions(n):
            assert dim_exact(lam) == count_syt_enumeration(lam)
    # Sum of squared dimensions counts the permutations, exactly.
    for n in range(1, 16):
        total = sum(dim_exact(lam) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)
    _gate(1, "dimension methods agree")


def test_02_transition_probabilities_and_path_costs():
    from fractions import Fraction

    # Outgoing probabilities are exact rationals summing to one.
    for n in range(1, 31):
        for lam in partitions(n):
            total = sum(e.probability for e in transition_edges(lam))
            assert total == Fraction(1)
    # Any growth path from the empty diagram costs ln(n!) - ln(dim),
    # so random paths to one endpoint must all agree.
    rng = random.Random(1918)
    for _ in range(100):
        lam = YoungDiagram()
        for _ in range(rng.randint(1, 40)):
            lam = lam.add_box(rng.choice(lam.addable_boxes()))
        want = log_factorial(lam.size) - log_dim(lam)
        costs = []
        for _ in range(50):
            down, d = [], lam
            while d.size:
                b = rng.choice(d.removable_boxes())
                down.append(b)
                d = d.remove_box(b)
            got = path_cost(GrowthPath(start=YoungDiagram(), steps=tuple(reversed(down))))
            assert abs(got - want) <= COST_TOL
            costs.append(got)
        assert max(costs) - min(costs) <= COST_TOL
    _gate(2, "transition probabilities and path costs")


def test_03_symmetrization_increases_and_hook_pairing():
    sweep = symmetrize_sweep(26)
    assert sweep.violations == []
    assert sweep.checked + sweep.skipped == sum(
        partition_count(n) for n in range(1, 27)
    )
    assert sweep.strict > 0
    checked, failures = reflection_hooks_sweep(16)
    assert failures == []
    assert checked == 38
    _gate(3, "symmetrization increases and hook pairing")


def test_04_worked_symmetrization():
    rep = symmetrize(YoungDiagram([4, 2, 2]))
    assert rep.output.rows == (4, 3, 1)
    assert (rep.dim_input, rep.dim_output) == (56, 70)
    assert rep.strict_expected
    _gate(4, "worked symmetrization")


def test_05_greedy_beaten_at_fifteen(table_40):
    table, _ = table_40
    entry = table[14]
    assert entry.n == 15
    for mirror in (False, True):
        tail = greedy_sequence(15, mirror_ties=mirror)[-1]
        assert dim_exact(tail) < entry.dim
    _gate(5, "greedy beaten at fifteen")


# Maximizers whose size exceeds their base subdiagram by more than one
# box.  The stronger per-line property still holds for every one of
# them: the extra boxes sit one per row and one per column (the
# geometry check below), so these are reported as warnings, not
# failures.  Each size contributes a conjugate pair.
ONE_BOX_EXCEPTIONS = [
    (14, (5, 3, 2, 2, 1, 1), 2),
    (14, (6, 4, 2, 1, 1), 2),
    (19, (6, 4, 3, 2, 2, 1, 1), 2),
    (19, (7, 5, 3, 2, 1, 1), 2),
    (25, (7, 5, 4, 3, 2, 2, 1, 1), 2),
    (25, (8, 6, 4, 3, 2, 1, 1), 2),
    (32, (8, 6, 5, 4, 3, 2, 2, 1, 1), 2),
    (32, (9, 7, 5, 4, 3, 2, 1, 1), 2),
    (37, (9, 7, 5, 4, 3, 3, 2, 2, 1, 1), 3),
    (37, (10, 8, 6, 4, 3, 2, 2, 1, 1), 3),
    (40, (9, 7, 6, 5, 4, 3, 2, 2, 1, 1), 2),
    (40, (10, 8, 6, 5, 4, 3, 2, 1, 1), 2),
]


def test_06_maximizer_geometry_bound(table_40):
    table, build_seconds = table_40
    t0 = time.perf_counter()
    geo = verify_max_geometry(40, table=table)
    one = verify_one_box_claim(40, table=table)
    spent = build_seconds + time.perf_counter() - t0
    assert geo.failures == []
    assert geo.checked == one.checked
    assert geo.checked >= 40
    assert one.exceptions == ONE_BOX_EXCEPTIONS
    warnings.warn(
        "one-box bound exceeded by %d maximizers between n=14 and n=40; "
        "their extra boxes stay isolated per row and column"
        % len(one.exceptions)
    )
    assert spent < 300.0
    _gate(6, "maximizer geometry bound")


def test_07_uniform_cost_matches_exhaustive_core_max():
    for n in range(1, 31):
        res = astar(n, uniform_cost=True)
        entry = max_dimension_core(n)
        assert res.dim == entry.dim
        assert res.diagram.rows == min(m.rows for m in entry.maximizers)
        want = log_factorial(n) - log_dim(res.diagram)
        assert abs(res.cost - want) <= COST_TOL
    sweep = tree_sweep(18)
    assert sweep.duplicates == []
    assert sweep.missing == []
    census = sum(
        1
        for n in range(1, 19)
        for lam in partitions(n)
        if lam.in_core_subgraph()
    )
    assert sweep.visited == census
    assert len(sweep.dead_ends) == 27
    _gate(7, "uniform cost matches exhaustive core max")


def test_08_heuristic_reaches_greedy_and_saves_nodes():
    for n in (15, 20, 25, 30):
        heur = astar(n)
        greedy_tail = greedy_grow(YoungDiagram([1]), n, True)[-1]
        assert heur.dim >= dim_exact(greedy_tail)
    lean = astar(22)
    full = astar(22, uniform_cost=True)
    assert lean.nodes_expanded < full.nodes_expanded
    _gate(8, "heuristic reaches greedy and saves nodes")


def test_09_balance_rounds_never_lose_dimension():
    sweep = balance_sweep(22)
    assert sweep.decreased == []
    assert sweep.checked == sum(partition_count(n) for n in range(1, 23))
    _gate(9, "balance rounds never lose dimension")


def test_10_exact_search_is_pinned():
    r = astar(22, uniform_cost=True)
    assert (r.diagram.rows, r.dim, r.nodes_expanded) == (
        (6, 5, 4, 3, 2, 1, 1),
        5462865408,
        592,
    )
    assert astar(30, uniform_cost=True).nodes_expanded == 2464
    _gate(10, "exact search result and node counts are pinned")
