import hashlib
import itertools
import math
import re

import pytest
from hypothesis import given, strategies as st

from youngdim import (
    YoungDiagram,
    all_dimensions,
    dim_exact,
    dim_recursive,
    greedy_sequence,
    max_dimension_core,
    max_dimension_diagrams,
    max_table,
    verify_max_geometry,
    verify_one_box_claim,
)
from youngdim import oracle
from youngdim.oracle import GeometryReport, MaxTableEntry
from youngdim.errors import NonDivisibleHookProduct, SizeBoundExceeded

from conftest import (
    argmax_by_hook_product,
    argmax_over_full_sweep,
    partition_count,
    partitions,
)


def test_partitions_of_four_in_order():
    got = [d.rows for d in partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_edge_cases():
    assert [d.rows for d in partitions(0)] == [()]
    assert [d.rows for d in partitions(1)] == [(1,)]
    assert len(list(partitions(10))) == 42
    with pytest.raises(ValueError):
        list(partitions(-1))


@given(st.integers(min_value=0, max_value=18))
def test_partitions_descending_lex_and_counted(n):
    seq = [d.rows for d in partitions(n)]
    assert seq == sorted(seq, reverse=True)
    assert len(seq) == len(set(seq)) == partition_count(n)
    assert all(sum(r) == n for r in seq)


def test_partition_count_known_values():
    assert [partition_count(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert partition_count(45) == 89134
    assert partition_count(50) == 204226
    assert partition_count(60) == 966467
    with pytest.raises(ValueError):
        partition_count(-2)


def test_partition_counts_match_the_pentagonal_recurrence():
    # the parts DP that the theorem sweep reads p(n) from
    assert oracle._partition_counts(64) == [partition_count(n) for n in range(65)]


def test_all_dimensions_matches_partitions_and_hook_products():
    for n in range(1, 23):
        dims = all_dimensions(n)
        assert list(dims.items()) == [
            (lam.rows, dim_exact(lam)) for lam in partitions(n)
        ]
    for bad in (0, 61):
        with pytest.raises(SizeBoundExceeded):
            all_dimensions(bad)


def test_max_dimension_known_values():
    assert [d.rows for d in max_dimension_diagrams(1).maximizers] == [(1,)]
    e4 = max_dimension_diagrams(4)
    assert ([d.rows for d in e4.maximizers], e4.dim) == ([(2, 1, 1), (3, 1)], 3)
    e5 = max_dimension_diagrams(5)
    assert ([d.rows for d in e5.maximizers], e5.dim) == ([(3, 1, 1)], 6)
    e7 = max_dimension_diagrams(7)
    assert ([d.rows for d in e7.maximizers], e7.dim) == ([(3, 2, 1, 1), (4, 2, 1)], 35)


def test_max_dimension_closed_under_conjugation():
    for n in range(1, 13):
        entry = max_dimension_diagrams(n)
        shapes = {d.rows for d in entry.maximizers}
        for d in entry.maximizers:
            assert dim_exact(d) == entry.dim
            assert d.conjugate().rows in shapes


def test_max_dimension_bound_guard():
    with pytest.raises(SizeBoundExceeded):
        max_dimension_diagrams(61)
    for bad in (0, -3, 61):
        with pytest.raises(SizeBoundExceeded):
            max_table(bad)
    entry = max_dimension_diagrams(8)
    assert entry.dim == 90


def test_max_table_matches_single_queries():
    table = max_table(9)
    assert [e.n for e in table] == list(range(1, 10))
    assert table[6] == max_dimension_diagrams(7)


def test_sweep_yields_each_partition_once_with_its_dimension():
    # The corner recursion shares no code with either dimension formula.
    seen = {}
    for size, rows, dim in oracle._sweep(22):
        assert rows not in seen and sum(rows) == size
        seen[rows] = dim
    assert len(seen) == sum(partition_count(n) for n in range(1, 23)) == 4507
    for rows, dim in seen.items():
        assert dim == dim_recursive(YoungDiagram(rows))
    # a lower size bound drops the smaller sizes and nothing else
    tail = [(rows, dim) for size, rows, dim in oracle._sweep(22, 20)]
    assert sorted(tail) == sorted((r, d) for r, d in seen.items() if sum(r) >= 20)


def test_half_sweep_yields_one_side_of_each_conjugate_pair():
    full = {rows: dim for size, rows, dim in oracle._sweep(22)}
    for lo in (1, 20):
        half = list(oracle._sweep(22, lo, half=True))
        assert all(sum(rows) == size for size, rows, _ in half)
        got = {rows: dim for _, rows, dim in half}
        assert len(got) == len(half)
        assert got == {
            rows: dim
            for rows, dim in full.items()
            if rows[0] >= len(rows) and sum(rows) >= lo
        }


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("max_n", range(1, 15))
def test_sweep_yields_exactly_the_partitions_in_range(max_n, half):
    # every size window, lo == hi included; at max_n 1..3 the root frame
    # pushes little or nothing and yields every child itself
    for min_n in range(1, max_n + 1):
        got = list(oracle._sweep(max_n, min_n, half))
        want = {
            d.rows: dim_recursive(d)
            for n in range(min_n, max_n + 1)
            for d in partitions(n)
            if not half or d.rows[0] >= len(d.rows)
        }
        assert len(got) == len(want), (min_n, max_n)
        assert {rows: dim for _, rows, dim in got} == want, (min_n, max_n)
        assert all(size == sum(rows) for size, rows, _ in got)


def _involutions(max_n):
    """I(0), ..., I(max_n): I(n) = I(n - 1) + (n - 1) I(n - 2)."""
    counts = [1, 1]
    for n in range(2, max_n + 1):
        counts.append(counts[-1] + (n - 1) * counts[-2])
    return counts[: max_n + 1]


def test_involution_recurrence_matches_a_brute_force_count():
    for n in range(9):
        brute = sum(
            all(p[p[i]] == i for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert _involutions(8)[n] == brute


def test_half_sweep_certificate_to_44():
    # A yield with r > k stands for itself and its conjugate, one with
    # r == k for itself alone.  Per size: the count is p(n), the sum of
    # dimensions is the involution count (Robinson-Schensted) and the
    # sum of squares is n! (Frobenius).
    max_n = 44
    count, total, squares = ([0] * (max_n + 1) for _ in range(3))
    for size, rows, dim in oracle._sweep(max_n, half=True):
        w = 2 if rows[0] > len(rows) else 1
        count[size] += w
        total[size] += w * dim
        squares[size] += w * dim * dim
    n_range = range(1, max_n + 1)
    assert [count[n] for n in n_range] == oracle._partition_counts(max_n)[1:]
    assert [total[n] for n in n_range] == _involutions(max_n)[1:]
    assert [squares[n] for n in n_range] == [math.factorial(n) for n in n_range]


def test_sweep_divides_once_per_yielded_partition(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return divmod(a, b)

    monkeypatch.setattr(oracle, "divmod", counted, raising=False)
    for max_n, min_n, half in (
        (1, 1, False), (3, 1, True), (20, 1, False), (20, 15, False),
        (24, 1, True), (24, 20, True),
    ):
        calls.clear()
        yielded = sum(1 for _ in oracle._sweep(max_n, min_n, half))
        assert len(calls) == yielded


def test_floored_sweep_divides_every_partition_and_yields_those_at_the_floor(
    monkeypatch,
):
    # a floor filters the yields and nothing else: every partition is
    # still divided, and the survivors keep the floor-less order
    calls = []

    def counted(a, b):
        calls.append(None)
        return divmod(a, b)

    monkeypatch.setattr(oracle, "divmod", counted, raising=False)
    for max_n, min_n, half in (
        (20, 1, False), (20, 15, False), (24, 1, True), (24, 20, True),
    ):
        clean = list(oracle._sweep(max_n, min_n, half))
        best = [0] * (max_n + 1)
        for size, _, dim in clean:
            best[size] = max(best[size], dim)
        for floor in (best, [d // 3 for d in best]):
            calls.clear()
            got = list(oracle._sweep(max_n, min_n, half, floor))
            assert len(calls) == len(clean), (max_n, min_n, half)
            assert got == [t for t in clean if t[2] >= floor[t[0]]]
            assert len(got) < len(clean)


def _spy_yields(monkeypatch):
    """Patch oracle._sweep to record every item it yields; return that list."""
    yields = []
    sweep = oracle._sweep

    def spied(*args, **kwargs):
        for item in sweep(*args, **kwargs):
            yields.append(item)
            yield item

    monkeypatch.setattr(oracle, "_sweep", spied)
    return yields


def test_max_table_38_divides_every_half_sweep_partition_and_keeps_943_yields(
    monkeypatch,
):
    # _max_entries raises its floor as it goes: 77,631 divisions at
    # N = 38, one per half-sweep partition, for 943 yields
    floorless = sum(1 for _ in oracle._sweep(38, 1, True))
    calls = []

    def counted(a, b):
        calls.append(None)
        return divmod(a, b)

    monkeypatch.setattr(oracle, "divmod", counted, raising=False)
    yields = _spy_yields(monkeypatch)
    max_table(38)
    assert (len(calls), len(yields)) == (floorless, 943) == (77631, 943)


def test_conjugates_are_taken_once_per_final_maximizer(monkeypatch):
    # a yield stands for its conjugate pair: _conj runs on the kept rows
    # when the entries are built, not on each of the 943 (or 71) yields
    calls = []
    conj = oracle._conj

    def counted(rows):
        calls.append(None)
        return conj(rows)

    monkeypatch.setattr(oracle, "_conj", counted)
    max_table(38)
    table_calls = len(calls)
    calls.clear()
    max_dimension_diagrams(40)
    assert (table_calls, len(calls)) == (44, 1)


def _pushed(rows, max_n, half):
    """Whether the sweep pushes the frame of rows (r <= last in its parent's loop)."""
    lowest = max(rows[0], len(rows) + 1) if half else rows[0]
    return sum(rows) + lowest <= max_n


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
def test_sweep_raises_on_a_remainder_in_leaf_runs_and_pushed_frames(
    monkeypatch, half
):
    max_n = 9
    clean = [rows for _, rows, _ in oracle._sweep(max_n, half=half)]
    pushed = [i for i, rows in enumerate(clean) if _pushed(rows, max_n, half)]
    leaves = [i for i, rows in enumerate(clean) if not _pushed(rows, max_n, half)]
    assert pushed and leaves
    for index in (pushed[-1], leaves[len(leaves) // 2]):
        calls = []

        def broken(a, b):
            calls.append(None)
            q, rem = divmod(a, b)
            return (q, 1) if len(calls) == index + 1 else (q, rem)

        monkeypatch.setattr(oracle, "divmod", broken, raising=False)
        with pytest.raises(NonDivisibleHookProduct, match=re.escape(str(clean[index]))):
            list(oracle._sweep(max_n, half=half))
        assert len(calls) == index + 1


@pytest.mark.parametrize(
    "query, lo", [(max_table, 1), (max_dimension_core, 12)], ids=["table", "core"]
)
def test_a_remainder_raises_for_a_child_below_the_floor(monkeypatch, query, lo):
    # the floor is tested after the remainder, so a child that loses to
    # its size's best is still checked
    clean = [rows for _, rows, _ in oracle._sweep(12, lo, half=True)]
    yields = _spy_yields(monkeypatch)
    query(12)
    yielded = {rows for _, rows, _ in yields}
    losers = [i for i, rows in enumerate(clean) if rows not in yielded]
    assert losers and yielded
    index = losers[len(losers) // 2]
    calls = []

    def broken(a, b):
        calls.append(None)
        q, rem = divmod(a, b)
        return (q, 1) if len(calls) == index + 1 else (q, rem)

    monkeypatch.setattr(oracle, "divmod", broken, raising=False)
    with pytest.raises(NonDivisibleHookProduct, match=re.escape(str(clean[index]))):
        query(12)
    assert len(calls) == index + 1


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize(
    "args, digest",
    [
        ((30, 1, False), "cd7815e3211f324f4ee68c6ee5c20955c8dad93136f75ca97a0ca4d3f30af5b7"),
        ((30, 30, False), "d319fc57509e7d993e64faa0584c22af8642f165244ad81d55c07f7f6a655202"),
        ((34, 1, True), "780e7330e34c525140803bf78751d5d8e442afa03c8f5ad55303afe7139a7f6d"),
        ((34, 30, True), "650d5ca843e2a232ebe9565140d8a4702965e1693a1a16ddd38e819d99e8e978"),
    ],
    ids=["full", "full-30", "half", "half-30"],
)
def test_sweep_output_is_pinned(args, digest):
    # the sorted (size, rows, dim) triples: the yield order is free
    assert _sha(sorted(oracle._sweep(*args))) == digest


def test_all_dimensions_output_is_pinned():
    # keys in their order, then dimensions
    assert _sha(list(all_dimensions(26).items())) == (
        "04448082f2fd6a780a884c42450be2d3636068b6cfdfbd83d40340b60d386593"
    )


def test_half_sweep_tables_match_full_sweep_argmax(core_table_40):
    # Cross-check: the tables take the half sweep plus conjugates; the
    # full sweep makes every partition a candidate in its own right.
    assert max_table(40) == argmax_over_full_sweep(40)
    want = argmax_over_full_sweep(
        40, keep=lambda rows: YoungDiagram(rows).in_core_subgraph()
    )
    assert core_table_40 == want
    for entry in want:
        assert max_dimension_core(entry.n) == entry


def test_max_table_matches_per_size_hook_oracle():
    assert max_table(30) == [argmax_by_hook_product(n) for n in range(1, 31)]


def test_max_dimension_core_matches_per_size_hook_oracle():
    for n in range(1, 25):
        want = argmax_by_hook_product(n, keep=YoungDiagram.in_core_subgraph)
        assert max_dimension_core(n) == want


def test_max_dimension_core_known_value():
    entry = max_dimension_core(10)
    assert [d.rows for d in entry.maximizers] == [(4, 3, 2, 1)]
    assert entry.dim == 768
    # the unrestricted maximum at 10 is the same diagram up to conjugation
    assert max_dimension_diagrams(10).dim == 768


def test_max_geometry_clean_at_small_sizes():
    rep = verify_max_geometry(12)
    assert rep.failures == []
    assert rep.checked == 17
    # a longer table's extra sizes are skipped
    assert verify_max_geometry(10, table=max_table(14)) == verify_max_geometry(10)


def test_max_geometry_reports_each_failing_predicate():
    # (3, 3) and its conjugate (2, 2, 2) are both outside the core, and
    # its asymmetric boxes (1, 3) and (2, 3) share a column
    bad = [MaxTableEntry(6, (YoungDiagram((3, 3)),), 5)]
    assert verify_max_geometry(6, table=bad) == GeometryReport(
        checked=1, failures=[(6, (3, 3), "core"), (6, (3, 3), "isolated")]
    )


def test_one_box_claim_clean_at_small_sizes():
    rep = verify_one_box_claim(12)
    assert rep.exceptions == []
    assert rep.checked == 17
    assert verify_one_box_claim(10, table=max_table(14)) == verify_one_box_claim(10)


def test_one_box_claim_first_exceptions_at_fourteen():
    # The first conjugate pair of maximizers carrying two boxes beyond
    # the base.  Both still keep those boxes one per row and column.
    rep = verify_one_box_claim(14)
    assert rep.exceptions == [
        (14, (5, 3, 2, 2, 1, 1), 2),
        (14, (6, 4, 2, 1, 1), 2),
    ]
    geo = verify_max_geometry(14)
    assert geo.failures == []


def test_greedy_endpoint_can_trail_the_true_maximum():
    greedy_15 = dim_exact(greedy_sequence(15)[-1])
    assert greedy_15 <= max_dimension_diagrams(15).dim
