import tracemalloc

import pytest
from hypothesis import given

from youngdim import (
    Box,
    YoungDiagram,
    all_dimensions,
    balance,
    balance_sweep,
    balance_to_core,
    check_reflection_hook_identities,
    dim_exact,
    reflection_hooks_sweep,
    symmetrize,
    symmetrize_sweep,
)
from youngdim import dimension, oracle, transforms
from youngdim.errors import (
    AsymmetricBoxesNotIsolated,
    BalanceNotApplicable,
    DegenerateOverlap,
    InvalidResultShape,
    NotAddable,
    ShapeBlocked,
)

from conftest import (
    balanced_by_boxes,
    hook_identities_by_boxes,
    partition_count,
    partition_diagrams,
    partitions,
    symmetrize_by_boxes,
    to_core_by_boxes,
)


def test_symmetrize_strict_example():
    rep = symmetrize(YoungDiagram([4, 2, 2]))
    assert rep.output.rows == (4, 3, 1)
    assert (rep.dim_input, rep.dim_output) == (56, 70)
    assert rep.strict_expected


def test_symmetrize_symmetric_input_is_identity():
    lam = YoungDiagram([3, 1, 1])
    rep = symmetrize(lam)
    assert rep.output == lam
    assert rep.dim_input == rep.dim_output
    assert not rep.strict_expected


def test_symmetrize_below_only_gives_conjugate():
    rep = symmetrize(YoungDiagram([2, 2, 1]))
    assert rep.output.rows == (3, 2)
    assert rep.dim_input == rep.dim_output == 5
    assert not rep.strict_expected


def test_symmetrize_above_only_is_identity():
    lam = YoungDiagram([3, 2])
    rep = symmetrize(lam)
    assert rep.output == lam
    assert not rep.strict_expected


def test_symmetrize_rejects_crowded_asymmetric_boxes():
    with pytest.raises(AsymmetricBoxesNotIsolated):
        symmetrize(YoungDiagram([2, 1, 1, 1]))


@given(partition_diagrams(max_n=12))
def test_symmetrize_properties(d):
    if not d.has_isolated_asymmetric_boxes():
        return
    rep = symmetrize(d)
    assert rep.output.size == d.size
    up, down = rep.output.asymmetric_boxes()
    assert not down
    again = symmetrize(rep.output)
    assert again.output == rep.output
    mirrored = symmetrize(d.conjugate())
    assert dim_exact(mirrored.output) == dim_exact(rep.output)
    if rep.strict_expected:
        assert rep.dim_output > rep.dim_input
    else:
        assert rep.dim_output == rep.dim_input


def test_symmetrize_rows_match_box_sets_exhaustively():
    seen = 0
    for n in range(1, 23):
        for lam in partitions(n):
            if not lam.has_isolated_asymmetric_boxes():
                continue
            rep = symmetrize(lam)
            assert (rep.output.rows, rep.strict_expected) == symmetrize_by_boxes(lam)
            seen += 1
    assert seen == 509


def test_symmetrize_rows_reject_a_non_diagram_result():
    # Unreachable from an isolated diagram; a wrong conjugate reaches it.
    with pytest.raises(InvalidResultShape):
        transforms._symmetrized((2, 2, 2), (3, 3, 1))


def test_symmetrize_strict_exhaustive_small():
    sweep = symmetrize_sweep(12)
    assert sweep.violations == []
    assert sweep.checked + sweep.skipped == sum(
        partition_count(n) for n in range(1, 13)
    )
    assert sweep.strict > 0
    assert sweep.equal > 0


def test_hook_identities_worked_pairs():
    base = YoungDiagram([3, 2, 1])
    assert check_reflection_hook_identities(base, Box(1, 4), Box(3, 2))
    assert check_reflection_hook_identities(base, Box(2, 3), Box(4, 1))


def test_hook_identities_rejections():
    base = YoungDiagram([3, 2, 1])
    with pytest.raises(NotAddable):
        check_reflection_hook_identities(base, Box(1, 5), Box(3, 2))
    with pytest.raises(NotAddable):
        check_reflection_hook_identities(base, Box(4, 1), Box(3, 2))
    with pytest.raises(NotAddable):
        check_reflection_hook_identities(base, Box(1, 4), Box(2, 3))
    with pytest.raises(DegenerateOverlap):
        check_reflection_hook_identities(YoungDiagram([2, 1]), Box(1, 3), Box(3, 1))
    with pytest.raises(ValueError):
        check_reflection_hook_identities(YoungDiagram([3, 1]), Box(1, 4), Box(3, 1))


def test_hook_identities_exhaustive_small():
    checked, failures = reflection_hooks_sweep(8)
    assert failures == []
    assert checked > 0


def test_hook_identities_match_box_level_hooks():
    # every ordered pair of the base's addable boxes and corners, over
    # every symmetric base up to 20 boxes, plus asymmetric bases up to 8:
    # the same result, or the same error type and message
    def outcome(fn, base, upper, lower):
        try:
            return fn(base, upper, lower)
        except ValueError as exc:
            return type(exc), str(exc)

    seen = set()
    for n in range(1, 21):
        for base in partitions(n):
            symmetric = base.is_symmetric()
            if not symmetric and n > 8:
                continue
            boxes = base.addable_boxes() + base.removable_boxes()
            for upper in boxes:
                for lower in boxes:
                    want = outcome(hook_identities_by_boxes, base, upper, lower)
                    got = outcome(check_reflection_hook_identities, base, upper, lower)
                    assert got == want, (base.rows, upper, lower)
                    seen.add(want if isinstance(want, bool) else want[0])
    assert seen == {True, NotAddable, DegenerateOverlap, ValueError}


def test_hook_identities_report_a_wrong_closed_form(monkeypatch):
    real = transforms._expected_hooks

    def swapped(*args):
        boxes, before, after = real(*args)
        return boxes, after, before

    monkeypatch.setattr(transforms, "_expected_hooks", swapped)
    assert not check_reflection_hook_identities(YoungDiagram((3, 2, 1)), (1, 4), (3, 2))
    assert reflection_hooks_sweep(6) == (
        2,
        [((3, 2, 1), (1, 4), (3, 2)), ((3, 2, 1), (2, 3), (4, 1))],
    )


def test_symmetrize_sweep_reports_violations(monkeypatch):
    # an output that keeps its input and claims a strict gain fails everywhere
    monkeypatch.setattr(transforms, "_symmetrized", lambda rows, conj: (rows, True))
    sweep = symmetrize_sweep(5)
    assert (sweep.checked, sweep.strict, sweep.equal) == (10, 0, 0)
    assert len(sweep.violations) == 10
    assert sweep.violations[0] == ((1,), (1,), 1, 1)


def test_symmetric_bases_match_the_oracle_sweep():
    # cross-check: the hook sweep lists the symmetric partitions from
    # their distinct odd diagonal hooks, and the theorem sweep builds the
    # isolated ones from those bases; the oracle's full sweep, filtered
    # to symmetric or isolated rows, must give the same lists in its order
    for n in range(1, 31):
        diagrams = [YoungDiagram._from_valid(rows) for rows in all_dimensions(n)]
        want = [d.rows for d in diagrams if d.is_symmetric()]
        assert transforms._symmetric_partitions(n) == want, n
        want = [d.rows for d in diagrams if d.has_isolated_asymmetric_boxes()]
        assert transforms._isolated_partitions(n) == want, n


def test_balance_known_values():
    rep = balance(YoungDiagram([1, 1, 1]), 1)
    assert rep.output.rows == (2, 1)
    assert (rep.dim_input, rep.dim_output) == (1, 2)
    rep = balance(YoungDiagram([2, 1, 1, 1]), 1)
    assert rep.output.rows == (3, 1, 1)
    assert (rep.dim_input, rep.dim_output) == (4, 6)


def test_balance_not_applicable():
    with pytest.raises(BalanceNotApplicable):
        balance(YoungDiagram([2, 2]), 1)
    with pytest.raises(BalanceNotApplicable):
        balance(YoungDiagram([2, 2]), 5)
    with pytest.raises(ValueError):
        balance(YoungDiagram([2, 2]), 0)


def test_balance_blocked_keeps_stuck_diagram():
    with pytest.raises(ShapeBlocked) as err:
        balance(YoungDiagram([2, 2, 2, 2]), 1)
    assert err.value.diagram is not None


@given(partition_diagrams(max_n=12))
def test_balance_halves_the_imbalance(d):
    width = max(d.row_count, d.row_length(1))
    for i in range(1, width + 1):
        diff = d.col_height(i) - d.row_length(i)
        if diff <= 0:
            continue
        try:
            rep = balance(d, i)
        except ShapeBlocked:
            continue
        assert rep.output.size == d.size
        new_diff = rep.output.col_height(i) - rep.output.row_length(i)
        assert new_diff in (0, -1)


def _outcome(fn, *args):
    """A diagram's rows and conjugate, or the error's type, message and stuck rows."""
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as exc:
        stuck = getattr(exc, "diagram", None)
        return type(exc), str(exc), None if stuck is None else stuck.rows
    return out.rows, out.conjugate_rows()


def test_balance_matches_box_level_moves():
    # every partition up to 14 boxes, at every line index from 0 to one
    # past its larger side, and balance_to_core on each
    for n in range(1, 15):
        for d in partitions(n):
            for i in range(max(d.row_count, d.row_length(1)) + 2):
                want = _outcome(balanced_by_boxes, d, i)
                assert _outcome(lambda: balance(d, i).output) == want, (d.rows, i)
            want = _outcome(to_core_by_boxes, d)
            assert _outcome(lambda: balance_to_core(d).output) == want, d.rows


def test_balance_to_core_known_values():
    # [1,1,1] already has its lone-column boxes one per row, so no move runs.
    assert YoungDiagram([1, 1, 1]).in_core_subgraph()
    assert balance_to_core(YoungDiagram([1, 1, 1])).output.rows == (1, 1, 1)
    lam = YoungDiagram([3, 1, 1])
    assert balance_to_core(lam).output == lam
    assert balance_to_core(YoungDiagram([2, 1, 1])).output.rows == (2, 1, 1)
    # Row 4 of [3,3,3,3] carries three asymmetric boxes; indices 1..3 are
    # blocked and index 4 moves two boxes through the conjugate side.
    rep = balance_to_core(YoungDiagram([3, 3, 3, 3]))
    assert rep.output.rows == (4, 4, 3, 1)
    assert (rep.dim_input, rep.dim_output) == (462, 2970)
    # A round applies every line's move before the membership test, so a
    # single move that lands in the core cannot cut the round short with
    # a smaller dimension.  [6,5,1,1] reaches core one move in but the
    # full round carries it to a diagram almost four times as large.
    rep = balance_to_core(YoungDiagram([6, 5, 1, 1]))
    assert rep.output.rows == (5, 4, 2, 1, 1)
    assert (rep.dim_input, rep.dim_output) == (5720, 21450)
    with pytest.raises(ShapeBlocked) as err:
        balance_to_core(YoungDiagram([5, 5]))
    assert err.value.diagram.rows == (5, 5)


@given(partition_diagrams(max_n=14))
def test_balance_to_core_ends_in_core(d):
    try:
        rep = balance_to_core(d)
    except ShapeBlocked:
        return
    out = rep.output
    assert out.size == d.size
    assert out.in_core_subgraph() or out.conjugate().in_core_subgraph()


def test_symmetrize_sweep_reads_no_partition_enumeration(monkeypatch):
    want = symmetrize_sweep(20)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the theorem sweep enumerated every partition")

    monkeypatch.setattr(oracle, "_sweep", no_sweep)
    assert symmetrize_sweep(20) == want


def test_balance_sweep_small_records_no_decrease():
    sweep = balance_sweep(12)
    assert sweep.decreased == []
    assert sweep.checked == sum(partition_count(n) for n in range(1, 13))
    assert sweep.increased > 0


def test_balance_sweep_reports_decreases(monkeypatch):
    # every diagram is sent to the one row, of dimension 1: the one row
    # and the one column of each size tie, and the rest decrease
    monkeypatch.setattr(transforms, "_to_core", lambda rows, conj: (sum(rows),))
    sweep = balance_sweep(6)
    assert (sweep.checked, sweep.increased, sweep.equal) == (29, 0, 11)
    assert len(sweep.decreased) == 18
    assert sweep.blocked == []


def test_sweeps_compute_no_hook_products(monkeypatch):
    calls = []
    real = dimension.hook_product

    def counting(diagram):
        calls.append(diagram.rows)
        return real(diagram)

    monkeypatch.setattr(dimension, "hook_product", counting)
    # the theorem sweep computes two per diagram it checks, and none for
    # a skipped one; its outputs are isolated too
    sweep = symmetrize_sweep(14)
    assert len(calls) == 2 * sweep.checked
    assert all(YoungDiagram(rows).has_isolated_asymmetric_boxes() for rows in calls)
    calls.clear()
    balance_sweep(14)
    assert calls == []
    # [6,5,1,1] takes several moves, and only its report computes dimensions.
    moves = []
    real_move = transforms._balanced

    def counting_move(rows, conj, index):
        moves.append(index)
        return real_move(rows, conj, index)

    monkeypatch.setattr(transforms, "_balanced", counting_move)
    rep = balance_to_core(YoungDiagram([6, 5, 1, 1]))
    assert len(moves) > 1
    assert calls == [(6, 5, 1, 1), (5, 4, 2, 1, 1)]
    assert (rep.dim_input, rep.dim_output) == (5720, 21450)
    # a diagram already in the core is its own output, with one dimension
    calls.clear()
    rep = balance_to_core(YoungDiagram([3, 1, 1]))
    assert rep.output is rep.input and calls == [(3, 1, 1)]


def _traced_peak(fn, *args):
    # tuples reused from CPython's free lists (up to 2,000 of each length
    # below 20) are not traced, so they are drained first and held
    held = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del held


def test_exhaustive_sweeps_hold_one_size_at_a_time():
    # every check compares two diagrams of one size, so a sweep to 28
    # needs no more memory than the 3,718 partitions of 28 alone; one
    # holding every size up to 28 at once peaks above 4x
    one_size = _traced_peak(all_dimensions, 28)
    for sweep in (symmetrize_sweep, reflection_hooks_sweep):
        assert _traced_peak(sweep, 28) <= 2 * one_size, sweep.__name__
