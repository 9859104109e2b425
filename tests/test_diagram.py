import pytest
from hypothesis import given

from youngdim import Box, YoungDiagram, reflected
from youngdim.errors import (
    BoxOutsideDiagram,
    InvariantViolation,
    NegativeRowLength,
    NonMonotoneRows,
    NotAddable,
    NotRemovable,
)

from conftest import partition_diagrams, partitions


def test_construction_basics():
    d = YoungDiagram([4, 2, 2])
    assert d.rows == (4, 2, 2)
    assert d.size == 8
    assert d.row_count == 3
    assert YoungDiagram([]).size == 0
    assert YoungDiagram([3, 1, 0, 0]).rows == (3, 1)


def test_construction_rejects_bad_rows():
    with pytest.raises(NonMonotoneRows):
        YoungDiagram([2, 3])
    with pytest.raises(NonMonotoneRows):
        YoungDiagram([1, 0, 1])
    with pytest.raises(NegativeRowLength):
        YoungDiagram([3, -1])
    with pytest.raises(TypeError):
        YoungDiagram([2.5, 1])


def test_value_semantics():
    a = YoungDiagram([3, 1])
    b = YoungDiagram((3, 1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != YoungDiagram([3])
    # a plain tuple is not a diagram, whatever its rows
    assert not YoungDiagram((2, 1)) == (2, 1)
    assert YoungDiagram((2, 1)) != (2, 1)
    assert repr(a) == "YoungDiagram([3, 1])"
    assert str(a) == "3,1"
    assert str(YoungDiagram([])) == ""


def test_conjugate_known_values():
    assert YoungDiagram([4, 2, 2]).conjugate().rows == (3, 3, 1, 1)
    assert YoungDiagram([3, 1, 1]).conjugate().rows == (3, 1, 1)
    assert YoungDiagram([]).conjugate().rows == ()
    assert YoungDiagram([5]).conjugate().rows == (1, 1, 1, 1, 1)


def test_conjugate_is_the_transpose_of_the_box_set_exhaustive():
    # an involution test alone also passes for a wrong map like rows -> rows
    for n in range(17):
        for d in partitions(n):
            transposed = {Box(c, r) for r, c in d.boxes()}
            assert set(YoungDiagram(d.conjugate_rows()).boxes()) == transposed


@given(partition_diagrams())
def test_conjugate_involution(d):
    assert d.conjugate().conjugate() == d
    assert d.conjugate().size == d.size


def test_is_symmetric():
    assert YoungDiagram([3, 1, 1]).is_symmetric()
    assert YoungDiagram([]).is_symmetric()
    assert not YoungDiagram([4, 2, 2]).is_symmetric()


def test_boxes_and_contains():
    d = YoungDiagram([2, 1])
    assert list(d.boxes()) == [Box(1, 1), Box(1, 2), Box(2, 1)]
    assert Box(1, 2) in d
    assert Box(2, 2) not in d
    assert Box(3, 1) not in d


def test_hook_length_known_values():
    assert YoungDiagram([3, 2, 1]).hook_length(Box(1, 1)) == 5
    assert YoungDiagram([7]).hook_length(Box(1, 1)) == 7
    assert YoungDiagram([4, 2, 2]).hook_length(Box(1, 2)) == 5
    with pytest.raises(BoxOutsideDiagram):
        YoungDiagram([2, 1]).hook_length(Box(2, 2))


@given(partition_diagrams())
def test_hook_multiset_conjugation(d):
    own = sorted(d.hook_length(b) for b in d.boxes())
    flipped = sorted(d.conjugate().hook_length(reflected(b)) for b in d.boxes())
    assert own == flipped


def test_addable_boxes_known_values():
    assert YoungDiagram([]).addable_boxes() == [Box(1, 1)]
    assert YoungDiagram([2, 1]).addable_boxes() == [Box(1, 3), Box(2, 2), Box(3, 1)]
    assert YoungDiagram([2, 2]).addable_boxes() == [Box(1, 3), Box(3, 1)]


def test_removable_boxes_known_values():
    assert YoungDiagram([2, 1]).removable_boxes() == [Box(1, 2), Box(2, 1)]
    assert YoungDiagram([3, 3]).removable_boxes() == [Box(2, 3)]
    assert YoungDiagram([]).removable_boxes() == []


@given(partition_diagrams())
def test_addable_count_is_distinct_lengths_plus_one(d):
    assert len(d.addable_boxes()) == len(set(d.rows)) + 1


@given(partition_diagrams())
def test_add_then_remove_roundtrip(d):
    for b in d.addable_boxes():
        bigger = d.add_box(b)
        assert bigger.size == d.size + 1
        assert b in bigger.removable_boxes()
        assert bigger.remove_box(b) == d


def test_add_remove_rejections():
    d = YoungDiagram([2, 1])
    with pytest.raises(NotAddable):
        d.add_box(Box(1, 4))
    with pytest.raises(NotAddable):
        d.add_box(Box(1, 1))
    with pytest.raises(NotRemovable):
        d.remove_box(Box(1, 1))
    with pytest.raises(NotRemovable):
        d.remove_box(Box(3, 1))


def _is_diagram(boxes):
    # a box set is a Young diagram when it is closed toward the top left
    return all(
        r >= 1 and c >= 1 and (r == 1 or (r - 1, c) in boxes) and (c == 1 or (r, c - 1) in boxes)
        for r, c in boxes
    )


def test_can_add_and_can_remove_match_box_sets():
    # every box in and around each diagram up to 12 boxes: a box is
    # addable or removable exactly when the result is still a diagram
    for n in range(13):
        for d in partitions(n):
            boxes = {tuple(b) for b in d.boxes()}
            for r in range(d.row_count + 3):
                for c in range(d.row_length(1) + 3):
                    box = (r, c)
                    assert d.can_add(box) == (
                        box not in boxes and _is_diagram(boxes | {box})
                    ), (d.rows, box)
                    assert d.can_remove(box) == (
                        box in boxes and _is_diagram(boxes - {box})
                    ), (d.rows, box)


def test_box_predicates_reject_malformed_boxes():
    d = YoungDiagram([2, 1])
    with pytest.raises(ValueError):
        d.can_add((1, 3, 1))
    with pytest.raises(ValueError):
        d.can_remove((1, 2, 1))


def test_base_subdiagram_known_values():
    assert YoungDiagram([4, 2, 2]).base_subdiagram().rows == (3, 2, 1)
    assert YoungDiagram([3, 1, 1]).base_subdiagram().rows == (3, 1, 1)
    assert YoungDiagram([3, 1]).base_subdiagram().rows == (2, 1)


@given(partition_diagrams())
def test_base_subdiagram_properties(d):
    base = d.base_subdiagram()
    assert base.is_symmetric()
    assert base == d.conjugate().base_subdiagram()
    assert all(b in d for b in base.boxes())


def test_asymmetric_boxes_known_values():
    up, down = YoungDiagram([4, 2, 2]).asymmetric_boxes()
    assert up == frozenset({Box(1, 4)})
    assert down == frozenset({Box(3, 2)})
    assert YoungDiagram([3, 1, 1]).asymmetric_boxes() == (frozenset(), frozenset())
    up, down = YoungDiagram([2, 1, 1, 1]).asymmetric_boxes()
    assert up == frozenset()
    assert down == frozenset({Box(3, 1), Box(4, 1)})


def test_asymmetric_boxes_raise_on_a_diagonal_box_outside_the_base(monkeypatch):
    # the diagonal always belongs to the base; a base that misses it is
    # broken bookkeeping, and the loop checks rather than assumes
    monkeypatch.setattr(YoungDiagram, "base_subdiagram", lambda self: YoungDiagram([]))
    with pytest.raises(InvariantViolation, match="diagonal"):
        YoungDiagram([2, 1]).asymmetric_boxes()


@given(partition_diagrams())
def test_asymmetric_boxes_partition_the_complement(d):
    up, down = d.asymmetric_boxes()
    base = d.base_subdiagram()
    outside = {b for b in d.boxes() if b not in base}
    assert up | down == outside
    assert all(b.row < b.col for b in up)
    assert all(b.row > b.col for b in down)
    assert (up, down) == (frozenset(), frozenset()) or not d.is_symmetric()


@given(partition_diagrams())
def test_symmetric_iff_no_asymmetric_boxes(d):
    up, down = d.asymmetric_boxes()
    assert d.is_symmetric() == (not up and not down)


def test_isolated_asymmetric_boxes_known_values():
    assert YoungDiagram([4, 2, 2]).has_isolated_asymmetric_boxes()
    assert not YoungDiagram([2, 1, 1, 1]).has_isolated_asymmetric_boxes()
    assert YoungDiagram([3, 1, 1]).has_isolated_asymmetric_boxes()


@given(partition_diagrams())
def test_isolated_asymmetric_boxes_make_corners(d):
    # every asymmetric box of a diagram with isolated asymmetry is removable
    if d.has_isolated_asymmetric_boxes():
        up, down = d.asymmetric_boxes()
        corners = set(d.removable_boxes())
        assert (up | down) <= corners


def test_in_core_subgraph_known_values():
    assert YoungDiagram([2, 1, 1]).in_core_subgraph()
    assert not YoungDiagram([3, 1]).in_core_subgraph()
    assert YoungDiagram([3, 1, 1]).in_core_subgraph()
    assert YoungDiagram([2, 1, 1, 1]).in_core_subgraph()
    assert not YoungDiagram([3, 3, 3, 3]).in_core_subgraph()


def test_integer_core_tests_match_box_sets_exhaustive():
    # the definitions, read off the asymmetric box sets
    for n in range(0, 23):
        for d in partitions(n):
            up, down = d.asymmetric_boxes()
            boxes = up | down
            core = not up and len({b.row for b in down}) == len(down)
            isolated = len({b.row for b in boxes}) == len(boxes) == len(
                {b.col for b in boxes}
            )
            assert d.in_core_subgraph() == core, d.rows
            assert d.has_isolated_asymmetric_boxes() == isolated, d.rows


@given(partition_diagrams())
def test_core_membership_vs_conjugate(d):
    # a core diagram with boxes below the diagonal cannot have a core conjugate
    up, down = d.asymmetric_boxes()
    if d.in_core_subgraph() and down:
        assert not d.conjugate().in_core_subgraph()


def test_reflected():
    assert reflected(Box(3, 1)) == Box(1, 3)
    assert reflected(Box(2, 2)) == Box(2, 2)
