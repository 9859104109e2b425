import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from youngdim import Box, GrowthPath, YoungDiagram

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@st.composite
def partition_diagrams(draw, max_n=14):
    """Random diagram with 1..max_n boxes, drawn row by row."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    remaining = n
    cap = n
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        rows.append(part)
        cap = part
        remaining -= part
    return YoungDiagram(rows)


def hook_ratio(diagram, box):
    """Exact dim(diagram + box) / dim(diagram), hook by hook.

    Only hooks in the added box's row and column change, so the ratio
    is (n+1) times the product of old over new hooks on those lines.
    The library computes transition probabilities from box contents
    instead; this slow form is the cross-check.
    """
    bigger = diagram.add_box(box)
    r, c = box
    num = diagram.size + 1
    den = 1
    for j in range(1, diagram.row_length(r) + 1):
        num *= diagram.hook_length(Box(r, j))
        den *= bigger.hook_length(Box(r, j))
    for i in range(1, diagram.col_height(c) + 1):
        num *= diagram.hook_length(Box(i, c))
        den *= bigger.hook_length(Box(i, c))
    return Fraction(num, den)


def random_diagram(n, rng):
    """Uniform-ish random diagram of size n grown box by box."""
    cur = YoungDiagram(())
    for _ in range(n):
        cur = cur.add_box(rng.choice(cur.addable_boxes()))
    return cur


def random_growth_path(diagram, rng):
    """A random path from the empty diagram to the given one."""
    boxes = []
    cur = diagram
    while cur.size:
        corner = rng.choice(cur.removable_boxes())
        boxes.append(corner)
        cur = cur.remove_box(corner)
    boxes.reverse()
    return GrowthPath(start=YoungDiagram(()), steps=tuple(boxes))


@pytest.fixture
def rng():
    return random.Random(20240817)
