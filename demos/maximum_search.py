"""
Finding maximum-dimension diagrams
==================================

Which diagram of n boxes has the most standard fillings?  Brute force
answers exactly up to a bound.  The maximizers turn out to live (up to
conjugation) in a thin slice of the growth graph: diagrams equal to
their base subdiagram plus below-diagonal leftovers, at most one per
row.  Searching only that slice with a best-first tree walk finds the
same answers while expanding a fraction of the shapes.
"""

from youngdim import (
    YoungDiagram,
    all_dimensions,
    astar,
    dim_exact,
    local_improve,
    max_dimension_core,
    max_dimension_diagrams,
    sequence_improve,
    greedy_sequence,
    verify_one_box_claim,
)

# The exact maxima for the first sizes; twin entries are conjugate
# pairs sharing the dimension.
for n in range(1, 17):
    e = max_dimension_diagrams(n)
    print("n=%2d dim %8d  %s" % (n, e.dim, ", ".join(str(m.rows) for m in e.maximizers)))

# How thin is the slice?  At n=16 it keeps 57 of 231 shapes.
n = 16
shapes = all_dimensions(n)
core = [rows for rows in shapes if YoungDiagram(rows).in_core_subgraph()]
print("shapes at n=%d: %d, in the slice: %d" % (n, len(shapes), len(core)))

# Uniform-cost search over the slice finds the exact in-slice maximum;
# the cheapest-edge heuristic usually agrees while expanding far less.
exact = astar(22, uniform_cost=True)
quick = astar(22)
oracle = max_dimension_core(22)
print("uniform-cost: %s dim %d, %d nodes" % (exact.diagram.rows, exact.dim, exact.nodes_expanded))
print("heuristic:    %s dim %d, %d nodes" % (quick.diagram.rows, quick.dim, quick.nodes_expanded))
print("oracle agrees:", exact.dim == oracle.dim)

# Greedy growth stalls at size 15.  Re-searching each size from three
# levels below replaces the stalled entry with the staircase, which is
# the true maximum there.  local_improve is the single-shape version:
# grow one diagram `depth` levels by tree search instead of greedily.
seq = greedy_sequence(18)
print("greedy at 15:", seq[14].rows, "dim", dim_exact(seq[14]))
out = sequence_improve(seq, 3)
print("sizes improved along the sequence:", out.improved_sizes)
print("new at 15:   ", out.sequence[14].rows, "dim", dim_exact(out.sequence[14]))
deeper = local_improve(seq[14], depth=3)
print("three levels on from the stalled shape:", deeper.rows, "dim", dim_exact(deeper))

# The maximizers hug symmetry, but not within one box: from n=14 on,
# conjugate pairs carry two (once three) extra boxes beyond the base.
rep = verify_one_box_claim(20)
for n, rows, excess in rep.exceptions:
    print("n=%2d %s sits %d boxes beyond its base" % (n, rows, excess))
