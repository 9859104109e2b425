"""
Plancherel growth and greedy sequences
======================================

Growing a diagram one box at a time, where each addable box is taken
with probability dim(bigger) / ((n+1) * dim(smaller)).  The transition
probabilities are exact rationals, every growth path to a diagram has
the same total cost, and always following the most probable box gives
the greedy sequence.
"""

from fractions import Fraction

from youngdim import (
    GrowthPath,
    YoungDiagram,
    branches,
    dim_exact,
    greedy_sequence,
    log_dim,
    log_factorial,
    max_dimension_diagrams,
    path_cost,
    shake,
    transition_edges,
)

# The outgoing edges of (2, 1), most probable first: three addable
# boxes, probabilities summing to exactly one.
lam = YoungDiagram([2, 1])
for e in transition_edges(lam):
    print("add", tuple(e.box), "probability", e.probability, "weight %.4f" % e.weight)
print("sum:", sum(e.probability for e in transition_edges(lam)) == Fraction(1))

# Path costs are a function of the endpoint alone.  Two different
# routes to (2, 2) cost the same, and the total is ln(n!) - ln(dim).
route_a = GrowthPath(YoungDiagram(), ((1, 1), (1, 2), (2, 1), (2, 2)))
route_b = GrowthPath(YoungDiagram(), ((1, 1), (2, 1), (1, 2), (2, 2)))
target = YoungDiagram([2, 2])
print("route a: %.10f" % path_cost(route_a))
print("route b: %.10f" % path_cost(route_b))
print("formula: %.10f" % (log_factorial(4) - log_dim(target)))

# The greedy sequence: always add the most probable box.  It tracks the
# maximum dimension for a while, but at size 15 it falls behind.
seq = greedy_sequence(15)
for d in seq:
    best = max_dimension_diagrams(d.size).dim
    mark = "  <- behind" if dim_exact(d) < best else ""
    print("n=%2d  %-22s dim %8d  max %8d%s" % (d.size, str(d.rows), dim_exact(d), best, mark))

# Shaking re-routes a stuck shape: add the k best boxes, then drop the
# k weakest corners.  Branch search shakes the start m ways (seeded),
# grows each greedily, and keeps the best diagram per size.
start = seq[9]
print("shake(2):", start.rows, "->", shake(start, 2).rows)
best_per_size = branches(start, 3, 2, 15, seed_base=7)
final = best_per_size[-1]
print("branches final: %s dim %d (greedy had %d)" % (
    final.rows, dim_exact(final), dim_exact(seq[-1])))
