"""
Counting standard fillings of Young diagrams
============================================

A diagram with rows (3, 2, 1) has six boxes.  A standard filling puts
the numbers 1..6 into the boxes so that every row grows rightward and
every column grows downward.  The number of such fillings is the
dimension of the diagram, and the hook length formula computes it from
box geometry alone.
"""

import math

from youngdim import (
    YoungDiagram,
    all_dimensions,
    count_syt_enumeration,
    dim_exact,
    dim_recursive,
    hook_product,
    log_dim,
    normalized_dim,
)

# A hook counts the box itself, everything to its right, and everything
# below it.  The dimension is n! divided by the product of all hooks.
staircase = YoungDiagram([3, 2, 1])
print("rows:", staircase.rows)
print("hooks:", [staircase.hook_length(b) for b in sorted(staircase.boxes())])
print("hook product:", hook_product(staircase))
print("dimension:", dim_exact(staircase))

# Three independent ways to the same number: the hook formula, a
# memoized recursion over corner removals, and literally enumerating
# every filling one at a time.
for rows in all_dimensions(6):
    lam = YoungDiagram(rows)
    a = dim_exact(lam)
    b = dim_recursive(lam)
    c = count_syt_enumeration(lam)
    print("%-20s %6d %6d %6d" % (str(lam.rows), a, b, c))

# Dimensions square-sum to n!, one of the classical identities.  The
# oracle's sweep gives every partition of n with its exact dimension.
n = 10
total = sum(d**2 for d in all_dimensions(n).values())
print("sum of squared dims at n=%d: %d = %d!" % (n, total, n), total == math.factorial(n))

# Exact integers stay exact at sizes where floats long gave up.  The
# 20-row staircase has 210 boxes and a dimension with 194 digits, so
# comparisons between large diagrams go through logarithms.
big = YoungDiagram(range(20, 0, -1))
print("staircase-20 size:", big.size)
print("digits in its dimension:", len(str(dim_exact(big))))
print("log dimension: %.4f" % log_dim(big))
print("normalized: %.6f" % normalized_dim(big))
