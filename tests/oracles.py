"""Test oracles shared by several test modules."""

import itertools
import math

import numpy as np


def brute_force_assign(costs) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive minimum over all injections of the rows of ``costs``
    [g, q] into its columns: the (row, column) pairs and their total."""
    costs = np.asarray(costs, dtype=np.float64)
    g, q = costs.shape
    best_cost, best = math.inf, None
    for combo in itertools.permutations(range(q), g):
        c = float(sum(costs[r, col] for r, col in enumerate(combo)))
        if c < best_cost:
            best_cost, best = c, combo
    if best is None:
        return [], 0.0
    return list(enumerate(best)), best_cost
