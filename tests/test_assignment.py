import numpy as np
import pytest

from taskfusion.assignment import (AssignmentDomainError, AssignmentError,
                                   AssignmentSizeError, hungarian)
from taskfusion.seeding import rng_for

from oracles import brute_force_assign


def _solve(costs):
    """The batched solver on one clip's [g, q] costs: its query indices."""
    costs = np.asarray(costs, dtype=np.float64)
    return list(hungarian(costs[None], [costs.shape[0]])[0])


def _paid(costs, cols) -> float:
    return float(sum(costs[r, c] for r, c in enumerate(cols)))


def _valid(cols, q: int) -> bool:
    return len(set(cols)) == len(cols) and all(0 <= c < q for c in cols)


def test_two_by_two_case():
    assert _solve([[1.0, 2.0], [2.0, 1.0]]) == [0, 1]
    assert _solve([[2.0, 1.0], [1.0, 2.0]]) == [1, 0]


def test_empty_assignment():
    out = hungarian(np.zeros((3, 0, 5)), [0, 0, 0])
    assert out.shape == (3, 0)
    assert hungarian(np.zeros((0, 2, 5)), np.zeros(0, dtype=int)).shape == (0, 2)
    assert brute_force_assign(np.zeros((0, 5))) == ([], 0.0)


def test_singleton():
    assert _solve([[3.0]]) == [0]
    assert brute_force_assign([[3.0]]) == ([(0, 0)], 3.0)


def test_fully_tied_costs():
    """Ties go to the lowest query for the first box, then the second."""
    assert _solve(np.ones((2, 2))) == [0, 1]
    assert _solve(np.ones((2, 5))) == [0, 1]
    assert _solve(np.ones((1, 5))) == [0]


def test_brute_force_two_by_eight():
    rng = rng_for(1, "bf")
    costs = rng.uniform(-10, 10, (2, 8))
    best = min(costs[0, i] + costs[1, j]
               for i in range(8) for j in range(8) if i != j)
    assert _paid(costs, _solve(costs)) == best
    assert brute_force_assign(costs)[1] == best


def test_brute_force_size_cap():
    """The exhaustive pair search covers at most 2 boxes per clip."""
    with pytest.raises(AssignmentSizeError):
        hungarian(np.zeros((1, 3, 9)), [3])


def test_non_finite_entries_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        costs = np.zeros((2, 2, 4))
        costs[1, 1, 3] = bad
        with pytest.raises(AssignmentDomainError):
            hungarian(costs, [2, 2])
        # a padding row is never read, so it may hold anything
        assert list(hungarian(costs, [2, 1])[1]) == [0, -1]


def test_more_rows_than_columns_rejected():
    with pytest.raises(AssignmentError):
        hungarian(np.zeros((1, 2, 1)), [2])
    with pytest.raises(AssignmentError):
        hungarian(np.zeros((2, 2, 4)), [1, 3])
    with pytest.raises(AssignmentError):
        hungarian(np.zeros((2, 4)), [2, 2])


def test_hungarian_matches_brute_force_500_integer_matrices():
    """Small integer costs tie often; the total must still be optimal."""
    rng = rng_for(2, "oracle")
    for _ in range(500):
        q = int(rng.integers(2, 9))
        costs = rng.integers(-10, 11, size=(4, 2, q)).astype(np.float64)
        counts = rng.integers(0, 3, size=4)
        out = hungarian(costs, counts)
        for c, n, cols in zip(costs, counts, out):
            assert list(cols[n:]) == [-1] * (2 - n)
            assert _valid(list(cols[:n]), q)
            assert _paid(c, cols[:n]) == brute_force_assign(c[:n])[1]


def test_hungarian_matches_brute_force_float_costs():
    rng = rng_for(3, "float")
    for _ in range(200):
        q = int(rng.integers(2, 9))
        costs = rng.uniform(-10, 10, (3, 2, q))
        counts = rng.integers(0, 3, size=3)
        for c, n, cols in zip(costs, counts, hungarian(costs, counts)):
            assert _paid(c, cols[:n]) == brute_force_assign(c[:n])[1]


def test_row_shift_invariance_when_optimum_unique():
    """Adding a constant to one box's costs leaves a unique optimum."""
    rng = rng_for(4, "shift")
    costs = rng.uniform(-10, 10, (50, 2, 8))
    base = hungarian(costs, np.full(50, 2))
    shifted = costs.copy()
    shifted[np.arange(50), rng.integers(0, 2, 50)] += 7.5
    assert np.array_equal(hungarian(shifted, np.full(50, 2)), base)


def test_total_cost_equals_sum_of_selected_entries():
    """A batch solves each clip as if alone."""
    rng = rng_for(5, "sum")
    costs = rng.uniform(-5, 5, (6, 2, 8))
    counts = [2, 1, 0, 2, 1, 2]
    batched = hungarian(costs, counts)
    for c, n, cols in zip(costs, counts, batched):
        alone = hungarian(c[None, :n], [n])[0]
        assert list(cols[:n]) == list(alone)
        assert _paid(c, cols[:n]) == pytest.approx(
            brute_force_assign(c[:n])[1], abs=1e-12)
