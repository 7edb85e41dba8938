"""Exact minimum-cost matching of a batch of clips' boxes to their queries.

Ground-truth boxes are rows, prediction queries are columns. A clip
carries at most 2 boxes (a hand and an object) against Q queries, so its
optimal assignment is found exhaustively: the best single query for one
box, or the cheapest of the Q * (Q - 1) pairs of distinct queries for
two. The whole batch is one numpy pass over a [B, Q, Q] array of pair
costs, in place of one Kuhn-Munkres solve per clip (DETR's Hungarian
matching, arXiv 2005.12872).

The solver keeps the name ``hungarian``: it computes the same optimum
the Hungarian algorithm does, and callers (and the benchmark's
per-layer ``assignment.hungarian`` span) look it up by that name.
"""

from __future__ import annotations

import numpy as np

MAX_BOXES = 2


class AssignmentError(Exception):
    pass


class AssignmentDomainError(AssignmentError):
    """Cost array contains non-finite entries."""


class AssignmentSizeError(AssignmentError):
    """More boxes per clip than the exhaustive solver enumerates."""


def hungarian(costs, counts) -> np.ndarray:
    """Optimal assignment of each clip's boxes to distinct queries.

    ``costs`` [B, G, Q] holds the cost of box g of clip b on query q;
    ``counts`` [B] says how many of its G rows clip b uses (the rest are
    padding and are never read). Returns [B, G] query indices, -1 where
    a row is padding. Ties go to the lowest query for the first box, then
    for the second.
    """
    costs = np.asarray(costs, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.intp)
    if costs.ndim != 3 or counts.shape != costs.shape[:1]:
        raise AssignmentError(f"costs must be [B, G, Q] with one box count "
                              f"per clip, got {costs.shape} and "
                              f"{counts.shape}")
    b, g, q = costs.shape
    if g > MAX_BOXES:
        raise AssignmentSizeError(f"at most {MAX_BOXES} boxes per clip, "
                                  f"got {g}")
    if g > q:
        raise AssignmentError(f"more boxes than queries ({g} > {q})")
    if np.any((counts < 0) | (counts > g)):
        raise AssignmentError(f"box counts {counts} outside [0, {g}]")
    used = np.arange(g) < counts[:, None]                   # [B, G]
    if not np.all(np.isfinite(costs[used])):
        raise AssignmentDomainError("cost array has non-finite entries")
    out = np.full((b, g), -1, dtype=np.intp)
    if g == 0:
        return out
    single = np.argmin(costs[:, 0], axis=1)                 # [B]
    if g == 2:
        pairs = costs[:, 0, :, None] + costs[:, 1, None, :]  # [B, Q, Q]
        pairs[:, np.arange(q), np.arange(q)] = np.inf
        first, second = np.divmod(np.argmin(pairs.reshape(b, q * q), axis=1),
                                  q)
        two = counts == 2
        out[two, 1] = second[two]
        single = np.where(two, first, single)
    out[:, 0] = np.where(counts > 0, single, -1)
    return out
