"""Percentiles shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

import numpy as np

# Candidate tail percentiles; a run reports the highest one that still has
# at least ten samples beyond it, so the tail is never a single outlier.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))
