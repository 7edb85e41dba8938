"""Deterministic sub-seed derivation.

All randomness in a run flows from one base seed; subsystems get
independent streams via a splitmix64 chain over (base, labels). The
same (base, labels) pair always yields the same 64-bit sub-seed, so any
subsystem can be reproduced in isolation.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _fold(state: int, labels) -> int:
    """Fold labels into ``state``: a string byte by byte, an int whole."""
    for label in labels:
        if isinstance(label, str):
            for b in label.encode("utf-8"):
                state = splitmix64(state ^ b)
        else:
            state = splitmix64(state ^ (int(label) & _MASK))
    return state


def derive_seed(base: int, *labels: str | int) -> int:
    """Fold string/int labels into ``base``."""
    return _fold(splitmix64(base & _MASK), labels)


def derive_seeds(base: int, count: int, *labels: str | int) -> list[int]:
    """``[derive_seed(base, *labels, i) for i in range(count)]``, folding
    the shared labels once."""
    state = derive_seed(base, *labels)
    return [_fold(state, (i,)) for i in range(count)]


def rng_for(base: int, *labels: str | int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(base, *labels)))
