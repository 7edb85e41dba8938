"""Multitask task-token decoder over synthetic egocentric clips.

Subpackages: ``tensor`` (autodiff core), ``attention`` (blocks),
``decoder`` (the task-token model), ``assignment`` (bipartite matching),
``losses`` (per-task and combined losses), ``synth`` (clip generator and
encoders), ``trainer`` (optimizer/loop/metrics/checkpoints), ``bc``
(downstream behavior cloning), ``cli`` (batch entry point).
"""

__version__ = "0.1.0"

from . import (assignment, attention, bc, decoder, losses, seeding, synth,
               tensor, trainer)

__all__ = ["assignment", "attention", "bc", "decoder", "losses", "seeding",
           "synth", "tensor", "trainer", "__version__"]
