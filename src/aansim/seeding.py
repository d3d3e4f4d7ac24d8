"""Deterministic random streams.

Every stochastic component draws from its own numpy Generator backed by the
counter-based Philox bit generator, keyed through a SeedSequence over
(run seed, condition index, component index).  A (scenario, condition, seed)
triple therefore always reproduces the same byte-identical session, and no
component's draws can perturb another's.
"""

from __future__ import annotations

import numpy as np

# Fixed component indices; appending to this table is safe, reordering is not.
STREAMS = {
    "placement": 0,
    "detector": 1,
    "user": 2,
    "gaze": 3,
    "depth_noise": 4,
    "pose_noise": 5,
}

# Condition None keys streams that must match across paired A/B runs of the
# same seed (e.g. where the bottle was left), so the pairing compares the two
# policies on the same underlying situation.
CONDITION_INDEX = {"A": 0, "B": 1, None: 2}


def stream(seed: int, condition: str | None, name: str) -> np.random.Generator:
    """Philox-backed generator for one named component of one run."""
    entropy = [int(seed), CONDITION_INDEX[condition], STREAMS[name]]
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))
