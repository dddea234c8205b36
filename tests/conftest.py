"""Shared helpers for the test suite."""

import math
import random

from hypothesis import settings

from opuc.core import VerblunskySequence

# the same examples on every run: a failure is a fault, not a draw
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def generic_vs():
    """A fully symbolic sequence; every alpha_j stays the symbol a_j."""
    return VerblunskySequence.generic()


def numeric_vs(seed, length=16, radius=0.9):
    """A reproducible random numeric sequence with |alpha_j| <= radius."""
    rng = random.Random(seed)
    table = []
    while len(table) < length:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if 1e-3 < abs(z) <= radius:
            table.append(z)
    return VerblunskySequence.from_table(table, "numeric")


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)
