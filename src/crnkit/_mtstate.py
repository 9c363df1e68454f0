"""numpy's legacy MT19937 at the state of a ``random.Random``.

``crnkit.ssa`` imports this only once a run needs more uniforms than its
first block, so that ``import crnkit`` and a short path do not load
numpy.random (≈18 ms).
"""

import random

import numpy as np
from numpy.random import MT19937, RandomState
from numpy.random.bit_generator import ISeedSequence


class _Unseeded(ISeedSequence):
    """Zeros for the MT19937 key, which ``random_state`` overwrites: the
    default seeding from fresh entropy (≈0.1 ms) would be wasted."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


def random_state(generator: random.Random) -> RandomState:
    """A legacy ``RandomState`` (whose stream NEP 19 freezes) at
    ``generator``'s state: ``random_sample`` returns the doubles
    ``generator.random()`` would, in the same order."""
    _, key, _ = generator.getstate()
    rng = RandomState(MT19937(_Unseeded()))
    rng.set_state(("MT19937", key[:-1], key[-1]))
    return rng
