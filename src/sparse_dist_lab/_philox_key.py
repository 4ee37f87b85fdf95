"""A seed sequence that hands Philox a 64-bit key directly.

``Philox(key=key)`` first builds, and then discards, a SeedSequence from
fresh OS entropy. ``Philox(PhiloxKey(key))`` skips that work and yields the
same bit stream: Philox asks its seed sequence for two 64-bit words and uses
them as its 128-bit key, and ``Philox(key=key)`` sets that key to
``[key, 0]``. This lives apart from ``core`` so that importing the package
does not import ``numpy.random``; ``RandomStream`` and ``keyed_generator``
import it on first use.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKey(ISeedSequence):
    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)
