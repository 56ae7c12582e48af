"""Splittable, counter-based random streams.

Every stochastic routine in the package draws from a stream keyed by
(experiment seed, label path). Streams are independent Philox counters,
so parallel workers and reruns reproduce bit-exactly with no global state.
"""

import hashlib

import numpy as np


def stream_key(seed: int, *labels) -> int:
    """Derive a 128-bit Philox key from a seed and a label path."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:16], "little")


def stream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for (seed, *labels).

    Same arguments always produce the same stream; distinct label paths
    give statistically independent streams.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *labels)))


def gumbel(rng: np.random.Generator, shape, dtype=np.float64) -> np.ndarray:
    """Standard Gumbel(0, 1) draws in dtype, -log(E) for E ~ Exp(1).

    E is floored at the dtype's smallest normal number: float32
    standard_exponential returns an exact 0 a few times in 10^8 draws,
    and -log(0) = inf would turn a Gumbel-softmax into NaN."""
    e = rng.standard_exponential(shape, dtype=dtype)
    np.maximum(e, np.finfo(dtype).tiny, out=e)
    np.log(e, out=e)
    return np.negative(e, out=e)
