"""Tables of transitions: uniform replay memory and the batch gather.

A transition table maps each column name to one entry per transition:
the SCALARS (budget and time before the step, action, reward, budget and
time after it, done) as arrays, and the REQUESTS before and after the
step, as one PackedRequests (fdqi) or a list of 1-row ones (replay).
"""

import numpy as np

from ..data import PackedRequests

REQUESTS = ("packed", "next_packed")
SCALARS = {"b": np.float64, "t": np.float64, "action": np.int64,
           "reward": np.float64, "next_b": np.float64, "next_t": np.float64,
           "done": bool}


class ReplayBuffer:
    """Ring buffer transition table; batches are drawn uniformly without
    replacement. Its columns grow with the data up to capacity."""

    def __init__(self, capacity: int = 2_500_000):
        self.capacity = int(capacity)
        self._cols = {k: [] for k in REQUESTS}
        self._cols.update({k: np.zeros(0, dtype) for k, dtype in SCALARS.items()})
        self._n = 0
        self._next = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        col = self._cols[key]
        return col if key in REQUESTS else col[: self._n]

    def push(self, packed, b, t, action, reward, next_packed, next_b, next_t,
             done) -> None:
        """Store one transition; once full, overwrite the oldest."""
        if self._n < self.capacity:
            i = self._n
            self._n += 1
            self._cols["packed"].append(packed)
            self._cols["next_packed"].append(next_packed)
            if i == self._cols["b"].size:
                extra = min(self.capacity, max(1024, 2 * i)) - i
                for k, dtype in SCALARS.items():
                    self._cols[k] = np.concatenate([self._cols[k], np.zeros(extra, dtype)])
        else:
            i = self._next
            self._next = (i + 1) % self.capacity
            self._cols["packed"][i] = packed
            self._cols["next_packed"][i] = next_packed
        for k, value in zip(SCALARS, (b, t, action, reward, next_b, next_t, done)):
            self._cols[k][i] = value

    def sample(self, batch_size: int, rng) -> np.ndarray:
        """Ids of a uniform batch, drawn without replacement."""
        return rng.choice(self._n, size=min(batch_size, self._n), replace=False)


def batch_arrays(table, ids) -> dict:
    """The transitions ids of a table, in the Q-network's batch layout."""
    batch = {k: table[k][ids] for k in SCALARS}
    for k in REQUESTS:
        col = table[k]
        if isinstance(col, PackedRequests):
            batch[k] = col.rows(ids)
        else:
            batch[k] = PackedRequests.from_rows([col[i].indices for i in ids], col[0].width)
    return batch
