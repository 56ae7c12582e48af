"""Tables of transitions: uniform replay memory and the batch gather.

A transition table maps each column name to one kind of column: the
SCALARS (budget and time before the step, action, reward, budget and
time after it, done) are arrays with one entry per transition, and the
REQUESTS before and after the step are each one PackedRequests with one
row per transition. fdqi builds its table as a dict; ReplayBuffer keeps
the same columns as numpy arrays and reads them back in that form.
"""

import numpy as np

from ..data import PackedRequests
from ..errors import DataError

REQUESTS = ("packed", "next_packed")
SCALARS = {"b": np.float64, "t": np.float64, "action": np.int64,
           "reward": np.float64, "next_b": np.float64, "next_t": np.float64,
           "done": bool}
# ReplayBuffer's columns in push's argument order
PUSH_ORDER = ("packed", "b", "t", "action", "reward", "next_packed", "next_b",
              "next_t", "done")


class ReplayBuffer:
    """Ring buffer transition table; batches are drawn uniformly without
    replacement. Its columns grow with the data up to capacity.

    Each request column is an (rows, k) int64 index matrix, with row
    offsets that grow with it. The first push fixes k and the width; a
    request with another index count is a DataError."""

    def __init__(self, capacity: int = 2_500_000):
        self.capacity = int(capacity)
        self._cols = None   # allocated by the first push
        self._ptr = None    # row offsets i * k of the allocated rows
        self.k = self.width = None
        self._n = 0
        self._next = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        if self._n == 0:
            raise DataError("the replay buffer is empty")
        col = self._cols[key][: self._n]
        if key in REQUESTS:
            return PackedRequests._wrap(col.ravel(), self._ptr[: self._n + 1], self.width,
                                        self.k)
        return col

    def push(self, packed, b, t, action, reward, next_packed, next_b, next_t,
             done) -> None:
        """Store one transition; once full, overwrite the oldest."""
        idx, next_idx = packed.indices, next_packed.indices
        if self._cols is None:
            self.k, self.width = idx.size, packed.width
            self._cols = {name: np.zeros((0, self.k), np.int64) if name in REQUESTS
                          else np.zeros(0, SCALARS[name]) for name in PUSH_ORDER}
        for req in (idx, next_idx):
            if req.size != self.k:
                raise DataError(f"the replay buffer holds requests of {self.k} "
                                f"indices; got one of {req.size}")
        if self._n < self.capacity:
            i = self._n
            self._n += 1
            if i == self._cols["b"].size:
                extra = min(self.capacity, max(1024, 2 * i)) - i
                for name, col in self._cols.items():
                    self._cols[name] = np.concatenate(
                        [col, np.zeros((extra, *col.shape[1:]), col.dtype)])
                self._ptr = np.arange(i + extra + 1) * self.k
        else:
            i = self._next
            self._next = (i + 1) % self.capacity
        values = (idx, b, t, action, reward, next_idx, next_b, next_t, done)
        for col, value in zip(self._cols.values(), values):
            col[i] = value

    def sample(self, batch_size: int, rng) -> np.ndarray:
        """Ids of a uniform batch, drawn without replacement."""
        return rng.choice(self._n, size=min(batch_size, self._n), replace=False)


def batch_arrays(table, ids) -> dict:
    """The transitions ids of a table, in the Q-network's batch layout."""
    batch = {k: table[k][ids] for k in SCALARS}
    for k in REQUESTS:
        batch[k] = table[k].rows(ids)
    return batch
