"""Dueling Q-network over (request, normalized budget, normalized time).

The request is bottlenecked through a single affine unit so the wide
one-hot block cannot overpower the two scalar constraints; the bottleneck
is initialized from the price model's mean head. A shared trunk layer
feeds separate value and advantage branches combined as
Q = V + (A - mean A). All parameters live in one vector, laid out as
[f1_w, f1_b, trunk, value, advantage], and each part is a view into it.

QNetwork.build makes float32 nets (NET_DTYPE): the forward input, the
output seed and the parameter gradient are made in the net's dtype, so
training and acting run in float32. A net built from float64 arrays (an
older checkpoint) keeps float64 and computes in it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Mlp, mlp_backward, mlp_forward, pack
from ..data import PackedRequests
from ..errors import ConfigError
from ..optim import make_mlp

# dtype of the nets QNetwork.build makes
NET_DTYPE = np.float32


@dataclass
class QNetwork:
    f1_w: np.ndarray     # (D,) request bottleneck weights
    f1_b: np.ndarray     # (1,)
    trunk: Mlp           # 3 -> shared width
    value: Mlp           # shared -> 64 -> 1
    advantage: Mlp       # shared -> 64 -> k
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nets = (self.trunk, self.value, self.advantage)
        self.params, views = pack([self.f1_w, self.f1_b] + [n.params for n in nets])
        self.f1_w, self.f1_b = views[:2]
        for net, view in zip(nets, views[2:]):
            net.bind(view)

    @property
    def n_actions(self) -> int:
        return self.advantage.out_dim

    def copy(self) -> "QNetwork":
        return QNetwork(self.f1_w, self.f1_b, self.trunk.copy(), self.value.copy(),
                        self.advantage.copy())

    @classmethod
    def build(cls, width: int, rng, n_actions: int = 20, shared: int = 128,
              branch: int = 64, price_model=None) -> "QNetwork":
        """Xavier everywhere except the bottleneck, which starts at the
        price model's mean head when one is given. The float64 draws and
        the mean head are rounded to NET_DTYPE."""
        if price_model is not None:
            if price_model.mu_w.size != width:
                raise ConfigError("price model width does not match request width")
            f1_w = price_model.mu_w
            f1_b = np.array([price_model.mu_b])
        else:
            r = np.sqrt(6.0 / (width + 1))
            f1_w = rng.uniform(-r, r, size=width)
            f1_b = np.zeros(1)
        return cls(
            f1_w.astype(NET_DTYPE),
            f1_b.astype(NET_DTYPE),
            make_mlp([3, shared], ["relu"], rng, NET_DTYPE),
            make_mlp([shared, branch, 1], ["relu", "identity"], rng, NET_DTYPE),
            make_mlp([shared, branch, n_actions], ["relu", "identity"], rng, NET_DTYPE),
        )


def _batch_input(qnet: QNetwork, packed: PackedRequests, b_norm, t_norm):
    """The trunk's (n, 3) input [bottleneck, budget, time] in the net's dtype."""
    dtype = qnet.params.dtype
    h1 = packed.dot(qnet.f1_w) + qnet.f1_b[0]
    return np.column_stack([h1.astype(dtype, copy=False), np.asarray(b_norm, dtype=dtype),
                            np.asarray(t_norm, dtype=dtype)])


def q_forward(qnet: QNetwork, packed: PackedRequests, b_norm, t_norm,
              record: bool = False):
    """Q-values (n, k); optionally also the traces needed for backward."""
    x = _batch_input(qnet, packed, b_norm, t_norm)
    t_out = mlp_forward(qnet.trunk, x, record=record)
    t_val, t_trace = t_out if record else (t_out, None)
    v_out = mlp_forward(qnet.value, t_val, record=record)
    v, v_trace = v_out if record else (v_out, None)
    a_out = mlp_forward(qnet.advantage, t_val, record=record)
    a, a_trace = a_out if record else (a_out, None)
    q = v + a - a.mean(axis=1, keepdims=True)
    if record:
        return q, (packed, t_trace, v_trace, a_trace)
    return q


def q_backward(qnet: QNetwork, traces, dq: np.ndarray) -> np.ndarray:
    """Parameter gradient (laid out as qnet.params, in its dtype) for a
    seed on the Q output: dueling combine, branches, trunk, then the
    request bottleneck."""
    packed, t_trace, v_trace, a_trace = traces
    k = qnet.n_actions
    dv = dq.sum(axis=1, keepdims=True)
    da = dq - dq.sum(axis=1, keepdims=True) / k
    g_value, d_trunk_v = mlp_backward(v_trace, dv)
    g_adv, d_trunk_a = mlp_backward(a_trace, da)
    g_trunk, d_in = mlp_backward(t_trace, d_trunk_v + d_trunk_a)
    dh1 = d_in[:, 0]
    return np.concatenate([packed.scatter(dh1), [dh1.sum()], g_trunk, g_value, g_adv],
                          dtype=qnet.params.dtype)


def td_regression(qnet: QNetwork, batch: dict, target: np.ndarray):
    """Mean squared error of Q on each transition's taken action against
    target, and its gradient: the step shared by the DDQN and fitted-Q
    losses, which differ only in their target."""
    n = target.size
    q, traces = q_forward(qnet, batch["packed"], batch["b"], batch["t"], record=True)
    taken = q[np.arange(n), batch["action"]]
    err = taken - target
    dq = np.zeros_like(q)   # q, and so the seed, is in the net's dtype
    dq[np.arange(n), batch["action"]] = 2.0 * err / n
    return float(np.mean(err * err)), q_backward(qnet, traces, dq)


def q_values(qnet: QNetwork, obs) -> np.ndarray:
    """Q-row for a single environment observation."""
    return q_forward(qnet, obs.request, [obs.budget_norm], [obs.time_norm])[0]
