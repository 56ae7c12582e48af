"""Dense MLP arithmetic with reverse-mode automatic differentiation.

The network family is fixed: stacks of affine layers with rectifier /
tanh / identity activations, which covers every network used in the
package. A network's parameters are one flat vector, its layers views
into it, and each parameter gradient is one vector in the same layout.
The arithmetic follows the dtype of that vector: inputs and seeds are
cast to it, so a float32 net (the market-state generator and critic,
the Q-networks) runs in float32 and a float64 net (the
finite-difference oracles, and nets loaded from float64 checkpoints) in
float64. Gradients are computed by an
explicit layer-by-layer backward pass over a recorded trace; the second-order
quantity needed by the critic's input-gradient penalty is computed
forward-over-reverse (a directional derivative pushed through both the
forward and the backward pass).
"""

from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between parameters and data."""


# activation; its derivative from (pre-activation, activation); its second
# derivative from (activation, derivative), None where identically zero
def _relu(z):
    return np.maximum(z, 0.0)


def _relu_d(z, a):
    return (z > 0.0).astype(z.dtype)


def _tanh_d(z, a):
    return 1.0 - a * a


def _tanh_dd(a, d):
    return -2.0 * a * d


def _ident(z):
    return z


def _one(z, a):
    return np.ones_like(z)


ACTIVATIONS = {
    "relu": (_relu, _relu_d, None),
    "tanh": (np.tanh, _tanh_d, _tanh_dd),
    "identity": (_ident, _one, None),
}


def split(flat: np.ndarray, shapes) -> list:
    """Views into flat, one per shape, laid end to end."""
    views, at = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        views.append(flat[at : at + n].reshape(shape))
        at += n
    return views


def pack(arrays) -> tuple:
    """One new vector holding the arrays end to end, and a view into it
    shaped like each array. It is float32 when every array is, else float64."""
    arrays = [np.asarray(a) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays],
                          dtype=np.result_type(np.float32, *arrays))
    return flat, split(flat, [a.shape for a in arrays])


@dataclass
class DenseLayer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    act: str = "identity"

    def __post_init__(self):
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DimensionError(
                f"layer shapes inconsistent: w {self.w.shape}, b {self.b.shape}"
            )


@dataclass
class Mlp:
    """Ordered affine+activation layers. params holds [w1, b1, w2, b2, ...]
    end to end, copied from the given layers, which become views into it."""

    layers: list
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.w.shape[1] != nxt.w.shape[0]:
                raise DimensionError(
                    f"adjacent layer dims incompatible: {prev.w.shape} -> {nxt.w.shape}"
                )
        self.bind(pack([a for lay in self.layers for a in (lay.w, lay.b)])[0])

    def bind(self, params: np.ndarray) -> None:
        """Make the layers views into params, which holds their values."""
        self.params = params
        views = split(params, [a.shape for lay in self.layers for a in (lay.w, lay.b)])
        for lay, w, b in zip(self.layers, views[::2], views[1::2]):
            lay.w, lay.b = w, b

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    def copy(self) -> "Mlp":
        return Mlp([DenseLayer(l.w, l.b, l.act) for l in self.layers])


@dataclass
class MlpTrace:
    """Per-layer values recorded during forward for the backward passes."""

    net: Mlp
    inputs: np.ndarray        # (n, d_in)
    zs: list                  # pre-activations per layer
    acts: list                # activations per layer (post-activation)
    ds: list                  # activation derivatives per layer, at zs
    squeeze: bool             # input was 1-D

    def tail(self, lo: int) -> "MlpTrace":
        """The trace of rows lo: alone, as views into this one."""
        return MlpTrace(self.net, self.inputs[lo:], [z[lo:] for z in self.zs],
                        [a[lo:] for a in self.acts], [d[lo:] for d in self.ds], False)


def _times_wt(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d @ w.T. For a one-output layer that is an outer product, formed by
    broadcasting: bitwise the same, without a K = 1 matmul's overhead."""
    return d * w.T if w.shape[1] == 1 else d @ w.T


def _as_batch(x, dtype) -> tuple:
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise DimensionError(f"expected 1-D or 2-D input, got shape {x.shape}")


def mlp_forward(net: Mlp, x, record: bool = False):
    """Evaluate the network; optionally record a trace for backward().

    Returns the output, or (output, trace) when record is set. A 1-D
    input yields a 1-D output.
    """
    x, squeeze = _as_batch(x, net.params.dtype)
    if x.shape[1] != net.in_dim:
        raise DimensionError(
            f"input dim {x.shape[1]} does not match first layer ({net.in_dim})"
        )
    a = x
    zs, acts, ds = [], [], []
    for lay in net.layers:
        z = a @ lay.w
        z += lay.b
        fn, dfn, _ = ACTIVATIONS[lay.act]
        a = fn(z)
        if record:
            zs.append(z)
            acts.append(a)
            ds.append(dfn(z, a))
    out = a[0] if squeeze else a
    if record:
        return out, MlpTrace(net, x, zs, acts, ds, squeeze)
    return out


def mlp_backward(trace: MlpTrace, seed, param_rows: slice = slice(None)) -> tuple:
    """Pull an output seed back to parameter and input gradients.

    Computes d(sum(seed * output))/d(each w, b) and d/d(input), in the
    net's dtype.
    Returns (grads, dinput), grads one vector [dw1, db1, dw2, db2, ...]
    in the layout of net.params. The parameter gradients take only the
    `param_rows` share of the seed; dinput covers every row.
    """
    if not isinstance(trace, MlpTrace) or not trace.zs:
        raise ValueError("backward needs a trace recorded by mlp_forward(record=True)")
    net = trace.net
    s, _ = _as_batch(seed, net.params.dtype)
    if s.shape != trace.acts[-1].shape:
        raise DimensionError(
            f"seed shape {s.shape} does not match output {trace.acts[-1].shape}"
        )
    grads = [None] * (2 * len(net.layers))
    d = s * trace.ds[-1]
    for k in range(len(net.layers) - 1, -1, -1):
        a_prev = trace.inputs if k == 0 else trace.acts[k - 1]
        d_p = d[param_rows]
        grads[2 * k] = a_prev[param_rows].T @ d_p
        grads[2 * k + 1] = d_p.sum(axis=0)
        e = _times_wt(d, net.layers[k].w)
        if k > 0:
            d = e * trace.ds[k - 1]
    dinput = e[0] if trace.squeeze else e
    return np.concatenate([g.ravel() for g in grads]), dinput


def gradient_penalty(net: Mlp, x_hat, trace: MlpTrace = None, g=None) -> tuple:
    """Mean (||grad_x c(x)||_2 - 1)^2 over the rows of x_hat, with its
    parameter gradient: (mean penalty, parameter grads in the layout of
    net.params, per-row norms).

    A caller that has already run the critic passes the forward `trace`,
    whose last rows are x_hat, and the input gradient `g` of those rows
    under a unit seed; otherwise both are computed here.

    The parameter gradient is forward-over-reverse: the input-tangent
    v_i = (2(n_i-1)/n_i) g_i / N is pushed through the forward pass and
    then through the backward recurrence with dual numbers, so the
    tangent of each parameter gradient accumulates exactly
    d/d(params) of the mean penalty. Only the x_hat rows of the trace
    enter, and a second-derivative term is skipped where the
    activation's second derivative is identically zero.
    """
    if net.out_dim != 1:
        raise DimensionError("gradient penalty needs a scalar-output network")
    x = np.atleast_2d(np.asarray(x_hat, dtype=net.params.dtype))
    if x.shape[1] != net.in_dim:
        raise DimensionError(
            f"input dim {x.shape[1]} does not match critic ({net.in_dim})"
        )
    if trace is None:
        out, trace = mlp_forward(net, x, record=True)
        _, g = mlp_backward(trace, np.ones_like(out))
    n_rows = x.shape[0]
    rows = trace.tail(trace.inputs.shape[0] - n_rows)
    layers, acts, ds = net.layers, rows.acts, rows.ds
    ins = [rows.inputs] + acts[:-1]

    norms = np.sqrt(np.sum(g * g, axis=1))
    penalty = float(((norms - 1.0) ** 2).sum() / n_rows)
    safe = np.maximum(norms, 1e-12)
    v = (2.0 * (norms - 1.0) / safe / n_rows)[:, None] * g

    # forward tangent pass seeded with v
    adot = v
    zdots, adots_prev = [], []
    for lay, dk in zip(layers, ds):
        adots_prev.append(adot)
        zdot = adot @ lay.w
        zdots.append(zdot)
        adot = dk * zdot

    # backward tangent pass; primal seed is 1 with zero tangent. ddot is
    # None while the tangent of the backward signal is identically zero.
    def second_term(k, e):
        dd = ACTIVATIONS[layers[k].act][2]
        return None if dd is None else e * dd(acts[k], ds[k]) * zdots[k]

    grads = [None] * (2 * len(layers))
    d = ds[-1]
    ddot = second_term(len(layers) - 1, 1.0)
    for k in range(len(layers) - 1, -1, -1):
        lay = layers[k]
        grads[2 * k] = adots_prev[k].T @ d
        if ddot is None:
            grads[2 * k + 1] = np.zeros_like(lay.b)
        else:
            grads[2 * k] += ins[k].T @ ddot
            grads[2 * k + 1] = ddot.sum(axis=0)
        if k == 0:
            break
        e = _times_wt(d, lay.w)
        d = e * ds[k - 1]
        ddot = None if ddot is None else _times_wt(ddot, lay.w) * ds[k - 1]
        second = second_term(k - 1, e)
        if second is not None:
            ddot = second if ddot is None else ddot + second
    return penalty, np.concatenate([g.ravel() for g in grads]), norms


def _block_widths(starts, width: int) -> list:
    return [hi - lo for lo, hi in zip(starts, (*starts[1:], width))]


def gumbel_softmax(logits, tau: float, noise, starts=(0,)) -> np.ndarray:
    """Relaxed categorical samples softmax((logits + noise) / tau), one per block.

    The last axis is cut into contiguous, non-empty blocks that begin at
    `starts` (by default one block), and each block of each row is a
    separate softmax. `noise` must be standard Gumbel draws of the same
    shape. Each block is a simplex point; tau -> 0 approaches one-hot at
    the block's argmax(logits+noise). Float32 logits give float32
    samples (the noise is cast to them); anything else runs in float64.
    """
    logits = np.asarray(logits)
    dtype = np.result_type(np.float32, logits)
    u = (logits.astype(dtype, copy=False) + np.asarray(noise, dtype=dtype)) / tau
    widths = _block_widths(starts, u.shape[-1])
    u = u - np.repeat(np.maximum.reduceat(u, starts, axis=-1), widths, axis=-1)
    e = np.exp(u)
    return e / np.repeat(np.add.reduceat(e, starts, axis=-1), widths, axis=-1)


def gumbel_softmax_vjp(y: np.ndarray, seed: np.ndarray, tau: float,
                       starts=(0,)) -> np.ndarray:
    """Backward of gumbel_softmax with respect to the logits, per block."""
    widths = _block_widths(starts, y.shape[-1])
    inner = np.add.reduceat(seed * y, starts, axis=-1)
    return y * (seed - np.repeat(inner, widths, axis=-1)) / tau
