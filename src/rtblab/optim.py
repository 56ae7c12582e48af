"""Adam over one flat parameter vector, and parameter initializers for
the MLP family."""

import numpy as np

from .autodiff import DenseLayer, Mlp


class AdamState:
    """First/second moment accumulators for one parameter vector, in its
    dtype, and two work vectors that each step reuses."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.work = (np.empty_like(params), np.empty_like(params))
        self.step = 0


def adam_step(
    p: np.ndarray,
    g: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> AdamState:
    """One Adam update of the parameter vector p, in place, from its
    gradient g, which it leaves as it is. weight_decay enters as an l2
    gradient term.

    Every temporary lives in state.work, and each operation is the one
    p -= lr * (m / c1) / (sqrt(v / c2) + eps) spells, in the same order
    and dtype, so the step is bitwise that formula's."""
    if p.shape != g.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    lr, beta1, beta2, eps = float(lr), float(beta1), float(beta2), float(eps)
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m, v = state.m, state.v
    a, b = state.work
    if weight_decay:
        np.multiply(p, float(weight_decay), out=a)
        g = np.add(g, a, out=a)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=b)
    v *= beta2
    v += np.multiply(np.multiply(g, g, out=b), 1.0 - beta2, out=b)
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    np.divide(m, c1, out=a)
    a *= lr
    a /= b
    p -= a
    return state


def xavier_init(shape, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Uniform(-r, r) with r = sqrt(6 / (fan_in + fan_out)); 2-D shapes only.
    The draws are float64 and rounded to dtype, so every dtype takes the
    same numbers from rng."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init needs a 2-D shape, got {shape}")
    r = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-r, r, size=shape).astype(dtype, copy=False)


def make_mlp(dims, activations, rng: np.random.Generator, dtype=np.float64) -> Mlp:
    """Xavier weights, zero biases, in dtype. dims = [in, h1, ..., out]."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = [
        DenseLayer(xavier_init((dims[i], dims[i + 1]), rng, dtype),
                   np.zeros(dims[i + 1], dtype), act)
        for i, act in enumerate(activations)
    ]
    return Mlp(layers)
