"""Adam over one flat parameter vector, and parameter initializers for
the MLP family."""

import numpy as np

from .autodiff import DenseLayer, Mlp


class AdamState:
    """First/second moment accumulators for one parameter vector."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
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
    gradient g. weight_decay enters as an l2 gradient term."""
    if p.shape != g.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    if weight_decay:
        g = g + weight_decay * p
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return state


def xavier_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-r, r) with r = sqrt(6 / (fan_in + fan_out)); 2-D shapes only."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init needs a 2-D shape, got {shape}")
    r = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-r, r, size=shape)


def make_mlp(dims, activations, rng: np.random.Generator) -> Mlp:
    """Xavier weights, zero biases. dims = [in, h1, ..., out]."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = [
        DenseLayer(xavier_init((dims[i], dims[i + 1]), rng), np.zeros(dims[i + 1]), act)
        for i, act in enumerate(activations)
    ]
    return Mlp(layers)
