"""Building blocks with hand-written backward passes.

Everything is float64.  The forward functions work along the last
axis: training passes a whole batch's sentences packed as (rows, d),
beam search one new row per hypothesis as (B, d), so a batch or a beam
step is one matrix product in `linear`, and attention adds an axis per
head.  The backward functions serve training, so they take packed
(rows, d) rows and sum parameter gradients over every row of the
batch; attention, forward and backward, is called once per sentence on
that sentence's rows, with a leading head axis.  A forward whose
backward needs more than the inputs and output also returns that
cache.  Backwards return gradients in the same order as the forward
inputs.
"""

import math

import numpy as np

NEG_INF = float("-inf")


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax that tolerates -inf entries (they get weight 0.0).

    Only an all--inf row is rejected; non-finite garbage from an upstream
    overflow flows through as NaN so the caller's loss check can see it.
    """
    peak = scores.max(axis=-1, keepdims=True)
    if (peak == NEG_INF).any():
        raise ValueError("softmax over a fully masked row")
    exp = np.exp(scores - peak)
    return exp / exp.sum(axis=-1, keepdims=True)


def masked_attention(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
                     mask: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention with an additive {0, -inf} mask.

    queries: (..., Tq, d), keys: (..., Tk, d), values: (..., Tk, dv),
    mask: (Tq, Tk) or (..., Tq, Tk).  Returns (outputs (..., Tq, dv),
    weights (..., Tq, Tk)).  A -inf mask entry forces exactly zero
    weight; a query row with every key masked is an error because its
    weights would be undefined.
    """
    scale = 1.0 / math.sqrt(queries.shape[-1])
    scores = (queries @ keys.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    weights = softmax_rows(scores)
    return weights @ values, weights


def masked_attention_bwd(d_out: np.ndarray, queries: np.ndarray, keys: np.ndarray,
                         values: np.ndarray, weights: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scale = 1.0 / np.sqrt(queries.shape[-1])
    d_values = weights.swapaxes(-1, -2) @ d_out
    d_weights = d_out @ values.swapaxes(-1, -2)
    # softmax backward; zero weights keep zero gradient, so -inf entries stay inert
    d_scores = weights * (d_weights - (d_weights * weights).sum(-1, keepdims=True))
    d_queries = (d_scores @ keys) * scale
    d_keys = (d_scores.swapaxes(-1, -2) @ queries) * scale
    return d_queries, d_keys, d_values


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def linear_bwd(d_out: np.ndarray, x: np.ndarray, w: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return d_out @ w.T, x.T @ d_out, np.add.reduce(d_out, axis=0)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               ) -> tuple[np.ndarray, tuple]:
    # add.reduce over the width is what `.mean` computes, without its
    # Python-level wrapper; 1e-5 keeps a constant row's scale finite
    width = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / width
    centered = x - mean
    variance = np.add.reduce(centered ** 2, axis=-1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(variance + 1e-5)
    normalized = centered * inv_std
    return gain * normalized + bias, (normalized, inv_std, gain)


def layer_norm_bwd(d_out: np.ndarray, cache: tuple,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    normalized, inv_std, gain = cache
    width = d_out.shape[-1]
    d_gain = np.add.reduce(d_out * normalized, axis=0)
    d_bias = np.add.reduce(d_out, axis=0)
    d_norm = d_out * gain
    d_x = inv_std * (d_norm - np.add.reduce(d_norm, axis=-1, keepdims=True) / width
                     - normalized * (np.add.reduce(d_norm * normalized, axis=-1,
                                                   keepdims=True) / width))
    return d_x, d_gain, d_bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_bwd(d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`x` may be relu's input or its output: relu(x) > 0 exactly where
    x > 0, for NaN and -0.0 too, so training keeps only the output."""
    return d_out * (x > 0.0)


def embed(table: np.ndarray, ids: np.ndarray, scale: float) -> np.ndarray:
    return table[ids] * scale


def embed_bwd(d_out: np.ndarray, d_table: np.ndarray, ids: np.ndarray,
              scale: float) -> None:
    """Adds the gradient of `embed` into `d_table`, touching only rows of `ids`."""
    np.add.at(d_table, ids, d_out * scale)


def sinusoidal_positions(positions: np.ndarray, d_model: int) -> np.ndarray:
    """The fixed sin/cos table's rows at `positions`; even columns sin, odd cos."""
    exponents = np.arange(0, d_model, 2) / d_model
    angles = positions[:, None] / np.power(10000.0, exponents)[None, :]
    table = np.zeros((len(positions), d_model))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def causal_mask(length: int) -> np.ndarray:
    """(T, T) additive mask allowing each step to see itself and the past."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = NEG_INF
    return mask


# `rng` is annotated as a string, so importing this module does not import
# `numpy.random`, which inference never uses.
def dropout(x: np.ndarray, rate: float, rng: "np.random.Generator | None",
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; rng=None means evaluation mode (identity)."""
    if rng is None or rate <= 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * mask, mask


def dropout_bwd(d_out: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d_out if mask is None else d_out * mask
