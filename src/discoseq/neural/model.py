"""Encoder-decoder transformer whose cross-attention follows the parse.

The decoder's cross-attention reserves two heads per layer: head 0 may
only attend input words currently on the stack, head 1 only words still
in the buffer, both steered by the position sets that the mask engine
derives from the token stream.  The remaining heads are free.
A learned sentinel row is prepended to the encoder memory and is always
visible to the two specialized heads, so their softmax stays defined
when the stack or buffer is empty; masked positions get exactly zero
attention weight either way.

Both stacks are post-norm residual layers, and `_SUBLAYERS` is the one
statement of their layout: `init_parameters`, the forward loop
`_layers` and the backward loop `_layers_bwd` all read it.

Sizes default to a desk-scale setup that trains on a CPU in seconds.
Full treebank experiments use 6+6 layers of width 256 (d_ff 1024, 4
heads, dropout 0.33) and Adam (lr 5e-4, betas 0.9/0.98, eps 1e-8) with
4000 inverse-sqrt warm-up updates from 1e-7, min lr 1e-9, label
smoothing 0.01, batches of 3584 tokens and 80 epochs.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..masks import MaskPair
from .layers import (NEG_INF, causal_mask, dropout, dropout_bwd, embed,
                     embed_bwd, layer_norm, layer_norm_bwd, linear, linear_bwd,
                     masked_attention, masked_attention_bwd, relu, relu_bwd,
                     sinusoidal_positions, softmax_rows)

BOS = "<bos>"
UNK = "<unk>"


@dataclass
class ModelConfig:
    scheme: str
    word_to_id: dict[str, int]
    token_to_id: dict[str, int]
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    dropout: float = 0.0
    max_positions: int = 512
    label_smoothing: float = 0.01
    lr: float = 5e-4
    warmup_updates: int = 100
    warmup_init_lr: float = 1e-7
    min_lr: float = 1e-9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    epochs: int = 120
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model < 1:
            raise ValueError("d_model must be positive")
        if self.n_heads < 2:
            raise ValueError("need at least a stack head and a buffer head")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide evenly into heads")
        for name, vocab in (("word", self.word_to_id), ("token", self.token_to_id)):
            if sorted(vocab.values()) != list(range(len(vocab))):
                raise ValueError(f"{name} vocabulary ids must be 0..{len(vocab) - 1}")
        if BOS not in self.token_to_id:
            raise ValueError(f"token vocabulary must contain {BOS!r}")
        if UNK not in self.word_to_id:
            raise ValueError(f"word vocabulary must contain {UNK!r}")

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def id_to_token(self) -> dict[int, str]:
        return {i: t for t, i in self.token_to_id.items()}

    def word_ids(self, words: Sequence[str]) -> np.ndarray:
        unk = self.word_to_id[UNK]
        return np.array([self.word_to_id.get(w, unk) for w in words], dtype=np.int64)


Parameters = dict[str, np.ndarray]

# Each layer runs its side's sublayers in order; sublayer j (from 1) is
# followed by the residual add and the norm `ln{j}`.
_SUBLAYERS = {"enc": ("self", "ff"), "dec": ("self", "cross", "ff")}


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> Parameters:
    d, ff = config.d_model, config.d_ff
    params: Parameters = {}

    def glorot(name: str, fan_in: int, fan_out: int) -> None:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def attention(prefix: str) -> None:
        for proj in ("wq", "wk", "wv", "wo"):
            glorot(f"{prefix}.{proj}", d, d)
        for proj in ("bq", "bk", "bv", "bo"):
            params[f"{prefix}.{proj}"] = np.zeros(d)

    def feed_forward(prefix: str) -> None:
        glorot(f"{prefix}.w1", d, ff)
        params[f"{prefix}.b1"] = np.zeros(ff)
        glorot(f"{prefix}.w2", ff, d)
        params[f"{prefix}.b2"] = np.zeros(d)

    scale = 1.0 / math.sqrt(d)
    params["word_emb"] = rng.standard_normal((len(config.word_to_id), d)) * scale
    params["tok_emb"] = rng.standard_normal((len(config.token_to_id), d)) * scale
    params["sentinel"] = rng.standard_normal(d) * scale
    for side, kinds in _SUBLAYERS.items():
        for i in range(config.n_layers):
            for j, kind in enumerate(kinds, 1):
                (feed_forward if kind == "ff" else attention)(f"{side}{i}.{kind}")
                params[f"{side}{i}.ln{j}.g"] = np.ones(d)
                params[f"{side}{i}.ln{j}.b"] = np.zeros(d)
    glorot("out.w", d, len(config.token_to_id))
    params["out.b"] = np.zeros(len(config.token_to_id))
    return params


def _accumulate(grads: Parameters, name: str, value: np.ndarray) -> None:
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d_model) -> (..., n_heads, T, d_head), a view."""
    return np.swapaxes(x.reshape(*x.shape[:-1], n_heads, -1), -3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, d_head) -> (..., T, d_model)."""
    x = np.swapaxes(x, -3, -2)
    return x.reshape(*x.shape[:-2], -1)


def _mha(p: Parameters, prefix: str, x_q: np.ndarray, x_kv: np.ndarray,
         head_masks: np.ndarray | None, n_heads: int,
         past: tuple[np.ndarray, np.ndarray] | None = None,
         ) -> tuple[np.ndarray, tuple]:
    """Multi-head attention; `past` keys and values precede the new ones.

    The cache's `k` and `v` (entries 3 and 4) hold past plus new rows,
    so they are the next call's `past`.
    """
    q = _split_heads(linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), n_heads)
    k = _split_heads(linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), n_heads)
    v = _split_heads(linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), n_heads)
    if past is not None:
        k = np.concatenate((past[0], k), axis=-2)
        v = np.concatenate((past[1], v), axis=-2)
    heads, weights = masked_attention(q, k, v, head_masks)
    concat = _merge_heads(heads)
    out = linear(concat, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (x_q, x_kv, q, k, v, concat, weights)


def _mha_bwd(p: Parameters, prefix: str, d_out: np.ndarray, cache: tuple,
             n_heads: int, grads: Parameters) -> tuple[np.ndarray, np.ndarray]:
    x_q, x_kv, q, k, v, concat, weights = cache
    d_concat, d_wo, d_bo = linear_bwd(d_out, concat, p[f"{prefix}.wo"])
    _accumulate(grads, f"{prefix}.wo", d_wo)
    _accumulate(grads, f"{prefix}.bo", d_bo)
    d_q, d_k, d_v = masked_attention_bwd(_split_heads(d_concat, n_heads),
                                         q, k, v, weights)
    d_xq, d_wq, d_bq = linear_bwd(_merge_heads(d_q), x_q, p[f"{prefix}.wq"])
    d_xkv_k, d_wk, d_bk = linear_bwd(_merge_heads(d_k), x_kv, p[f"{prefix}.wk"])
    d_xkv_v, d_wv, d_bv = linear_bwd(_merge_heads(d_v), x_kv, p[f"{prefix}.wv"])
    for name, grad in (("wq", d_wq), ("bq", d_bq), ("wk", d_wk), ("bk", d_bk),
                       ("wv", d_wv), ("bv", d_bv)):
        _accumulate(grads, f"{prefix}.{name}", grad)
    return d_xq, d_xkv_k + d_xkv_v


def _sublayer_ff(p: Parameters, prefix: str, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    pre = linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])
    act = relu(pre)
    out = linear(act, p[f"{prefix}.w2"], p[f"{prefix}.b2"])
    return out, (x, pre, act)


def _sublayer_ff_bwd(p: Parameters, prefix: str, d_out: np.ndarray, cache: tuple,
                     grads: Parameters) -> np.ndarray:
    x, pre, act = cache
    d_act, d_w2, d_b2 = linear_bwd(d_out, act, p[f"{prefix}.w2"])
    d_pre = relu_bwd(d_act, pre)
    d_x, d_w1, d_b1 = linear_bwd(d_pre, x, p[f"{prefix}.w1"])
    for name, grad in (("w1", d_w1), ("b1", d_b1), ("w2", d_w2), ("b2", d_b2)):
        _accumulate(grads, f"{prefix}.{name}", grad)
    return d_x


def _layers(p: Parameters, config: ModelConfig, side: str, x: np.ndarray,
            rng: np.random.Generator | None, self_mask: np.ndarray | None = None,
            past: list[tuple[np.ndarray, np.ndarray]] | None = None,
            memory: np.ndarray | None = None, cross_masks: np.ndarray | None = None,
            ) -> tuple[np.ndarray, list[tuple]]:
    """The `side` layer stack: x = ln_j(x + dropout(sublayer_j(x))).

    Self-attention reads `self_mask` and layer i's `past` keys and
    values; cross-attention reads `memory` under `cross_masks`.  Returns
    the output and one (kind, name, norm name, sublayer cache, dropout
    mask, norm cache) step per sublayer, in run order.
    """
    steps = []
    for i in range(config.n_layers):
        for j, kind in enumerate(_SUBLAYERS[side], 1):
            name, ln = f"{side}{i}.{kind}", f"{side}{i}.ln{j}"
            if kind == "ff":
                out, cache = _sublayer_ff(p, name, x)
            elif kind == "self":
                out, cache = _mha(p, name, x, x, self_mask, config.n_heads,
                                  None if past is None else past[i])
            else:
                out, cache = _mha(p, name, x, memory, cross_masks, config.n_heads)
            out, drop = dropout(out, config.dropout, rng)
            x, norm = layer_norm(x + out, p[f"{ln}.g"], p[f"{ln}.b"])
            steps.append((kind, name, ln, cache, drop, norm))
    return x, steps


def _layers_bwd(p: Parameters, config: ModelConfig, d_x: np.ndarray, steps: list[tuple],
                grads: Parameters) -> tuple[np.ndarray, np.ndarray | None]:
    """Input gradient of `_layers` and, for the decoder, the memory
    gradient summed from the last layer down."""
    d_memory = None
    for kind, name, ln, cache, drop, norm in reversed(steps):
        d_sum, d_g, d_b = layer_norm_bwd(d_x, norm)
        _accumulate(grads, f"{ln}.g", d_g)
        _accumulate(grads, f"{ln}.b", d_b)
        d_out = dropout_bwd(d_sum, drop)
        if kind == "ff":
            d_x = d_sum + _sublayer_ff_bwd(p, name, d_out, cache, grads)
            continue
        d_q, d_kv = _mha_bwd(p, name, d_out, cache, config.n_heads, grads)
        if kind == "self":
            d_x = d_sum + d_q + d_kv
        else:
            d_x = d_sum + d_q
            d_memory = d_kv if d_memory is None else d_memory + d_kv
    return d_x, d_memory


def _embed(p: Parameters, config: ModelConfig, table: str, ids: np.ndarray, start: int,
           rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled `table` rows of `ids` plus positions from `start`, with dropout."""
    x = (embed(p[table], ids, math.sqrt(config.d_model))
         + sinusoidal_positions(np.arange(start, start + ids.shape[-1]), config.d_model))
    return dropout(x, config.dropout, rng)


def _embed_bwd(p: Parameters, config: ModelConfig, table: str, d_x: np.ndarray,
               cache: dict, grads: Parameters) -> None:
    d_x = dropout_bwd(d_x, cache["drop_emb"])
    _accumulate(grads, table, embed_bwd(d_x, p[table].shape, cache["ids"],
                                        math.sqrt(config.d_model)))


def _encode(p: Parameters, config: ModelConfig, word_ids: np.ndarray,
            rng: np.random.Generator | None) -> tuple[np.ndarray, dict]:
    n = len(word_ids)
    if n > config.max_positions:
        raise ValueError(f"sentence length {n} exceeds max_positions")
    x, drop_emb = _embed(p, config, "word_emb", word_ids, 0, rng)
    x, layers = _layers(p, config, "enc", x, rng)
    memory = np.vstack([p["sentinel"][None, :], x])
    return memory, {"ids": word_ids, "drop_emb": drop_emb, "layers": layers}


def _encode_bwd(p: Parameters, config: ModelConfig, d_memory: np.ndarray,
                cache: dict, grads: Parameters) -> None:
    _accumulate(grads, "sentinel", d_memory[0])
    d_x, _ = _layers_bwd(p, config, d_memory[1:], cache["layers"], grads)
    _embed_bwd(p, config, "word_emb", d_x, cache, grads)


def mask_rows(pairs: Sequence[MaskPair], n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive (len(pairs), n_words + 1) stack and buffer rows.

    Entries are 0.0 where the head may attend and -inf elsewhere.
    Position p is column p + 1; column 0 is the sentinel (memory row
    0), always attendable for both specialized heads, so rows whose
    structure is empty stay finite.
    """
    sets = ([pair.stack_positions for pair in pairs]
            + [pair.buffer_positions for pair in pairs])
    rows = np.full((len(sets), n_words + 1), NEG_INF)
    rows[:, 0] = 0.0
    sizes = [len(positions) for positions in sets]
    columns = np.fromiter(chain.from_iterable(sets), np.int64, sum(sizes))
    rows[np.repeat(np.arange(len(sets)), sizes), columns + 1] = 0.0
    return rows[:len(pairs)], rows[len(pairs):]


def _cross_head_masks(config: ModelConfig, stack_rows: np.ndarray,
                      buffer_rows: np.ndarray) -> np.ndarray:
    """(..., T, M) mask rows -> (..., n_heads, T, M), free heads unmasked."""
    lead, rows = stack_rows.shape[:-2], stack_rows.shape[-2:]
    masks = np.zeros((*lead, config.n_heads, *rows))
    masks[..., 0, :, :] = stack_rows
    masks[..., 1, :, :] = buffer_rows
    return masks


def _decode(p: Parameters, config: ModelConfig, memory: np.ndarray,
            in_ids: np.ndarray, stack_rows: np.ndarray, buffer_rows: np.ndarray,
            rng: np.random.Generator | None,
            past: list[tuple[np.ndarray, np.ndarray]] | None = None,
            ) -> tuple[np.ndarray, dict]:
    """Decoder logits for the input tokens `in_ids` (..., T).

    Training passes whole sequences as (T,) ids with (T, n_words + 1)
    mask rows.  Beam search passes one new token per hypothesis as
    (B, 1) ids with (B, 1, n_words + 1) rows, plus `past`, the
    per-layer self-attention keys and values of the earlier positions
    that the previous call returned as `cache["past"]`.  Positions and
    the causal mask then start at the past length, and the
    `max_positions` check counts past and new rows together.
    """
    t = in_ids.shape[-1]
    start = 0 if past is None else past[0][0].shape[-2]
    if start + t > config.max_positions:
        raise ValueError(f"sequence length {start + t} exceeds max_positions")
    y, drop_emb = _embed(p, config, "tok_emb", in_ids, start, rng)
    self_mask = np.concatenate((np.zeros((t, start)), causal_mask(t)), axis=1)
    cross_masks = _cross_head_masks(config, stack_rows, buffer_rows)
    y, layers = _layers(p, config, "dec", y, rng, self_mask, past, memory, cross_masks)
    logits = linear(y, p["out.w"], p["out.b"])
    return logits, {"ids": in_ids, "drop_emb": drop_emb, "layers": layers, "final": y,
                    "past": [step[3][3:5] for step in layers if step[0] == "self"]}


def _decode_bwd(p: Parameters, config: ModelConfig, d_logits: np.ndarray,
                cache: dict, grads: Parameters) -> np.ndarray:
    """Returns the gradient w.r.t. the encoder memory."""
    d_y, d_out_w, d_out_b = linear_bwd(d_logits, cache["final"], p["out.w"])
    _accumulate(grads, "out.w", d_out_w)
    _accumulate(grads, "out.b", d_out_b)
    d_y, d_memory = _layers_bwd(p, config, d_y, cache["layers"], grads)
    _embed_bwd(p, config, "tok_emb", d_y, cache, grads)
    return d_memory


@dataclass(frozen=True)
class Example:
    """One teacher-forcing unit: words, gold tokens, per-step mask rows."""

    word_ids: np.ndarray
    target_ids: np.ndarray
    stack_rows: np.ndarray   # (len(targets), n_words + 1), sentinel column first
    buffer_rows: np.ndarray


def forward(word_ids: np.ndarray, prefix_ids: Sequence[int],
            mask_trace: Sequence[MaskPair], params: Parameters,
            config: ModelConfig) -> np.ndarray:
    """Next-token distributions after each prefix position.

    Given a prefix of m gold tokens and the m+1 mask pairs of its
    trace, returns an (m+1, vocab) array whose row t is the predicted
    distribution for token t given the first t prefix tokens; the last
    row is the distribution after consuming the entire prefix.
    """
    prefix = np.asarray(prefix_ids, dtype=np.int64)
    if len(mask_trace) != len(prefix) + 1:
        raise ValueError("mask trace must have one pair per step plus the start")
    in_ids = np.concatenate(([config.bos_id], prefix))
    stack_rows, buffer_rows = mask_rows(mask_trace, len(word_ids))
    memory, _ = _encode(params, config, np.asarray(word_ids, dtype=np.int64), None)
    logits, _ = _decode(params, config, memory, in_ids, stack_rows, buffer_rows, None)
    return softmax_rows(logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _smoothed_ce(logits: np.ndarray, targets: np.ndarray,
                 smoothing: float) -> tuple[float, np.ndarray]:
    """Summed label-smoothed cross entropy and its logits gradient.

    The smoothed target puts 1 - eps on the gold token and spreads eps
    uniformly over the whole vocabulary, so a uniform prediction costs
    ln(vocab) regardless of eps.
    """
    vocab = logits.shape[1]
    rows = np.arange(len(targets))
    log_probs = _log_softmax(logits)
    nll = -log_probs[rows, targets]
    uniform = -log_probs.mean(axis=-1)
    total = float(((1.0 - smoothing) * nll + smoothing * uniform).sum())
    smoothed_target = np.full_like(logits, smoothing / vocab)
    smoothed_target[rows, targets] += 1.0 - smoothing
    d_logits = np.exp(log_probs) - smoothed_target
    return total, d_logits


def _batch_pass(params: Parameters, config: ModelConfig, batch: Sequence[Example],
                rng: np.random.Generator | None, grads: Parameters | None,
                ) -> tuple[float, int, int]:
    """Summed loss, target and correct counts; sums gradients into `grads`."""
    total = 0.0
    count = 0
    correct = 0
    for example in batch:
        targets = example.target_ids
        in_ids = np.concatenate(([config.bos_id], targets[:-1]))
        memory, enc_cache = _encode(params, config, example.word_ids, rng)
        logits, dec_cache = _decode(params, config, memory, in_ids,
                                    example.stack_rows, example.buffer_rows, rng)
        example_total, d_logits = _smoothed_ce(logits, targets, config.label_smoothing)
        total += example_total
        count += len(targets)
        correct += int((logits.argmax(axis=-1) == targets).sum())
        if grads is not None:
            d_memory = _decode_bwd(params, config, d_logits, dec_cache, grads)
            _encode_bwd(params, config, d_memory, enc_cache, grads)
    return total, count, correct


def batch_loss(params: Parameters, config: ModelConfig,
               batch: Sequence[Example]) -> float:
    """Mean label-smoothed cross entropy per target token."""
    total, count, _ = _batch_pass(params, config, batch, None, None)
    return total / count


def loss_and_grad(params: Parameters, config: ModelConfig, batch: Sequence[Example],
                  rng: np.random.Generator | None = None,
                  ) -> tuple[float, Parameters, int, int]:
    """Token-mean loss, gradients, and (correct, total) token counts."""
    grads: Parameters = {}
    total, count, correct = _batch_pass(params, config, batch, rng, grads)
    for name in grads:
        grads[name] /= count
    return total / count, grads, correct, count


def grad_check(params: Parameters, config: ModelConfig, batch: Sequence[Example],
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Meant for tiny double-precision models (d_model <= 16); checks every
    parameter coordinate.  Dropout is ignored (evaluation mode), since a
    stochastic forward has no well-defined finite difference.
    """
    if config.d_model > 16:
        raise ValueError("grad_check is for tiny models (d_model <= 16)")
    _, analytic, _, _ = loss_and_grad(params, config, batch, rng=None)
    worst = 0.0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + step
            upper = batch_loss(params, config, batch)
            flat[i] = kept - step
            lower = batch_loss(params, config, batch)
            flat[i] = kept
            numeric = (upper - lower) / (2.0 * step)
            scale = max(abs(numeric), abs(grad_flat[i]), 1e-4)
            worst = max(worst, abs(numeric - grad_flat[i]) / scale)
    return worst
