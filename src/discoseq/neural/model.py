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
statement of their layout: `_layout` (each parameter's name, shape and
initializer, which `init_parameters` draws and checkpoint loading
checks and fills), `_layers`, `_layers_bwd` and beam search's
`_plan` all read it.  Parameters are `_flat`: reshaped views of one
float64 vector in `_layout` order, drawn by `init_parameters` or read
by checkpoint loading; `loss_and_grad` sums gradients into a second, so
Adam's update and `grad_check` run over whole vectors.

Training packs a batch: `_pass` stacks every sentence's word rows, its
memory rows (a sentinel row, then its words) and its decoder token
rows, with positions restarting per sentence.  Each projection, norm,
ReLU, dropout and embedding then runs once per batch, forward and
backward; only attention runs per sentence, over that sentence's rows
(its `Segments`), so nothing is padded.  A pass keeps each value it
needs for backward once: a feed-forward sublayer keeps its ReLU's
output, not also its input; `_layers_bwd` frees each sublayer's cache
as soon as its backward has run; and the mask rows stay `mask_rows`
bits until `_pass` expands them for its own attention.  `forward` is
the same pass over one sentence.  Beam search has its own
evaluation-only step, `_decode`, over one (B, d) row per live
hypothesis of one sentence, with cached self-attention keys and values,
through the sentence's `_plan`: its weights looked up once, with
cross-attention folded over the memory.

Sizes default to a desk-scale setup that trains on a CPU in seconds.
Full treebank experiments use 6+6 layers of width 256 (d_ff 1024, 4
heads, dropout 0.33), lr 5e-4 with 4000 inverse-sqrt warm-up updates,
batches of 3584 tokens and 80 epochs.  The paper's shared Adam and
smoothing values are constants (`_FIXED`), recorded in every checkpoint.
"""

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Sequence, get_args, get_origin

import numpy as np

from ..masks import MaskPair
from ..transitions import parse_scheme, parse_transition
from .layers import (NEG_INF, causal_mask, dropout, dropout_bwd, embed,
                     embed_bwd, layer_norm, layer_norm_bwd, linear, linear_bwd,
                     masked_attention, masked_attention_bwd, relu, relu_bwd,
                     sinusoidal_positions, softmax_rows)

BOS = "<bos>"
UNK = "<unk>"


def _is_a(value: object, kind: type) -> bool:
    """Whether `value` is a `kind`; a bool is no int, and an int is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


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
    lr: float = 5e-4
    warmup_updates: int = 100
    epochs: int = 120
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if get_origin(field.type) is dict:
                key_type, value_type = get_args(field.type)
                fits = isinstance(value, dict) and all(
                    _is_a(key, key_type) and _is_a(item, value_type)
                    for key, item in value.items())
            else:
                fits = _is_a(value, field.type)
            if not fits:
                raise ValueError(f"{field.name}: expected {field.type.__name__}, "
                                 f"got {value!r}")
        # max_positions holds <bos> and at least one token
        for name, least in (("d_model", 1), ("n_layers", 1), ("d_ff", 1),
                            ("max_positions", 2), ("batch_size", 1), ("epochs", 1),
                            ("warmup_updates", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        for name, interval, fits in (("dropout", "[0, 1)", lambda x: 0.0 <= x < 1.0),
                                     ("lr", "(0, inf)", lambda x: 0.0 < x < math.inf)):
            if not fits(value := getattr(self, name)):  # false for nan too
                raise ValueError(f"{name} must be in {interval}, got {value!r}")
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
        scheme = parse_scheme(self.scheme)
        for token in self.token_to_id:
            if token != BOS and parse_transition(token).kind not in scheme.kinds:
                raise ValueError(f"token {token!r} is not in scheme {scheme}")

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def id_to_token(self) -> dict[int, str]:
        return {i: t for t, i in self.token_to_id.items()}

    def word_ids(self, words: Sequence[str]) -> np.ndarray:
        unk = self.word_to_id[UNK]
        return np.array([self.word_to_id.get(w, unk) for w in words], dtype=np.int64)


# The paper's Adam and loss settings, the same for every model
_FIXED = {"label_smoothing": 0.01, "warmup_init_lr": 1e-7, "min_lr": 1e-9,
          "adam_beta1": 0.9, "adam_beta2": 0.98, "adam_eps": 1e-8}

Parameters = dict[str, np.ndarray]

# Each layer runs its side's sublayers in order; sublayer j (from 1) is
# followed by the residual add and the norm `ln{j}`.
_SUBLAYERS = {"enc": ("self", "ff"), "dec": ("self", "cross", "ff")}


def _layout(config: ModelConfig):
    """Each parameter's name, shape and initializer, in draw order."""
    d, ff = config.d_model, config.d_ff
    yield "word_emb", (len(config.word_to_id), d), "normal"
    yield "tok_emb", (len(config.token_to_id), d), "normal"
    yield "sentinel", (d,), "normal"
    for side, kinds in _SUBLAYERS.items():
        for i in range(config.n_layers):
            for j, kind in enumerate(kinds, 1):
                prefix = f"{side}{i}.{kind}"
                if kind == "ff":
                    yield f"{prefix}.w1", (d, ff), "glorot"
                    yield f"{prefix}.b1", (ff,), "zeros"
                    yield f"{prefix}.w2", (ff, d), "glorot"
                    yield f"{prefix}.b2", (d,), "zeros"
                else:
                    for proj in ("wq", "wk", "wv", "wo"):
                        yield f"{prefix}.{proj}", (d, d), "glorot"
                    for proj in ("bq", "bk", "bv", "bo"):
                        yield f"{prefix}.{proj}", (d,), "zeros"
                yield f"{side}{i}.ln{j}.g", (d,), "ones"
                yield f"{side}{i}.ln{j}.b", (d,), "zeros"
    yield "out.w", (d, len(config.token_to_id)), "glorot"
    yield "out.b", (len(config.token_to_id),), "zeros"


def _flat(config: ModelConfig) -> Parameters:
    """Zeroed `_layout` tensors, each a reshaped view of one vector."""
    shapes = [(name, shape) for name, shape, _ in _layout(config)]
    ends = list(accumulate(math.prod(shape) for _, shape in shapes))
    parts = np.split(np.zeros(ends[-1]), ends[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes, parts)}


def _vector(tensors: Parameters) -> np.ndarray:
    """The one vector behind tensors that `_flat` made."""
    return tensors["sentinel"].base


# The `rng` annotations here are strings, so importing this module does not
# import `numpy.random`, which inference never uses.
def init_parameters(config: ModelConfig, rng: "np.random.Generator") -> Parameters:
    """Drawn tensors in `_layout` order, each a view of one float64 vector."""
    scale = 1.0 / math.sqrt(config.d_model)
    params = _flat(config)
    for name, shape, init in _layout(config):
        if init == "normal":
            params[name][...] = rng.standard_normal(shape) * scale
        elif init == "glorot":  # shape is (fan_in, fan_out)
            limit = math.sqrt(6.0 / sum(shape))
            params[name][...] = rng.uniform(-limit, limit, size=shape)
        elif init == "ones":
            params[name][...] = 1.0
    return params


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d_model) -> (..., n_heads, T, d_head), a view."""
    return x.reshape(*x.shape[:-1], n_heads, -1).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, T, d_head) -> (..., T, d_model)."""
    x = x.swapaxes(-3, -2)
    return x.reshape(*x.shape[:-2], -1)


# A packed batch's attention, one (query rows, key rows, additive mask or
# None) triple per sentence: each sentence attends only its own rows, so no
# score is computed across sentences.  Segments tile the key rows.  Beam
# search's `_decode` steps one row per hypothesis and needs none.
Segments = list[tuple[slice, slice, np.ndarray | None]]


def _mha(p: Parameters, prefix: str, x_q: np.ndarray, x_kv: np.ndarray,
         segments: Segments, n_heads: int) -> tuple[np.ndarray, tuple]:
    """Multi-head attention over packed rows.

    Every projection runs once over all rows; only the attention itself
    runs per segment.
    """
    q = _split_heads(linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), n_heads)
    k = _split_heads(linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), n_heads)
    v = _split_heads(linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), n_heads)
    # written in the rows' own layout, so merging the heads copies nothing
    heads = np.empty_like(q)
    weights = []
    for rows, columns, mask in segments:
        heads[..., rows, :], segment_weights = masked_attention(
            q[..., rows, :], k[..., columns, :], v[..., columns, :], mask)
        weights.append(segment_weights)
    concat = _merge_heads(heads)
    out = linear(concat, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (x_q, x_kv, q, k, v, concat, weights, segments)


def _mha_bwd(p: Parameters, prefix: str, d_out: np.ndarray, cache: tuple,
             n_heads: int, grads: Parameters) -> tuple[np.ndarray, np.ndarray]:
    x_q, x_kv, q, k, v, concat, weights, segments = cache
    d_concat, d_wo, d_bo = linear_bwd(d_out, concat, p[f"{prefix}.wo"])
    d_heads = _split_heads(d_concat, n_heads)
    d_q, d_k, d_v = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for (rows, columns, _), segment_weights in zip(segments, weights):
        d_q[..., rows, :], d_k[..., columns, :], d_v[..., columns, :] = (
            masked_attention_bwd(d_heads[..., rows, :], q[..., rows, :],
                                 k[..., columns, :], v[..., columns, :], segment_weights))
    d_xq, d_wq, d_bq = linear_bwd(_merge_heads(d_q), x_q, p[f"{prefix}.wq"])
    d_xkv_k, d_wk, d_bk = linear_bwd(_merge_heads(d_k), x_kv, p[f"{prefix}.wk"])
    d_xkv_v, d_wv, d_bv = linear_bwd(_merge_heads(d_v), x_kv, p[f"{prefix}.wv"])
    for name, grad in (("wo", d_wo), ("bo", d_bo), ("wq", d_wq), ("bq", d_bq),
                       ("wk", d_wk), ("bk", d_bk), ("wv", d_wv), ("bv", d_bv)):
        grads[f"{prefix}.{name}"] += grad
    return d_xq, d_xkv_k + d_xkv_v


def _sublayer_ff(p: Parameters, prefix: str, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    act = relu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    out = linear(act, p[f"{prefix}.w2"], p[f"{prefix}.b2"])
    return out, (x, act)  # `relu_bwd` reads the output, so the input is not kept


def _sublayer_ff_bwd(p: Parameters, prefix: str, d_out: np.ndarray, cache: tuple,
                     grads: Parameters) -> np.ndarray:
    x, act = cache
    d_act, d_w2, d_b2 = linear_bwd(d_out, act, p[f"{prefix}.w2"])
    d_pre = relu_bwd(d_act, act)
    d_x, d_w1, d_b1 = linear_bwd(d_pre, x, p[f"{prefix}.w1"])
    for name, grad in (("w1", d_w1), ("b1", d_b1), ("w2", d_w2), ("b2", d_b2)):
        grads[f"{prefix}.{name}"] += grad
    return d_x


def _layers(p: Parameters, config: ModelConfig, side: str, x: np.ndarray,
            rng: "np.random.Generator | None", self_segments: Segments,
            memory: np.ndarray | None = None, cross_segments: Segments | None = None,
            ) -> tuple[np.ndarray, list[tuple]]:
    """The `side` layer stack: x = ln_j(x + dropout(sublayer_j(x))).

    Self-attention reads `self_segments`; cross-attention reads `memory`
    under `cross_segments`.  Returns the output and one (kind, name,
    norm name, sublayer cache, dropout mask, norm cache) step per
    sublayer, in run order.
    """
    steps = []
    for i in range(config.n_layers):
        for j, kind in enumerate(_SUBLAYERS[side], 1):
            name, ln = f"{side}{i}.{kind}", f"{side}{i}.ln{j}"
            if kind == "ff":
                out, cache = _sublayer_ff(p, name, x)
            elif kind == "self":
                out, cache = _mha(p, name, x, x, self_segments, config.n_heads)
            else:
                out, cache = _mha(p, name, x, memory, cross_segments, config.n_heads)
            out, drop = dropout(out, config.dropout, rng)
            x, norm = layer_norm(x + out, p[f"{ln}.g"], p[f"{ln}.b"])
            steps.append((kind, name, ln, cache, drop, norm))
    return x, steps


def _layers_bwd(p: Parameters, config: ModelConfig, d_x: np.ndarray, steps: list[tuple],
                grads: Parameters) -> tuple[np.ndarray, np.ndarray | None]:
    """Input gradient of `_layers` and, for the decoder, the memory
    gradient summed from the last layer down.

    Each step is popped off `steps` as its backward runs, so its forward
    cache is freed before the layer below it is reached.
    """
    d_memory = None
    while steps:
        kind, name, ln, cache, drop, norm = steps.pop()
        d_sum, d_g, d_b = layer_norm_bwd(d_x, norm)
        grads[f"{ln}.g"] += d_g
        grads[f"{ln}.b"] += d_b
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


def _spans(lengths: Sequence[int]) -> list[slice]:
    """Consecutive row slices of the given lengths, from row 0."""
    return [slice(end - n, end) for n, end in zip(lengths, accumulate(lengths))]


def _positions(lengths: Sequence[int]) -> np.ndarray:
    """Packed positions that restart at 0 for each length."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(sum(lengths)) - np.repeat(starts, lengths)


def _embed(p: Parameters, config: ModelConfig, table: str, ids: np.ndarray,
           positions: np.ndarray, rng: "np.random.Generator | None",
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled `table` rows of `ids` plus the sinusoidal rows of `positions`,
    with dropout: `_encode`'s words, `_pass`'s tokens, and `_decode`'s
    newest tokens, whose one shared position broadcasts over the rows."""
    x = (embed(p[table], ids, math.sqrt(config.d_model))
         + sinusoidal_positions(positions, config.d_model))
    return dropout(x, config.dropout, rng)


def _embed_bwd(config: ModelConfig, table: str, d_x: np.ndarray, cache: dict,
               grads: Parameters) -> None:
    d_x = dropout_bwd(d_x, cache["drop_emb"])
    embed_bwd(d_x, grads[table], cache["ids"], math.sqrt(config.d_model))


def _encode(p: Parameters, config: ModelConfig, sentences: Sequence[np.ndarray],
            rng: "np.random.Generator | None") -> tuple[np.ndarray, dict]:
    """The packed encoder memory of `sentences` and a cache whose
    `memory_rows` holds each one's rows: its sentinel, then its words."""
    lengths = [len(ids) for ids in sentences]
    if max(lengths) > config.max_positions:
        raise ValueError(f"sentence length {max(lengths)} exceeds max_positions "
                         f"{config.max_positions}")
    ids = np.concatenate(sentences)
    x, drop_emb = _embed(p, config, "word_emb", ids, _positions(lengths), rng)
    spans = _spans(lengths)
    x, layers = _layers(p, config, "enc", x, rng, [(rows, rows, None) for rows in spans])
    memory = np.insert(x, [rows.start for rows in spans], p["sentinel"], axis=0)
    return memory, {"ids": ids, "drop_emb": drop_emb, "layers": layers,
                    "memory_rows": _spans([n + 1 for n in lengths])}


def mask_rows(pairs: Sequence[MaskPair], n_words: int) -> np.ndarray:
    """Packed (2, len(pairs), n_words // 8 + 1) uint8 rows: stack, then
    buffer, one bit per column, little-endian within each byte.

    A set bit is a column the head may attend.  Position p is column
    p + 1; column 0 is the sentinel (memory row 0), always attendable for
    both specialized heads, so rows whose structure is empty stay finite.
    `_cross_head_masks` expands the bits where they meet the scores.
    """
    width = n_words // 8 + 1  # bytes per row of n_words + 1 columns
    # a pair's bits shifted up one, with bit 0 set for the sentinel column
    packed = b"".join((bits << 1 | 1).to_bytes(width, "little") for bits in
                      [pair.stack for pair in pairs] + [pair.buffer for pair in pairs])
    return np.frombuffer(packed, np.uint8).reshape(2, len(pairs), width)


def _cross_head_masks(config: ModelConfig, bits: np.ndarray, width: int) -> np.ndarray:
    """(2, T, bytes) `mask_rows` -> additive (n_heads, T, width) rows, 0.0
    where a specialized head may attend and -inf elsewhere; free heads
    are unmasked."""
    visible = np.unpackbits(bits, axis=-1, count=width, bitorder="little")
    rows = np.where(visible, 0.0, NEG_INF)
    return np.concatenate((rows, np.zeros((config.n_heads - 2, *rows.shape[1:]))))


def _plan(p: Parameters, config: ModelConfig, memory: np.ndarray) -> list[tuple]:
    """What every `_decode` step over one sentence's `memory` reads: one
    (kind, weights, norm) per decoder sublayer, in run order, where every
    weight and norm is a (matrix or gain, bias) pair.  Cross-attention is
    folded over the memory's (n_heads, M, d_head) keys K and values V, per
    head: scores are y (Wq K^T) + bq K^T, scaled, a (d, n_heads * M) pair,
    and the output is the softmax weights times (V Wo), (n_heads * M, d)."""
    h, d, plan = config.n_heads, config.d_model, []
    for i in range(config.n_layers):
        for j, kind in enumerate(_SUBLAYERS["dec"], 1):
            name = f"dec{i}.{kind}"
            weights = tuple((p[f"{name}.w{x}"], p[f"{name}.b{x}"])
                            for x in ("12" if kind == "ff" else "qkvo"))
            if kind == "cross":
                query, *keys_values, (wo, bo) = weights
                keys, values = (_split_heads(linear(memory, *w), h) for w in keys_values)
                # (n_heads, d + 1, M): the query weights' rows, then its bias
                scores = (_split_heads(np.vstack(query), h) @ keys.swapaxes(-1, -2)
                          * (1.0 / math.sqrt(d // h))).swapaxes(0, 1).reshape(d + 1, -1)
                weights = ((scores[:-1], scores[-1]),
                           ((values @ wo.reshape(h, d // h, d)).reshape(-1, d), bo))
            plan.append((kind, weights, (p[f"dec{i}.ln{j}.g"], p[f"dec{i}.ln{j}.b"])))
    return plan


def _decode(p: Parameters, config: ModelConfig, plan: list[tuple], in_ids: np.ndarray,
            masks: np.ndarray, past: list[tuple[np.ndarray, np.ndarray]] | None = None,
            ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """One beam step for one sentence, in evaluation mode: the logits
    (B, vocab), then the `past` of the next step.

    Hypothesis b passes its newest token id and its `mask_rows` bits
    `masks[:, b]`, and is one row through the sentence's `_plan`.
    `past` holds each layer's (B, n_heads, T, d_head) self-attention keys
    and values of the earlier positions; the new token's position is T,
    below `max_positions` as `predict` caps its steps, and it sees every
    earlier position, so it gets no self mask.  Cross-attention is a
    softmax over (B, n_heads, M) scores between the plan's two folded
    products.  Whole sequences go through `_pass`.
    """
    rows, h = len(in_ids), config.n_heads
    if past is None:  # the first step: no earlier positions
        past = [(np.empty((rows, h, 0, config.d_model // h)),) * 2] * config.n_layers
    y, _ = _embed(p, config, "tok_emb", in_ids, np.array([past[0][0].shape[-2]]), None)
    cross_masks, next_past = None, []
    for kind, weights, norm in plan:
        if kind == "ff":
            inner, outer = weights
            out = linear(relu(linear(y, *inner)), *outer)
        elif kind == "self":  # each row's (n_heads, 1, d_head) query over its past
            query, *keys_values, output = weights
            # this layer's past: `next_past` holds one per layer so far
            k, v = (np.concatenate((cached, linear(y, *w).reshape(rows, h, 1, -1)), axis=2)
                    for cached, w in zip(past[len(next_past)], keys_values))
            next_past.append((k, v))
            heads, _ = masked_attention(linear(y, *query).reshape(rows, h, 1, -1), k, v)
            out = linear(heads.reshape(rows, -1), *output)
        else:
            to_scores, to_output = weights
            scores = linear(y, *to_scores).reshape(rows, h, -1)
            if cross_masks is None:  # (B, n_heads, M), the same in every layer
                cross_masks = _cross_head_masks(config, masks, scores.shape[-1]).swapaxes(0, 1)
            out = linear(softmax_rows(scores + cross_masks).reshape(rows, -1), *to_output)
        y, _ = layer_norm(y + out, *norm)
    return linear(y, p["out.w"], p["out.b"]), next_past


def _pass(p: Parameters, config: ModelConfig, sentences: Sequence[np.ndarray],
          in_ids: Sequence[np.ndarray], masks: Sequence[np.ndarray],
          rng: "np.random.Generator | None") -> tuple[np.ndarray, dict]:
    """Logits of a packed batch and the cache that `_pass_bwd` reads.

    Sentence i's decoder reads its tokens `in_ids[i]` under its
    `mask_rows` bits `masks[i]`, expanded here for this pass only.  The
    sentences' rows are stacked, so every projection, norm, dropout and
    embedding runs once per batch; only attention runs per sentence,
    over that sentence's rows.  Logit rows follow the sentences in order.
    """
    memory, encoder = _encode(p, config, sentences, rng)
    lengths = [len(ids) for ids in in_ids]
    if max(lengths) > config.max_positions:
        raise ValueError(f"sequence length {max(lengths)} exceeds max_positions "
                         f"{config.max_positions}")
    causal = causal_mask(max(lengths))
    self_segments, cross_segments = [], []
    for rows, columns, sentence_masks in zip(_spans(lengths), encoder["memory_rows"], masks):
        t = rows.stop - rows.start
        self_segments.append((rows, rows, causal[:t, :t]))
        cross_segments.append((rows, columns, _cross_head_masks(
            config, sentence_masks, columns.stop - columns.start)))
    ids = np.concatenate(in_ids)
    y, drop_emb = _embed(p, config, "tok_emb", ids, _positions(lengths), rng)
    y, layers = _layers(p, config, "dec", y, rng, self_segments, memory, cross_segments)
    logits = linear(y, p["out.w"], p["out.b"])
    return logits, {"encoder": encoder, "ids": ids, "drop_emb": drop_emb,
                    "layers": layers, "final": y}


def _pass_bwd(p: Parameters, config: ModelConfig, d_logits: np.ndarray, cache: dict,
              grads: Parameters) -> None:
    """Adds the gradients of `_pass`'s parameters to `grads`."""
    d_y, d_out_w, d_out_b = linear_bwd(d_logits, cache["final"], p["out.w"])
    grads["out.w"] += d_out_w
    grads["out.b"] += d_out_b
    d_y, d_memory = _layers_bwd(p, config, d_y, cache["layers"], grads)
    _embed_bwd(config, "tok_emb", d_y, cache, grads)
    encoder = cache["encoder"]
    sentinels = [rows.start for rows in encoder["memory_rows"]]
    grads["sentinel"] += d_memory[sentinels].sum(axis=0)
    d_x, _ = _layers_bwd(p, config, np.delete(d_memory, sentinels, axis=0),
                         encoder["layers"], grads)
    _embed_bwd(config, "word_emb", d_x, encoder, grads)


@dataclass(frozen=True)
class Example:
    """One teacher-forcing unit: words, gold tokens, per-step mask rows.

    The rows stay packed as `mask_rows` bits, (2, len(targets),
    n_words // 8 + 1) uint8, one bit per column where float64 rows take
    eight bytes; `_pass` expands a batch's rows for that pass only.
    """

    word_ids: np.ndarray
    target_ids: np.ndarray
    masks: np.ndarray


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
    logits, _ = _pass(params, config, [np.asarray(word_ids, dtype=np.int64)], [in_ids],
                      [mask_rows(mask_trace, len(word_ids))], None)
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
                rng: "np.random.Generator | None", grads: Parameters | None,
                ) -> tuple[float, int, int]:
    """Summed loss, target and correct counts of one packed pass; adds
    the gradients to `grads`."""
    logits, cache = _pass(
        params, config, [example.word_ids for example in batch],
        [np.concatenate(([config.bos_id], example.target_ids[:-1])) for example in batch],
        [example.masks for example in batch], rng)
    targets = np.concatenate([example.target_ids for example in batch])
    total, d_logits = _smoothed_ce(logits, targets, _FIXED["label_smoothing"])
    if grads is not None:
        _pass_bwd(params, config, d_logits, cache, grads)
    return total, len(targets), int((logits.argmax(axis=-1) == targets).sum())


def loss_and_grad(params: Parameters, config: ModelConfig, batch: Sequence[Example],
                  rng: "np.random.Generator | None" = None,
                  ) -> tuple[float, Parameters, int, int]:
    """Token-mean loss, gradients, and (correct, total) token counts.

    The gradients are views of one fresh vector in `_layout` order.
    """
    grads = _flat(config)
    total, count, correct = _batch_pass(params, config, batch, rng, grads)
    vector = _vector(grads)
    vector /= count
    return total / count, grads, correct, count


def grad_check(params: Parameters, config: ModelConfig, batch: Sequence[Example]) -> float:
    """Max relative error between analytic and central-difference gradients.

    Meant for tiny double-precision models (d_model <= 16); checks every
    parameter coordinate.  Dropout is ignored (evaluation mode), since a
    stochastic forward has no well-defined finite difference.  It perturbs
    `params` through their one vector, so they must be views of one, as
    `init_parameters`, `train` and `load_checkpoint` hand them out.
    """
    if config.d_model > 16:
        raise ValueError("grad_check is for tiny models (d_model <= 16)")
    _, grads, _, _ = loss_and_grad(params, config, batch, rng=None)
    weights, analytic = _vector(params), _vector(grads)
    worst, step = 0.0, 1e-5
    for i in range(weights.size):
        kept = weights[i]
        weights[i] = kept + step
        upper, count, _ = _batch_pass(params, config, batch, None, None)
        weights[i] = kept - step
        lower, _, _ = _batch_pass(params, config, batch, None, None)
        weights[i] = kept
        numeric = (upper / count - lower / count) / (2.0 * step)
        scale = max(abs(numeric), abs(analytic[i]), 1e-4)
        worst = max(worst, abs(numeric - analytic[i]) / scale)
    return worst
