import copy
import hashlib
import json
import math
import re
import struct
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import discoseq as dq
from discoseq.neural import (
    ModelConfig,
    forward,
    grad_check,
    init_parameters,
    load_checkpoint,
    loss_and_grad,
    masked_attention,
    save_checkpoint,
)
from discoseq.neural import model as nm
from discoseq.neural import training
from discoseq.neural.layers import relu, relu_bwd
from discoseq.neural.checkpoint import CheckpointError
from discoseq.neural.training import build_examples, build_vocabularies

from conftest import ALL_SCHEMES, DISCO_SCHEMES, bit_set, draw_biases, float_rows

SCHEME = "inorder+swap"


@pytest.fixture(scope="module")
def toy4(toy20):
    return list(toy20)[:4]


def tiny_config(trees, **overrides):
    words, tokens = build_vocabularies(trees, SCHEME)
    defaults = dict(scheme=SCHEME, word_to_id=words, token_to_id=tokens,
                    d_model=8, n_heads=2, n_layers=1, d_ff=16)
    defaults.update(overrides)
    return ModelConfig(**defaults)


@pytest.fixture(scope="module")
def setup(toy4):
    config = tiny_config(toy4)
    rng = np.random.default_rng(0)
    params = draw_biases(init_parameters(config, rng), rng)
    examples = build_examples(toy4, SCHEME, config)
    return config, params, examples


# --- attention primitive ------------------------------------------------------

def test_attention_single_unmasked_key_copies_its_value():
    rng = np.random.default_rng(1)
    q, k = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    mask = np.full((2, 3), -np.inf)
    mask[:, 1] = 0.0
    out, weights = masked_attention(q, k, v, mask)
    assert np.allclose(out, np.vstack([v[1], v[1]]))
    assert np.allclose(weights[:, 1], 1.0)


def test_attention_masked_weights_are_exactly_zero():
    rng = np.random.default_rng(2)
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    mask = np.where(rng.random((3, 5)) < 0.4, -np.inf, 0.0)
    mask[:, 0] = 0.0  # keep every row attendable
    _, weights = masked_attention(q, k, v, mask)
    assert np.all(weights[np.isinf(mask)] == 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0)


def test_attention_uniform_when_scores_tie():
    q = np.zeros((1, 4))
    k = np.zeros((4, 4))
    v = np.eye(4)
    out, weights = masked_attention(q, k, v)
    assert np.allclose(weights, 0.25)
    assert np.allclose(out, np.full((1, 4), 0.25))


def test_attention_matches_brute_force():
    rng = np.random.default_rng(3)
    q, k, v = rng.normal(size=(3, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    mask = np.where(rng.random((3, 4)) < 0.3, -np.inf, 0.0)
    mask[:, 2] = 0.0
    out, weights = masked_attention(q, k, v, mask)
    scores = q @ k.T / math.sqrt(6) + mask
    expect = np.exp(scores - scores.max(axis=1, keepdims=True))
    expect /= expect.sum(axis=1, keepdims=True)
    assert np.allclose(weights, expect, atol=1e-12)
    assert np.allclose(out, expect @ v, atol=1e-12)


def test_attention_rejects_fully_masked_row():
    q = np.zeros((1, 4))
    kv = np.zeros((2, 4))
    with pytest.raises(ValueError):
        masked_attention(q, kv, kv, np.full((1, 2), -np.inf))


# --- configuration ------------------------------------------------------------

def test_config_needs_stack_and_buffer_heads(toy4):
    with pytest.raises(ValueError):
        tiny_config(toy4, n_heads=1)


def test_config_dimension_must_split_across_heads(toy4):
    with pytest.raises(ValueError):
        tiny_config(toy4, d_model=10, n_heads=4)


def test_config_requires_sentinel_tokens(toy4):
    words, tokens = build_vocabularies(toy4, SCHEME)
    del tokens["<bos>"]
    with pytest.raises(ValueError):
        ModelConfig(scheme=SCHEME, word_to_id=words,
                    token_to_id={t: i for i, t in enumerate(sorted(tokens))})
    with pytest.raises(ValueError):
        ModelConfig(scheme=SCHEME,
                    word_to_id={"a": 0}, token_to_id={"<bos>": 0})


def test_config_requires_contiguous_ids(toy4):
    words, tokens = build_vocabularies(toy4, SCHEME)
    words[max(words, key=words.get)] = 99
    with pytest.raises(ValueError):
        ModelConfig(scheme=SCHEME, word_to_id=words, token_to_id=tokens)


@pytest.mark.parametrize("field,value", [
    ("d_model", 8.0), ("epochs", True), ("dropout", "x"), ("lr", None),
    ("scheme", 1), ("word_to_id", {"<unk>": 0.0}), ("token_to_id", {0: 0}),
    ("token_to_id", [("<bos>", 0)]),
])
def test_config_checks_field_types(toy4, field, value):
    with pytest.raises(ValueError, match=f"^{field}: expected "):
        tiny_config(toy4, **{field: value})


@pytest.mark.parametrize("token,message", [
    ("FOO", "bad transition token 'FOO'"),
    ("SHIFT#2", "token 'SHIFT#2' is not in scheme inorder+swap"),
    ("REDUCE#1(NP)", "token 'REDUCE#1(NP)' is not in scheme inorder+swap"),
])
def test_config_checks_tokens_against_the_scheme(toy4, token, message):
    words, tokens = build_vocabularies(toy4, SCHEME)
    tokens[token] = len(tokens)
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelConfig(scheme=SCHEME, word_to_id=words, token_to_id=tokens)
    with pytest.raises(ValueError, match="bad scheme name 'sideways'"):
        tiny_config(toy4, scheme="sideways")


@pytest.mark.parametrize("epochs", [0, -2])
def test_train_refuses_fewer_than_one_epoch(toy4, epochs):
    with pytest.raises(ValueError, match="^epochs must be at least 1$"):
        training.train(list(toy4), SCHEME, epochs=epochs, d_model=8, n_heads=2,
                       n_layers=1, d_ff=16)


@pytest.mark.parametrize("field, value, message", [
    ("warmup_updates", 0, "^warmup_updates must be at least 1$"),
    ("warmup_updates", -3, "^warmup_updates must be at least 1$"),
    ("dropout", 1.0, r"^dropout must be in \[0, 1\), got 1.0$"),
    ("dropout", -0.5, r"^dropout must be in \[0, 1\), got -0.5$"),
    ("dropout", math.nan, r"^dropout must be in \[0, 1\), got nan$"),
    ("lr", -1.0, r"^lr must be in \(0, inf\), got -1.0$"),
    ("lr", 0.0, r"^lr must be in \(0, inf\), got 0.0$"),
    ("lr", math.inf, r"^lr must be in \(0, inf\), got inf$"),
    ("seed", -1, "^seed must be at least 0$"),
], ids=["zero-warmup", "negative-warmup", "one-dropout", "negative-dropout", "nan-dropout",
        "negative-lr", "zero-lr", "infinite-lr", "negative-seed"])
def test_train_refuses_a_config_it_cannot_train_with(toy4, monkeypatch, field, value,
                                                     message):
    def draw(*args):
        raise AssertionError("parameters drawn")

    monkeypatch.setattr(training, "init_parameters", draw)
    with pytest.raises(ValueError, match=message):
        training.train(list(toy4), SCHEME, epochs=2, d_model=8, n_heads=2, n_layers=1,
                       d_ff=16, **{field: value})


def test_config_float_fields_take_ints(toy4):
    assert tiny_config(toy4, dropout=0, lr=1).lr == 1


def test_unknown_words_fall_back_to_unk(setup):
    config, _, _ = setup
    ids = config.word_ids(["dog", "zzzz"])
    assert ids[1] == config.word_to_id["<unk>"]
    assert ids[0] == config.word_to_id["dog"]


def test_init_parameters_deterministic(setup):
    config, _, _ = setup
    params = init_parameters(config, np.random.default_rng(0))
    again = init_parameters(config, np.random.default_rng(0))
    assert params.keys() == again.keys()
    for name in params:
        assert np.array_equal(params[name], again[name])
    assert params["word_emb"].shape == (len(config.word_to_id), config.d_model)
    assert params["tok_emb"].shape == (len(config.token_to_id), config.d_model)
    assert params["out.w"].shape == (config.d_model, len(config.token_to_id))


def _reference_init(config, rng):
    """One array per tensor, drawn as `init_parameters` draws them."""
    scale = 1.0 / math.sqrt(config.d_model)
    params = {}
    for name, shape, init in nm._layout(config):
        if init == "normal":
            params[name] = rng.standard_normal(shape) * scale
        elif init == "glorot":
            limit = math.sqrt(6.0 / sum(shape))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.ones(shape) if init == "ones" else np.zeros(shape)
    return params


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_init_parameters_draws_every_tensor_into_one_vector(toy4, seed):
    config = tiny_config(toy4, n_layers=2)
    params = init_parameters(config, np.random.default_rng(seed))
    reference = _reference_init(config, np.random.default_rng(seed))
    assert list(params) == [name for name, _, _ in nm._layout(config)] == list(reference)
    for name in params:
        assert np.array_equal(params[name], reference[name])
    vector = nm._vector(params)
    assert all(tensor.base is vector for tensor in params.values())
    assert np.array_equal(np.concatenate([t.ravel() for t in params.values()]), vector)


def _is_one_vector(tensors, config):
    """Whether `tensors` are the `_layout` views of one whole vector."""
    vector = nm._vector(tensors)
    return (list(tensors) == [name for name, _, _ in nm._layout(config)]
            and vector is not None and all(t.base is vector for t in tensors.values())
            and vector.size == sum(t.size for t in tensors.values()))


def test_gradients_and_loaded_parameters_are_views_of_one_vector(tmp_path, setup):
    config, params, examples = setup
    _, grads, _, _ = loss_and_grad(params, config, examples[:2])
    assert _is_one_vector(grads, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    loaded, _ = load_checkpoint(path)
    assert _is_one_vector(loaded, config)


# the checked-in benchmark checkpoint, and the SHA-256 of its tensors'
# names and little-endian float64 bytes, by name in sorted order
PARSE_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "parse.ckpt"
PARSE_CHECKPOINT_SHA256 = "1ae9aa37d075dd0af5ea77ae7b83f7df9790803fbf9ee4e751a39aaca3da2194"


def test_the_benchmark_checkpoint_loads_to_its_recorded_tensors():
    params, config = load_checkpoint(PARSE_CHECKPOINT)
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(params[name].astype("<f8").tobytes())
    assert digest.hexdigest() == PARSE_CHECKPOINT_SHA256
    assert _is_one_vector(params, config)


def test_resaving_the_benchmark_checkpoint_reproduces_it_byte_for_byte(tmp_path):
    """Its config still records the fixed Adam and loss settings."""
    path = tmp_path / "parse.ckpt"
    save_checkpoint(path, *load_checkpoint(PARSE_CHECKPOINT))
    assert path.read_bytes() == PARSE_CHECKPOINT.read_bytes()


# --- forward pass ---------------------------------------------------------

def test_forward_rows_are_distributions(setup, toy4):
    config, params, examples = setup
    ex = examples[0]
    prefix = list(ex.target_ids[:-1])
    pairs = trace_for(toy4[0], config, prefix)
    dist = forward(ex.word_ids, prefix, pairs, params, config)
    assert dist.shape == (len(prefix) + 1, len(config.token_to_id))
    assert np.all(dist >= 0)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-6)


def trace_for(tree, config, prefix):
    scheme = dq.parse_scheme(config.scheme)
    tokens = dq.encode(tree, scheme)
    return dq.trace(len(tree.sentence), tokens, scheme)[: len(prefix) + 1]


def test_forward_requires_aligned_trace(setup, toy4):
    config, params, examples = setup
    ex = examples[0]
    pairs = trace_for(toy4[0], config, ex.target_ids[:-1])
    with pytest.raises(ValueError):
        forward(ex.word_ids, list(ex.target_ids[:-1]), pairs[:3], params, config)


def test_forward_is_causal(setup, toy4):
    """Changing a later prefix token must not move earlier rows."""
    config, params, examples = setup
    ex = examples[0]
    prefix = list(ex.target_ids[:-1])
    pairs = trace_for(toy4[0], config, prefix)
    base = forward(ex.word_ids, prefix, pairs, params, config)
    cut = len(prefix) // 2
    altered = list(prefix)
    altered[cut] = (altered[cut] + 1) % len(config.token_to_id) or 1
    other = forward(ex.word_ids, altered, pairs, params, config)
    assert np.array_equal(base[: cut + 1], other[: cut + 1])
    assert not np.array_equal(base[cut + 1], other[cut + 1])


def test_sentence_length_capped(setup):
    config, params, _ = setup
    words = np.zeros(config.max_positions + 1, dtype=int)
    with pytest.raises(ValueError):
        nm._encode(params, config, [words], None)


def test_decoding_past_max_positions_is_a_data_error(tmp_path, toy4):
    config = tiny_config(toy4, max_positions=8)
    params = init_parameters(config, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    # a sentence the checkpoint cannot hold is bad data
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("\n\n" + " ".join(["a"] * 9) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "predict", "--checkpoint", str(path),
         "--in", str(sentences)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (f"discoseq: {sentences}: line 3: sentence length 9 "
                           "exceeds max_positions 8\n")


def test_cross_head_masks_shape(setup):
    config, _, examples = setup
    ex = examples[0]
    n = len(ex.word_ids)
    masks = nm._cross_head_masks(config, ex.masks, n + 1)
    assert masks.shape == (config.n_heads, len(ex.target_ids), n + 1)
    rows = float_rows(ex.masks, n)
    assert np.array_equal(masks[0], rows[0])
    assert np.array_equal(masks[1], rows[1])
    # the sentinel column is never masked, so every row stays attendable
    assert np.all(masks[:, :, 0] == 0.0)


def test_mask_rows_sentinel_column(setup, toy4):
    config, _, _ = setup
    scheme = dq.parse_scheme(config.scheme)
    tokens = dq.encode(toy4[0], scheme)
    pairs = dq.trace(len(toy4[0].sentence), tokens, scheme)
    n = len(toy4[0].sentence)
    bits = nm.mask_rows(pairs, n)
    assert bits.dtype == np.uint8 and bits.shape == (2, len(pairs), n // 8 + 1)
    rows = float_rows(bits, n)
    stack_rows, buffer_rows = rows
    assert set(np.unique(np.concatenate((stack_rows, buffer_rows)))) == {0.0, -np.inf}
    assert np.all(stack_rows[:, 0] == 0.0) and np.all(buffer_rows[:, 0] == 0.0)
    for stack_row, buffer_row, pair in zip(stack_rows, buffer_rows, pairs):
        assert {p for p in range(n) if stack_row[p + 1] == 0.0} == bit_set(pair.stack)
        assert {p for p in range(n) if buffer_row[p + 1] == 0.0} == bit_set(pair.buffer)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_examples_keep_their_mask_rows_as_bits(toy20, scheme):
    """Each example stores one bit per column, and the bits expand to the
    0.0/-inf rows of its trace, with the sentinel column always visible;
    a continuous scheme takes the continuous trees."""
    trees = [tree for tree in toy20
             if scheme.disco != "none" or not dq.discontinuous_constituents(tree)]
    words, tokens = build_vocabularies(trees, scheme)
    config = ModelConfig(scheme=str(scheme), word_to_id=words, token_to_id=tokens)
    for tree, ex in zip(trees, build_examples(trees, scheme, config), strict=True):
        n, steps = len(tree.sentence), len(ex.target_ids)
        assert ex.masks.dtype == np.uint8
        assert ex.masks.shape == (2, steps, n // 8 + 1)
        pairs = dq.trace(n, dq.encode(tree, scheme), scheme)[:steps]
        expected = np.array([[[0.0 if c == 0 or c - 1 in bit_set(getattr(pair, side))
                               else -np.inf for c in range(n + 1)] for pair in pairs]
                             for side in ("stack", "buffer")])
        assert np.array_equal(float_rows(ex.masks, n), expected)
        masks = nm._cross_head_masks(config, ex.masks, n + 1)
        assert np.array_equal(masks[:2], expected)
        assert np.all(masks[2:] == 0.0)


def test_perturbing_a_hidden_word_cannot_leak_through_specialized_heads(setup, toy4):
    """With every head specialized, a memory row that both vectors mask at a
    step cannot influence that step's distribution at all."""
    config, params, examples = setup
    ex = examples[0]
    memory, _ = nm._encode(params, config, [ex.word_ids], None)
    in_ids = np.concatenate(([config.bos_id], ex.target_ids[:-1]))
    rows = float_rows(ex.masks, len(ex.word_ids))

    def stepped(memory):
        """Each step's logits, one token at a time through `past`."""
        plan, past, rows = nm._plan(params, config, memory), None, []
        for t, in_id in enumerate(in_ids):
            logits, past = nm._decode(params, config, plan, np.array([in_id]),
                                      ex.masks[:, t:t + 1], past)
            rows.append(logits[0])
        return np.array(rows)

    logits = stepped(memory)
    # the steps share `_plan`, so hold them to the whole-sequence pass too
    whole, _ = nm._pass(params, config, [ex.word_ids], [in_ids], [ex.masks], None)
    np.testing.assert_allclose(logits, whole, rtol=0, atol=1e-9)
    hidden_both = [
        (t, pos) for t in range(len(ex.target_ids))
        for pos in range(len(ex.word_ids))
        if np.isinf(rows[0, t, pos + 1]) and np.isinf(rows[1, t, pos + 1])
    ]
    assert hidden_both, "fixture should mask at least one word somewhere"
    t, pos = hidden_both[-1]
    bumped = memory.copy()
    bumped[pos + 1] += 17.0
    new_logits = stepped(bumped)
    assert np.array_equal(logits[t], new_logits[t])
    # sanity: the perturbation is visible at steps that can see the word
    visible = [s for s in range(len(ex.target_ids))
               if rows[0, s, pos + 1] == 0.0 or rows[1, s, pos + 1] == 0.0]
    assert any(not np.array_equal(logits[s], new_logits[s]) for s in visible)


def test_free_heads_are_exchangeable(toy4):
    """Heads beyond the two specialized ones have no fixed roles: swapping
    their projection blocks leaves the forward pass unchanged."""
    config = tiny_config(toy4, n_heads=4, d_model=8)
    params = init_parameters(config, np.random.default_rng(5))
    examples = build_examples(toy4, SCHEME, config)
    ex = examples[0]
    prefix = list(ex.target_ids[:-1])
    pairs = trace_for(toy4[0], config, prefix)
    base = forward(ex.word_ids, prefix, pairs, params, config)

    d_head = config.d_model // config.n_heads
    a = slice(2 * d_head, 3 * d_head)
    b = slice(3 * d_head, 4 * d_head)
    swapped = {k: v.copy() for k, v in params.items()}
    for stem in ("dec0.cross.wq", "dec0.cross.wk", "dec0.cross.wv"):
        swapped[stem][:, a], swapped[stem][:, b] = (
            params[stem][:, b].copy(), params[stem][:, a].copy())
    for stem in ("dec0.cross.bq", "dec0.cross.bk", "dec0.cross.bv"):
        swapped[stem][a], swapped[stem][b] = (
            params[stem][b].copy(), params[stem][a].copy())
    swapped["dec0.cross.wo"][a, :], swapped["dec0.cross.wo"][b, :] = (
        params["dec0.cross.wo"][b, :].copy(), params["dec0.cross.wo"][a, :].copy())

    other = forward(ex.word_ids, prefix, pairs, swapped, config)
    assert np.allclose(base, other, atol=1e-12)


# --- loss ----------------------------------------------------------------

def mean_ce(dist, targets, smoothing):
    """Token-mean `_smoothed_ce` of predicted distributions."""
    total, _ = nm._smoothed_ce(np.log(dist), np.array(targets), smoothing)
    return total / len(targets)


def test_loss_zero_on_confident_correct_prediction():
    # 1e-300 instead of 0: log(0) logits make the smoothing term 0 * inf
    dist = np.array([[1.0, 1e-300, 1e-300]])
    assert mean_ce(dist, [0], smoothing=0.0) == 0.0


def test_loss_uniform_is_log_vocab():
    v = 7
    dist = np.full((3, v), 1.0 / v)
    assert math.isclose(mean_ce(dist, [0, 3, 6], smoothing=0.0), math.log(v), rel_tol=1e-12)
    assert math.isclose(mean_ce(dist, [0, 3, 6], smoothing=0.01), math.log(v), rel_tol=1e-12)


def test_loss_matches_direct_formula():
    rng = np.random.default_rng(9)
    dist = rng.dirichlet(np.ones(5), size=4)
    targets = [0, 2, 4, 1]
    eps = 0.1
    total = 0.0
    for row, target in zip(dist, targets):
        q = np.full(5, eps / 5)
        q[target] += 1.0 - eps
        total += -(q * np.log(row)).sum()
    assert math.isclose(mean_ce(dist, targets, smoothing=eps), total / 4, rel_tol=1e-12)


def test_gradient_vanishes_at_the_smoothed_optimum():
    eps = 0.05
    v = 6
    q = np.full((2, v), eps / v)
    q[0, 1] += 1 - eps
    q[1, 4] += 1 - eps
    _, d_logits = nm._smoothed_ce(np.log(q), np.array([1, 4]), eps)
    assert np.linalg.norm(d_logits) < 1e-12


def test_gradient_vanishes_at_a_zero_loss_point():
    logits = np.zeros((1, 5))
    logits[0, 2] = 45.0
    total, d_logits = nm._smoothed_ce(logits, np.array([2]), 0.0)
    assert total < 1e-8
    assert np.linalg.norm(d_logits) < 1e-8


# --- gradients -------------------------------------------------------------

def test_grad_check_specialized_heads(setup):
    config, params, examples = setup
    err = grad_check(params, config, examples[:1])
    assert err < 1e-4


def test_grad_check_with_unspecialized_masks(setup):
    """Gradients must also be right when the mask vectors hide nothing."""
    config, params, examples = setup
    ex = examples[0]
    free = nm.Example(ex.word_ids, ex.target_ids, np.full_like(ex.masks, 0xFF))
    assert np.all(float_rows(free.masks, len(ex.word_ids)) == 0.0)
    assert grad_check(params, config, [free]) < 1e-4


_RELU_EDGES = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                               2.2250738585072009e-308, -1e-310])
_FLOATS = _RELU_EDGES | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(arrays(np.float64, (2, 7), elements=_FLOATS), arrays(np.float64, (2, 7), elements=_FLOATS))
def test_relu_bwd_reads_the_same_gradient_off_the_output(x, d_out):
    """Training keeps only relu's output: it is > 0 exactly where the
    input is, so the gradient is the same, bit for bit."""
    with np.errstate(invalid="ignore"):  # inf * 0 where the unit is off
        from_input, from_output = relu_bwd(d_out, x), relu_bwd(d_out, relu(x))
    assert np.array_equal(from_input.view(np.uint64), from_output.view(np.uint64))


def test_backward_frees_each_forward_cache_as_it_goes(setup, monkeypatch):
    """No sublayer's forward cache outlives its backward: the decoder's are
    gone before the encoder's backward starts, and none is left after."""
    config, params, examples = setup
    batch = examples[:2]
    logits, cache = nm._pass(
        params, config, [ex.word_ids for ex in batch],
        [np.concatenate(([config.bos_id], ex.target_ids[:-1])) for ex in batch],
        [ex.masks for ex in batch], None)

    def refs(steps):
        """Every array that the steps' caches hold, but the norms' gains."""
        return [weakref.ref(a) for _, _, _, sublayer, drop, norm in steps
                for a in (*sublayer, drop, *norm[:2]) if isinstance(a, np.ndarray)]

    decoder, encoder = refs(cache["layers"]), refs(cache["encoder"]["layers"])
    live_at_embed = []
    original = nm.embed_bwd

    def recording(*args):
        live_at_embed.append(sum(ref() is not None for ref in decoder))
        return original(*args)

    monkeypatch.setattr(nm, "embed_bwd", recording)
    nm._pass_bwd(params, config, np.ones_like(logits), cache, nm._flat(config))
    assert live_at_embed == [0, 0]  # the token embedding's backward, then the words'
    assert [ref for ref in decoder + encoder if ref() is not None] == []


def test_grad_check_refuses_big_models(toy4):
    config = tiny_config(toy4, d_model=32, d_ff=64)
    params = init_parameters(config, np.random.default_rng(0))
    examples = build_examples(toy4, SCHEME, config)
    with pytest.raises(ValueError):
        grad_check(params, config, examples[:1])


def test_dropout_gradients_match_central_differences(toy20):
    """`grad_check` runs in evaluation mode, so this checks the dropout
    backward: every evaluation draws the same masks from a fresh rng."""
    trees = sorted(toy20, key=len)[:2]
    config = tiny_config(trees, n_layers=2, dropout=0.3)
    params = init_parameters(config, np.random.default_rng(0))
    examples = build_examples(trees, SCHEME, config)

    def loss() -> float:
        return loss_and_grad(params, config, examples, np.random.default_rng(7))[0]

    _, analytic, _, _ = loss_and_grad(params, config, examples, np.random.default_rng(7))
    step, worst = 1e-5, 0.0
    for name in sorted(params):
        flat, grad = params[name].reshape(-1), analytic[name].reshape(-1)
        for i in range(3):
            kept = flat[i]
            flat[i] = kept + step
            upper = loss()
            flat[i] = kept - step
            lower = loss()
            flat[i] = kept
            numeric = (upper - lower) / (2.0 * step)
            scale = max(abs(numeric), abs(grad[i]), 1e-4)
            worst = max(worst, abs(numeric - grad[i]) / scale)
    assert worst < 1e-5


@pytest.mark.parametrize("scheme", DISCO_SCHEMES, ids=str)
def test_a_packed_batch_sums_its_sentences_gradients(toy20, scheme):
    """One pass over four sentences of uneven lengths gives the gradients
    of the four one-sentence batches, weighted by their target counts."""
    by_length = {len(tree): tree for tree in toy20}
    trees = [by_length[n] for n in sorted(by_length)[-4:]]
    words, tokens = build_vocabularies(trees, scheme)
    config = ModelConfig(scheme=str(scheme), word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=2, d_ff=16)
    params = init_parameters(config, np.random.default_rng(0))
    examples = build_examples(trees, scheme, config)
    assert len({len(ex.word_ids) for ex in examples}) == 4
    loss, packed, _, count = loss_and_grad(params, config, examples)
    summed_loss = 0.0
    summed = {name: np.zeros_like(value) for name, value in params.items()}
    for example in examples:
        one_loss, grads, _, one_count = loss_and_grad(params, config, [example])
        summed_loss += one_loss * one_count
        for name in summed:
            summed[name] += grads[name] * one_count
    assert count == sum(len(ex.target_ids) for ex in examples)
    assert math.isclose(loss, summed_loss / count, rel_tol=1e-12)
    for name, grad in summed.items():
        grad /= count
        error = np.abs(packed[name] - grad).max()
        if name.endswith(".bk"):  # shifts every score of a query row alike
            assert error <= 1e-15, name
        else:
            assert error <= 1e-12 * np.abs(grad).max(), name


def test_embedding_gradients_add_into_the_gradient_in_place(toy20, monkeypatch):
    """`embed_bwd` adds into the gradient's view; the gradients are bit-equal
    to those of a whole zero table added into that view afterwards."""
    trees = sorted(toy20, key=len)[-3:]
    config = tiny_config(trees, n_layers=2, dropout=0.2)
    params = init_parameters(config, np.random.default_rng(0))
    examples = build_examples(trees, SCHEME, config)
    _, direct, _, _ = loss_and_grad(params, config, examples, np.random.default_rng(3))

    def zero_table(d_out, d_table, ids, scale):
        table = np.zeros(d_table.shape)
        np.add.at(table, ids, d_out * scale)
        d_table += table

    monkeypatch.setattr(nm, "embed_bwd", zero_table)
    _, reference, _, _ = loss_and_grad(params, config, examples, np.random.default_rng(3))
    for name in ("word_emb", "tok_emb"):
        assert np.any(direct[name])
    assert all(direct[name].tobytes() == reference[name].tobytes() for name in params)


def _reference_adam(params, grads, state, update, rate):
    """Adam one tensor at a time, as separate array expressions."""
    b1, b2 = nm._FIXED["adam_beta1"], nm._FIXED["adam_beta2"]
    for name, grad in grads.items():
        first, second = state[name]
        first = b1 * first + (1.0 - b1) * grad
        second = b2 * second + (1.0 - b2) * grad * grad
        state[name] = (first, second)
        first_hat = first / (1.0 - b1 ** update)
        second_hat = second / (1.0 - b2 ** update)
        params[name] -= rate * first_hat / (np.sqrt(second_hat) + nm._FIXED["adam_eps"])


def test_flat_adam_is_the_per_tensor_adam_bit_for_bit(setup):
    config, _, examples = setup
    config = replace(config, warmup_updates=3)
    params = init_parameters(config, np.random.default_rng(0))
    reference = {name: value.copy() for name, value in params.items()}
    state = {name: (np.zeros_like(value), np.zeros_like(value))
             for name, value in params.items()}
    weights = nm._vector(params)
    moments = np.zeros((2, weights.size))
    scratch = np.empty(weights.size)
    for update in range(1, 7):
        batch = examples[update % 2::2]
        _, grads, _, _ = loss_and_grad(params, config, batch)
        rate = training.lr_at(update, config)
        _reference_adam(reference, {name: g.copy() for name, g in grads.items()}, state,
                        update, rate)
        training._adam_update(weights, nm._vector(grads), moments, scratch, update, rate)
        for name in params:
            assert np.array_equal(params[name], reference[name]), (update, name)
    for row, moment in zip(moments, zip(*state.values())):
        assert np.array_equal(row, np.concatenate([m.ravel() for m in moment]))


def test_train_holds_one_gradient_vector_at_a_time(toy4, monkeypatch):
    """The spent gradient vector is dead by the time the next batch's
    `loss_and_grad` starts, so an update never holds two."""
    spent, live_at_call = [], []
    original = training.loss_and_grad

    def tracked(*args, **kwargs):
        live_at_call.append(sum(ref() is not None for ref in spent))
        result = original(*args, **kwargs)
        spent.append(weakref.ref(nm._vector(result[1])))
        return result

    monkeypatch.setattr(training, "loss_and_grad", tracked)
    training.train(toy4, SCHEME, epochs=2, batch_size=2, d_model=8, n_heads=2,
                   n_layers=1, d_ff=16)
    assert live_at_call == [0] * 4


# --- checkpoints -----------------------------------------------------------

def test_checkpoint_roundtrip_is_bitwise(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    loaded_params, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert loaded_params.keys() == params.keys()
    for name in params:
        assert np.array_equal(loaded_params[name], params[name])


def test_checkpoint_rejects_bad_magic(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_garbage(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_tensor(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {k: v for k, v in params.items() if k != "out.b"}, config)
    with pytest.raises(CheckpointError, match="missing tensor 'out.b'"):
        load_checkpoint(path)
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("wake the dog up\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "predict", "--checkpoint", str(path),
         "--in", str(sentences)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "out.b" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_checkpoint_rejects_extra_and_misshaped_tensors(tmp_path, setup):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, dict(params, extra=np.zeros(3)), config)
    with pytest.raises(CheckpointError, match="unexpected tensor 'extra'"):
        load_checkpoint(path)
    save_checkpoint(path, dict(params, sentinel=np.zeros(config.d_model + 1)), config)
    with pytest.raises(CheckpointError, match="tensor 'sentinel' has shape"):
        load_checkpoint(path)


def _header_edit(edit):
    """A checkpoint edit that rewrites the JSON header and its length."""
    def rewrite(blob):
        (length,) = struct.unpack("<Q", blob[8:16])
        header = json.dumps(edit(json.loads(blob[16:16 + length]))).encode("utf-8")
        return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length:]
    return rewrite


@_header_edit
def _without_dtype(header):
    del header["tensors"][0]["dtype"]
    return header


@_header_edit
def _string_shape(header):
    header["tensors"][0]["shape"] = "ab"
    return header


@_header_edit
def _list_vocabulary(header):
    header["config"]["word_to_id"] = []
    return header


@_header_edit
def _zero_width(header):
    header["config"]["d_model"] = 0
    return header


def _shape(*sizes):
    def edit(header):
        header["tensors"][0]["shape"] = list(sizes)
        return header
    return _header_edit(edit)


@_header_edit
def _float_width(header):  # equal to the int 8, so the tensor shapes still match
    header["config"]["d_model"] = 8.0
    return header


@_header_edit
def _string_dropout(header):
    header["config"]["dropout"] = "x"
    return header


@_header_edit
def _wide_config(header):  # over tensors of width 8; one 10**6-square matrix is 7.28 TiB
    header["config"]["d_model"] = 10 ** 6
    return header


def _token(old, new):
    def edit(header):
        vocabulary = header["config"]["token_to_id"]
        vocabulary[new] = vocabulary.pop(old)
        return header
    return _header_edit(edit)


@_header_edit
def _bad_scheme(header):
    header["config"]["scheme"] = "sideways"
    return header


@_header_edit
def _many_layers(header):  # a layout of 10**13 tensors is never drawn up
    header["config"]["n_layers"] = 10 ** 12
    return header


def _config_value(field, value):
    """An edit that sets one field of the header's config."""
    def edit(header):
        header["config"][field] = value
        return header
    return _header_edit(edit)


@_header_edit
def _without_adam_eps(header):
    del header["config"]["adam_eps"]
    return header


def _entry(field, value):
    """An edit that sets one field of the first manifest entry."""
    def edit(header):
        header["tensors"][0][field] = value
        return header
    return _header_edit(edit)


@_header_edit
def _repeated_name(header):
    header["tensors"][1]["name"] = header["tensors"][0]["name"]
    return header


@_header_edit
def _bool_shape(header):
    header["tensors"][0]["shape"] = [True] * len(header["tensors"][0]["shape"])
    return header


def _huge_header_length(blob):
    return blob[:8] + struct.pack("<Q", 2 ** 62) + blob[16:]


def _last_value(value):
    """An edit that sets the payload's last float, in its last tensor."""
    return lambda blob: blob[:-8] + struct.pack("<d", value)


@pytest.mark.parametrize("edit", [
    _header_edit(lambda header: header["tensors"]),
    _header_edit(lambda header: {k: v for k, v in header.items() if k != "tensors"}),
    _without_dtype,
    _string_shape,
    _list_vocabulary,
    _zero_width,
    _shape(2 ** 40),
    _shape(2 ** 62, 2 ** 62),
    _wide_config,
    _many_layers,
    _huge_header_length,
    _float_width,
    _string_dropout,
    _token("SWAP", "FOO"),
    _token("SWAP", "SHIFT#2"),
    _token("SWAP", "REDUCE#2(NP)"),
    _bad_scheme,
    ("n_layers", 0),
    ("d_ff", 0),
    ("max_positions", 0),
    ("max_positions", 1),
    ("batch_size", 0),
    ("epochs", 0),
    ("warmup_updates", 0),
    ("dropout", 1.0),
    _config_value("label_smoothing", 2.0),
    ("lr", -1.0),
    ("seed", -1),
    _config_value("warmup_init_lr", 0.0),
    _config_value("adam_eps", math.inf),
    _config_value("min_lr", -1.0),
    _config_value("adam_beta1", 1.0),
    _config_value("adam_beta2", math.nan),
    _without_adam_eps,
    _repeated_name,
    _entry("name", ["word_emb"]),
    _entry("name", 3),
    _entry("dtype", "<f4"),
    _bool_shape,
    _last_value(math.nan),
    _last_value(-math.inf),
], ids=["list-header", "no-tensors", "no-dtype", "string-shape", "list-vocabulary",
        "zero-width", "huge-shape", "overflowing-shape", "wide-config", "many-layers",
        "huge-header-length", "float-width", "string-dropout", "bad-token",
        "token-of-another-scheme", "token-of-another-base", "bad-scheme",
        "zero-layers", "zero-d-ff", "zero-max-positions", "one-max-position",
        "zero-batch-size", "zero-epochs", "zero-warmup", "one-dropout", "two-smoothing",
        "negative-lr", "negative-seed", "zero-warmup-init-lr", "infinite-adam-eps",
        "negative-min-lr", "one-beta1", "nan-beta2", "missing-adam-eps", "repeated-name",
        "list-name", "int-name", "f4-dtype", "bool-shape", "nan-value", "infinite-value"])
def test_predict_rejects_malformed_checkpoint_header(tmp_path, setup, edit):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    if isinstance(edit, tuple):  # a config field set after its check, saved consistently
        config = copy.copy(config)
        setattr(config, *edit)
        params = init_parameters(config, np.random.default_rng(0))
        save_checkpoint(path, params, config)
    else:
        save_checkpoint(path, params, config)
        path.write_bytes(edit(path.read_bytes()))
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("wake the dog up\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "predict", "--checkpoint", str(path),
         "--in", str(sentences)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"discoseq: {path}: ")


@pytest.mark.parametrize("edit, message", [
    (_repeated_name, "repeated tensor"),
    (_entry("name", ["word_emb"]), "malformed tensor entry 0"),
    (_entry("dtype", "<f4"), "has shape .* and dtype '<f4'"),
    # save_checkpoint writes the tensors by name, so word_emb comes last
    (_last_value(math.nan), "tensor 'word_emb' holds a non-finite value"),
    (_last_value(math.inf), "tensor 'word_emb' holds a non-finite value"),
    # the config's fixed settings are checked before the manifest
    (_config_value("label_smoothing", 2.0),
     r": config 'label_smoothing' is 2.0, not the fixed 0.01$"),
    (_config_value("adam_beta2", math.nan), r": config 'adam_beta2' is nan, not the fixed 0.98$"),
    (_without_adam_eps, r": config has no 'adam_eps'$"),
], ids=["repeated-name", "list-name", "f4-dtype", "nan-value", "infinite-value",
        "two-smoothing", "nan-beta2", "missing-adam-eps"])
def test_checkpoint_names_the_malformed_manifest_entry(tmp_path, setup, edit, message):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [[True, 8], [1.0, 8]], ids=["bool", "float"])
def test_checkpoint_refuses_a_shape_equal_only_as_numbers(tmp_path, toy4, dims):
    """True == 1.0 == 1, so a shape's dims must be ints as well as equal."""
    config = tiny_config(toy4, token_to_id={"<bos>": 0})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_parameters(config, np.random.default_rng(0)), config)

    def edit(header):
        for entry in header["tensors"]:
            if entry["name"] == "tok_emb":  # shape (1, 8)
                entry["shape"] = dims
        return header

    path.write_bytes(_header_edit(edit)(path.read_bytes()))
    with pytest.raises(CheckpointError, match="tensor 'tok_emb' has shape"):
        load_checkpoint(path)
