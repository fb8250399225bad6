import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

import discoseq as dq
from discoseq.neural import (
    ModelConfig,
    batch_loss,
    forward,
    grad_check,
    init_parameters,
    load_checkpoint,
    masked_attention,
    predict,
    save_checkpoint,
)
from discoseq.neural import model as nm
from discoseq.neural.checkpoint import CheckpointError
from discoseq.neural.training import build_examples, build_vocabularies

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
    params = init_parameters(config, np.random.default_rng(0))
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


def test_unknown_words_fall_back_to_unk(setup):
    config, _, _ = setup
    ids = config.word_ids(["dog", "zzzz"])
    assert ids[1] == config.word_to_id["<unk>"]
    assert ids[0] == config.word_to_id["dog"]


def test_init_parameters_deterministic(setup):
    config, params, _ = setup
    again = init_parameters(config, np.random.default_rng(0))
    assert params.keys() == again.keys()
    for name in params:
        assert np.array_equal(params[name], again[name])
    assert params["word_emb"].shape == (len(config.word_to_id), config.d_model)
    assert params["tok_emb"].shape == (len(config.token_to_id), config.d_model)
    assert params["out.w"].shape == (config.d_model, len(config.token_to_id))


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
        nm._encode(params, config, words, None)


def test_decoding_past_max_positions_is_a_data_error(tmp_path, toy4, toy20):
    config = tiny_config(toy4, max_positions=8)
    params = init_parameters(config, np.random.default_rng(0))
    # six words need at least nine tokens, so the beam must outgrow 8 positions
    words = list(next(t.sentence for t in toy20 if len(t.sentence) == 6))
    with pytest.raises(ValueError, match="exceeds max_positions"):
        predict(params, config, words, beam_size=1, max_len=20)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("\n\n" + " ".join(words) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "predict", "--checkpoint", str(path),
         "--in", str(sentences), "--max-len", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (f"discoseq: {sentences}: line 3: sequence length 9 "
                           "exceeds max_positions\n")


def test_cross_head_masks_shape(setup):
    config, _, examples = setup
    ex = examples[0]
    masks = nm._cross_head_masks(config, ex.stack_rows, ex.buffer_rows)
    assert masks.shape == (config.n_heads, len(ex.target_ids), len(ex.word_ids) + 1)
    assert np.array_equal(masks[0], ex.stack_rows)
    assert np.array_equal(masks[1], ex.buffer_rows)
    # the sentinel column is never masked, so every row stays attendable
    assert np.all(masks[:, :, 0] == 0.0)


def test_mask_rows_sentinel_column(setup, toy4):
    config, _, _ = setup
    scheme = dq.parse_scheme(config.scheme)
    tokens = dq.encode(toy4[0], scheme)
    pairs = dq.trace(len(toy4[0].sentence), tokens, scheme)
    n = len(toy4[0].sentence)
    stack_rows, buffer_rows = nm.mask_rows(pairs, n)
    assert stack_rows.shape == buffer_rows.shape == (len(pairs), n + 1)
    assert set(np.unique(np.concatenate((stack_rows, buffer_rows)))) == {0.0, -np.inf}
    assert np.all(stack_rows[:, 0] == 0.0) and np.all(buffer_rows[:, 0] == 0.0)
    for stack_row, buffer_row, pair in zip(stack_rows, buffer_rows, pairs):
        assert {p for p in range(n) if stack_row[p + 1] == 0.0} == pair.stack_positions
        assert {p for p in range(n) if buffer_row[p + 1] == 0.0} == pair.buffer_positions


def test_perturbing_a_hidden_word_cannot_leak_through_specialized_heads(setup, toy4):
    """With every head specialized, a memory row that both vectors mask at a
    step cannot influence that step's distribution at all."""
    config, params, examples = setup
    ex = examples[0]
    memory, _ = nm._encode(params, config, ex.word_ids, None)
    in_ids = np.concatenate(([config.bos_id], ex.target_ids[:-1]))
    logits, _ = nm._decode(params, config, memory, in_ids,
                           ex.stack_rows, ex.buffer_rows, None)
    hidden_both = [
        (t, pos) for t in range(len(ex.target_ids))
        for pos in range(len(ex.word_ids))
        if np.isinf(ex.stack_rows[t, pos + 1]) and np.isinf(ex.buffer_rows[t, pos + 1])
    ]
    assert hidden_both, "fixture should mask at least one word somewhere"
    t, pos = hidden_both[-1]
    bumped = memory.copy()
    bumped[pos + 1] += 17.0
    new_logits, _ = nm._decode(params, config, bumped, in_ids,
                               ex.stack_rows, ex.buffer_rows, None)
    assert np.array_equal(logits[t], new_logits[t])
    # sanity: the perturbation is visible at steps that can see the word
    visible = [s for s in range(len(ex.target_ids))
               if ex.stack_rows[s, pos + 1] == 0.0 or ex.buffer_rows[s, pos + 1] == 0.0]
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
    free = nm.Example(
        ex.word_ids, ex.target_ids,
        np.zeros_like(ex.stack_rows), np.zeros_like(ex.buffer_rows),
    )
    assert grad_check(params, config, [free]) < 1e-4


def test_grad_check_refuses_big_models(toy4):
    config = tiny_config(toy4, d_model=32, d_ff=64)
    params = init_parameters(config, np.random.default_rng(0))
    examples = build_examples(toy4, SCHEME, config)
    with pytest.raises(ValueError):
        grad_check(params, config, examples[:1])


def test_dropout_gradients_match_central_differences(toy20):
    """`grad_check` runs in evaluation mode, so this checks the dropout
    backward: every evaluation draws the same masks from a fresh rng."""
    from discoseq.neural import loss_and_grad
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


def test_batch_loss_agrees_with_loss_and_grad(setup):
    from discoseq.neural import loss_and_grad
    config, params, examples = setup
    direct = batch_loss(params, config, examples[:2])
    via_grad, _, _, _ = loss_and_grad(params, config, examples[:2])
    assert math.isclose(direct, via_grad, rel_tol=1e-12)


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


def _without_dtype(header):
    del header["tensors"][0]["dtype"]
    return header


def _string_shape(header):
    header["tensors"][0]["shape"] = "ab"
    return header


def _list_vocabulary(header):
    header["config"]["word_to_id"] = []
    return header


def _zero_width(header):
    header["config"]["d_model"] = 0
    return header


@pytest.mark.parametrize("edit", [
    lambda header: header["tensors"],
    lambda header: {k: v for k, v in header.items() if k != "tensors"},
    _without_dtype,
    _string_shape,
    _list_vocabulary,
    _zero_width,
], ids=["list-header", "no-tensors", "no-dtype", "string-shape", "list-vocabulary",
        "zero-width"])
def test_predict_rejects_malformed_checkpoint_header(tmp_path, setup, edit):
    config, params, _ = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.dumps(edit(json.loads(blob[16:16 + length]))).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header
                     + blob[16 + length:])
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("wake the dog up\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "predict", "--checkpoint", str(path),
         "--in", str(sentences)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
