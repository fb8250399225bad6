"""The cached decoder step agrees with the whole-sequence decoder.

Beam search feeds `_decode` one new token per hypothesis and carries
the earlier positions as per-layer self-attention keys and values
(`past`), through the sentence's decoder plan (`_plan`), built once:
every step weight looked up, and each layer's cross-attention folded
over the memory into two products.  Its distributions must equal the
rows `forward` computes over whole sequences, the folded cross-attention
must equal the unfolded `_mha` sublayer, and hypotheses stepped in one
batch must not see each other.  The layer functions a step runs through
agree with their plain references.
"""

import numpy as np
import pytest

import discoseq as dq
from discoseq.neural import ModelConfig, forward, init_parameters
from discoseq.neural import model as nm
from discoseq.neural.layers import layer_norm, linear, sinusoidal_positions
from discoseq.neural.training import build_vocabularies

from conftest import ALL_SCHEMES, draw_biases

TOLERANCE = 1e-9


def _encodable(trees, scheme):
    return [tree for tree in trees if scheme.disco != "none" or dq.is_continuous(tree)]


def _tiny_model(trees, scheme):
    words, tokens = build_vocabularies(trees, scheme)
    config = ModelConfig(scheme=str(scheme), word_to_id=words, token_to_id=tokens,
                         d_model=16, n_heads=4, n_layers=2, d_ff=32)
    rng = np.random.default_rng(3)
    return draw_biases(init_parameters(config, rng), rng), config


def _gold(tree, scheme, config):
    tokens = dq.encode(tree, scheme)
    ids = [config.token_to_id[str(t)] for t in tokens]
    return ids, dq.trace(len(tree.sentence), tokens, scheme)


def _plan(params, config, word_ids):
    memory, _ = nm._encode(params, config, [word_ids], None)
    return nm._plan(params, config, memory)


def _n_words(config, plan):
    """The plan's sentence length, read off its folded cross-attention."""
    (_, (_, (values_w, _)), _) = next(step for step in plan if step[0] == "cross")
    return len(values_w) // config.n_heads - 1  # the memory holds a sentinel row


def _step(params, config, plan, in_ids, pairs, past):
    """One cached step for a batch: distributions (B, vocab) and the new past."""
    logits, past = nm._decode(params, config, plan, np.array(in_ids, dtype=np.int64),
                              nm.mask_rows(pairs, _n_words(config, plan)), past)
    assert logits.shape == (len(in_ids), len(config.token_to_id))
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True), past


@pytest.mark.parametrize("positions", [
    *(pytest.param(np.arange(start, stop), id=f"{start}-{stop}")
      for start, stop in [(0, 512), (0, 1), (7, 8), (511, 512), (3, 40)]),
    pytest.param(nm._positions([3, 5, 1]), id="packed"),
])
def test_a_step_builds_exactly_its_rows_of_the_position_table(positions):
    for width in (64, 256):
        table = sinusoidal_positions(np.arange(512), width)
        assert np.array_equal(sinusoidal_positions(positions, width), table[positions])


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_cached_steps_match_forward(toy20, scheme):
    trees = _encodable(toy20, scheme)[:3]
    params, config = _tiny_model(trees, scheme)
    for tree in trees:
        ids, pairs = _gold(tree, scheme, config)
        word_ids = config.word_ids(tree.sentence)
        expected = forward(word_ids, ids, pairs, params, config)
        plan, past = _plan(params, config, word_ids), None
        for t, in_id in enumerate([config.bos_id] + ids):
            probs, past = _step(params, config, plan, [in_id], [pairs[t]], past)
            np.testing.assert_allclose(probs[0], expected[t], rtol=0, atol=TOLERANCE)


def test_batched_hypotheses_match_each_stepped_alone(toy20):
    scheme = dq.parse_scheme("inorder+swap")
    params, config = _tiny_model(toy20, scheme)
    tree = max(toy20, key=lambda tree: len(tree.sentence))
    ids, pairs = _gold(tree, scheme, config)
    inputs = [config.bos_id] + ids
    # three same-length hypotheses over one sentence; the decoder does not
    # check legality, so permuted inputs and mask rows serve as well
    hyps = [(inputs, pairs), (inputs[::-1], pairs[::-1]),
            (inputs[1:] + inputs[:1], pairs[1:] + pairs[:1])]
    plan = _plan(params, config, config.word_ids(tree.sentence))

    alone = []
    for hyp_ids, hyp_pairs in hyps:
        past, rows = None, []
        for in_id, pair in zip(hyp_ids, hyp_pairs):
            probs, past = _step(params, config, plan, [in_id], [pair], past)
            rows.append(probs[0])
        alone.append(rows)

    # step all three together, then gather the cache rows by parent the
    # way beam search does and continue the parents' sequences
    half = len(inputs) // 2
    parents = [2, 0, 0]
    past = None
    for t in range(len(inputs)):
        if t == half:
            past = [(keys[parents], values[parents]) for keys, values in past]
            hyps = [hyps[i] for i in parents]
            alone = [alone[i] for i in parents]
        probs, past = _step(params, config, plan, [h[0][t] for h in hyps],
                            [h[1][t] for h in hyps], past)
        for row, expected in zip(probs, alone):
            np.testing.assert_allclose(row, expected[t], rtol=0, atol=TOLERANCE)


def test_folded_cross_attention_matches_the_unfolded_sublayer(toy20, monkeypatch):
    """Each layer's residual sum goes through `layer_norm`, so wrapping it
    shows the rows a cross sublayer reads and the output it adds."""
    scheme = dq.parse_scheme("inorder+swap")
    params, config = _tiny_model(toy20, scheme)  # 4 heads: two specialized, two free
    tree = max(toy20, key=lambda tree: len(tree.sentence))
    ids, pairs = _gold(tree, scheme, config)
    n = len(tree.sentence)
    memory, _ = nm._encode(params, config, [config.word_ids(tree.sentence)], None)
    plan = nm._plan(params, config, memory)
    norms = []  # (input, output) of every `layer_norm` call

    def recording(x, gain, bias):
        out = layer_norm(x, gain, bias)
        norms.append((x, out[0]))
        return out

    monkeypatch.setattr(nm, "layer_norm", recording)
    # the third hypothesis's specialized heads see only the sentinel
    steps = [([config.bos_id] * 3, [pairs[0], pairs[0], dq.MaskPair(0, 0)]),
             (ids[:3], [pairs[1], pairs[-1], dq.MaskPair(0, 0)])]
    past = None
    for in_ids, step_pairs in steps:
        norms.clear()
        step_masks = nm.mask_rows(step_pairs, n)
        _, past = nm._decode(params, config, plan, np.array(in_ids), step_masks, past)
        masks = nm._cross_head_masks(config, step_masks, n + 1)
        for i in range(config.n_layers):  # each layer: self, cross, ff
            rows, (folded_sum, _) = norms[3 * i][1], norms[3 * i + 1]
            unfolded, _ = nm._mha(params, f"dec{i}.cross", rows, memory,
                                  [(slice(None), slice(None), masks)], config.n_heads)
            np.testing.assert_allclose(folded_sum - rows, unfolded, rtol=0, atol=1e-12)


# training's packed rows, and a one-hypothesis beam step's (B, d) rows
@pytest.mark.parametrize("shape", [(7, 16), (1, 16)])
def test_layer_norm_matches_the_mean_reference(shape):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape) * 3.0 + 1.0
    gain, bias = rng.standard_normal(16), rng.standard_normal(16)
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    normalized = centered * inv_std
    out, _ = layer_norm(x, gain, bias)
    assert np.array_equal(out, gain * normalized + bias)


def test_linear_on_stacked_rows_matches_each_row_alone():
    rng = np.random.default_rng(6)
    w, b = rng.standard_normal((16, 24)), rng.standard_normal(24)
    rows = rng.standard_normal((10, 16))  # a beam step's (B, d) rows
    stacked = linear(rows, w, b)
    assert np.array_equal(stacked, rows @ w + b)
    for row, out in zip(rows, stacked):
        alone = linear(row[None], w, b)  # the row as a one-hypothesis step
        assert alone.shape == (1, 24)
        np.testing.assert_allclose(out, alone[0], rtol=0, atol=1e-12)
