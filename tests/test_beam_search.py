"""Beam search stops early without changing what it returns.

`predict` keeps only the best finished hypothesis and ends once no live
hypothesis scores above it.  `_reference_predict` below is the search
that keeps a pool of `beam_size` finished hypotheses, builds a Python
list of every legal candidate, sorts it by (-score, token id,
hypothesis) and stops when the best live score is no higher than the
worst kept finished one.  Both must give the same tokens, `terminal`
flag and score, and `predict` must never run more decoder steps.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq.masks import initial_state, step
from discoseq.neural import (ModelConfig, beam, forward, init_parameters, load_checkpoint,
                              predict, train)
from discoseq.neural import model as nm
from discoseq.neural.training import build_vocabularies

from conftest import DISCO_SCHEMES, draw_biases
from test_train_predict import RECIPE, SCHEME

BEAMS = (1, 2, 5, 10)
SCHEME_NAME = str(SCHEME)
PARSE_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "parse.ckpt"
# the beam-10 tokens, terminal flags and scores of the benchmark checkpoint on
# the 40 `parse` workload sentences, one JSON object per sentence, recorded
# when each beam step still ran through the packed training layers
PINNED = Path(__file__).resolve().parent / "data" / "parse_predictions.jsonl"
# the same at beam 1, recorded before cross-attention was folded into the
# per-sentence decoder plan; one sentence runs to the step cap unfinished
PINNED_BEAM1 = PINNED.with_name("parse_predictions_beam1.jsonl")


def _reference_predict(params, config, words, beam_size, max_len):
    """(tokens, score, terminal, decoder steps) of the full-pool search."""
    scheme = dq.parse_scheme(config.scheme)
    n = len(words)
    vocabulary = sorted((i, dq.parse_transition(text))
                        for text, i in config.token_to_id.items() if i != config.bos_id)
    memory, _ = nm._encode(params, config, [config.word_ids(words)], None)
    plan = nm._plan(params, config, memory)
    live = [(0.0, [], initial_state(n, scheme))]
    finished = []
    past = None
    steps = 0
    for _ in range(max_len):
        if not live:
            break
        if len(finished) >= beam_size:
            if max(hyp[0] for hyp in live) <= min(hyp[0] for hyp in finished):
                break
        in_ids = np.array([ids[-1] if ids else config.bos_id for _, ids, _ in live])
        masks = nm.mask_rows([state.pair for _, _, state in live], n)
        logits, past = nm._decode(params, config, plan, in_ids, masks, past)
        steps += 1
        log_probs = nm._log_softmax(logits)
        candidates = []
        for index, (score, _, state) in enumerate(live):
            largest = dq.legal(state.config, scheme)
            for token_id, token in vocabulary:
                if (token.k or 0) <= largest.get(token.kind, -1):
                    candidates.append((score + log_probs[index, token_id], token_id,
                                       index, token))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        next_live, parents = [], []
        for score, token_id, index, token in candidates[:beam_size]:
            state = step(live[index][2], token)
            child = (score, live[index][1] + [token_id], state)
            if dq.is_terminal(state.config, scheme):
                finished.append(child)
            else:
                next_live.append(child)
                parents.append(index)
        finished.sort(key=lambda hyp: -hyp[0])
        del finished[beam_size:]
        live = next_live
        past = [(keys[parents], values[parents]) for keys, values in past]
    score, ids, _ = max(finished or live, key=lambda hyp: hyp[0])
    transition_of = dict(vocabulary)
    return tuple(transition_of[i] for i in ids), score, bool(finished), steps


def _compare(params, config, sentences, monkeypatch, max_len):
    """Checks every beam width on every sentence, with `predict` capped at
    `max_len` steps through `max_positions`, and each score against the
    whole-sequence `forward`; returns the summed decoder steps of `predict`
    and of the reference."""
    config = dataclasses.replace(config, max_positions=max_len + 1)
    scheme = dq.parse_scheme(config.scheme)
    calls = []
    decode = nm._decode
    monkeypatch.setattr(beam, "_decode", lambda *args: calls.append(1) or decode(*args))
    totals = [0, 0]
    for beam_size in BEAMS:
        for words in sentences:
            calls.clear()
            got = predict(params, config, words, beam_size=beam_size)
            tokens, score, terminal, steps = _reference_predict(
                params, config, words, beam_size, max_len)
            assert (got.tokens, got.terminal) == (tokens, terminal)
            assert abs(got.score - score) <= 1e-9
            ids = [config.token_to_id[str(t)] for t in tokens]
            probs = forward(config.word_ids(words), ids,
                            dq.trace(len(words), tokens, scheme), params, config)
            assert abs(np.log(probs[np.arange(len(ids)), ids]).sum() - score) <= 1e-9
            assert len(calls) <= steps
            totals[0] += len(calls)
            totals[1] += steps
    return totals


def test_the_search_matches_the_full_pool_search_on_an_overfit_model(toy20, monkeypatch):
    fit = train(list(toy20)[:4], SCHEME, early_stop_accuracy=1.0, **RECIPE)
    ours, reference = _compare(fit.params, fit.config,
                               [list(tree.sentence) for tree in toy20], monkeypatch,
                               fit.config.max_positions - 1)
    assert ours < reference


@pytest.mark.parametrize("scheme", DISCO_SCHEMES, ids=str)
def test_the_search_matches_the_full_pool_search_on_random_models(toy20, scheme,
                                                                  monkeypatch):
    trees = list(toy20)[:6]
    sentences = [list(tree.sentence) for tree in trees]
    # an untrained model seldom finishes within the cap, so the early stop
    # shows on the same model after a few epochs
    fit = train(trees, scheme, d_model=8, n_heads=2, n_layers=1, d_ff=16, lr=3e-3,
                warmup_updates=20, epochs=40, seed=5)
    rng = np.random.default_rng(5)
    totals = [_compare(params, fit.config, sentences, monkeypatch, 24) for params in
              (draw_biases(init_parameters(fit.config, rng), rng), fit.params)]
    assert totals[1][0] < totals[1][1]


@pytest.mark.parametrize("scheme", DISCO_SCHEMES, ids=str)
def test_ties_break_toward_the_lower_token_then_the_lower_hypothesis(toy20, scheme,
                                                                     monkeypatch):
    """An output layer of integer biases alone gives many tokens the same
    probability, so equal scores decide many choices."""
    trees = list(toy20)[:3]
    words, tokens = build_vocabularies(trees, scheme)
    config = ModelConfig(scheme=str(scheme), word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16)
    params = init_parameters(config, np.random.default_rng(0))
    params["out.w"][...] = 0.0
    params["out.b"][...] = np.random.default_rng(3).integers(-2, 1, len(tokens))
    _compare(params, config, [list(tree.sentence) for tree in trees], monkeypatch, 24)


_LOGIT = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(_LOGIT, min_size=1, max_size=12), min_size=1, max_size=4),
       st.floats(min_value=-1e4, max_value=0.0), st.floats(min_value=1e-300, max_value=1.0))
def test_log_softmax_rows_never_raise_a_score(rows, score, spread):
    """No child outscores its parent, which is what makes the early stop exact."""
    width = min(len(row) for row in rows)
    logits = np.array([row[:width] for row in rows]) * spread
    log_probs = nm._log_softmax(logits)
    assert (log_probs <= 0.0).all()
    assert (score + log_probs <= score).all()


def test_an_empty_sentence_is_refused_before_encoding(toy20, monkeypatch):
    trees = list(toy20)[:2]
    words, tokens = build_vocabularies(trees, SCHEME)
    config = ModelConfig(scheme=SCHEME_NAME, word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16)
    params = init_parameters(config, np.random.default_rng(0))
    monkeypatch.setattr(beam, "_encode", None)  # encoding would fail
    with pytest.raises(ValueError, match="^cannot parse an empty sentence$"):
        predict(params, config, [])


def test_max_len_runs_up_to_max_positions(toy20):
    trees = list(toy20)[:2]
    words, tokens = build_vocabularies(trees, SCHEME)
    config = ModelConfig(scheme=SCHEME_NAME, word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16,
                         max_positions=4)  # <bos> and 3 tokens
    params = init_parameters(config, np.random.default_rng(0))
    pred = predict(params, config, ["a", "b", "c"], beam_size=2)
    assert len(pred.tokens) <= 3
    assert math.isfinite(pred.score)


def test_the_cap_leaves_forward_room_to_score_the_prediction(toy20):
    """An unfinished prediction of `max_positions - 1` tokens still fits
    `forward`, which reads <bos> before them; the `parse` benchmark's
    score check relies on it."""
    trees = list(toy20)[:2]
    words, tokens = build_vocabularies(trees, SCHEME)
    config = ModelConfig(scheme=SCHEME_NAME, word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16, max_positions=6)
    rng = np.random.default_rng(0)
    params = draw_biases(init_parameters(config, rng), rng)
    # three words take at least SHIFT NT SHIFT SHIFT REDUCE FINISH
    sentence = list(trees[0].sentence)[:3]
    pred = predict(params, config, sentence, beam_size=1)
    assert (len(pred.tokens), pred.terminal) == (5, False)
    ids = [config.token_to_id[str(t)] for t in pred.tokens]
    probs = forward(config.word_ids(sentence), ids,
                    dq.trace(len(sentence), pred.tokens, SCHEME), params, config)
    assert abs(np.log(probs[np.arange(len(ids)), ids]).sum() - pred.score) <= 1e-9


def test_the_benchmark_predictions_stay_pinned():
    params, config = load_checkpoint(PARSE_CHECKPOINT)
    for beam_size, path in ((10, PINNED), (1, PINNED_BEAM1)):
        with open(path, encoding="utf-8") as handle:
            pinned = [json.loads(line) for line in handle]
        assert len(pinned) == 40
        for row in pinned:
            got = predict(params, config, row["words"], beam_size=beam_size)
            assert ([str(t) for t in got.tokens], got.terminal) == (row["tokens"],
                                                                     row["terminal"])
            assert abs(got.score - row["score"]) <= 1e-9
