import dataclasses
import math

import numpy as np
import pytest

import discoseq as dq
from discoseq.neural import Prediction, TrainingDiverged, forward, predict, train
from discoseq.neural import model as nm
from discoseq.neural.training import build_examples, build_vocabularies, lr_at

SCHEME = dq.parse_scheme("inorder+swap")

RECIPE = dict(d_model=32, n_heads=2, n_layers=1, d_ff=64, lr=3e-3,
              warmup_updates=20, epochs=150, seed=0)


@pytest.fixture(scope="module")
def toy4(toy20):
    return list(toy20)[:4]


@pytest.fixture(scope="module")
def overfit(toy4):
    return train(toy4, SCHEME, early_stop_accuracy=1.0, **RECIPE)


# --- training -----------------------------------------------------------------

def test_overfit_reaches_perfect_token_accuracy(overfit):
    assert overfit.history[-1].token_accuracy == 1.0
    assert len(overfit.history) < RECIPE["epochs"]


def test_loss_comes_down(overfit):
    assert overfit.history[-1].loss < overfit.history[0].loss


def test_history_bookkeeping(overfit):
    epochs = [h.epoch for h in overfit.history]
    assert epochs == list(range(1, len(epochs) + 1))
    assert all(h.lr > 0 for h in overfit.history)


def test_same_seed_gives_bitwise_identical_curves(toy4):
    short = dict(RECIPE, epochs=6)
    a = train(toy4, SCHEME, **short)
    b = train(toy4, SCHEME, **short)
    assert [h.loss for h in a.history] == [h.loss for h in b.history]
    c = train(toy4, SCHEME, **dict(short, seed=1))
    assert [h.loss for h in c.history] != [h.loss for h in a.history]


def test_log_callback_sees_every_epoch(toy4):
    seen = []
    result = train(toy4, SCHEME, log=seen.append, **dict(RECIPE, epochs=4))
    assert seen == list(result.history)


def test_config_overrides_apply(toy4):
    result = train(toy4, SCHEME, **dict(RECIPE, epochs=2, d_ff=48))
    assert len(result.history) == 2
    assert (result.config.epochs, result.config.d_ff) == (2, 48)
    assert result.config.scheme == str(SCHEME)


def test_train_rejects_empty_input():
    with pytest.raises(ValueError):
        train([], SCHEME)


@pytest.mark.parametrize("accuracy", [-5.0, 1.5, math.nan, math.inf])
def test_train_rejects_an_early_stop_accuracy_outside_0_to_1(toy4, accuracy):
    with pytest.raises(ValueError, match="expected a number from 0 to 1"):
        train(toy4, SCHEME, early_stop_accuracy=accuracy, **dict(RECIPE, epochs=3))


def test_train_refuses_a_tree_before_drawing_parameters(toy4, monkeypatch):
    from discoseq.neural import training

    def draw(*args):
        raise AssertionError("parameters drawn")

    monkeypatch.setattr(training, "init_parameters", draw)
    longest = max(len(dq.encode(tree, SCHEME)) for tree in toy4)
    with pytest.raises(dq.EncodeError, match=f"exceeds max_positions {longest - 1}") as exc:
        train(toy4, SCHEME, **dict(RECIPE, max_positions=longest - 1))
    assert [len(dq.encode(tree, SCHEME)) for tree in toy4][exc.value.index] == longest
    with pytest.raises(dq.EncodeError) as exc:
        train([dq.parse_discbracket("(S 0=a 1=b)"),
               dq.parse_discbracket("(S (A 0=a 2=c) 1=b)")], "inorder")
    assert exc.value.index == 1


def test_the_builders_name_the_tree_they_cannot_encode():
    trees = [dq.parse_discbracket("(S 0=a 1=b)"), dq.parse_discbracket("(S (A 0=a 2=c) 1=b)")]
    words, tokens = build_vocabularies(trees[:1], "topdown")
    config = nm.ModelConfig(scheme="topdown", word_to_id=words, token_to_id=tokens)
    for build in (lambda: build_vocabularies(trees, "topdown"),
                  lambda: build_examples(trees, "topdown", config)):
        with pytest.raises(dq.EncodeError, match="cannot express discontinuous") as exc:
            build()
        assert exc.value.index == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_aborts_on_non_finite_loss(toy4):
    with pytest.raises(TrainingDiverged) as exc:
        train(toy4, SCHEME, **dict(RECIPE, lr=1e200, epochs=8))
    assert "epoch" in str(exc.value)


def test_scheme_accepted_as_string(toy4):
    result = train(toy4, "inorder+swap", **dict(RECIPE, epochs=1))
    assert result.config.scheme == "inorder+swap"


# --- vocabularies and schedule --------------------------------------------------

def test_vocabularies_are_sorted_and_sentinelled(toy4):
    words, tokens = build_vocabularies(toy4, SCHEME)
    assert words["<unk>"] == 0
    assert tokens["<bos>"] == 0
    assert sorted(words.values()) == list(range(len(words)))
    non_sentinel = [w for w, i in sorted(words.items(), key=lambda kv: kv[1])][1:]
    assert non_sentinel == sorted(non_sentinel)


def test_build_examples_rejects_unknown_tokens(overfit):
    stranger = dq.parse_discbracket("(ZZZ 0=the 1=dog)")
    with pytest.raises(ValueError) as exc:
        build_examples([stranger], SCHEME, overfit.config)
    assert "missing from vocabulary" in str(exc.value)


def test_lr_schedule_shape(overfit):
    config = overfit.config
    warm = config.warmup_updates
    assert lr_at(1, config) < lr_at(warm // 2, config) < lr_at(warm, config)
    assert math.isclose(lr_at(warm, config), config.lr, rel_tol=1e-9)
    assert math.isclose(lr_at(4 * warm, config), config.lr / 2, rel_tol=1e-9)
    assert lr_at(10**16, config) == nm._FIXED["min_lr"]


# --- prediction ------------------------------------------------------------------

def test_beam1_reproduces_every_gold_sequence(overfit, toy4):
    for tree in toy4:
        gold = dq.encode(tree, SCHEME)
        pred = predict(overfit.params, overfit.config, list(tree.sentence),
                       beam_size=1)
        assert isinstance(pred, Prediction)
        assert pred.terminal
        assert list(pred.tokens) == gold


def test_widening_the_beam_never_lowers_the_score(overfit, toy4):
    for tree in toy4:
        scores = [
            predict(overfit.params, overfit.config, list(tree.sentence),
                    beam_size=k).score
            for k in (1, 2, 10)
        ]
        assert scores[0] <= scores[1] + 1e-12
        assert scores[1] <= scores[2] + 1e-12


def test_every_predicted_prefix_is_legal(overfit, toy4):
    for tree in toy4:
        pred = predict(overfit.params, overfit.config, list(tree.sentence),
                       beam_size=10)
        config = dq.initial(len(tree.sentence))
        for token in pred.tokens:
            assert dq.illegality(config, token, SCHEME) is None
            config = dq.apply(config, token, SCHEME)


def test_predictions_never_need_repair(overfit, toy4):
    for tree in toy4:
        pred = predict(overfit.params, overfit.config, list(tree.sentence),
                       beam_size=10)
        result = dq.decode(tree.sentence, pred.tokens, SCHEME)
        assert not result.repairs
        assert result.tree == tree


@pytest.mark.parametrize("beam_size", [1, 10])
def test_score_is_the_forward_log_probability_of_the_tokens(overfit, toy20, beam_size):
    # toy20 past toy4 is held out, so the beam reorders its hypotheses there
    config = overfit.config
    for tree in toy20:
        words = list(tree.sentence)
        pred = predict(overfit.params, config, words, beam_size=beam_size)
        ids = [config.token_to_id[str(t)] for t in pred.tokens]
        pairs = dq.trace(len(words), pred.tokens, SCHEME)
        probs = forward(config.word_ids(words), ids, pairs, overfit.params, config)
        score = float(np.log(probs[np.arange(len(ids)), ids]).sum())
        assert abs(score - pred.score) <= 1e-9


def test_length_cap_truncates(overfit, toy4):
    capped = dataclasses.replace(overfit.config, max_positions=5)  # <bos> and 4 tokens
    pred = predict(overfit.params, capped, list(toy4[0].sentence), beam_size=1)
    assert len(pred.tokens) == 4
    assert not pred.terminal


def test_prediction_handles_unknown_words(overfit):
    pred = predict(overfit.params, overfit.config, ["zzz", "qqq"], beam_size=5)
    assert pred.terminal
    result = dq.decode(("zzz", "qqq"), pred.tokens, SCHEME)
    assert result.tree.sentence == ("zzz", "qqq")
