"""The benchmark tracer's wrap list names callables that the library calls.

`bench/tracing.py` replaces `(module, attribute)` pairs with timing
wrappers, so renaming or dropping one of those bindings silently loses
a per-layer figure, and so does a binding the code no longer calls
through.  The first test reads the list without installing anything;
the others install the tracer around one toy `predict`, around toy
`train` runs and around the CLI's linearize -> delinearize -> eval
round trip.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import discoseq as dq
from discoseq import cli
from discoseq.neural import ModelConfig, beam, forward, init_parameters, training
from discoseq.neural.training import build_vocabularies

from conftest import draw_biases

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

PREDICT_SPANS = ("beam.predict", "model.encode", "model.decode", "model.mask_rows",
                 "masks.initial_state", "masks.step", "transitions.legal",
                 "layers.masked_attention", "layers.linear", "layers.layer_norm")
TRAIN_SPANS = ("training.train", "model.loss_and_grad", "layers.linear",
               "layers.linear_bwd", "layers.layer_norm_bwd", "layers.masked_attention_bwd")
CONVERT_SPANS = ("cli.main", "treebank.parse_treebank", "tree.validate",
                 "oracle.encode", "transitions.apply", "transitions.parse_transitions",
                 "decode.decode", "treebank.emit_discbracket", "metrics.pair_counts")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_is_callable():
    tracing = _load_tracing()
    unbound = [f"{module}.{attr}" for module, attr, _, _ in tracing.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert unbound == []


def test_predict_runs_through_the_traced_bindings(toy20):
    trees = list(toy20)[:2]
    words, tokens = build_vocabularies(trees, "inorder+swap")
    config = ModelConfig(scheme="inorder+swap", word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=2, d_ff=16)
    rng = np.random.default_rng(0)
    params = draw_biases(init_parameters(config, rng), rng)
    beam_size = 2
    capped = dataclasses.replace(config, max_positions=7)  # <bos> and 6 tokens
    words = list(trees[0].sentence)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        prediction = beam.predict(params, capped, words, beam_size=beam_size)
    finally:
        tracer.uninstall()
    # the traced step scores what the whole-sequence pass scores
    ids = [config.token_to_id[str(t)] for t in prediction.tokens]
    probs = forward(config.word_ids(words), ids,
                    dq.trace(len(words), prediction.tokens, dq.parse_scheme(config.scheme)),
                    params, config)
    assert abs(np.log(probs[np.arange(len(ids)), ids]).sum() - prediction.score) <= 1e-9
    table = tracer.by_name()
    assert [name for name in PREDICT_SPANS if name not in table] == []
    steps = table["model.decode"]["calls"]
    # one legality table per live hypothesis, and one mask step per chosen
    # child, per decoder step, at most
    assert table["transitions.legal"]["calls"] <= beam_size * steps
    assert table["masks.step"]["calls"] <= beam_size * steps
    # per layer, a step makes 4 self-attention, 2 folded cross-attention
    # (scores and values) and 2 feed-forward projections, plus the output
    # layer's 1; once per sentence, the encoder makes 6 per layer and `_plan`
    # 2, the cross keys and values
    per_layer = 8 * config.n_layers
    assert table["layers.linear"]["calls"] == (per_layer + 1) * steps + per_layer
    # a step runs `masked_attention` for self-attention alone, and a norm
    # after each of its 3 sublayers per layer; the encoder runs 1 and 2
    assert table["layers.masked_attention"]["calls"] == config.n_layers * (steps + 1)
    assert table["layers.layer_norm"]["calls"] == config.n_layers * (3 * steps + 2)
    # a one-token step sees its whole past, so it needs no causal mask
    assert "layers.causal_mask" not in table


def test_train_runs_through_the_traced_bindings(toy20):
    trees = list(toy20)[:8]
    linear_per_update = {}
    for batch_size in (1, 4):
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            training.train(trees, "inorder+swap", epochs=1, batch_size=batch_size,
                           d_model=8, n_heads=2, n_layers=1, d_ff=16)
        finally:
            tracer.uninstall()
        table = tracer.by_name()
        assert [name for name in TRAIN_SPANS if name not in table] == []
        updates = table["model.loss_and_grad"]["calls"]
        assert updates == len(trees) // batch_size
        linear_per_update[batch_size] = table["layers.linear"]["calls"] / updates
    # a batch is one packed pass, whatever number of sentences it holds
    assert linear_per_update[4] == linear_per_update[1]


def test_convert_runs_through_the_traced_bindings(toy20, tmp_path, capsys):
    gold, tokens, trees = (tmp_path / name for name in ("gold", "tokens", "trees"))
    dq.save_treebank(toy20, gold)
    scheme = ["--scheme", "inorder+swap"]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = [cli.main(["linearize", *scheme, "--in", str(gold), "--out", str(tokens),
                           "--jsonl"]),
                 cli.main(["delinearize", *scheme, "--tokens", str(tokens),
                           "--out", str(trees)]),
                 cli.main(["eval", "--gold", str(gold), "--pred", str(trees), "--json"])]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    table = tracer.by_name()
    assert [name for name in CONVERT_SPANS if name not in table] == []
