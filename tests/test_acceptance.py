"""Shipping gate: one test per numbered acceptance criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line once its checks
hold; run with ``pytest tests/test_acceptance.py -v -s`` to watch them.
Criteria with a wall-clock budget assert the elapsed time too.
"""

import random
import time
from pathlib import Path

import pytest

import discoseq as dq
from discoseq import transitions as tr
from discoseq.neural import (
    ModelConfig,
    grad_check,
    init_parameters,
    masked_attention,
    predict,
    train,
)
from discoseq.neural.training import build_examples, build_vocabularies
from conftest import (
    ALL_SCHEMES,
    DISCO_SCHEMES,
    bit_set,
    is_legal,
    random_tree,
    random_walk,
    replay_pairs,
)

import numpy as np

SWAP = dq.parse_scheme("inorder+swap")
SWAPK = dq.parse_scheme("inorder+swapk")
SHIFTK = dq.parse_scheme("inorder+shiftk")
INORDER = dq.parse_scheme("inorder")


def passed(n):
    print(f"ACCEPTANCE {n}: PASS")


@pytest.fixture(scope="module")
def overfit(toy20):
    trees = list(toy20)
    result = train(trees, SWAP, early_stop_accuracy=1.0)
    return trees, result


def test_criterion_1_worked_example_prefixes(fig_tree):
    start = time.perf_counter()
    swap_seq = dq.encode(fig_tree, SWAP)
    assert dq.format_transitions(swap_seq[:13]) == (
        "SHIFT NT(VP) SHIFT SHIFT SWAP NT(PP) SHIFT SHIFT SWAP"
        " SHIFT SHIFT SWAP REDUCE"
    )
    shiftk_seq = dq.encode(fig_tree, SHIFTK)
    assert dq.format_transitions(shiftk_seq[:7]) == (
        "SHIFT#0 NT(VP) SHIFT#1 NT(PP) SHIFT#1 SHIFT#1 REDUCE"
    )
    assert time.perf_counter() - start < 1.0
    passed(1)


def test_criterion_2_thousand_tree_roundtrip():
    start = time.perf_counter()
    rng = random.Random(97)
    for i in range(1000):
        tree = random_tree(rng, max_leaves=12, discontinuous=i % 2 == 0)
        schemes = ALL_SCHEMES if dq.is_continuous(tree) else DISCO_SCHEMES
        for scheme in schemes:
            tokens = dq.encode(tree, scheme)
            result = dq.decode(tree.sentence, tokens, scheme)
            assert result.tree == tree, (str(scheme), dq.emit_discbracket(tree))
            assert result.repairs == ()
    assert time.perf_counter() - start < 60.0
    passed(2)


def test_criterion_3_mask_trace_matches_replay():
    start = time.perf_counter()
    rng = random.Random(131)
    sequences = 0
    while sequences < 200:
        tree = random_tree(rng, max_leaves=9)
        scheme = DISCO_SCHEMES[sequences % len(DISCO_SCHEMES)]
        n = len(tree.sentence)
        tokens = dq.encode(tree, scheme)
        got = [(bit_set(p.stack), bit_set(p.buffer))
               for p in dq.trace(n, tokens, scheme)]
        assert got == replay_pairs(n, tokens, scheme)
        sequences += 1
    assert time.perf_counter() - start < 30.0
    passed(3)


def test_criterion_4_reordering_equivalence_laws():
    rng = random.Random(151)

    def wander(n, scheme, steps):
        config = dq.initial(n)
        for token in random_walk(rng, n, scheme, max_steps=steps):
            config = dq.apply(config, token, scheme)
        return config

    shift, shift0, swap = dq.parse_transitions("SHIFT SHIFT#0 SWAP")
    shift0_checked = swap1_checked = swapk_checked = 0
    while min(shift0_checked, swap1_checked, swapk_checked) < 40:
        config = wander(rng.randint(2, 7), SHIFTK, rng.randint(0, 12))
        if is_legal(config, shift0, SHIFTK):
            assert dq.apply(config, shift0, SHIFTK) == dq.apply(config, shift, SWAP)
            shift0_checked += 1
        config = wander(rng.randint(3, 7), SWAPK, rng.randint(2, 14))
        for k in (1, rng.randint(2, 3)):
            if not is_legal(config, tr.Transition(tr.SWAP_K, k), SWAPK):
                continue
            stepped = config
            for _ in range(k):
                stepped = dq.apply(stepped, swap, SWAP)
            assert dq.apply(config, tr.Transition(tr.SWAP_K, k), SWAPK) == stepped
            if k == 1:
                swap1_checked += 1
            else:
                swapk_checked += 1
    passed(4)


def test_criterion_5_shiftk_length_matches_continuous(fig_tree, toy20, cont5):
    for tree in [fig_tree, *toy20, *cont5]:
        rearranged = dq.reorder_canonical(tree)
        assert len(dq.encode(tree, SHIFTK)) == len(dq.encode(rearranged, INORDER))
    passed(5)


def test_criterion_6_attention_and_gradients(toy20):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    q = rng.normal(size=(5, 6))
    k = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    mask = np.zeros((5, 5))
    mask[:, 2] = mask[:, 4] = -np.inf
    _, weights = masked_attention(q, k, v, mask)
    assert np.all(weights[:, 2] == 0.0) and np.all(weights[:, 4] == 0.0)

    trees = sorted(toy20, key=lambda t: len(t.sentence))[:2]
    word_to_id, token_to_id = build_vocabularies(toy20, SWAP)
    config = ModelConfig(scheme=str(SWAP), word_to_id=word_to_id,
                         token_to_id=token_to_id, d_model=16, n_heads=2,
                         n_layers=1, d_ff=32)
    params = init_parameters(config, np.random.default_rng(0))
    batch = build_examples(trees, SWAP, config)
    assert grad_check(params, config, batch) < 1e-4
    assert time.perf_counter() - start < 60.0
    passed(6)


def test_criterion_7_toy_overfit_reaches_perfect_scores(overfit):
    start = time.perf_counter()
    trees, result = overfit
    assert result.history[-1].token_accuracy == 1.0
    predicted = []
    for tree in trees:
        decoded = predict(result.params, result.config, list(tree.sentence),
                          beam_size=1)
        predicted.append(dq.decode(tree.sentence, decoded.tokens, SWAP).tree)
    assert predicted == trees
    report = dq.evaluate(trees, predicted)
    assert report.labeled.f1 == 100.0
    assert report.discontinuous.f1 == 100.0
    assert report.exact_match == 1.0
    assert time.perf_counter() - start < 600.0
    passed(7)


def test_criterion_8_metric_sanity(fig_tree, toy20, cont5):
    for bank in ([fig_tree], list(toy20), list(cont5)):
        report = dq.evaluate(bank, bank)
        assert report.labeled.f1 == 100.0
    gold = dq.parse_discbracket("(S (NP 0=a) (VP 1=b))")
    pred = dq.parse_discbracket("(S (NP 0=a) (NP 1=b))")
    score = dq.evaluate([gold], [pred], ignore_root=True).labeled
    assert (score.precision, score.recall, score.f1) == (50.0, 50.0, 50.0)
    passed(8)


def test_criterion_9_masked_prediction_needs_no_repairs(overfit):
    trees, result = overfit
    for tree in trees:
        for beam in (1, 10):
            decoded = predict(result.params, result.config,
                              list(tree.sentence), beam_size=beam)
            assert dq.decode(tree.sentence, decoded.tokens, SWAP).repairs == ()
    passed(9)


def test_criterion_10_manual_treebank_check_is_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "stats --scheme topdown" in text
    assert "29" in text and "367" in text
    passed(10)
