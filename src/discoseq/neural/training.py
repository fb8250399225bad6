"""Teacher-forced training on oracle token sequences.

Examples pair each sentence with its oracle transition tokens and the
per-step stack/buffer mask rows replayed from those tokens.  Updates
are Adam with a linear warm-up into an inverse square-root decay.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from ..masks import trace
from ..oracle import encode
from ..transitions import Scheme, parse_scheme
from ..tree import ConstituentTree
from .model import (BOS, UNK, Example, ModelConfig, Parameters, init_parameters,
                    loss_and_grad, mask_rows)


class TrainingDiverged(ValueError):
    """Raised when the loss stops being finite."""


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    token_accuracy: float
    lr: float


@dataclass
class TrainResult:
    params: Parameters
    config: ModelConfig
    history: list[EpochStats]


def _as_scheme(scheme: str | Scheme) -> Scheme:
    return parse_scheme(scheme) if isinstance(scheme, str) else scheme


def build_vocabularies(trees: Iterable[ConstituentTree],
                       scheme: str | Scheme) -> tuple[dict[str, int], dict[str, int]]:
    """Word and transition-token vocabularies, deterministic order."""
    scheme = _as_scheme(scheme)
    words: set[str] = set()
    tokens: set[str] = set()
    for tree in trees:
        words.update(tree.sentence)
        tokens.update(str(t) for t in encode(tree, scheme))
    word_to_id = {UNK: 0}
    for word in sorted(words):
        word_to_id[word] = len(word_to_id)
    token_to_id = {BOS: 0}
    for token in sorted(tokens):
        token_to_id[token] = len(token_to_id)
    return word_to_id, token_to_id


def build_examples(trees: Iterable[ConstituentTree], scheme: str | Scheme,
                   config: ModelConfig) -> list[Example]:
    scheme = _as_scheme(scheme)
    examples = []
    for tree in trees:
        tokens = encode(tree, scheme)
        pairs = trace(len(tree.sentence), tokens, scheme)
        # pairs[t] is the structure before emitting token t; the final
        # pair describes the terminal state and is never conditioned on.
        stack_rows, buffer_rows = mask_rows(pairs[:len(tokens)], len(tree.sentence))
        try:
            target_ids = np.array([config.token_to_id[str(t)] for t in tokens],
                                  dtype=np.int64)
        except KeyError as err:
            raise ValueError(f"token {err.args[0]!r} missing from vocabulary") from None
        examples.append(Example(config.word_ids(tree.sentence), target_ids,
                                stack_rows, buffer_rows))
    return examples


def lr_at(update: int, config: ModelConfig) -> float:
    """Learning rate for 1-based update counter: warm up, then 1/sqrt decay."""
    if update <= config.warmup_updates:
        span = config.lr - config.warmup_init_lr
        rate = config.warmup_init_lr + span * update / config.warmup_updates
    else:
        rate = config.lr * math.sqrt(config.warmup_updates / update)
    return max(rate, config.min_lr)


def _adam_update(params: Parameters, grads: Parameters,
                 state: dict[str, tuple[np.ndarray, np.ndarray]],
                 update: int, rate: float, config: ModelConfig) -> None:
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, grad in grads.items():
        first, second = state[name]
        first = b1 * first + (1.0 - b1) * grad
        second = b2 * second + (1.0 - b2) * grad * grad
        state[name] = (first, second)
        first_hat = first / (1.0 - b1 ** update)
        second_hat = second / (1.0 - b2 ** update)
        params[name] -= rate * first_hat / (np.sqrt(second_hat) + config.adam_eps)


def train(trees: Sequence[ConstituentTree], scheme: str | Scheme,
          config: ModelConfig | None = None, *,
          early_stop_accuracy: float | None = None,
          log: Callable[[EpochStats], None] | None = None,
          **overrides: object) -> TrainResult:
    """Fit a model on oracle sequences for the given scheme.

    With no explicit config, vocabularies are built from the trees and
    remaining keyword arguments override ModelConfig defaults.  Training
    stops after the first epoch whose token accuracy reaches
    `early_stop_accuracy`, a number from 0 to 1.  Raises TrainingDiverged
    when a batch loss is not finite.
    """
    # the chained comparison is false for nan too
    if early_stop_accuracy is not None and not 0.0 <= early_stop_accuracy <= 1.0:
        raise ValueError("early_stop_accuracy: expected a number from 0 to 1, "
                         f"got {early_stop_accuracy!r}")
    scheme = _as_scheme(scheme)
    trees = list(trees)
    if not trees:
        raise ValueError("no trees to train on")
    if config is None:
        word_to_id, token_to_id = build_vocabularies(trees, scheme)
        config = ModelConfig(scheme=str(scheme), word_to_id=word_to_id,
                             token_to_id=token_to_id, **overrides)  # type: ignore[arg-type]
    elif overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    examples = build_examples(trees, scheme, config)

    rng = np.random.default_rng(config.seed)
    params = init_parameters(config, rng)
    adam_state = {name: (np.zeros_like(value), np.zeros_like(value))
                  for name, value in params.items()}
    dropout_rng = rng if config.dropout > 0.0 else None

    history: list[EpochStats] = []
    update = 0
    rate = lr_at(1, config)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        loss_sum = 0.0
        token_total = 0
        token_correct = 0
        for start in range(0, len(examples), config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            batch_loss, grads, correct, count = loss_and_grad(
                params, config, batch, dropout_rng)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"loss {batch_loss} at epoch {epoch}, update {update + 1}")
            update += 1
            rate = lr_at(update, config)
            _adam_update(params, grads, adam_state, update, rate, config)
            loss_sum += batch_loss * count
            token_total += count
            token_correct += correct
        accuracy = token_correct / token_total
        history.append(EpochStats(epoch, loss_sum / token_total, accuracy, rate))
        if log is not None:
            log(history[-1])
        if early_stop_accuracy is not None and accuracy >= early_stop_accuracy:
            break
    return TrainResult(params=params, config=config, history=history)
