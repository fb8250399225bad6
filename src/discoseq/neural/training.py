"""Teacher-forced training on oracle token sequences.

Examples pair each sentence with its oracle transition tokens and the
per-step stack/buffer mask rows replayed from those tokens; `train`
encodes each tree once, for both the vocabularies and the examples.
Each batch is one packed forward and backward pass (see `model`).
Updates are Adam with a linear warm-up into an inverse square-root
decay, applied in place to the one parameter vector, with the two
moments as one (2, size) array, one scratch vector, and the spent
gradient vector as the second scratch, which is dropped before the next
batch's pass, so one gradient vector is alive at a time.  Examples keep
their mask rows as packed bits.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..masks import trace
from ..oracle import EncodeError, _tree_at, encode
from ..transitions import Scheme, Transition, parse_scheme
from ..tree import ConstituentTree
from .model import (_FIXED, BOS, UNK, Example, ModelConfig, Parameters, _vector,
                    init_parameters, loss_and_grad, mask_rows)


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


# each tree with its oracle tokens, encoded once
_Encoded = Sequence[tuple[ConstituentTree, Sequence[Transition]]]


def _as_scheme(scheme: str | Scheme) -> Scheme:
    return parse_scheme(scheme) if isinstance(scheme, str) else scheme


def _encode_all(trees: Iterable[ConstituentTree], scheme: Scheme) -> _Encoded:
    """Each tree with its tokens; an EncodeError carries the tree's index."""
    encoded = []
    for index, tree in enumerate(trees):
        with _tree_at(index):
            encoded.append((tree, encode(tree, scheme)))
    return encoded


def build_vocabularies(trees: Iterable[ConstituentTree],
                       scheme: str | Scheme) -> tuple[dict[str, int], dict[str, int]]:
    """Word and transition-token vocabularies, deterministic order."""
    return _vocabularies(_encode_all(trees, _as_scheme(scheme)))


def _vocabularies(encoded: _Encoded) -> tuple[dict[str, int], dict[str, int]]:
    words: set[str] = set()
    tokens: set[str] = set()
    for tree, sequence in encoded:
        words.update(tree.sentence)
        tokens.update(str(t) for t in sequence)
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
    return _examples(_encode_all(trees, scheme), scheme, config)


def _examples(encoded: _Encoded, scheme: Scheme, config: ModelConfig) -> list[Example]:
    examples = []
    for index, (tree, tokens) in enumerate(encoded):
        # a tree has fewer words than tokens, so its words fit if its tokens do
        with _tree_at(index):
            if len(tokens) > config.max_positions:
                raise EncodeError(f"sequence length {len(tokens)} exceeds max_positions "
                                  f"{config.max_positions}")
        pairs = trace(len(tree.sentence), tokens, scheme)
        try:
            target_ids = np.array([config.token_to_id[str(t)] for t in tokens],
                                  dtype=np.int64)
        except KeyError as err:
            raise ValueError(f"token {err.args[0]!r} missing from vocabulary") from None
        # pairs[t] is the structure before emitting token t; the final
        # pair describes the terminal state and is never conditioned on.
        examples.append(Example(config.word_ids(tree.sentence), target_ids,
                                mask_rows(pairs[:len(tokens)], len(tree.sentence))))
    return examples


def lr_at(update: int, config: ModelConfig) -> float:
    """Learning rate for 1-based update counter: warm up, then 1/sqrt decay."""
    if update <= config.warmup_updates:
        start = _FIXED["warmup_init_lr"]
        rate = start + (config.lr - start) * update / config.warmup_updates
    else:
        rate = config.lr * math.sqrt(config.warmup_updates / update)
    return max(rate, _FIXED["min_lr"])


def _adam_update(params: np.ndarray, grads: np.ndarray, moments: np.ndarray,
                 scratch: np.ndarray, update: int, rate: float) -> None:
    """One Adam step on flat vectors, in place; `grads` is used up.

    `moments` holds the first and second moment as its two rows.  The
    elementwise operations and their order are those of
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    params -= rate (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
    """
    b1, b2 = _FIXED["adam_beta1"], _FIXED["adam_beta2"]
    first, second = moments
    first *= b1
    np.multiply(grads, 1.0 - b1, out=scratch)
    first += scratch
    second *= b2
    np.multiply(grads, 1.0 - b2, out=scratch)
    scratch *= grads
    second += scratch
    # both moments have read the gradient, so it is the second scratch buffer
    np.divide(first, 1.0 - b1 ** update, out=scratch)
    scratch *= rate
    np.divide(second, 1.0 - b2 ** update, out=grads)
    np.sqrt(grads, out=grads)
    grads += _FIXED["adam_eps"]
    scratch /= grads
    params -= scratch


def train(trees: Sequence[ConstituentTree], scheme: str | Scheme, *,
          early_stop_accuracy: float | None = None,
          log: Callable[[EpochStats], None] | None = None,
          **overrides: object) -> TrainResult:
    """Fit a model on oracle sequences for the given scheme.

    The vocabularies are built from the trees, and the remaining keyword
    arguments override ModelConfig defaults.  Training stops after the
    first epoch whose token accuracy reaches `early_stop_accuracy`, a
    number from 0 to 1.  A tree that cannot be encoded, or whose tokens
    exceed `max_positions`, is an EncodeError carrying its index before
    any parameter is drawn.  Raises TrainingDiverged when a batch loss
    is not finite.
    """
    # the chained comparison is false for nan too
    if early_stop_accuracy is not None and not 0.0 <= early_stop_accuracy <= 1.0:
        raise ValueError("early_stop_accuracy: expected a number from 0 to 1, "
                         f"got {early_stop_accuracy!r}")
    scheme = _as_scheme(scheme)
    encoded = _encode_all(trees, scheme)
    if not encoded:
        raise ValueError("no trees to train on")
    word_to_id, token_to_id = _vocabularies(encoded)
    config = ModelConfig(scheme=str(scheme), word_to_id=word_to_id,
                         token_to_id=token_to_id, **overrides)  # type: ignore[arg-type]
    examples = _examples(encoded, scheme, config)

    rng = np.random.default_rng(config.seed)
    params = init_parameters(config, rng)
    vector = _vector(params)
    moments = np.zeros((2, vector.size))
    scratch = np.empty(vector.size)

    history: list[EpochStats] = []
    update = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        loss_sum = 0.0
        token_total = 0
        token_correct = 0
        for start in range(0, len(examples), config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            batch_loss, grads, correct, count = loss_and_grad(params, config, batch, rng)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"loss {batch_loss} at epoch {epoch}, update {update + 1}")
            update += 1
            rate = lr_at(update, config)
            _adam_update(vector, _vector(grads), moments, scratch, update, rate)
            del grads  # spent: the next pass then holds the only gradient vector
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
