"""Beam search over transition tokens with legality masking.

Every hypothesis holds its token ids and a mask state, the replayed
parser configuration plus the masks read off it, so candidate tokens
that are illegal in the current configuration are excluded outright
rather than merely down-weighted.  Only the winner's ids are mapped
back to tokens.
Scores are summed log probabilities without length normalisation.

All live hypotheses have the same length, so each beam step is one
batched decoder call that feeds every hypothesis only its newest token
and mask row.  Earlier positions come from the per-layer self-attention
keys and values that the previous call returned; once the children are
chosen, those rows are gathered by parent, so each child continues its
parent's cache.  The encoder memory is fixed for the sentence, so its
cross-attention keys and values are projected once, by the first step,
and every later step and hypothesis shares them.
"""

from dataclasses import dataclass

import numpy as np

from ..masks import MaskState, initial_state, step
# `apply` is unused here; the benchmark tracer binds it in this module
from ..transitions import (Transition, apply, is_terminal, legal,  # noqa: F401
                           parse_scheme, parse_transition)
from .model import (ModelConfig, Parameters, _decode, _encode, _log_softmax,
                    mask_rows)


@dataclass(frozen=True)
class Prediction:
    """Best-scoring token sequence for one sentence."""

    tokens: tuple[Transition, ...]
    score: float
    terminal: bool


@dataclass
class _Hypothesis:
    score: float
    token_ids: list[int]
    state: MaskState


def predict(params: Parameters, config: ModelConfig, words: list[str],
            beam_size: int = 10, max_len: int | None = None) -> Prediction:
    """Decode one sentence; ties break toward the lower token id.

    A hypothesis whose configuration is terminal joins the finished
    pool and stops expanding.  If the step cap runs out before any
    hypothesis finishes, the best unfinished one is returned and the
    sequence decoder's repair rules take it from there.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be positive")
    scheme = parse_scheme(config.scheme)
    n = len(words)
    if max_len is None:
        max_len = config.max_positions - 1
    vocabulary = sorted((i, parse_transition(text))
                        for text, i in config.token_to_id.items()
                        if i != config.bos_id)
    memory, _ = _encode(params, config, [config.word_ids(words)], None)

    live = [_Hypothesis(score=0.0, token_ids=[], state=initial_state(n, scheme))]
    past = None  # per decoder layer: self-attention (keys, values), a row per live hyp
    memory_kv = None  # per decoder layer: cross-attention (keys, values) of the memory
    finished: list[_Hypothesis] = []
    for _ in range(max_len):
        if not live:
            break
        if len(finished) >= beam_size:
            best_live = max(hyp.score for hyp in live)
            worst_kept = min(hyp.score for hyp in finished)
            if best_live <= worst_kept:
                break
        in_ids = np.array([[hyp.token_ids[-1] if hyp.token_ids else config.bos_id]
                           for hyp in live], dtype=np.int64)
        stack_rows, buffer_rows = mask_rows([hyp.state.pair for hyp in live], n)
        logits, cache = _decode(params, config, memory, in_ids, stack_rows[:, None],
                                buffer_rows[:, None], past, memory_kv)
        past, memory_kv = cache["past"], cache["memory_kv"]
        del cache  # free this step's activations before the next step allocates
        log_probs = _log_softmax(logits[:, -1])
        candidates: list[tuple[float, int, int, _Hypothesis, Transition]] = []
        for hyp_index, hyp in enumerate(live):
            largest = legal(hyp.state.config, scheme)
            for token_id, transition in vocabulary:
                if (transition.k or 0) <= largest.get(transition.kind, -1):
                    candidates.append((hyp.score + log_probs[hyp_index, token_id],
                                       token_id, hyp_index, hyp, transition))
        if not candidates:
            break
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        next_live = []
        parents = []
        for score, token_id, hyp_index, hyp, transition in candidates[:beam_size]:
            state = step(hyp.state, transition)
            child = _Hypothesis(score=score, token_ids=hyp.token_ids + [token_id],
                                state=state)
            if is_terminal(state.config, scheme):
                finished.append(child)
            else:
                next_live.append(child)
                parents.append(hyp_index)
        finished.sort(key=lambda hyp: -hyp.score)
        del finished[beam_size:]
        live = next_live
        past = [(keys[parents], values[parents]) for keys, values in past]

    pool = finished if finished else live
    if not pool:
        raise RuntimeError("beam search produced no hypotheses")
    best = max(pool, key=lambda hyp: hyp.score)
    transition_of = dict(vocabulary)
    return Prediction(tokens=tuple(transition_of[i] for i in best.token_ids),
                      score=best.score, terminal=bool(finished))
