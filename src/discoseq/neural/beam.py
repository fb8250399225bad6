"""Beam search over transition tokens with legality masking.

Every hypothesis holds its token ids and a mask state, the replayed
parser configuration plus the masks read off it, so candidate tokens
that are illegal in the current configuration are excluded outright
rather than merely down-weighted.  Scores are summed log probabilities
without length normalisation.

Only the best finished hypothesis is kept, and its score is the one
bound (-inf before any finishes): every candidate and live hypothesis
that does not beat it is dropped, and the search ends when none is left
(the optimal stop of Huang, Zhao & Ma 2017).  This is exact: log-softmax
rows are <= 0, so no child outscores its parent.  A step's candidates
come best first, so its first terminal child ends the step.

All live hypotheses have the same length, so each beam step is one
batched `_decode` call that feeds every hypothesis only its newest token
and mask row.  Earlier positions come from the per-layer self-attention
keys and values that the previous call returned, gathered by parent
unless every child has its parent's row.  The sentence's decoder plan,
its weights with cross-attention folded over the memory, is built once,
before the first step.  Each
hypothesis's `legal` table becomes a row of a (B, V) mask through
per-token kind and k arrays, and one stable sort of the legal scores,
token-major, orders the candidates by (-score, token id, hypothesis).
"""

from dataclasses import dataclass

import numpy as np

from ..masks import MaskState, initial_state, step
# `apply` is unused here; the benchmark tracer binds it in this module
from ..transitions import (Transition, apply, is_terminal, legal,  # noqa: F401
                           parse_scheme, parse_transition)
from .model import (BOS, ModelConfig, Parameters, _decode, _encode, _log_softmax,
                    _plan, mask_rows)


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
            beam_size: int = 10) -> Prediction:
    """Decode one sentence in at most `config.max_positions - 1` steps,
    which leaves `forward` the one more position it needs to score the
    whole prediction; ties break toward the lower token id.

    A terminal hypothesis stops expanding.  The search ends once no live
    hypothesis scores above the best finished one, as no child outscores
    its parent.  If the cap comes first, the best unfinished hypothesis
    is returned, and the sequence decoder's repair rules take over.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be positive")
    if not words:
        raise ValueError("cannot parse an empty sentence")
    scheme, n = parse_scheme(config.scheme), len(words)
    vocabulary = [None if text == BOS else parse_transition(text)
                  for text in sorted(config.token_to_id, key=config.token_to_id.get)]
    column = {kind: j for j, kind in enumerate(sorted(scheme.kinds))}
    # per token id: its kind's legality column (<bos>: the last, always -1) and its k
    token_kind, token_k = np.array([(len(column), 0) if t is None else
                                    (column[t.kind], t.k or 0) for t in vocabulary]).T
    memory, _ = _encode(params, config, [config.word_ids(words)], None)
    plan = _plan(params, config, memory)

    live = [_Hypothesis(score=0.0, token_ids=[], state=initial_state(n, scheme))]
    best, bound = None, -np.inf  # the best finished hypothesis and its score
    past = None  # per decoder layer: self-attention (keys, values)
    for _ in range(config.max_positions - 1):
        in_ids = np.array([hyp.token_ids[-1] if hyp.token_ids else config.bos_id
                           for hyp in live], dtype=np.int64)
        masks = mask_rows([hyp.state.pair for hyp in live], n)
        logits, past = _decode(params, config, plan, in_ids, masks, past)
        scores = _log_softmax(logits) + np.array([[hyp.score] for hyp in live])
        largest = np.array([[table[kind] for kind in column] + [-1] for table in
                            (legal(hyp.state.config, scheme) for hyp in live)])
        allowed = (token_k <= largest[:, token_kind]) & (scores > bound)
        token_ids, hyp_indices = np.nonzero(allowed.T)
        candidate_scores = scores[hyp_indices, token_ids]
        chosen = np.argsort(-candidate_scores, kind="stable")[:beam_size]
        picked = (a[chosen].tolist() for a in (candidate_scores, token_ids, hyp_indices))
        children = []  # (child, parent index) of every live child
        for score, token_id, hyp_index in zip(*picked):
            hyp = live[hyp_index]
            child = _Hypothesis(score=score, token_ids=hyp.token_ids + [token_id],
                                state=step(hyp.state, vocabulary[token_id]))
            if is_terminal(child.state.config, scheme):
                best, bound = child, score
                break  # the later candidates score no higher
            children.append((child, hyp_index))
        children = [pair for pair in children if pair[0].score > bound]
        if not children:
            break
        parents = [hyp_index for _, hyp_index in children]
        if parents != list(range(len(live))):
            past = [(keys[parents], values[parents]) for keys, values in past]
        live = [child for child, _ in children]

    winner = best if best is not None else max(live, key=lambda hyp: hyp.score)
    return Prediction(tokens=tuple(vocabulary[i] for i in winner.token_ids),
                      score=winner.score, terminal=best is not None)
