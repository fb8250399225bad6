"""Deterministic stack and buffer attention masks.

Each decoding step carries two additive mask vectors over the input
positions, one for the stack attention head and one for the buffer
head.  An entry is 0 where the head may attend and -inf where it must
not, so adding the mask to pre-softmax scores zeroes the masked
attention weights exactly.

The masks are a function of the parse configuration: every material
item on the stack unmasks its lowest position in the stack vector, and
every buffer item unmasks its lowest position in the buffer vector.
Open non-terminals unmask nothing, and the other positions of a built
constituent stay masked in both vectors.  So initially every word is
unmasked in the buffer vector only, and a position is unmasked in at
most one vector.

A MaskState pairs the configuration replayed by `transitions.apply`
with the mask pair read off it; an illegal token raises
IllegalTransition there.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import transitions as tr
from .transitions import Configuration, MarkerItem, Scheme, Transition

NEG_INF = float("-inf")


@dataclass(frozen=True)
class MaskPair:
    """Additive masks over input positions; entries are 0.0 or -inf."""

    stack: np.ndarray
    buffer: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.stack, self.buffer):
            array.setflags(write=False)

    @property
    def stack_positions(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.flatnonzero(self.stack == 0.0))

    @property
    def buffer_positions(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.flatnonzero(self.buffer == 0.0))


@dataclass(frozen=True)
class MaskState:
    """A parse configuration plus the mask pair read off it."""

    scheme: Scheme
    config: Configuration
    pair: MaskPair


def _read_pair(config: Configuration, n_words: int) -> MaskPair:
    stack = np.full(n_words, NEG_INF)
    buffer = np.full(n_words, NEG_INF)
    for item in config.stack:
        if not isinstance(item, MarkerItem):
            stack[item.min_position] = 0.0
    for item in config.buffer:
        buffer[item.min_position] = 0.0
    return MaskPair(stack, buffer)


def initial_state(n_words: int, scheme: Scheme) -> MaskState:
    config = tr.initial(n_words)
    return MaskState(scheme, config, _read_pair(config, n_words))


def step(state: MaskState, token: Transition) -> MaskState:
    """Apply one token and read the new masks off the configuration."""
    config = tr.apply(state.config, token, state.scheme)
    return MaskState(state.scheme, config, _read_pair(config, len(state.pair.stack)))


def trace(n_words: int, tokens: Iterable[Transition],
          scheme: Scheme) -> list[MaskPair]:
    """Mask pairs before each token and after the last: len(tokens) + 1."""
    state = initial_state(n_words, scheme)
    pairs = [state.pair]
    for token in tokens:
        state = step(state, token)
        pairs.append(state.pair)
    return pairs
