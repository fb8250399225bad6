"""Deterministic stack and buffer attention masks.

Each decoding step carries two sets of input positions: the ones the
stack attention head may attend and the ones the buffer head may
attend.  Every other position is masked for that head.  Each set is
one int with bit p set for position p, the form a `Constituent` keeps
its yield in.  The model turns a pair into additive {0, -inf} rows
(`neural.model.mask_rows`).

The masks are a function of the parse configuration.  Its items are
word positions, built constituents and open non-terminal markers.  A
word position on the stack or in the buffer sets its own bit on that
side; a built constituent sets only its lowest position's bit, so its
other positions stay out of both sets.  Markers set nothing.  So
initially every word is in the buffer set only, and a position is in
at most one set.

A MaskState pairs the configuration replayed by `transitions.apply`
with the mask pair read off it; an illegal token raises
IllegalTransition there.
"""

from dataclasses import dataclass
from typing import Iterable

from . import transitions as tr
from .transitions import Configuration, MarkerItem, Scheme, Transition
from .tree import min_position


@dataclass(frozen=True)
class MaskPair:
    """The input positions the stack head and the buffer head may attend,
    each as bits: bit p set for position p."""

    stack: int
    buffer: int


@dataclass(frozen=True)
class MaskState:
    """A parse configuration plus the mask pair read off it."""

    scheme: Scheme
    config: Configuration
    pair: MaskPair


def _read_pair(config: Configuration) -> MaskPair:
    stack = buffer = 0
    for item in config.stack:
        if not isinstance(item, MarkerItem):
            stack |= 1 << min_position(item)
    for item in config.buffer:
        buffer |= 1 << min_position(item)
    return MaskPair(stack, buffer)


def initial_state(n_words: int, scheme: Scheme) -> MaskState:
    config = tr.initial(n_words)
    return MaskState(scheme, config, _read_pair(config))


def step(state: MaskState, token: Transition) -> MaskState:
    """Apply one token and read the new masks off the configuration."""
    config = tr.apply(state.config, token, state.scheme)
    return MaskState(state.scheme, config, _read_pair(config))


def trace(n_words: int, tokens: Iterable[Transition],
          scheme: Scheme) -> list[MaskPair]:
    """Mask pairs before each token and after the last: len(tokens) + 1."""
    state = initial_state(n_words, scheme)
    pairs = [state.pair]
    for token in tokens:
        state = step(state, token)
        pairs.append(state.pair)
    return pairs
