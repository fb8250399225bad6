"""Shift-reduce transition systems for (dis)continuous constituency parsing.

Three base systems share one configuration type, a stack plus a buffer
of not-yet-consumed items.  The items are the tree's own values: a word
position (an int), a built `Constituent`, or, on the stack only, a
`MarkerItem` for an open non-terminal.

* top-down    opens a constituent with NT(X) before its children and
              closes it with REDUCE, which pops every item above the
              nearest marker;
* in-order    pushes the NT(X) marker once the constituent's first child
              sits on top of the stack; REDUCE pops the items above the
              marker, the marker, and the one item beneath it; FINISH
              terminates;
* bottom-up   never predicts ahead: REDUCE#k(X) pops the top k items
              into a new constituent; FINISH terminates.

Reordering transitions extend each base to discontinuous trees: SWAP
returns the second-to-top stack item to the front of the buffer, SWAP#k
does the same for the k items below the top in one step, and SHIFT#k
shifts the k-th buffer item (0-based) instead of the first.

A transition is written exactly the way it is serialized: `SHIFT`,
`SHIFT#2`, `SWAP`, `SWAP#3`, `NT(VP)`, `REDUCE`, `REDUCE(VP)`,
`REDUCE#2(VP)`, `FINISH`.  So `k` is in ASCII digits without leading
zeros.

`legal(config, scheme)` maps each of the scheme's kinds to its largest
legal k: 0 for a legal kind without k, -1 when no token of the kind is
legal.  So `t` is legal exactly when `(t.k or 0) <= table.get(t.kind, -1)`.
"""

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Union

from .tree import Child, Constituent, ConstituentTree, min_position

SHIFT = "SHIFT"
SHIFT_K = "SHIFT_K"
SWAP = "SWAP"
SWAP_K = "SWAP_K"
NT = "NT"
REDUCE = "REDUCE"
REDUCE_L = "REDUCE_L"      # REDUCE carrying the label it closes (enriched)
REDUCE_KL = "REDUCE_KL"    # bottom-up REDUCE#k(X)
FINISH = "FINISH"

# kind -> (word, least k if it carries #k else None, carries (X)); the one
# place a token's spelling lives
_SPELLING = {
    SHIFT: ("SHIFT", None, False),
    SHIFT_K: ("SHIFT", 0, False),
    SWAP: ("SWAP", None, False),
    SWAP_K: ("SWAP", 1, False),
    NT: ("NT", None, True),
    REDUCE: ("REDUCE", None, False),
    REDUCE_L: ("REDUCE", None, True),
    REDUCE_KL: ("REDUCE", 1, True),
    FINISH: ("FINISH", None, False),
}
_KIND_OF_SPELLING = {(word, least_k is not None, with_label): kind
                     for kind, (word, least_k, with_label) in _SPELLING.items()}
_TOKEN_RE = re.compile(r"([A-Z]+)(?:#(0|[1-9][0-9]*))?(?:\((.+)\))?")
_LABEL_RE = re.compile(r"[^\s()]+")


class IllegalTransition(Exception):
    """A transition whose guard fails in the given configuration."""


@dataclass(frozen=True)
class Transition:
    kind: str
    k: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SPELLING:
            raise ValueError(f"unknown transition kind {self.kind!r}")
        _, least_k, with_label = _SPELLING[self.kind]
        if (self.k is None) != (least_k is None):
            raise ValueError(f"{self.kind} parameter k mismatch")
        if (self.label is not None) != with_label:
            raise ValueError(f"{self.kind} label mismatch")
        if self.k is not None and self.k < least_k:
            raise ValueError(f"{self.kind} requires k >= {least_k}, got {self.k}")
        if self.label is not None and not _LABEL_RE.fullmatch(self.label):
            raise ValueError(f"bad label {self.label!r}: no whitespace or parentheses")

    def __str__(self) -> str:
        text = _SPELLING[self.kind][0]
        if self.k is not None:
            text += f"#{self.k}"
        if self.label is not None:
            text += f"({self.label})"
        return text


@lru_cache(maxsize=4096)
def parse_transition(text: str) -> Transition:
    """The token `text` spells; a spelling's token is shared, as tokens are
    immutable."""
    matched = _TOKEN_RE.fullmatch(text)
    if matched is not None:
        word, k, label = matched.groups()
        kind = _KIND_OF_SPELLING.get((word, k is not None, label is not None))
        if kind is not None:
            try:
                return Transition(kind, None if k is None else int(k), label)
            except ValueError as err:
                raise ValueError(f"bad transition token {text!r}: {err}") from None
    raise ValueError(f"bad transition token {text!r}")


def parse_transitions(line: str) -> list[Transition]:
    """Parse a whitespace-separated sequence of transition tokens."""
    return [parse_transition(token) for token in line.split()]


def format_transitions(transitions: Iterable[Transition]) -> str:
    return " ".join(str(t) for t in transitions)


# --- configurations -------------------------------------------------------

@dataclass(frozen=True)
class MarkerItem:
    """An open non-terminal pushed by NT(X); never counts as material."""

    label: str


StackItem = Union[Child, MarkerItem]


@dataclass(frozen=True)
class Configuration:
    """Stack, buffer, and the terminal flag used by in-order and bottom-up.

    Stack items are word positions, built constituents and markers for
    open non-terminals.  The buffer usually holds word positions in
    sentence order; a SWAP may return a built constituent to the buffer
    front, after which SHIFT re-shifts it like any other item.  Every
    word position occurs exactly once across the stack items' yields and
    the buffer.
    """

    stack: tuple[StackItem, ...]
    buffer: tuple[Child, ...]
    finished: bool = False


def initial(n_words: int) -> Configuration:
    """Empty stack, all words in the buffer in sentence order."""
    if n_words < 1:
        raise ValueError("a configuration needs at least one word")
    return Configuration(stack=(), buffer=tuple(range(n_words)))


# --- schemes --------------------------------------------------------------

TOP_DOWN = "topdown"
IN_ORDER = "inorder"
BOTTOM_UP = "bottomup"
DISCO_NONE = "none"
DISCO_SWAP = "swap"
DISCO_SWAP_K = "swapk"
DISCO_SHIFT_K = "shiftk"

# (base, reordering flavor, enriched) -> the kinds of each shipped scheme's
# tokens; under SHIFT#k every shift is spelled SHIFT#k, even #0
_SCHEME_KINDS = {
    (TOP_DOWN, DISCO_NONE, False): frozenset({SHIFT, NT, REDUCE}),
    (TOP_DOWN, DISCO_NONE, True): frozenset({SHIFT, NT, REDUCE_L}),
    (IN_ORDER, DISCO_NONE, False): frozenset({SHIFT, NT, REDUCE, FINISH}),
    (IN_ORDER, DISCO_NONE, True): frozenset({SHIFT, NT, REDUCE_L, FINISH}),
    (BOTTOM_UP, DISCO_NONE, False): frozenset({SHIFT, REDUCE_KL, FINISH}),
    (TOP_DOWN, DISCO_SWAP, False): frozenset({SHIFT, NT, REDUCE, SWAP}),
    (IN_ORDER, DISCO_SWAP, False): frozenset({SHIFT, NT, REDUCE, FINISH, SWAP}),
    (BOTTOM_UP, DISCO_SWAP, False): frozenset({SHIFT, REDUCE_KL, FINISH, SWAP}),
    (IN_ORDER, DISCO_SWAP_K, False): frozenset({SHIFT, NT, REDUCE, FINISH, SWAP_K}),
    (IN_ORDER, DISCO_SHIFT_K, False): frozenset({SHIFT_K, NT, REDUCE, FINISH}),
}


@dataclass(frozen=True)
class Scheme:
    """A linearization scheme: base system, reordering flavor, enrichment."""

    base: str
    disco: str = DISCO_NONE
    enriched: bool = False

    def __post_init__(self) -> None:
        if (self.base, self.disco, self.enriched) not in _SCHEME_KINDS:
            raise ValueError(f"no shipped scheme has base {self.base!r}, reordering "
                             f"{self.disco!r} and enriched={self.enriched}")

    def __str__(self) -> str:
        name = self.base
        if self.disco != DISCO_NONE:
            name += "+" + self.disco
        if self.enriched:
            name += ":enriched"
        return name

    @cached_property
    def kinds(self) -> frozenset[str]:
        """Transition kinds this scheme's token vocabulary draws from."""
        return _SCHEME_KINDS[(self.base, self.disco, self.enriched)]


def parse_scheme(name: str) -> Scheme:
    """Parse names like `inorder+swap`, `topdown:enriched`, `bottomup`."""
    text = name.strip()
    enriched = False
    if text.endswith(":enriched"):
        enriched = True
        text = text[: -len(":enriched")]
    base, sep, disco = text.partition("+")
    if sep and not disco:
        raise ValueError(f"bad scheme name {name!r}: empty reordering suffix")
    try:
        return Scheme(base, disco or DISCO_NONE, enriched)
    except ValueError as err:
        raise ValueError(f"bad scheme name {name!r}: {err}") from None


SHIPPED_SCHEMES: tuple[Scheme, ...] = tuple(Scheme(*key) for key in _SCHEME_KINDS)


# --- legality and application ---------------------------------------------

def _is_material(item: StackItem) -> bool:
    return not isinstance(item, MarkerItem)


def topmost_marker(stack: tuple[StackItem, ...]) -> int | None:
    for i in range(len(stack) - 1, -1, -1):
        if isinstance(stack[i], MarkerItem):
            return i
    return None


def _complete(config: Configuration) -> bool:
    """The terminal shape: an empty buffer and one constituent on the stack."""
    return (not config.buffer and len(config.stack) == 1
            and isinstance(config.stack[0], Constituent))


def _largest_k(config: Configuration, kind: str, most: int) -> int:
    """The largest k that passes the guard of `kind`'s #k tokens.  SWAP#k moves
    the k items below the top, scanning at most `most`: markers stay, and moved
    items must precede the top in original order, so no swap undoes another."""
    if kind == SHIFT_K:
        return len(config.buffer) - 1
    if kind == REDUCE_KL:  # a bottom-up stack holds no markers
        return len(config.stack)
    if not config.stack or isinstance(config.stack[-1], MarkerItem):
        return 0
    top, k = min_position(config.stack[-1]), 0
    for below in config.stack[-2:-most - 2:-1]:  # nearest the top first
        if isinstance(below, MarkerItem) or min_position(below) >= top:
            break
        k += 1
    return k


def illegality(config: Configuration, t: Transition, scheme: Scheme) -> str | None:
    """The violated guard as text, or None when `t` is legal."""
    if config.finished:
        return "configuration is finished"
    if t.kind not in scheme.kinds:
        return f"{t} is not part of scheme {scheme}"

    if t.kind == SHIFT:
        return None if config.buffer else "buffer is empty"
    if t.kind == SHIFT_K:
        return None if t.k <= _largest_k(config, SHIFT_K, t.k) else (
            f"buffer has {len(config.buffer)} items, none at index {t.k}")
    if t.kind in (SWAP, SWAP_K):  # SWAP is the guard of SWAP#1
        movable = _largest_k(config, SWAP_K, t.k or 1)
        return None if movable >= (t.k or 1) else (
            f"only {movable} below the top may move (markers stay, and moved "
            "items must precede the top in original order)")
    if t.kind == NT:
        if scheme.base == TOP_DOWN:
            return "configuration is terminal" if _complete(config) else None
        if not config.stack or not _is_material(config.stack[-1]):
            return "the constituent's first child must sit on top of the stack"
        return None
    if t.kind in (REDUCE, REDUCE_L):
        marker = topmost_marker(config.stack)
        if marker is None:
            return "no open non-terminal on the stack"
        if scheme.base == TOP_DOWN:
            if marker == len(config.stack) - 1:
                return "the open non-terminal has no children yet"
            return None
        if marker == 0 or not _is_material(config.stack[marker - 1]):
            return "nothing below the open non-terminal to close over"
        return None
    if t.kind == REDUCE_KL:
        return None if t.k <= _largest_k(config, REDUCE_KL, t.k) else (
            f"needs {t.k} stack items, have {len(config.stack)}")
    # FINISH
    if _complete(config):
        return None
    return "buffer is not empty" if config.buffer else "stack is not a single constituent"


# each kind's least token; no guard reads the stand-in label
_LEAST = {kind: Transition(kind, least_k, "X" if with_label else None)
          for kind, (_, least_k, with_label) in _SPELLING.items()}


def legal(config: Configuration, scheme: Scheme) -> dict[str, int]:
    """Each of the scheme's kinds -> its largest legal k (see the module doc)."""
    return {kind: -1 if illegality(config, least, scheme) is not None
            else 0 if least.k is None else _largest_k(config, kind, len(config.stack))
            for kind, least in _LEAST.items() if kind in scheme.kinds}


def apply(config: Configuration, t: Transition, scheme: Scheme) -> Configuration:
    """Apply a legal transition; raise IllegalTransition naming the guard."""
    reason = illegality(config, t, scheme)
    if reason is not None:
        raise IllegalTransition(f"{t} is illegal: {reason}")
    stack, buffer = config.stack, config.buffer

    if t.kind in (SHIFT, SHIFT_K):
        # (S, i|B) => (S|i, B);  SHIFT#k takes the k-th buffer item instead
        k = t.k if t.kind == SHIFT_K else 0
        item = buffer[k]
        return Configuration(stack + (item,), buffer[:k] + buffer[k + 1:])

    if t.kind in (SWAP, SWAP_K):
        # (S|ik|..|i1|i0, B) => (S|i0, ik|..|i1|B)
        k = t.k if t.kind == SWAP_K else 1
        moved = stack[-k - 1:-1]
        return Configuration(stack[:-k - 1] + (stack[-1],), moved + buffer)

    if t.kind == NT:
        # (S, B) => (S|X, B); in-order reads the top item as the future
        # constituent's first child but moves nothing
        return Configuration(stack + (MarkerItem(t.label),), buffer)

    if t.kind in (REDUCE, REDUCE_L):
        # top-down:  (S|X|sk|..|s0, B) => (S|X_{sk..s0}, B)
        # in-order:  (S|sk|X|sk-1|..|s0, B) => (S|X_{sk..s0}, B)
        marker_index = topmost_marker(stack)
        start = marker_index if scheme.base == TOP_DOWN else marker_index - 1
        children = stack[start:marker_index] + stack[marker_index + 1:]
        node = Constituent(stack[marker_index].label, children)
        return Configuration(stack[:start] + (node,), buffer)

    if t.kind == REDUCE_KL:
        # (S|sk-1|..|s0, B) => (S|X_{sk-1..s0}, B)
        node = Constituent(t.label, stack[-t.k:])
        return Configuration(stack[:-t.k] + (node,), buffer)

    # FINISH
    return Configuration(stack, buffer, finished=True)


def is_terminal(config: Configuration, scheme: Scheme) -> bool:
    """Top-down terminates on shape alone; the others need FINISH."""
    if scheme.base == TOP_DOWN:
        return _complete(config)
    return config.finished


def extract_tree(config: Configuration, sentence: tuple[str, ...],
                 scheme: Scheme) -> ConstituentTree:
    """Read the finished parse out of a terminal configuration."""
    if not is_terminal(config, scheme):
        raise IllegalTransition("configuration is not terminal")
    return ConstituentTree(sentence, config.stack[0])
