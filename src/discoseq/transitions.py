"""Shift-reduce transition systems for (dis)continuous constituency parsing.

Three base systems share one configuration type, a stack of items plus a
buffer of not-yet-consumed items:

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
`REDUCE#2(VP)`, `FINISH`.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .tree import Constituent, ConstituentTree

SHIFT = "SHIFT"
SHIFT_K = "SHIFT_K"
SWAP = "SWAP"
SWAP_K = "SWAP_K"
NT = "NT"
REDUCE = "REDUCE"
REDUCE_L = "REDUCE_L"      # REDUCE carrying the label it closes (enriched)
REDUCE_KL = "REDUCE_KL"    # bottom-up REDUCE#k(X)
FINISH = "FINISH"

_KINDS_WITH_K = {SHIFT_K, SWAP_K, REDUCE_KL}
_KINDS_WITH_LABEL = {NT, REDUCE_L, REDUCE_KL}
_LABEL_RE = re.compile(r"[^\s()]+")


class IllegalTransition(Exception):
    """A transition whose guard fails in the given configuration."""


@dataclass(frozen=True)
class Transition:
    kind: str
    k: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.k is not None) != (self.kind in _KINDS_WITH_K):
            raise ValueError(f"{self.kind} parameter k mismatch")
        if (self.label is not None) != (self.kind in _KINDS_WITH_LABEL):
            raise ValueError(f"{self.kind} label mismatch")
        if self.k is not None:
            minimum = 0 if self.kind == SHIFT_K else 1
            if self.k < minimum:
                raise ValueError(f"{self.kind} requires k >= {minimum}, got {self.k}")
        if self.label is not None and not _LABEL_RE.fullmatch(self.label):
            raise ValueError(f"bad label {self.label!r}: no whitespace or parentheses")

    def __str__(self) -> str:
        if self.kind == SHIFT_K:
            return f"SHIFT#{self.k}"
        if self.kind == SWAP_K:
            return f"SWAP#{self.k}"
        if self.kind == NT:
            return f"NT({self.label})"
        if self.kind == REDUCE_L:
            return f"REDUCE({self.label})"
        if self.kind == REDUCE_KL:
            return f"REDUCE#{self.k}({self.label})"
        return self.kind

    def normalized(self) -> "Transition":
        """Fold degenerate parameters: SHIFT#0 -> SHIFT, SWAP#1 -> SWAP.

        Surface forms are kept distinct everywhere else because a scheme
        that parameterizes a transition spells every instance that way,
        including the degenerate one.
        """
        if self.kind == SHIFT_K and self.k == 0:
            return Transition(SHIFT)
        if self.kind == SWAP_K and self.k == 1:
            return Transition(SWAP)
        return self


def shift() -> Transition:
    return Transition(SHIFT)


def shift_k(k: int) -> Transition:
    return Transition(SHIFT_K, k=k)


def swap() -> Transition:
    return Transition(SWAP)


def swap_k(k: int) -> Transition:
    return Transition(SWAP_K, k=k)


def nt(label: str) -> Transition:
    return Transition(NT, label=label)


def reduce_() -> Transition:
    return Transition(REDUCE)


def reduce_l(label: str) -> Transition:
    return Transition(REDUCE_L, label=label)


def reduce_kl(k: int, label: str) -> Transition:
    return Transition(REDUCE_KL, k=k, label=label)


def finish() -> Transition:
    return Transition(FINISH)


_TOKEN_RES = [
    (re.compile(r"SHIFT#(\d+)$"), lambda m: shift_k(int(m.group(1)))),
    (re.compile(r"SWAP#(\d+)$"), lambda m: swap_k(int(m.group(1)))),
    (re.compile(r"REDUCE#(\d+)\((.+)\)$"), lambda m: reduce_kl(int(m.group(1)), m.group(2))),
    (re.compile(r"NT\((.+)\)$"), lambda m: nt(m.group(1))),
    (re.compile(r"REDUCE\((.+)\)$"), lambda m: reduce_l(m.group(1))),
    (re.compile(r"SHIFT$"), lambda m: shift()),
    (re.compile(r"SWAP$"), lambda m: swap()),
    (re.compile(r"REDUCE$"), lambda m: reduce_()),
    (re.compile(r"FINISH$"), lambda m: finish()),
]


def parse_transition(text: str) -> Transition:
    for pattern, build in _TOKEN_RES:
        matched = pattern.fullmatch(text)
        if matched:
            try:
                return build(matched)
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
class WordItem:
    position: int

    @property
    def min_position(self) -> int:
        return self.position


@dataclass(frozen=True)
class MarkerItem:
    """An open non-terminal pushed by NT(X); never counts as material."""

    label: str


@dataclass(frozen=True)
class ConstituentItem:
    node: Constituent

    @property
    def min_position(self) -> int:
        return min(self.node.positions)


StackItem = Union[WordItem, MarkerItem, ConstituentItem]
MaterialItem = Union[WordItem, ConstituentItem]  # what SWAP and REDUCE may touch


@dataclass(frozen=True)
class Configuration:
    """Stack, buffer, and the terminal flag used by in-order and bottom-up.

    The buffer usually holds word items in sentence order; a SWAP may
    return a built constituent to the buffer front, after which SHIFT
    re-shifts it like any other item.  Every word position occurs
    exactly once across the stack items' yields and the buffer.
    """

    stack: tuple[StackItem, ...]
    buffer: tuple[MaterialItem, ...]
    finished: bool = False


def initial(n_words: int) -> Configuration:
    """Empty stack, all words in the buffer in sentence order."""
    if n_words < 1:
        raise ValueError("a configuration needs at least one word")
    return Configuration(stack=(), buffer=tuple(WordItem(i) for i in range(n_words)))


# --- schemes --------------------------------------------------------------

TOP_DOWN = "topdown"
IN_ORDER = "inorder"
BOTTOM_UP = "bottomup"
DISCO_NONE = "none"
DISCO_SWAP = "swap"
DISCO_SWAP_K = "swapk"
DISCO_SHIFT_K = "shiftk"

_BASES = (TOP_DOWN, IN_ORDER, BOTTOM_UP)
_DISCOS = (DISCO_NONE, DISCO_SWAP, DISCO_SWAP_K, DISCO_SHIFT_K)


@dataclass(frozen=True)
class Scheme:
    """A linearization scheme: base system, reordering flavor, enrichment.

    The shipped combinations mirror the ones that are actually useful:
    SWAP works with every base, SWAP#k and SHIFT#k only with in-order,
    and `enriched` (labels on REDUCE) only with top-down or in-order on
    continuous material.
    """

    base: str
    disco: str = DISCO_NONE
    enriched: bool = False

    def __post_init__(self) -> None:
        if self.base not in _BASES:
            raise ValueError(f"unknown base system {self.base!r}")
        if self.disco not in _DISCOS:
            raise ValueError(f"unknown reordering flavor {self.disco!r}")
        if self.disco in (DISCO_SWAP_K, DISCO_SHIFT_K) and self.base != IN_ORDER:
            raise ValueError(f"{self.disco} is only supported with {IN_ORDER}")
        if self.enriched and (self.base == BOTTOM_UP or self.disco != DISCO_NONE):
            raise ValueError("enriched REDUCE requires topdown or inorder without reordering")

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
        reduce_kind = REDUCE_L if self.enriched else REDUCE
        if self.base == BOTTOM_UP:
            kinds = {SHIFT, REDUCE_KL, FINISH}
        elif self.base == IN_ORDER:
            kinds = {SHIFT, NT, reduce_kind, FINISH}
        else:
            kinds = {SHIFT, NT, reduce_kind}
        if self.disco == DISCO_SWAP:
            kinds.add(SWAP)
        elif self.disco == DISCO_SWAP_K:
            kinds.add(SWAP_K)
        elif self.disco == DISCO_SHIFT_K:
            kinds.discard(SHIFT)  # every shift is spelled SHIFT#k, even #0
            kinds.add(SHIFT_K)
        return frozenset(kinds)


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


SHIPPED_SCHEMES: tuple[Scheme, ...] = (
    Scheme(TOP_DOWN),
    Scheme(TOP_DOWN, enriched=True),
    Scheme(IN_ORDER),
    Scheme(IN_ORDER, enriched=True),
    Scheme(BOTTOM_UP),
    Scheme(TOP_DOWN, DISCO_SWAP),
    Scheme(IN_ORDER, DISCO_SWAP),
    Scheme(BOTTOM_UP, DISCO_SWAP),
    Scheme(IN_ORDER, DISCO_SWAP_K),
    Scheme(IN_ORDER, DISCO_SHIFT_K),
)


# --- legality and application ---------------------------------------------

def _is_material(item: StackItem) -> bool:
    return not isinstance(item, MarkerItem)


def topmost_marker(stack: tuple[StackItem, ...]) -> int | None:
    for i in range(len(stack) - 1, -1, -1):
        if isinstance(stack[i], MarkerItem):
            return i
    return None


def _swap_guard(config: Configuration, k: int) -> str | None:
    # the k items below the top move; markers never move and the moved
    # items must precede the top in original order, so a swap cannot be
    # undone by another swap
    if len(config.stack) < k + 1:
        return f"needs {k + 1} stack items, have {len(config.stack)}"
    top = config.stack[-1]
    if not _is_material(top):
        return "stack top is an open non-terminal"
    for i in range(2, k + 2):
        below = config.stack[-i]
        if not _is_material(below):
            return "an open non-terminal sits among the items to move"
        if below.min_position >= top.min_position:
            return "items are no longer in original order (swap would undo a swap)"
    return None


def illegality(config: Configuration, t: Transition, scheme: Scheme) -> str | None:
    """The violated guard as text, or None when `t` is legal."""
    if config.finished:
        return "configuration is finished"
    if t.kind not in scheme.kinds:
        return f"{t} is not part of scheme {scheme}"

    if t.kind == SHIFT:
        return None if config.buffer else "buffer is empty"
    if t.kind == SHIFT_K:
        if len(config.buffer) <= t.k:
            return f"buffer has {len(config.buffer)} items, none at index {t.k}"
        return None
    if t.kind == SWAP:
        return _swap_guard(config, 1)
    if t.kind == SWAP_K:
        return _swap_guard(config, t.k)
    if t.kind == NT:
        if scheme.base == TOP_DOWN:
            if is_terminal(config, scheme):
                return "configuration is terminal"
            return None
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
        if len(config.stack) < t.k:
            return f"needs {t.k} stack items, have {len(config.stack)}"
        if not all(_is_material(item) for item in config.stack[-t.k:]):
            return "an open non-terminal sits among the top items"
        return None
    if t.kind == FINISH:
        if config.buffer:
            return "buffer is not empty"
        if len(config.stack) != 1 or not isinstance(config.stack[0], ConstituentItem):
            return "stack is not a single constituent"
        return None
    raise ValueError(f"unknown transition kind {t.kind!r}")


def legal(config: Configuration, t: Transition, scheme: Scheme) -> bool:
    return illegality(config, t, scheme) is None


def as_child(item: MaterialItem) -> Constituent | int:
    return item.position if isinstance(item, WordItem) else item.node


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
        marker_index = topmost_marker(stack)
        marker = stack[marker_index]
        above = stack[marker_index + 1:]
        if scheme.base == TOP_DOWN:
            # (S|X|sk|..|s0, B) => (S|X_{sk..s0}, B)
            children = tuple(as_child(item) for item in above)
            below = stack[:marker_index]
        else:
            # (S|sk|X|sk-1|..|s0, B) => (S|X_{sk..s0}, B)
            first = stack[marker_index - 1]
            children = (as_child(first),) + tuple(as_child(i) for i in above)
            below = stack[:marker_index - 1]
        node = Constituent(marker.label, children)
        return Configuration(below + (ConstituentItem(node),), buffer)

    if t.kind == REDUCE_KL:
        # (S|sk-1|..|s0, B) => (S|X_{sk-1..s0}, B)
        children = tuple(as_child(item) for item in stack[-t.k:])
        node = Constituent(t.label, children)
        return Configuration(stack[:-t.k] + (ConstituentItem(node),), buffer)

    if t.kind == FINISH:
        return Configuration(stack, buffer, finished=True)

    raise ValueError(f"unknown transition kind {t.kind!r}")


def is_terminal(config: Configuration, scheme: Scheme) -> bool:
    """Top-down terminates on shape alone; the others need FINISH."""
    if scheme.base == TOP_DOWN:
        return (not config.buffer and len(config.stack) == 1
                and isinstance(config.stack[0], ConstituentItem))
    return config.finished


def extract_tree(config: Configuration, sentence: tuple[str, ...],
                 scheme: Scheme) -> ConstituentTree:
    """Read the finished parse out of a terminal configuration."""
    if not is_terminal(config, scheme):
        raise IllegalTransition("configuration is not terminal")
    root_item = config.stack[0]
    assert isinstance(root_item, ConstituentItem)
    return ConstituentTree(sentence, root_item.node)
