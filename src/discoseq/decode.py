"""Replaying transition sequences into trees, repairing as needed.

Model output is not guaranteed to be well formed, so decoding is total
on non-empty sentences: every token sequence produces a valid tree plus
a log of the repairs that were necessary.  Gold sequences decode with an
empty log.

    R1  an illegal token is skipped
    R2  tokens ran out with buffer items left: shift them implicitly
    R3  tokens ran out with leftovers on the stack: discard unmatched
        open non-terminals and, if more than one item (or a bare word)
        remains, wrap everything in one constituent labeled ROOT
    R4  SHIFT#k beyond the buffer: clamp k to the largest legal k
    R5  REDUCE#k beyond the available items: clamp k to the largest legal k
    R6  an enriched REDUCE(X) closes an open NT(Y) with Y != X: keep Y;
        the tree is the one REDUCE would have built

Decoding is deterministic; repairs never reorder the words.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import transitions as tr
from .tree import Constituent, ConstituentTree
from .transitions import Configuration, Scheme, Transition


@dataclass(frozen=True)
class Repair:
    rule: str    # "R1" .. "R6"
    step: int    # token index; -1 for end-of-sequence repairs
    detail: str


@dataclass(frozen=True)
class DecodeResult:
    tree: ConstituentTree
    repairs: tuple[Repair, ...]


def decode(sentence: Sequence[str], tokens: Iterable[Transition],
           scheme: Scheme) -> DecodeResult:
    """Rebuild a tree from tokens over the given words; always succeeds.

    Each token's guard is checked once, by `apply`; only a token that
    fails it is checked again, to clamp it (R4/R5) or name the guard (R1).
    """
    sentence = tuple(sentence)
    if not sentence:
        raise ValueError("cannot decode over an empty sentence")
    config = tr.initial(len(sentence))
    repairs: list[Repair] = []

    for step, token in enumerate(tokens):
        try:
            after = tr.apply(config, token, scheme)
        except tr.IllegalTransition:
            rule = {tr.SHIFT_K: "R4", tr.REDUCE_KL: "R5"}.get(token.kind)
            largest = tr.legal(config, scheme).get(token.kind, -1) if rule else -1
            if largest >= 0:
                fixed = Transition(token.kind, largest, token.label)
                repairs.append(Repair(rule, step, f"clamped {token} to {fixed}"))
                config = tr.apply(config, fixed, scheme)
            else:
                reason = tr.illegality(config, token, scheme)
                repairs.append(Repair("R1", step, f"skipped {token}: {reason}"))
            continue
        if token.kind == tr.REDUCE_L:
            marker = config.stack[tr.topmost_marker(config.stack)]
            if marker.label != token.label:
                repairs.append(Repair("R6", step, f"kept NT({marker.label}) over {token}"))
        config = after

    if not tr.is_terminal(config, scheme):
        config = _force_terminal(config, repairs)
    tree = tr.extract_tree(config, sentence, scheme)
    return DecodeResult(tree, tuple(repairs))


def _force_terminal(config: Configuration, repairs: list[Repair]) -> Configuration:
    """The finished configuration that R2 and R3 make, logged to `repairs`."""
    if config.buffer:
        repairs.append(Repair("R2", -1, f"shifted {len(config.buffer)} leftover buffer items"))
        config = Configuration(config.stack + config.buffer, ())

    material = [i for i in config.stack if not isinstance(i, tr.MarkerItem)]
    markers = len(config.stack) - len(material)
    detail = [f"discarded {markers} unmatched open non-terminals"] if markers else []
    if len(material) != 1 or isinstance(material[0], int):
        detail.append(f"wrapped {len(material)} items in 'ROOT'")
        material = [Constituent("ROOT", tuple(material))]
    if detail:
        repairs.append(Repair("R3", -1, "; ".join(detail)))
    return Configuration((material[0],), (), finished=True)
