"""Replaying transition sequences into trees, repairing as needed.

Model output is not guaranteed to be well formed, so decoding is total
on non-empty sentences: every token sequence produces a valid tree plus
a log of the repairs that were necessary.  Gold sequences decode with an
empty log.

    R1  an illegal token is skipped
    R2  tokens ran out with buffer items left: shift them implicitly
    R3  tokens ran out with leftovers on the stack: discard unmatched
        open non-terminals and, if more than one item (or a bare word)
        remains, wrap everything in a fallback-labeled constituent
    R4  SHIFT#k beyond the buffer: clamp k to the largest legal k
    R5  REDUCE#k beyond the available items: clamp k to the largest legal k

Decoding is deterministic; repairs never reorder the words.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import transitions as tr
from .tree import Constituent, ConstituentTree
from .transitions import Configuration, Scheme, Transition


@dataclass(frozen=True)
class Repair:
    rule: str    # "R1" .. "R5"
    step: int    # token index; -1 for end-of-sequence repairs
    detail: str


@dataclass(frozen=True)
class LabelMismatch:
    """An enriched REDUCE whose carried label disagrees with its marker.

    The marker's label wins for the structure; the disagreement is
    recorded here because it is a labeling inconsistency, not a repair.
    """

    step: int
    marker_label: str
    carried_label: str


@dataclass(frozen=True)
class DecodeResult:
    tree: ConstituentTree
    repairs: tuple[Repair, ...]
    label_mismatches: tuple[LabelMismatch, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.repairs


def decode(sentence: Sequence[str], tokens: Iterable[Transition],
           scheme: Scheme, fallback_label: str = "ROOT") -> DecodeResult:
    """Rebuild a tree from tokens over the given words; always succeeds.

    Each token's guard is checked once, by `apply`; only a token that
    fails it is checked again, to clamp it (R4/R5) or name the guard (R1).
    """
    sentence = tuple(sentence)
    if not sentence:
        raise ValueError("cannot decode over an empty sentence")
    config = tr.initial(len(sentence))
    repairs: list[Repair] = []
    mismatches: list[LabelMismatch] = []

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
                mismatches.append(LabelMismatch(step, marker.label, token.label))
        config = after

    if not tr.is_terminal(config, scheme):
        config, end_repairs = _force_terminal(config, scheme, fallback_label)
        repairs.extend(end_repairs)
    tree = tr.extract_tree(config, sentence, scheme)
    return DecodeResult(tree, tuple(repairs), tuple(mismatches))


def _force_terminal(config: Configuration, scheme: Scheme,
                    fallback_label: str) -> tuple[Configuration, list[Repair]]:
    repairs: list[Repair] = []
    if config.buffer:
        count = len(config.buffer)
        stack = config.stack + config.buffer
        config = Configuration(stack, ())
        repairs.append(Repair("R2", -1, f"shifted {count} leftover buffer items"))

    material = [i for i in config.stack if not isinstance(i, tr.MarkerItem)]
    markers = len(config.stack) - len(material)
    needs_wrap = len(material) != 1 or isinstance(material[0], int)
    if markers or needs_wrap:
        detail = []
        if markers:
            detail.append(f"discarded {markers} unmatched open non-terminals")
        if needs_wrap:
            detail.append(f"wrapped {len(material)} items in {fallback_label!r}")
            material = [Constituent(fallback_label, tuple(material))]
        repairs.append(Repair("R3", -1, "; ".join(detail)))
    config = Configuration((material[0],), (), finished=True)
    return config, repairs
