"""Labeled bracketing scores over aligned treebanks.

A tree is scored as a multiset of (label, yield) items, each yield an
int with bit p set for position p, so duplicate brackets each need a
partner on the other side.  Punctuation removal drops the surface forms
in DEFAULT_PUNCTUATION from every yield before matching; items whose
yield becomes empty disappear.  The discontinuous score restricts
matching to items whose yield has a real gap, where gaps containing
only removed punctuation do not count.  All ratios are micro-averaged
on a 0-100 scale.  Like `discoseq eval`, every function keeps
punctuation and the root node unless asked to drop them.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .tree import ConstituentTree

# Surface forms treated as punctuation, independent of part of speech.
DEFAULT_PUNCTUATION = frozenset(
    [",", ".", ":", ";", "''", "``", "-LRB-", "-RRB-", "!", "?"])


class MetricsError(ValueError):
    index: int | None = None  # the mismatched pair's position, set by `evaluate`


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float
    matched: int
    gold_total: int
    predicted_total: int
    zero_denominator: bool = False


@dataclass(frozen=True)
class PairCounts:
    """Matching counts for one gold/predicted tree pair."""

    matched: int
    gold_total: int
    predicted_total: int
    disc_matched: int
    disc_gold: int
    disc_predicted: int
    exact: bool


@dataclass(frozen=True)
class Report:
    labeled: Score
    discontinuous: Score
    exact_match: float
    trees: int
    per_sentence: tuple[PairCounts, ...]


def bracket_items(tree: ConstituentTree, remove_punctuation: bool = False,
                  ignore_root: bool = False) -> Counter:
    """Multiset of (label, yield) pairs for scoring, each yield an int
    with bit p set for position p.

    ignore_root drops the topmost node itself, not every node sharing
    its label.
    """
    kept = ~_removed_bits(tree, remove_punctuation)
    items: Counter = Counter()
    for node in tree.root.constituents():
        if ignore_root and node is tree.root:
            continue
        covered = node._bits & kept
        if covered:
            items[(node.label, covered)] += 1
    return items


def _removed_bits(tree: ConstituentTree, remove_punctuation: bool) -> int:
    if not remove_punctuation:
        return 0
    return sum(1 << i for i, word in enumerate(tree.sentence)
               if word in DEFAULT_PUNCTUATION)


def _has_gap(covered: int, removed: int) -> bool:
    """True when a position between covered's lowest and highest is neither
    covered nor removed."""
    span = (1 << covered.bit_length()) - (covered & -covered)
    return (covered | removed) & span != span


def pair_counts(gold: ConstituentTree, predicted: ConstituentTree,
                remove_punctuation: bool = False,
                ignore_root: bool = False) -> PairCounts:
    if list(gold.sentence) != list(predicted.sentence):
        raise MetricsError("sentence mismatch")
    gold_items = bracket_items(gold, remove_punctuation, ignore_root)
    predicted_items = bracket_items(predicted, remove_punctuation, ignore_root)
    matched = gold_items & predicted_items
    removed = _removed_bits(gold, remove_punctuation)

    def disc_total(items: Counter) -> int:
        return sum(count for (_, covered), count in items.items()
                   if _has_gap(covered, removed))

    return PairCounts(
        matched=sum(matched.values()),
        gold_total=sum(gold_items.values()),
        predicted_total=sum(predicted_items.values()),
        disc_matched=disc_total(matched),
        disc_gold=disc_total(gold_items),
        disc_predicted=disc_total(predicted_items),
        exact=gold.root == predicted.root,
    )


def _ratio(numerator: int, denominator: int) -> tuple[float, bool]:
    # An empty denominator means there was nothing to get wrong; by
    # convention that scores 100 and raises a flag.
    if denominator == 0:
        return 100.0, True
    return 100.0 * numerator / denominator, False


def _score(matched: int, gold_total: int, predicted_total: int) -> Score:
    precision, flag_p = _ratio(matched, predicted_total)
    recall, flag_r = _ratio(matched, gold_total)
    if precision + recall == 0.0:
        f1_value = 0.0
    else:
        f1_value = 2.0 * precision * recall / (precision + recall)
    return Score(precision=precision, recall=recall, f1=f1_value,
                 matched=matched, gold_total=gold_total,
                 predicted_total=predicted_total,
                 zero_denominator=flag_p or flag_r)


def summarize(counts: Sequence[PairCounts]) -> Report:
    labeled = _score(sum(c.matched for c in counts),
                     sum(c.gold_total for c in counts),
                     sum(c.predicted_total for c in counts))
    discontinuous = _score(sum(c.disc_matched for c in counts),
                           sum(c.disc_gold for c in counts),
                           sum(c.disc_predicted for c in counts))
    if counts:
        exact = sum(1 for c in counts if c.exact) / len(counts)
    else:
        exact = 1.0
    return Report(labeled=labeled, discontinuous=discontinuous,
                  exact_match=exact, trees=len(counts), per_sentence=tuple(counts))


def evaluate(gold: Sequence[ConstituentTree], predicted: Sequence[ConstituentTree],
             remove_punctuation: bool = False,
             ignore_root: bool = False) -> Report:
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise MetricsError(
            f"treebank sizes differ: {len(gold)} gold vs {len(predicted)} predicted")
    counts = []
    for index, (g, p) in enumerate(zip(gold, predicted)):
        try:
            counts.append(pair_counts(g, p, remove_punctuation, ignore_root))
        except MetricsError as err:
            err.index = index
            raise
    return summarize(counts)
