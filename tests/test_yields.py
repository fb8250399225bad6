"""Integer yields against set-based references.

A `Constituent` keeps its yield as one int, bit p for position p, and
`metrics` scores on those ints.  Every reference here is the set
arithmetic that the ints replace, written out on position sets and
compared with the ints read back as sets (`conftest.bit_set`): yields,
lowest positions, child order, equality and hashing, contiguity, the
`validate` rules, `bracket_items` and `pair_counts`.
Nodes are built both from `conftest.trees()` and by hand, with children
in whatever order they are drawn and with empty, repeated, overlapping
and out-of-range children.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from conftest import WORDS, bit_set, trees
from discoseq.metrics import DEFAULT_PUNCTUATION, PairCounts, pair_counts
from discoseq.tree import _gapless, min_position

_EMPTY = float("inf")


def _ref_positions(child) -> set[int]:
    if isinstance(child, int):
        return {child}
    return set().union(*map(_ref_positions, child.children))


def _ref_low(child) -> float:
    return min(_ref_positions(child), default=_EMPTY)


def _ref_consecutive(positions: set[int]) -> bool:
    return not positions or max(positions) - min(positions) + 1 == len(positions)


def _ref_validate(tree: dq.ConstituentTree) -> tuple[str, str] | None:
    n = len(tree.sentence)
    for node in tree.root.constituents():
        if not node.children:
            return "empty-constituent", f"constituent {node.label!r} has no children"
        seen: set[int] = set()
        for child in node.children:
            overlap = seen & _ref_positions(child)
            if overlap:
                return ("overlapping-children",
                        f"children of {node.label!r} both claim position {min(overlap)}")
            seen |= _ref_positions(child)
        outside = sorted(p for p in _ref_positions(node) if not 0 <= p < n)
        if outside:
            return ("leaf-out-of-range", f"constituent {node.label!r} covers position "
                    f"{outside[0]}, but the sentence has {n} words")
    missing = sorted(set(range(n)) - _ref_positions(tree.root))
    if missing:
        return "incomplete-root", f"root {tree.root.label!r} does not cover positions {missing}"
    return None


def _ref_items(tree: dq.ConstituentTree, remove_punctuation: bool,
               ignore_root: bool) -> Counter:
    removed = {i for i, word in enumerate(tree.sentence)
               if remove_punctuation and word in DEFAULT_PUNCTUATION}
    items: Counter = Counter()
    for node in tree.root.constituents():
        covered = frozenset(_ref_positions(node) - removed)
        if covered and not (ignore_root and node is tree.root):
            items[(node.label, covered)] += 1
    return items


def _ref_pair_counts(gold, predicted, remove_punctuation, ignore_root) -> PairCounts:
    removed = {i for i, word in enumerate(gold.sentence)
               if remove_punctuation and word in DEFAULT_PUNCTUATION}
    gold_items = _ref_items(gold, remove_punctuation, ignore_root)
    predicted_items = _ref_items(predicted, remove_punctuation, ignore_root)
    matched = gold_items & predicted_items

    def disc(items: Counter) -> int:
        return sum(count for (_, covered), count in items.items()
                   if any(p not in covered and p not in removed
                          for p in range(min(covered) + 1, max(covered))))

    return PairCounts(sum(matched.values()), sum(gold_items.values()),
                      sum(predicted_items.values()), disc(matched), disc(gold_items),
                      disc(predicted_items), gold.root == predicted.root)


# a node spec is (label, children), a child being a position or a spec; the
# children are built in the order drawn, which need not be canonical
_SPECS = st.recursive(
    st.tuples(st.sampled_from("AB"), st.lists(st.integers(0, 5), max_size=3)),
    lambda inner: st.tuples(st.sampled_from("AB"),
                            st.lists(st.integers(0, 5) | inner, max_size=3)),
    max_leaves=10)


def _build(spec) -> dq.Constituent:
    label, children = spec
    return dq.Constituent(label, tuple(
        child if isinstance(child, int) else _build(child) for child in children))


def _check_node(spec, node: dq.Constituent) -> None:
    """Yield, lowest position and child order of `node`, built from `spec`."""
    drawn = [child if isinstance(child, int) else _build(child) for child in spec[1]]
    order = sorted(range(len(drawn)), key=lambda i: _ref_low(drawn[i]))  # stable
    assert node.children == tuple(drawn[i] for i in order)
    assert bit_set(node._bits) == frozenset(_ref_positions(node))
    assert min_position(node) == _ref_low(node)
    for i, child in zip(order, node.children):
        assert min_position(child) == _ref_low(child)
        if not isinstance(child, int):
            _check_node(spec[1][i], child)


@given(_SPECS, st.integers(1, 6))
@settings(deadline=None, max_examples=400)
def test_hand_built_nodes_match_the_set_references(spec, n):
    node = _build(spec)
    _check_node(spec, node)
    again = _build(spec)
    assert again == node and hash(again) == hash(node)
    tree = dq.ConstituentTree(tuple(WORDS[p % len(WORDS)] for p in range(n)), node)
    violation = dq.validate(tree)
    expected = _ref_validate(tree)
    assert (violation and (violation.rule, violation.detail)) == expected
    for c in node.constituents():
        assert _gapless(c._bits) == _ref_consecutive(_ref_positions(c))
    assert dq.is_continuous(tree) == all(_ref_consecutive(_ref_positions(c))
                                         for c in node.constituents())


def _shuffled(node: dq.Constituent, data) -> dq.Constituent:
    """A copy of `node` whose children, at every level, are handed over in
    a drawn order."""
    children = [child if isinstance(child, int) else _shuffled(child, data)
                for child in node.children]
    return dq.Constituent(node.label, tuple(data.draw(st.permutations(children))))


_PUNCTUATED = st.sampled_from(WORDS + (",", ".", "``", "-LRB-"))


@given(trees(), st.data())
@settings(deadline=None, max_examples=200)
def test_trees_match_the_set_references(tree, data):
    tree = dq.ConstituentTree(tuple(data.draw(_PUNCTUATED) for _ in tree.sentence),
                              tree.root)
    shuffled = _shuffled(tree.root, data)
    assert shuffled == tree.root and hash(shuffled) == hash(tree.root)
    assert dq.validate(tree) is None and _ref_validate(tree) is None
    for node in tree.root.constituents():
        assert bit_set(node._bits) == frozenset(_ref_positions(node))
        lows = [_ref_low(child) for child in node.children]
        assert lows == sorted(lows) and min_position(node) == min(lows)
    assert dq.is_continuous(tree) == all(_ref_consecutive(_ref_positions(c))
                                         for c in tree.root.constituents())
    n = len(tree.sentence)
    other = dq.permute_leaves(tree, data.draw(st.permutations(range(n))))
    predicted = dq.ConstituentTree(tree.sentence, other.root)
    for remove_punctuation in (False, True):
        for ignore_root in (False, True):
            for t in (tree, predicted):
                got = dq.bracket_items(t, remove_punctuation, ignore_root)
                assert (Counter({(label, bit_set(bits)): count
                                 for (label, bits), count in got.items()})
                        == _ref_items(t, remove_punctuation, ignore_root))
            assert (pair_counts(tree, predicted, remove_punctuation, ignore_root)
                    == _ref_pair_counts(tree, predicted, remove_punctuation, ignore_root))


@pytest.mark.parametrize("children", [(-1,), (0, -2), (dq.Constituent("A", (1,)), -1)])
def test_a_negative_position_is_refused_when_a_node_is_built(children):
    with pytest.raises(ValueError, match="negative"):
        dq.Constituent("X", children)
