"""Constituent trees over possibly discontinuous yields.

A constituent is a labeled node whose children are word positions (plain
ints) or other constituents.  The yield of a node is the set of sentence
positions it covers, stored as one int with bit p set for position p;
a node is discontinuous when those bits have gaps.  That int is the one
form of a position set in the package: mask pairs and scored brackets
hold the same bits, and `_bit_positions` lists them.  Children are stored
sorted by the smallest position they cover, so structural equality is
canonical: two trees over the same sentence are equal exactly when they
contain the same labeled yields arranged the same way.  Values are
immutable.  Every walk is a loop over an explicit stack, so no recursion
limit bounds a tree's depth: equality compares node pairs from the roots
down, and a hash reads only label and yield.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

Child = Union["Constituent", int]

_EMPTY_SORT_KEY = float("inf")  # empty children sort last; validate() flags them
_set = object.__setattr__  # how a frozen value sets its own fields


def min_position(child: Child) -> float:
    """The lowest position a child covers; children are sorted by it."""
    return child if isinstance(child, int) else child._low


def _lowest(bits: int) -> int:
    """The lowest set bit's position; bits must be non-zero."""
    return (bits & -bits).bit_length() - 1


def _bit_positions(bits: int) -> list[int]:
    """The positions of the set bits, in ascending order."""
    return [p for p, digit in enumerate(reversed(bin(bits))) if digit == "1"]


def _gapless(bits: int) -> bool:
    """True when the set bits form one run; adding the lowest bit clears it."""
    return (bits + (bits & -bits)) & bits == 0


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Constituent:
    """A labeled node; children are word positions or nested constituents."""

    label: str
    children: tuple[Child, ...]
    _bits: int  # the yield, bit p set for position p
    _low: float  # its lowest position

    def __init__(self, label: str, children: Sequence[Child]) -> None:
        if children.__class__ is not tuple:
            children = tuple(children)
        bits, last, ordered = 0, -1, True
        for child in children:
            if isinstance(child, int):
                if child < 0:
                    raise ValueError(f"word position {child} is negative")
                low = child
                bits |= 1 << child
            else:
                low = child._low
                bits |= child._bits
            if low < last:
                ordered = False
            last = low
        if not ordered:
            children = tuple(sorted(children, key=min_position))
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "_bits", bits)
        _set(self, "_low", (bits & -bits).bit_length() - 1 if bits else _EMPTY_SORT_KEY)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]  # node pairs still to compare
        while pending:
            a, b = pending.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if isinstance(x, Constituent) and isinstance(y, Constituent):
                    pending.append((x, y))
                elif x != y:  # two positions, or a position and a node
                    return False
        return True

    def __hash__(self) -> int:
        # equal trees have equal labels and yields
        return hash((self.label, self._bits))

    def __repr__(self) -> str:
        """The form `dataclass` would generate, written by a loop."""
        parts = []
        pending: list[tuple[bool, object]] = [(False, self)]  # (is text, item)
        while pending:
            is_text, item = pending.pop()
            if is_text:
                parts.append(item)
            elif isinstance(item, Constituent):
                parts.append(f"{type(item).__qualname__}(label={item.label!r}, children=(")
                pending.append((True, ",))" if len(item.children) == 1 else "))"))
                for i in reversed(range(len(item.children))):
                    pending.append((False, item.children[i]))
                    if i:
                        pending.append((True, ", "))
            else:
                parts.append(repr(item))
        return "".join(parts)

    def constituents(self) -> Iterator["Constituent"]:
        """Pre-order iteration over this node and all nested constituents."""
        pending = [self]  # next on top
        while pending:
            node = pending.pop()
            yield node
            for child in reversed(node.children):
                if isinstance(child, Constituent):
                    pending.append(child)


@dataclass(frozen=True)
class ConstituentTree:
    """A sentence plus a root constituent covering every position."""

    sentence: tuple[str, ...]
    root: Constituent

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentence", tuple(self.sentence))

    def __len__(self) -> int:
        return len(self.sentence)


@dataclass(frozen=True)
class Violation:
    """First invariant broken by a tree, with the offending node."""

    rule: str
    detail: str


def is_continuous(tree: ConstituentTree) -> bool:
    """True when every constituent covers a consecutive block of positions."""
    return all(_gapless(c._bits) for c in tree.root.constituents())


def discontinuous_constituents(tree: ConstituentTree) -> list[Constituent]:
    """All constituents with a gapped yield, in pre-order."""
    return [c for c in tree.root.constituents() if not _gapless(c._bits)]


def canonical_leaf_order(tree: ConstituentTree) -> tuple[int, ...]:
    """Word positions in depth-first traversal order.

    This is the identity permutation for continuous trees.  Relabeling
    each leaf by its rank in this order always produces a continuous
    tree, because a depth-first traversal emits every subtree's leaves
    as one consecutive run.
    """
    order: list[int] = []
    pending: list[Child] = [tree.root]  # next on top
    while pending:
        item = pending.pop()
        if isinstance(item, int):
            order.append(item)
        else:
            pending.extend(reversed(item.children))
    return tuple(order)


def permute_leaves(tree: ConstituentTree, permutation: Sequence[int]) -> ConstituentTree:
    """Relabel leaf p as permutation[p], moving words along with positions."""
    n = len(tree.sentence)
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must rearrange exactly the positions 0..n-1")

    built: dict[int, Constituent] = {}  # id of a node -> its copy, children first
    for node in reversed(list(tree.root.constituents())):
        built[id(node)] = Constituent(node.label, tuple(
            permutation[child] if isinstance(child, int) else built[id(child)]
            for child in node.children))

    sentence = [""] * n
    for old, new in enumerate(permutation):
        sentence[new] = tree.sentence[old]
    return ConstituentTree(tuple(sentence), built[id(tree.root)])


def reorder_canonical(tree: ConstituentTree) -> ConstituentTree:
    """Relabel leaves by canonical order rank; the result is continuous."""
    order = canonical_leaf_order(tree)
    rank = {position: i for i, position in enumerate(order)}
    return permute_leaves(tree, [rank[p] for p in range(len(tree.sentence))])


def validate(tree: ConstituentTree) -> Violation | None:
    """Check tree invariants; return the first violation, or None if all hold.

    Construction normalizes child order but deliberately does not reject
    bad shapes, so hand-built or repaired trees can be inspected here:
    non-empty constituents, pairwise disjoint child yields, leaf
    positions inside the sentence, and a root that covers every word.
    """
    n = len(tree.sentence)
    for node in tree.root.constituents():
        if not node.children:
            return Violation("empty-constituent", f"constituent {node.label!r} has no children")
        seen = 0
        for child in node.children:
            bits = 1 << child if isinstance(child, int) else child._bits
            if seen & bits:
                return Violation(
                    "overlapping-children",
                    f"children of {node.label!r} both claim position "
                    f"{_lowest(seen & bits)}",
                )
            seen |= bits
        if node._bits >> n:
            return Violation(
                "leaf-out-of-range",
                f"constituent {node.label!r} covers position "
                f"{n + _lowest(node._bits >> n)}, but the sentence has {n} words",
            )
    missing = ((1 << n) - 1) & ~tree.root._bits
    if missing:
        return Violation(
            "incomplete-root",
            f"root {tree.root.label!r} does not cover positions {_bit_positions(missing)}",
        )
    return None
