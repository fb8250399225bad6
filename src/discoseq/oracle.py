"""Gold transition sequences: the encoder half of tree <-> sequence.

The oracle walks the tree in canonical (depth-first) leaf order and
fetches each word eagerly: buffer items in the way are shifted through
and, in the swap flavors, swapped right back once the needed word is on
the stack.  A needed word at buffer index j therefore costs

    1 + 2j   tokens with SWAP        (j extra shifts, j swaps),
    2 + j    tokens with SWAP#k      (the j swaps merge into one),
    1        token  with SHIFT#k     (shift it from index j directly),

which is also why the three flavors order the same on sequence length.
Continuous trees never need reordering, so there j is always 0.

The oracle only moves words, so its buffer is always the unconsumed word
positions in sentence order, a plain list.  Its self-check is one
`decode` replay of the result, which checks each token's guard once and
must rebuild exactly the input tree without a repair.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import transitions as tr
from .decode import decode
from .tree import Constituent, ConstituentTree, is_continuous, validate
from .transitions import Scheme, Transition


class EncodeError(ValueError):
    """The tree cannot be encoded under the requested scheme."""

    index: int | None = None  # the tree's position, set by functions of many trees


@contextmanager
def _tree_at(index: int):
    """Give an EncodeError raised in the block the index of its tree."""
    try:
        yield
    except EncodeError as err:
        err.index = index
        raise


class OracleInvariantError(AssertionError):
    """The oracle's own replay check failed; this is a bug, not bad input."""


# tokens are immutable, so encodings share them: one per (kind, k, label)
@lru_cache(maxsize=4096)
def _token(kind: str, k: int | None = None, label: str | None = None) -> Transition:
    try:
        return Transition(kind, k, label)
    except ValueError as err:  # a label that no token can carry
        raise EncodeError(str(err)) from None


_SHIFT, _SWAP, _REDUCE, _FINISH = map(_token, (tr.SHIFT, tr.SWAP, tr.REDUCE, tr.FINISH))


def _fetch(buffer_index: int, scheme: Scheme) -> list[Transition]:
    """Tokens that bring the word at `buffer_index` to the stack top."""
    if scheme.disco == tr.DISCO_SHIFT_K:
        return [_token(tr.SHIFT_K, buffer_index)]
    shifts = [_SHIFT] * (buffer_index + 1)
    if buffer_index == 0:
        return shifts
    if scheme.disco == tr.DISCO_SWAP_K:
        return shifts + [_token(tr.SWAP_K, buffer_index)]
    if scheme.disco == tr.DISCO_SWAP:
        return shifts + [_SWAP] * buffer_index
    # unreachable for continuous trees, guarded in encode
    raise OracleInvariantError("reordering needed under a plain scheme")


def _close(node: Constituent, scheme: Scheme) -> Transition:
    if scheme.base == tr.BOTTOM_UP:
        return _token(tr.REDUCE_KL, len(node.children), node.label)
    if scheme.enriched:
        return _token(tr.REDUCE_L, None, node.label)
    return _REDUCE


def encode(tree: ConstituentTree, scheme: Scheme) -> list[Transition]:
    """Linearize a tree into transition tokens under the given scheme.

    Every prefix of the result is legal, and replaying the whole
    sequence rebuilds exactly the input tree.  Both are verified before
    returning by one `decode` of the result, which must need no repair;
    otherwise OracleInvariantError.
    """
    violation = validate(tree)
    if violation is not None:
        raise EncodeError(f"invalid tree: {violation.rule}: {violation.detail}")
    if scheme.disco == tr.DISCO_NONE and not is_continuous(tree):
        raise EncodeError(
            f"scheme {scheme} cannot express discontinuous constituents")

    remaining = list(range(len(tree.sentence)))  # the oracle's buffer
    out: list[Transition] = []
    # one loop over (node, index of its next child); top-down opens a
    # node before its first child, in-order after it, bottom-up never
    open_at = {tr.TOP_DOWN: 0, tr.IN_ORDER: 1}.get(scheme.base)
    pending: list[tuple[Constituent, int]] = [(tree.root, 0)]
    while pending:
        node, index = pending.pop()
        if index == open_at:
            out.append(_token(tr.NT, None, node.label))
        if index == len(node.children):
            out.append(_close(node, scheme))
            continue
        pending.append((node, index + 1))
        child = node.children[index]  # children are in canonical order
        if isinstance(child, Constituent):
            pending.append((child, 0))
        else:
            j = remaining.index(child)
            del remaining[j]
            out.extend(_fetch(j, scheme))

    if tr.FINISH in scheme.kinds:
        out.append(_FINISH)

    replay = decode(tree.sentence, out, scheme)
    if replay.repairs:
        first = replay.repairs[0]
        raise OracleInvariantError(f"oracle replay needed repairs, first {first.rule} "
                                   f"at step {first.step}: {first.detail}")
    if replay.tree != tree:
        raise OracleInvariantError("oracle replay does not rebuild the input tree")
    return out


@dataclass(frozen=True)
class VocabStats:
    """Token dictionary and maximum sequence length over a treebank."""

    dictionary: frozenset[str]
    size: int
    max_length: int


def vocab_stats(trees: Iterable[ConstituentTree], scheme: Scheme) -> VocabStats:
    """Dictionary size and max length of the scheme's encodings."""
    dictionary: set[str] = set()
    max_length = 0
    for index, tree in enumerate(trees):
        with _tree_at(index):
            tokens = encode(tree, scheme)
        max_length = max(max_length, len(tokens))
        dictionary.update(str(t) for t in tokens)
    return VocabStats(frozenset(dictionary), len(dictionary), max_length)
