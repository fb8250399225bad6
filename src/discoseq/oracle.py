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
"""

from dataclasses import dataclass
from typing import Iterable

from . import transitions as tr
from .tree import Constituent, ConstituentTree, is_continuous, validate
from .transitions import Scheme, Transition


class EncodeError(ValueError):
    """The tree cannot be encoded under the requested scheme."""


class OracleInvariantError(AssertionError):
    """The oracle's own replay check failed; this is a bug, not bad input."""


def _fetch(buffer_index: int, scheme: Scheme) -> list[Transition]:
    """Tokens that bring the word at `buffer_index` to the stack top."""
    if scheme.disco == tr.DISCO_SHIFT_K:
        return [tr.shift_k(buffer_index)]
    shifts = [tr.shift()] * (buffer_index + 1)
    if buffer_index == 0:
        return shifts
    if scheme.disco == tr.DISCO_SWAP_K:
        return shifts + [tr.swap_k(buffer_index)]
    if scheme.disco == tr.DISCO_SWAP:
        return shifts + [tr.swap()] * buffer_index
    # unreachable for continuous trees, guarded in encode
    raise OracleInvariantError("reordering needed under a plain scheme")


def _close(node: Constituent, scheme: Scheme) -> Transition:
    if scheme.base == tr.BOTTOM_UP:
        return tr.reduce_kl(len(node.children), node.label)
    return tr.reduce_l(node.label) if scheme.enriched else tr.reduce_()


def encode(tree: ConstituentTree, scheme: Scheme) -> list[Transition]:
    """Linearize a tree into transition tokens under the given scheme.

    Every prefix of the result is legal, and replaying the whole
    sequence rebuilds exactly the input tree (verified before
    returning).
    """
    violation = validate(tree)
    if violation is not None:
        raise EncodeError(f"invalid tree: {violation.rule}: {violation.detail}")
    if scheme.disco == tr.DISCO_NONE and not is_continuous(tree):
        raise EncodeError(
            f"scheme {scheme} cannot express discontinuous constituents")

    config = tr.initial(len(tree.sentence))
    out: list[Transition] = []

    def emit(t: Transition) -> None:
        nonlocal config
        config = tr.apply(config, t, scheme)
        out.append(t)

    # one loop over (node, index of its next child); top-down opens a
    # node before its first child, in-order after it, bottom-up never
    open_at = {tr.TOP_DOWN: 0, tr.IN_ORDER: 1}.get(scheme.base)
    pending: list[tuple[Constituent, int]] = [(tree.root, 0)]
    while pending:
        node, index = pending.pop()
        if index == open_at:
            emit(tr.nt(node.label))
        if index == len(node.children):
            emit(_close(node, scheme))
            continue
        pending.append((node, index + 1))
        child = node.children[index]  # children are in canonical order
        if isinstance(child, Constituent):
            pending.append((child, 0))
        else:
            for t in _fetch(config.buffer.index(child), scheme):
                emit(t)

    if tr.FINISH in scheme.kinds:
        emit(tr.finish())

    if not tr.is_terminal(config, scheme):
        raise OracleInvariantError("oracle did not reach a terminal configuration")
    rebuilt = tr.extract_tree(config, tree.sentence, scheme)
    if rebuilt != tree:
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
    for tree in trees:
        tokens = encode(tree, scheme)
        max_length = max(max_length, len(tokens))
        dictionary.update(str(t) for t in tokens)
    return VocabStats(frozenset(dictionary), len(dictionary), max_length)
