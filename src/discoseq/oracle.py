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

    def fetch(position: int) -> None:
        buffer_index = next(
            i for i, item in enumerate(config.buffer)
            if isinstance(item, tr.WordItem) and item.position == position)
        if scheme.disco == tr.DISCO_SHIFT_K:
            emit(tr.shift_k(buffer_index))
            return
        for _ in range(buffer_index + 1):
            emit(tr.shift())
        if buffer_index == 0:
            return
        if scheme.disco == tr.DISCO_SWAP_K:
            emit(tr.swap_k(buffer_index))
        elif scheme.disco == tr.DISCO_SWAP:
            for _ in range(buffer_index):
                emit(tr.swap())
        else:  # unreachable for continuous trees, guarded above
            raise OracleInvariantError("reordering needed under a plain scheme")

    def close(label: str) -> None:
        emit(tr.reduce_l(label) if scheme.enriched else tr.reduce_())

    def handle(child: Constituent | int) -> None:
        if isinstance(child, int):
            fetch(child)
        else:
            walk(child)

    def walk(node: Constituent) -> None:
        children = node.children  # already in canonical order
        if scheme.base == tr.TOP_DOWN:
            emit(tr.nt(node.label))
            for child in children:
                handle(child)
            close(node.label)
        elif scheme.base == tr.IN_ORDER:
            handle(children[0])
            emit(tr.nt(node.label))
            for child in children[1:]:
                handle(child)
            close(node.label)
        else:
            for child in children:
                handle(child)
            emit(tr.reduce_kl(len(children), node.label))

    walk(tree.root)
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
