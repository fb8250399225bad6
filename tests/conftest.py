"""Shared test machinery.

Two independent oracles live here so the incremental implementations can be
checked against something that shares no code with them:

* ``replay_pairs`` recomputes both mask position sets at every step by
  replaying a plain Configuration and reading positions off its stack and
  buffer directly.
* ``random_tree`` / ``trees`` build arbitrary valid constituency trees, first
  over contiguous spans and then through a leaf permutation, so discontinuity
  comes in through the same door real treebanks use.
* ``structurally_equal`` is tree equality written as the plain recursion
  over labels and children that ``Constituent.__eq__`` replaces.

``deep_line`` writes the nested lines that the depth tests read, and
``draw_biases`` gives a model the non-zero biases that fresh parameters lack.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

import discoseq as dq
from discoseq import transitions as tr

LABELS = ("S", "NP", "VP", "PP", "X")
WORDS = ("a", "b", "the", "dog", "ran", "off", "up")

ALL_SCHEMES = tuple(dq.SHIPPED_SCHEMES)
DISCO_SCHEMES = tuple(s for s in ALL_SCHEMES if s.disco != "none")
PLAIN_SCHEMES = tuple(s for s in ALL_SCHEMES if s.disco == "none" and not s.enriched)

FIG_LINE = (
    "(S (VP 0=Allerdings (PP 2=in 3=bestimmten 4=Vierteln)"
    " (PP 6=aus 7=Brunnen) 8=gewonnen) 1=wird 5=Wasser)"
)


def toks(line: str) -> list[tr.Transition]:
    return dq.parse_transitions(line)


# ---------------------------------------------------------------------------
# random trees

def random_subtree(rng: random.Random, span: tuple[int, ...], depth: int = 4) -> dq.Constituent:
    children: list[int | dq.Constituent] = []
    i = 0
    while i < len(span):
        size = rng.randint(1, len(span) - i)
        chunk = span[i : i + size]
        i += size
        if len(chunk) == 1 and (depth == 0 or rng.random() < 0.6):
            children.append(chunk[0])
        elif depth == 0:
            children.extend(chunk)
        else:
            children.append(random_subtree(rng, chunk, depth - 1))
    return dq.Constituent(rng.choice(LABELS), tuple(children))


def random_tree(rng: random.Random, max_leaves: int = 12, *,
                discontinuous: bool = True) -> dq.ConstituentTree:
    n = rng.randint(1, max_leaves)
    root = random_subtree(rng, tuple(range(n)))
    sentence = tuple(rng.choice(WORDS) for _ in range(n))
    tree = dq.ConstituentTree(sentence, root)
    if discontinuous and n > 1 and rng.random() < 0.7:
        perm = list(range(n))
        rng.shuffle(perm)
        tree = dq.permute_leaves(tree, perm)
    assert dq.validate(tree) is None
    return tree


@st.composite
def subtrees(draw, span: tuple[int, ...], depth: int) -> dq.Constituent:
    children: list[int | dq.Constituent] = []
    i = 0
    while i < len(span):
        size = draw(st.integers(1, len(span) - i))
        chunk = span[i : i + size]
        i += size
        if len(chunk) == 1 and (depth == 0 or draw(st.booleans())):
            children.append(chunk[0])
        elif depth == 0:
            children.extend(chunk)
        else:
            children.append(draw(subtrees(chunk, depth - 1)))
    return dq.Constituent(draw(st.sampled_from(LABELS)), tuple(children))


@st.composite
def trees(draw, max_leaves: int = 10, *, discontinuous: bool = True) -> dq.ConstituentTree:
    n = draw(st.integers(1, max_leaves))
    root = draw(subtrees(tuple(range(n)), 3))
    sentence = tuple(draw(st.sampled_from(WORDS)) for _ in range(n))
    tree = dq.ConstituentTree(sentence, root)
    if discontinuous and n > 1:
        tree = dq.permute_leaves(tree, draw(st.permutations(range(n))))
    return tree


def structurally_equal(a: dq.Constituent, b: dq.Constituent) -> bool:
    """Same label and pairwise equal children, the nested ones compared alike."""
    if a.label != b.label or len(a.children) != len(b.children):
        return False
    for x, y in zip(a.children, b.children):
        if isinstance(x, dq.Constituent) != isinstance(y, dq.Constituent):
            return False
        if not (structurally_equal(x, y) if isinstance(x, dq.Constituent) else x == y):
            return False
    return True


# ---------------------------------------------------------------------------
# deep trees

SHAPES = ("chain", "nest")


def deep_line(shape: str, depth: int) -> str:
    """A discbracket line nested `depth` constituents deep.

    A chain is unary down to its one word.  A nest is right-branching:
    every level holds the next word and the next level.
    """
    if shape == "chain":
        return "(X " * depth + "0=a" + ")" * depth
    return "".join(f"(X {i}=w{i} " for i in range(depth)) + ")" * depth


# ---------------------------------------------------------------------------
# position sets on the test side: the package holds every position set as an
# int with bit p set for position p, and these references compare sets

def bit_set(bits: int) -> frozenset[int]:
    """The positions of the set bits of `bits`."""
    return frozenset(p for p in range(bits.bit_length()) if bits >> p & 1)


def float_rows(bits, n_words: int):
    """`mask_rows` bits as the additive rows the model adds to scores:
    column c of a row is 0.0 where bit c of its little-endian bytes is
    set and -inf elsewhere, for the n_words + 1 columns."""
    import numpy as np
    values = [int.from_bytes(row.tobytes(), "little")
              for row in bits.reshape(-1, bits.shape[-1])]
    rows = [[0.0 if value >> c & 1 else -np.inf for c in range(n_words + 1)]
            for value in values]
    return np.array(rows).reshape(*bits.shape[:-1], n_words + 1)


def yield_set(node: dq.Constituent) -> frozenset[int]:
    """The positions of the leaves under `node`, collected by a walk."""
    found, pending = set(), [node]
    while pending:
        item = pending.pop()
        if isinstance(item, int):
            found.add(item)
        else:
            pending.extend(item.children)
    return frozenset(found)


# ---------------------------------------------------------------------------
# mask replay oracle

def _representative(item: tr.StackItem) -> int:
    if isinstance(item, int):
        return item
    assert isinstance(item, dq.Constituent)
    return min(yield_set(item))


def config_pair(config: tr.Configuration) -> tuple[frozenset[int], frozenset[int]]:
    stack = frozenset(
        _representative(e) for e in config.stack if not isinstance(e, tr.MarkerItem)
    )
    buffer = frozenset(_representative(e) for e in config.buffer)
    return stack, buffer


def replay_pairs(n_words: int, tokens, scheme: tr.Scheme):
    """From-scratch mask oracle: recompute the unmasked position sets at every
    step straight from a replayed Configuration."""
    config = dq.initial(n_words)
    pairs = [config_pair(config)]
    for token in tokens:
        config = dq.apply(config, token, scheme)
        pairs.append(config_pair(config))
    return pairs


# ---------------------------------------------------------------------------
# random legal walks (reach states the oracle never produces)

def candidate_pool(n_words: int, scheme: tr.Scheme) -> list[tr.Transition]:
    pool: list[tr.Transition] = []
    for kind in scheme.kinds:
        if kind == tr.SHIFT:
            pool.append(tr.Transition(tr.SHIFT))
        elif kind == tr.SHIFT_K:
            pool.extend(tr.Transition(tr.SHIFT_K, k) for k in range(n_words))
        elif kind == tr.SWAP:
            pool.append(tr.Transition(tr.SWAP))
        elif kind == tr.SWAP_K:
            pool.extend(tr.Transition(tr.SWAP_K, k) for k in range(1, 4))
        elif kind == tr.NT:
            pool.extend(tr.Transition(tr.NT, label=label) for label in LABELS[:3])
        elif kind == tr.REDUCE:
            pool.append(tr.Transition(tr.REDUCE))
        elif kind == tr.REDUCE_L:
            pool.extend(tr.Transition(tr.REDUCE_L, label=label) for label in LABELS[:3])
        elif kind == tr.REDUCE_KL:
            pool.extend(tr.Transition(tr.REDUCE_KL, k, label)
                        for k in range(1, 4) for label in LABELS[:3])
        elif kind == tr.FINISH:
            pool.append(tr.Transition(tr.FINISH))
    return pool


def is_legal(config: tr.Configuration, t: tr.Transition, scheme: tr.Scheme) -> bool:
    """The rule `legal`'s table states: k within the kind's largest legal k."""
    return (t.k or 0) <= dq.legal(config, scheme).get(t.kind, -1)


def random_walk(rng: random.Random, n_words: int, scheme: tr.Scheme,
                max_steps: int = 40) -> list[tr.Transition]:
    config = dq.initial(n_words)
    pool = candidate_pool(n_words, scheme)
    out: list[tr.Transition] = []
    while len(out) < max_steps:
        largest = dq.legal(config, scheme)
        options = [t for t in pool if (t.k or 0) <= largest.get(t.kind, -1)]
        if not options:
            break
        token = rng.choice(options)
        out.append(token)
        config = dq.apply(config, token, scheme)
        if config.finished:
            break
    return out


def draw_biases(params, rng):
    """Draws every bias and norm shift into `params`, in `_layout` order.

    `init_parameters` starts them at 0, so a fault that drops or misplaces
    a bias would change no output of a fresh model.
    """
    for name, tensor in params.items():
        if name.rsplit(".", 1)[-1].startswith("b"):
            tensor[...] = rng.standard_normal(tensor.shape) * 0.5
    return params


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="session")
def fig_tree() -> dq.ConstituentTree:
    return dq.parse_discbracket(FIG_LINE)


@pytest.fixture(scope="session")
def toy20() -> tuple[dq.ConstituentTree, ...]:
    return dq.bundled("toy20.discbracket")


@pytest.fixture(scope="session")
def cont5() -> tuple[dq.ConstituentTree, ...]:
    return dq.bundled("cont5.bracketed")
