import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq import transitions as tr
from conftest import ALL_SCHEMES, DISCO_SCHEMES, random_tree, trees, yield_set

SWAP = dq.parse_scheme("inorder+swap")
SWAPK = dq.parse_scheme("inorder+swapk")
SHIFTK = dq.parse_scheme("inorder+shiftk")


# --- frozen sequences --------------------------------------------------------

def test_fig_swap_prefix(fig_tree):
    """The eager oracle defers every swap until just before the out-of-order
    word is needed, so the swaps land late and one at a time."""
    seq = dq.encode(fig_tree, SWAP)
    assert len(seq) == 36
    assert dq.format_transitions(seq[:13]) == (
        "SHIFT NT(VP) SHIFT SHIFT SWAP NT(PP) SHIFT SHIFT SWAP"
        " SHIFT SHIFT SWAP REDUCE"
    )


def test_fig_shiftk_prefix(fig_tree):
    seq = dq.encode(fig_tree, SHIFTK)
    assert len(seq) == 18
    assert dq.format_transitions(seq[:7]) == (
        "SHIFT#0 NT(VP) SHIFT#1 NT(PP) SHIFT#1 SHIFT#1 REDUCE"
    )


def test_fig_lengths_per_scheme(fig_tree):
    lengths = {
        str(s): len(dq.encode(fig_tree, s))
        for s in DISCO_SCHEMES
    }
    assert lengths == {
        "topdown+swap": 35,
        "inorder+swap": 36,
        "bottomup+swap": 32,
        "inorder+swapk": 33,
        "inorder+shiftk": 18,
    }


def test_tiny_inorder_sequence():
    tiny = dq.parse_discbracket("(S 0=a 1=b)")
    seq = dq.encode(tiny, dq.parse_scheme("inorder"))
    assert dq.format_transitions(seq) == "SHIFT NT(S) SHIFT REDUCE FINISH"


def test_tiny_topdown_sequence():
    tree = dq.parse_bracketed("(S (NP John) (VP runs))")
    seq = dq.encode(tree, dq.parse_scheme("topdown"))
    assert dq.format_transitions(seq) == (
        "NT(S) NT(NP) SHIFT REDUCE NT(VP) SHIFT REDUCE REDUCE"
    )
    assert len(seq) == 8


def test_enriched_reduce_carries_labels():
    tree = dq.parse_bracketed("(S (NP John) (VP runs))")
    seq = dq.encode(tree, dq.parse_scheme("inorder:enriched"))
    assert dq.format_transitions(seq) == (
        "SHIFT NT(NP) REDUCE(NP) NT(S) SHIFT NT(VP) REDUCE(VP) REDUCE(S) FINISH"
    )


def test_enriched_scheme_only_labels_reduce(cont5):
    for name in ("topdown", "inorder"):
        for tree in cont5:
            plain = dq.encode(tree, dq.parse_scheme(name))
            enriched = dq.encode(tree, dq.parse_scheme(name + ":enriched"))
            assert len(plain) == len(enriched)
            for a, b in zip(plain, enriched):
                if a.kind == tr.REDUCE:
                    assert b.kind == tr.REDUCE_L
                else:
                    assert a == b


def test_plain_scheme_rejects_discontinuity(fig_tree):
    for name in ("topdown", "inorder", "bottomup"):
        with pytest.raises(dq.EncodeError):
            dq.encode(fig_tree, dq.parse_scheme(name))


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
def test_a_label_that_no_token_can_carry_is_an_encode_error_at_its_tree(scheme):
    trees = [dq.parse_discbracket(line) for line in ("(S 0=a 1=b)", r"(A\ B 0=a 1=b)")]
    with pytest.raises(dq.EncodeError) as exc:
        dq.vocab_stats(trees, scheme)
    assert str(exc.value) == "bad label 'A B': no whitespace or parentheses"
    assert exc.value.index == 1


# --- invariants over random trees --------------------------------------------

def _applicable(tree, scheme):
    return scheme.disco != "none" or dq.is_continuous(tree)


@given(trees(), st.sampled_from(ALL_SCHEMES))
@settings(deadline=None)
def test_every_prefix_is_legal(tree, scheme):
    if not _applicable(tree, scheme):
        return
    config = dq.initial(len(tree.sentence))
    for token in dq.encode(tree, scheme):
        assert dq.illegality(config, token, scheme) is None
        config = dq.apply(config, token, scheme)


@given(trees(), st.sampled_from(ALL_SCHEMES))
@settings(deadline=None)
def test_roundtrip_recovers_tree(tree, scheme):
    if not _applicable(tree, scheme):
        return
    result = dq.decode(tree.sentence, dq.encode(tree, scheme), scheme)
    assert result.tree == tree
    assert not result.repairs


@given(trees(discontinuous=False), st.sampled_from(DISCO_SCHEMES))
@settings(deadline=None)
def test_continuous_trees_need_no_reordering(tree, scheme):
    """On continuous input the reordering machinery must stay silent: no
    swap is emitted, every SHIFT#k is SHIFT#0, and reading SHIFT#0 as
    SHIFT gives the plain base encoding token for token."""
    base = dq.encode(tree, dq.parse_scheme(scheme.base))
    disco = dq.encode(tree, scheme)
    shift, shift0 = dq.parse_transitions("SHIFT SHIFT#0")
    assert [shift if t == shift0 else t for t in disco] == base


@given(trees())
@settings(deadline=None)
def test_length_ordering_across_reorderings(tree):
    by_shiftk = len(dq.encode(tree, SHIFTK))
    by_swapk = len(dq.encode(tree, SWAPK))
    by_swap = len(dq.encode(tree, SWAP))
    assert by_shiftk <= by_swapk <= by_swap


@given(trees())
@settings(deadline=None)
def test_buffer_stays_ascending(tree):
    """Eager fetching never leaves the buffer out of order, whichever
    reordering dialect produced the sequence."""
    n = len(tree.sentence)
    for scheme in DISCO_SCHEMES:
        config = dq.initial(n)
        for token in dq.encode(tree, scheme):
            config = dq.apply(config, token, scheme)
            reprs = [item if isinstance(item, int) else min(yield_set(item))
                     for item in config.buffer]
            assert reprs == sorted(reprs)


# --- vocabulary statistics ----------------------------------------------------

def test_vocab_stats_tiny():
    tiny = dq.parse_discbracket("(S 0=a 1=b)")
    stats = dq.vocab_stats([tiny], dq.parse_scheme("inorder"))
    assert stats.size == 4
    assert stats.max_length == 5
    assert stats.dictionary == frozenset({"SHIFT", "NT(S)", "REDUCE", "FINISH"})


def test_vocab_stats_toy20(toy20):
    stats = dq.vocab_stats(toy20, SWAP)
    assert stats.size == 11
    assert stats.max_length == 31


def test_inorder_dictionary_is_topdown_plus_finish(cont5):
    td = dq.vocab_stats(cont5, dq.parse_scheme("topdown"))
    io = dq.vocab_stats(cont5, dq.parse_scheme("inorder"))
    assert io.dictionary == td.dictionary | {"FINISH"}
    assert io.size == td.size + 1


def test_bulk_random_roundtrip():
    rng = random.Random(97)
    for _ in range(120):
        tree = random_tree(rng, max_leaves=10)
        for scheme in ALL_SCHEMES:
            if not _applicable(tree, scheme):
                continue
            result = dq.decode(tree.sentence, dq.encode(tree, scheme), scheme)
            assert result.tree == tree, (dq.emit_discbracket(tree), str(scheme))
            assert not result.repairs
