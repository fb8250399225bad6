import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq import transitions as tr
from conftest import ALL_SCHEMES, bit_set, random_walk, replay_pairs, trees

SWAP = dq.parse_scheme("inorder+swap")
SHIFT_TOKEN = dq.parse_transition("SHIFT")

FIG_PREFIX = (
    "SHIFT NT(VP) SHIFT SHIFT SWAP NT(PP) SHIFT SHIFT SWAP"
    " SHIFT SHIFT SWAP REDUCE"
)


def sets(pair):
    return bit_set(pair.stack), bit_set(pair.buffer)


def test_initial_state_masks_everything_off_the_buffer():
    state = dq.initial_state(4, SWAP)
    assert state.pair == dq.MaskPair(stack=0, buffer=0b1111)


def test_fig_prefix_trace():
    tokens = dq.parse_transitions(FIG_PREFIX)
    pairs = dq.trace(9, tokens, SWAP)
    assert len(pairs) == 14
    assert sets(pairs[-1]) == (frozenset({0, 2}), frozenset({1, 5, 6, 7, 8}))


def test_shift_moves_one_representative():
    before = dq.initial_state(3, SWAP)
    after = dq.step(before, SHIFT_TOKEN)
    assert after.pair == dq.MaskPair(stack=0b001, buffer=0b110)


def test_nt_and_finish_leave_masks_alone():
    shift, nt, reduce_, finish = dq.parse_transitions("SHIFT NT(S) REDUCE FINISH")
    state = dq.step(dq.initial_state(2, SWAP), shift)
    after_nt = dq.step(state, nt)
    assert sets(after_nt.pair) == sets(state.pair)
    closed = dq.step(dq.step(after_nt, shift), reduce_)
    done = dq.step(closed, finish)
    assert sets(done.pair) == sets(closed.pair)
    assert done.config.finished


def test_reduce_keeps_only_the_representative():
    # after the fig prefix the PP over positions 2..4 just closed: 3 and 4
    # disappear from both sets for good, 2 stays as the survivor
    tokens = dq.parse_transitions(FIG_PREFIX)
    pairs = dq.trace(9, tokens, SWAP)
    before, after = sets(pairs[-2]), sets(pairs[-1])
    assert before[0] == frozenset({0, 2, 3, 4})
    assert after[0] == frozenset({0, 2})
    assert before[1] == after[1]


def test_trace_length_and_empty():
    assert len(dq.trace(3, [], SWAP)) == 1
    tiny = dq.parse_discbracket("(S 0=a 1=b)")
    seq = dq.encode(tiny, SWAP)
    assert len(dq.trace(2, seq, SWAP)) == len(seq) + 1


def test_step_after_finish_raises():
    state = dq.initial_state(1, SWAP)
    for token in dq.parse_transitions("SHIFT NT(S) REDUCE FINISH"):
        state = dq.step(state, token)
    with pytest.raises(dq.IllegalTransition):
        dq.step(state, SHIFT_TOKEN)


def test_inconsistent_shift_raises():
    state = dq.initial_state(1, SWAP)
    state = dq.step(state, SHIFT_TOKEN)
    with pytest.raises(dq.IllegalTransition):
        dq.step(state, SHIFT_TOKEN)


def test_inconsistent_swap_raises():
    state = dq.step(dq.initial_state(2, SWAP), SHIFT_TOKEN)
    with pytest.raises(dq.IllegalTransition):
        dq.step(state, dq.parse_transition("SWAP"))


def test_inconsistent_reduce_raises():
    state = dq.step(dq.initial_state(2, SWAP), SHIFT_TOKEN)
    with pytest.raises(dq.IllegalTransition):
        dq.step(state, dq.parse_transition("REDUCE"))


@given(trees(), st.data())
@settings(deadline=None)
def test_trace_matches_replay_on_oracle_sequences(tree, data):
    scheme = data.draw(st.sampled_from(ALL_SCHEMES))
    if scheme.disco == "none" and not dq.is_continuous(tree):
        return
    n = len(tree.sentence)
    tokens = dq.encode(tree, scheme)
    got = [sets(p) for p in dq.trace(n, tokens, scheme)]
    assert got == replay_pairs(n, tokens, scheme)


@given(st.integers(1, 8), st.integers(0, 2**31), st.sampled_from(ALL_SCHEMES))
@settings(deadline=None, max_examples=150)
def test_trace_matches_replay_on_random_walks(n, seed, scheme):
    """Random legal walks visit states no oracle produces, constituents
    pushed back onto the buffer included."""
    tokens = random_walk(random.Random(seed), n, scheme)
    got = [sets(p) for p in dq.trace(n, tokens, scheme)]
    assert got == replay_pairs(n, tokens, scheme)


@given(st.integers(1, 8), st.integers(0, 2**31), st.sampled_from(ALL_SCHEMES))
@settings(deadline=None, max_examples=100)
def test_vectors_stay_disjoint_and_never_grow(n, seed, scheme):
    tokens = random_walk(random.Random(seed), n, scheme)
    pairs = dq.trace(n, tokens, scheme)
    last_total = n
    for pair in pairs:
        stack, buffer = sets(pair)
        assert not stack & buffer
        total = len(stack) + len(buffer)
        assert total <= last_total
        last_total = total


def test_reduce_shrinks_union_by_children_minus_one(fig_tree):
    n = len(fig_tree.sentence)
    tokens = dq.encode(fig_tree, SWAP)
    pairs = dq.trace(n, tokens, SWAP)
    config = dq.initial(n)
    for i, token in enumerate(tokens):
        before = sum(map(len, sets(pairs[i])))
        after = sum(map(len, sets(pairs[i + 1])))
        if token.kind == tr.REDUCE:
            marker = max(j for j, e in enumerate(config.stack)
                         if isinstance(e, tr.MarkerItem))
            popped = len(config.stack) - marker - 1 + 1  # material above + left item
            assert before - after == popped - 1
        else:
            assert before == after
        config = dq.apply(config, token, SWAP)
