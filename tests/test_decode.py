import random

from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq import transitions as tr
from conftest import ALL_SCHEMES, DISCO_SCHEMES, candidate_pool, trees

TOPDOWN = dq.parse_scheme("topdown")
INORDER = dq.parse_scheme("inorder")
BOTTOMUP = dq.parse_scheme("bottomup")
SHIFTK = dq.parse_scheme("inorder+shiftk")


def rules(result):
    return [r.rule for r in result.repairs]


def test_r1_skips_an_illegal_token():
    tree = dq.parse_discbracket("(S 0=a 1=b)")
    good = dq.encode(tree, TOPDOWN)
    result = dq.decode(("a", "b"), dq.parse_transitions("REDUCE") + good, TOPDOWN)
    assert result.tree == tree
    assert rules(result) == ["R1"]
    assert result.repairs[0].step == 0


def test_r2_r3_complete_a_bare_shift():
    result = dq.decode(("a", "b"), dq.parse_transitions("SHIFT"), TOPDOWN)
    assert dq.emit_discbracket(result.tree) == "(ROOT 0=a 1=b)"
    assert rules(result) == ["R2", "R3"]


def test_r3_discards_dangling_marker():
    result = dq.decode(("a",), dq.parse_transitions("NT(S) SHIFT"), TOPDOWN)
    assert dq.emit_discbracket(result.tree) == "(ROOT 0=a)"
    assert rules(result) == ["R3"]


def test_r4_clamps_shift_index():
    seq = dq.parse_transitions("SHIFT#9 NT(S) SHIFT#0 SHIFT#0 REDUCE FINISH")
    result = dq.decode(("a", "b", "c"), seq, SHIFTK)
    assert dq.emit_discbracket(result.tree) == "(S 0=a 1=b 2=c)"
    assert rules(result) == ["R4"]
    assert result.repairs[0].detail == "clamped SHIFT#9 to SHIFT#2"


def test_r5_clamps_reduce_arity():
    seq = dq.parse_transitions("SHIFT SHIFT REDUCE#9(S) FINISH")
    result = dq.decode(("a", "b"), seq, BOTTOMUP)
    assert dq.emit_discbracket(result.tree) == "(S 0=a 1=b)"
    assert rules(result) == ["R5"]
    assert result.repairs[0].detail == "clamped REDUCE#9(S) to REDUCE#2(S)"


def test_each_guard_is_checked_once_per_legal_token(toy20, monkeypatch):
    """`decode` lets `apply` check a token's guard and reads `illegality`
    again only for a token that fails it."""
    sequences = [(tree, scheme, dq.encode(tree, scheme))
                 for scheme in DISCO_SCHEMES for tree in toy20]
    calls = 0
    real = tr.illegality

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tr, "illegality", counted)
    for tree, scheme, tokens in sequences:
        calls = 0
        result = dq.decode(tree.sentence, tokens, scheme)
        assert (result.tree, result.repairs) == (tree, ())
        assert calls == len(tokens), (str(scheme), dq.emit_discbracket(tree))


def test_missing_finish_is_forced_without_logging():
    tree = dq.parse_discbracket("(S 0=a 1=b)")
    seq = dq.encode(tree, INORDER)
    assert str(seq[-1]) == "FINISH"
    result = dq.decode(("a", "b"), seq[:-1], INORDER)
    assert result.tree == tree
    assert not result.repairs


def test_empty_sequence_uses_fallback_label():
    result = dq.decode(("a", "b"), [], TOPDOWN)
    assert dq.emit_discbracket(result.tree) == "(ROOT 0=a 1=b)"
    assert rules(result) == ["R2", "R3"]


def test_enriched_label_mismatch_is_repair_r6():
    seq = dq.parse_transitions("NT(S) SHIFT SHIFT REDUCE(VP)")
    result = dq.decode(("a", "b"), seq, dq.parse_scheme("topdown:enriched"))
    # the open marker's label wins
    assert dq.emit_discbracket(result.tree) == "(S 0=a 1=b)"
    assert [(r.rule, r.step, r.detail) for r in result.repairs] == [
        ("R6", 3, "kept NT(S) over REDUCE(VP)")]


def test_clean_flag():
    tree = dq.parse_discbracket("(S 0=a 1=b)")
    assert not dq.decode(("a", "b"), dq.encode(tree, TOPDOWN), TOPDOWN).repairs
    assert dq.decode(("a", "b"), [], TOPDOWN).repairs


def test_decode_is_deterministic():
    seq = dq.parse_transitions("SHIFT NT(S) SHIFT SWAP REDUCE")
    a = dq.decode(("x", "y", "z"), seq, dq.parse_scheme("inorder+swap"))
    b = dq.decode(("x", "y", "z"), seq, dq.parse_scheme("inorder+swap"))
    assert a == b


@given(st.integers(1, 7), st.integers(0, 2**31), st.sampled_from(ALL_SCHEMES),
       st.integers(0, 30))
@settings(deadline=None, max_examples=150)
def test_decode_is_total_on_garbage(n, seed, scheme, length):
    """Any token sequence at all comes back as a valid tree over the full
    sentence; the repair log explains what it took."""
    rng = random.Random(seed)
    pool = candidate_pool(n, scheme)
    tokens = [rng.choice(pool) for _ in range(length)]
    sentence = tuple(f"w{i}" for i in range(n))
    result = dq.decode(sentence, tokens, scheme)
    assert dq.validate(result.tree) is None
    assert result.tree.sentence == sentence


@given(trees(), st.sampled_from(ALL_SCHEMES))
@settings(deadline=None)
def test_truncated_oracle_sequences_still_decode(tree, scheme):
    if scheme.disco == "none" and not dq.is_continuous(tree):
        return
    seq = dq.encode(tree, scheme)
    cut = len(seq) // 2
    result = dq.decode(tree.sentence, seq[:cut], scheme)
    assert dq.validate(result.tree) is None
    assert result.tree.sentence == tree.sentence
