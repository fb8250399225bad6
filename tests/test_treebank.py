import gc
import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from conftest import DISCO_SCHEMES, FIG_LINE, trees


def test_parse_discbracket_fig():
    tree = dq.parse_discbracket(FIG_LINE)
    assert tree.sentence == ("Allerdings", "wird", "in", "bestimmten",
                             "Vierteln", "Wasser", "aus", "Brunnen", "gewonnen")
    assert tree.root.label == "S"
    assert not dq.is_continuous(tree)


def test_emit_discbracket_is_canonical_inverse():
    assert dq.emit_discbracket(dq.parse_discbracket(FIG_LINE)) == FIG_LINE
    # an atom is never empty: a label of bare '=' is the label "="
    only_equals = dq.parse_discbracket("(= 0=a)")
    assert only_equals.root.label == "="
    assert dq.emit_discbracket(only_equals) == "(= 0=a)"


def test_parse_bracketed_numbers_left_to_right():
    tree = dq.parse_bracketed("(S (NP John) (VP runs))")
    assert tree.sentence == ("John", "runs")
    np, vp = tree.root.children
    assert (np.label, np.positions) == ("NP", frozenset({0}))
    assert (vp.label, vp.positions) == ("VP", frozenset({1}))


def test_emit_bracketed_rejects_discontinuity():
    tree = dq.parse_discbracket("(S (VP 0=a 2=c) 1=b)")
    with pytest.raises(dq.TreebankError):
        dq.emit_bracketed(tree)


def test_word_escaping_roundtrip():
    nasty = ("open(", ")close", "a b", "eq=hi", "back\\slash", "pären")
    tree = dq.ConstituentTree(nasty, dq.Constituent("S", tuple(range(6))))
    assert dq.parse_discbracket(dq.emit_discbracket(tree)) == tree
    assert dq.parse_bracketed(dq.emit_bracketed(tree)) == tree


@given(trees(), st.sampled_from(["discbracket", "bracketed"]))
@settings(deadline=None)
def test_emit_parse_roundtrip(tree, fmt):
    if fmt == "bracketed":
        tree = dq.reorder_canonical(tree)
        line = dq.emit_bracketed(tree)
        assert dq.parse_bracketed(line) == tree
    else:
        line = dq.emit_discbracket(tree)
        assert dq.parse_discbracket(line) == tree


@pytest.mark.parametrize("line,message", [
    ("(S 0=a 0=b)", "position 0 appears twice"),
    ("(S 0=a 2=b)", "missing word positions [1]"),
    ("(S 0=a", "unbalanced '(': missing ')'"),
    ("(S 0=a) junk", "trailing material after the tree"),
    ("(S 0=a\\", "dangling backslash escape"),
    ("", "empty line where a tree was expected"),
    ("(S)", "constituent 'S' has no children"),
    ("(S x=a)", "discbracket leaf must look like index=word"),
    ("0=a", "a tree must start with '('"),
])
def test_parse_errors(line, message):
    with pytest.raises(dq.TreebankError) as exc:
        dq.parse_discbracket(line)
    assert exc.value.message == message


def test_error_offsets_count_bytes():
    # "ä" is two bytes, so the duplicate position sits at byte 8, char 7
    with pytest.raises(dq.TreebankError) as exc:
        dq.parse_discbracket("(S 0=ä 0=b)")
    assert exc.value.offset == 8


def test_parse_treebank_strict_reports_line():
    with pytest.raises(dq.TreebankError) as exc:
        dq.parse_treebank(["(S 0=a)", "(S 0=a 0=b)"], source="mem")
    assert exc.value.line_no == 2
    assert str(exc.value) == "mem: line 2: position 0 appears twice at byte 7"


def test_save_load_roundtrip(tmp_path, toy20):
    path = tmp_path / "bank.discbracket"
    dq.save_treebank(toy20, path)
    assert dq.load_treebank(path) == toy20


def test_save_load_gzip(tmp_path, toy20):
    path = tmp_path / "bank.discbracket.gz"
    dq.save_treebank(toy20, path)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        assert len(handle.read().splitlines()) == len(toy20)
    assert list(dq.load_treebank(path)) == list(toy20)


def test_bundled_fixtures(toy20, cont5, fig_tree):
    assert len(toy20) == 20
    assert sum(not dq.is_continuous(t) for t in toy20) == 12
    assert len(cont5) == 5
    assert all(dq.is_continuous(t) for t in cont5)
    assert dq.bundled("fig_disco.discbracket")[0] == fig_tree


def test_bundled_unknown_name():
    with pytest.raises(dq.TreebankError):
        dq.bundled("nope.discbracket")


def test_tree_walks_leave_nothing_for_the_cycle_collector(toy20):
    """Reading, writing and encoding walk trees in loops; a nested function
    that calls itself would leave a reference cycle behind on every call."""
    lines = [dq.emit_discbracket(tree) for tree in toy20]
    calls = {
        "parse_discbracket": lambda: [dq.parse_discbracket(line) for line in lines],
        "emit_discbracket": lambda: [dq.emit_discbracket(tree) for tree in toy20],
        "encode": lambda: [dq.encode(tree, scheme)
                           for tree in toy20 for scheme in DISCO_SCHEMES],
    }
    left = {}
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            call()
            left[name] = gc.collect()
        finally:
            gc.enable()
    assert left == dict.fromkeys(calls, 0)
