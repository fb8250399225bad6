import gc
import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq import cli
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
    assert (np.label, np._bits) == ("NP", 0b01)
    assert (vp.label, vp._bits) == ("VP", 0b10)


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


_PARSE_ERRORS = [  # (line, message, byte offset)
    ("(S 0=a 0=b)", "position 0 appears twice", 7),
    ("(S 0=a 2=b)", "missing word positions [1]", 0),
    ("(S 0=a", "unbalanced '(': missing ')'", 0),
    ("(S 0=a) junk", "trailing material after the tree", 8),
    ("(S 0=a\\", "dangling backslash escape", 6),
    (") a\\", "dangling backslash escape", 3),  # before the fault at byte 0
    ("", "empty line where a tree was expected", 0),
    ("(S)", "constituent 'S' has no children", 0),
    ("(S x=a)", "discbracket leaf must look like index=word", 3),
    ("(S \u0660=a 1=b)", "discbracket leaf must look like index=word", 3),
    ("(S \u00b2=a 0=b)", "discbracket leaf must look like index=word", 3),
    ("0=a", "a tree must start with '('", 0),
    ("(S 10000000=a)", "word position too large for its line", 3),
    ("(S 1000000000000=a)", "word position too large for its line", 3),
    ("(S 0=a " + "1" * 4000 + "=b)", "word position too large for its line", 7),
    ("(S 0=a " + "1" * 5000 + "=b)", "word position too large for its line", 7),
    ("(S 0=a 99=b)",
     "missing word positions [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ... (98 in all)]", 0),
    # escaped labels
    ("(S\\ X 0=\u00e4 0=b)", "position 0 appears twice", 11),
    ("(N\\(P)", "constituent 'N(P' has no children", 0),
    ("(S (\\) ) 0=a)", "constituent ')' has no children", 3),
    ("(S\\=X 0=a", "unbalanced '(': missing ')'", 0),
    ("( (S 0=a))", "expected a label after '('", 0),
    # escaped "=" and other escapes in leaves
    ("(S 0=a\\=b 0=c)", "position 0 appears twice", 10),
    ("(S 0=a\\=b 2=c)", "missing word positions [1]", 0),
    ("(S 0\\=1=a)", "discbracket leaf must look like index=word", 3),
    ("(S 0=a=b)", "discbracket leaf must look like index=word", 3),
    ("(S \\1=a 1=b)", "position 1 appears twice", 8),
    ("(S 0=a\\ b (", "expected a label after '('", 10),
    ("(S 0=\\(a) (T 1=b)", "trailing material after the tree", 10),
]


def _case_id(value: str) -> str:
    return value if len(value) < 100 else f"{value[:20]}...({len(value)})"


@pytest.mark.parametrize("line,message,offset", _PARSE_ERRORS,
                         ids=[f"{_case_id(line)}-{_case_id(message)}"
                              for line, message, _ in _PARSE_ERRORS])
def test_parse_errors(line, message, offset):
    with pytest.raises(dq.TreebankError) as exc:
        dq.parse_discbracket(line)
    assert (exc.value.message, exc.value.offset) == (message, offset)


# pieces of reader input: every character the grammar treats specially,
# letters, ASCII and non-ASCII digits, a lone surrogate (as a library
# caller's string may hold) and digit runs of thousands of characters,
# plus fragments that make well-formed trees likely
_LINE_PIECES = st.one_of(
    st.sampled_from(list("() \t=\\aZé0129") + ["\u0663", "\u00b2", "\u0660", "\udc80"]),
    st.sampled_from(["(S ", "(NP ", "0=a ", "1=b ", "2=c", ") ", "=x"]),
    st.builds(str.__mul__, st.sampled_from("019"), st.integers(1000, 6000)),
)


@given(st.lists(_LINE_PIECES, max_size=24).map("".join),
       st.sampled_from([(dq.parse_discbracket, dq.emit_discbracket),
                        (dq.parse_bracketed, dq.emit_bracketed)]))
@settings(deadline=None, max_examples=300)
def test_readers_return_a_tree_or_a_treebank_error(line, reader):
    parse, emit = reader
    try:
        tree = parse(line)
    except dq.TreebankError:
        return
    assert parse(emit(tree)) == tree


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


@pytest.mark.parametrize("name", ["bank.discbracket", "bank.discbracket.gz"])
def test_load_treebank_names_a_line_that_is_not_utf8_as_the_cli_does(tmp_path, capsys, name):
    # the bad byte lies far past the text decoder's first chunk
    data = b"(S 0=a 1=b)\n" * 1200 + b"(S 0=a\xff 1=b)\n"
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    with pytest.raises(dq.TreebankError) as exc:
        dq.load_treebank(path)
    assert str(exc.value) == f"{path}: line 1201: invalid UTF-8 at byte 6"
    assert cli.main(["stats", "--scheme", "inorder", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"discoseq: {exc.value}\n")


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
