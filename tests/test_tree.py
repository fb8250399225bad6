import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq.tree import _gapless
from conftest import FIG_LINE, bit_set, structurally_equal, trees


@pytest.fixture(scope="module")
def fig():
    return dq.parse_discbracket(FIG_LINE)


def test_children_stored_in_canonical_order():
    swapped = dq.Constituent("S", (dq.Constituent("VP", (2, 3)), dq.Constituent("NP", (0, 1))))
    assert [c.label for c in swapped.children] == ["NP", "VP"]


def test_positions_union_of_children():
    node = dq.Constituent("S", (0, dq.Constituent("VP", (2, 4)), 1))
    assert node._bits == 0b10111


def test_canonical_leaf_order_is_depth_first(fig):
    # the discontinuous VP pulls its whole yield ahead of the leaves
    # sitting inside its gaps
    assert dq.canonical_leaf_order(fig) == (0, 2, 3, 4, 6, 7, 8, 1, 5)


def test_discontinuous_constituents(fig):
    assert not dq.is_continuous(fig)
    nodes = dq.discontinuous_constituents(fig)
    assert [(c.label, sorted(bit_set(c._bits))) for c in nodes] == [
        ("VP", [0, 2, 3, 4, 6, 7, 8])
    ]


def test_yield_is_consecutive():
    assert _gapless(0b1000)
    assert _gapless(0b11100)
    assert not _gapless(0b10100)


def test_permute_identity():
    tree = dq.parse_discbracket("(S (NP 0=a) 1=b)")
    assert dq.permute_leaves(tree, [0, 1]) == tree


def test_permute_maps_old_to_new():
    tree = dq.ConstituentTree(("x", "y", "z"),
                              dq.Constituent("S", (dq.Constituent("NP", (0,)), 1, 2)))
    moved = dq.permute_leaves(tree, [2, 0, 1])
    assert moved.sentence == ("y", "z", "x")
    assert dq.emit_discbracket(moved) == "(S 0=y 1=z (NP 2=x))"


@pytest.mark.parametrize("perm", [[0], [0, 0], [1, 2]])
def test_permute_rejects_non_permutations(perm):
    tree = dq.ConstituentTree(("a", "b"), dq.Constituent("S", (0, 1)))
    with pytest.raises(ValueError):
        dq.permute_leaves(tree, perm)


@given(trees())
@settings(deadline=None)
def test_permute_roundtrips_through_inverse(tree):
    n = len(tree.sentence)
    rotate = [(i + 1) % n for i in range(n)]
    back = [(i - 1) % n for i in range(n)]
    assert dq.permute_leaves(dq.permute_leaves(tree, rotate), back) == tree


@given(trees())
@settings(deadline=None)
def test_reorder_canonical_yields_continuous_tree(tree):
    flat = dq.reorder_canonical(tree)
    assert dq.validate(flat) is None
    assert dq.is_continuous(flat)
    assert sorted(flat.sentence) == sorted(tree.sentence)


def test_reorder_canonical_renumbers_in_dfs_order(fig):
    flat = dq.reorder_canonical(fig)
    assert dq.emit_discbracket(flat) == (
        "(S (VP 0=Allerdings (PP 1=in 2=bestimmten 3=Vierteln)"
        " (PP 4=aus 5=Brunnen) 6=gewonnen) 7=wird 8=Wasser)"
    )


def test_validate_accepts_fig(fig):
    assert dq.validate(fig) is None


def test_validate_incomplete_root():
    tree = dq.ConstituentTree(("a", "b"), dq.Constituent("S", (0,)))
    v = dq.validate(tree)
    assert v is not None and v.rule == "incomplete-root"


def test_validate_overlapping_children():
    root = dq.Constituent("S", (dq.Constituent("NP", (0, 1)), dq.Constituent("VP", (1, 2))))
    v = dq.validate(dq.ConstituentTree(("a", "b", "c"), root))
    assert v is not None and v.rule == "overlapping-children"


def test_validate_leaf_out_of_range():
    v = dq.validate(dq.ConstituentTree(("a",), dq.Constituent("S", (0, 3))))
    assert v is not None and v.rule == "leaf-out-of-range"


def test_validate_empty_constituent():
    root = dq.Constituent("S", (dq.Constituent("NP", ()), 0))
    v = dq.validate(dq.ConstituentTree(("a",), root))
    assert v is not None and v.rule == "empty-constituent"


# hand-built nodes over few labels and positions, so equal pairs are common;
# empty, repeated and overlapping children make many of them invalid trees
_NODES = st.recursive(
    st.builds(dq.Constituent, st.sampled_from("AB"),
              st.lists(st.integers(0, 2), max_size=2).map(tuple)),
    lambda inner: st.builds(dq.Constituent, st.sampled_from("AB"),
                            st.lists(st.integers(0, 2) | inner, max_size=3).map(tuple)),
    max_leaves=8)


def _copy(node):
    return dq.Constituent(node.label, tuple(
        _copy(child) if isinstance(child, dq.Constituent) else child
        for child in node.children))


@given(_NODES, _NODES, st.booleans())
@settings(deadline=None, max_examples=500)
def test_equality_is_structural_and_equal_nodes_hash_equal(a, b, same):
    if same:
        b = _copy(a)
    assert (a == b) == structurally_equal(a, b)
    assert (a != b) == (not structurally_equal(a, b))
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("a,b", [
    (dq.Constituent("S", (0, 0)), dq.Constituent("S", (0,))),
    (dq.Constituent("S", (0, dq.Constituent("NP", (0,)))),
     dq.Constituent("S", (dq.Constituent("NP", (0,)), 0))),
], ids=["repeated-position", "leaf-or-node-first"])
def test_equality_tells_apart_nodes_with_the_same_yield(a, b):
    assert (a.label, a._bits) == (b.label, b._bits)
    assert a != b and not structurally_equal(a, b)
