import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from discoseq import transitions as tr
from conftest import ALL_SCHEMES, candidate_pool, is_legal, random_walk

INORDER = dq.parse_scheme("inorder")
SWAP = dq.parse_scheme("inorder+swap")
SWAPK = dq.parse_scheme("inorder+swapk")
SHIFTK = dq.parse_scheme("inorder+shiftk")
TOPDOWN = dq.parse_scheme("topdown")
BOTTOMUP = dq.parse_scheme("bottomup")


# --- token surface forms ----------------------------------------------------

@pytest.mark.parametrize("token,text", [
    (tr.Transition(tr.SHIFT), "SHIFT"),
    (tr.Transition(tr.SHIFT_K, 0), "SHIFT#0"),
    (tr.Transition(tr.SHIFT_K, 12), "SHIFT#12"),
    (tr.Transition(tr.SWAP), "SWAP"),
    (tr.Transition(tr.SWAP_K, 3), "SWAP#3"),
    (tr.Transition(tr.NT, label="VP"), "NT(VP)"),
    (tr.Transition(tr.REDUCE), "REDUCE"),
    (tr.Transition(tr.REDUCE_L, label="NP"), "REDUCE(NP)"),
    (tr.Transition(tr.REDUCE_KL, 2, "PP"), "REDUCE#2(PP)"),
    (tr.Transition(tr.FINISH), "FINISH"),
])
def test_surface_forms(token, text):
    assert str(token) == text
    assert dq.parse_transition(text) == token


def test_shift0_and_shift_are_distinct_tokens():
    assert tr.Transition(tr.SHIFT_K, 0) != tr.Transition(tr.SHIFT)
    assert tr.Transition(tr.SWAP_K, 1) != tr.Transition(tr.SWAP)


@pytest.mark.parametrize("junk", [
    "SHIFTY", "NT", "NT()", "REDUCE#x", "SWAP#", "REDUCE#2", "SHIFT#-1",
    "FINISH(X)", "", "SHIFT#007", "SWAP#01", "REDUCE#02(VP)", "SHIFT#\u0663",
    "SHIFT#00",
])
def test_parse_transition_rejects_junk(junk):
    with pytest.raises(ValueError):
        dq.parse_transition(junk)


@pytest.mark.parametrize("make", [
    lambda: tr.Transition(tr.SHIFT_K, -1),
    lambda: tr.Transition(tr.SWAP_K, 0),
    lambda: tr.Transition(tr.REDUCE_KL, 0, "X"),
    lambda: tr.Transition(tr.NT, label=""),
    lambda: tr.Transition(tr.NT, label="a b"),
    lambda: tr.Transition(tr.NT, label="a(b"),
    lambda: tr.Transition("BOGUS"),
    lambda: tr.Transition(tr.SHIFT, k=1),
    lambda: tr.Transition(tr.SHIFT_K),
    lambda: tr.Transition(tr.FINISH, label="X"),
])
def test_constructor_validation(make):
    with pytest.raises(ValueError):
        make()


@given(st.sampled_from([
    tr.Transition(tr.SHIFT), tr.Transition(tr.SHIFT_K, 0), tr.Transition(tr.SHIFT_K, 7),
    tr.Transition(tr.SWAP), tr.Transition(tr.SWAP_K, 2), tr.Transition(tr.NT, label="S"),
    tr.Transition(tr.REDUCE), tr.Transition(tr.REDUCE_L, label="VP"),
    tr.Transition(tr.REDUCE_KL, 3, "NP"), tr.Transition(tr.FINISH),
]))
def test_parse_is_left_inverse_of_str(token):
    assert dq.parse_transition(str(token)) == token


@pytest.mark.parametrize("kind", sorted(tr._SPELLING))
def test_every_spelled_kind_roundtrips(kind):
    _, least_k, with_label = tr._SPELLING[kind]
    for k in ([None] if least_k is None else [least_k, least_k + 1, 12]):
        for label in (["S", "VP-2", "$,"] if with_label else [None]):
            token = tr.Transition(kind, k=k, label=label)
            assert dq.parse_transition(str(token)) == token


@given(st.one_of(
    st.from_regex(r"(SHIFT|SWAP|NT|REDUCE|FINISH)(#[0-9\u0660-\u0669]{1,3})?"
                  r"(\([A-Z()]{0,3}\))?", fullmatch=True),
    st.text(alphabet="SHIFTWAPNREDUC#0123()\u0663 ", max_size=12),
))
def test_every_accepted_spelling_is_canonical(text):
    try:
        token = dq.parse_transition(text)
    except ValueError:
        return
    assert str(token) == text


def test_parse_format_transitions_line():
    line = "SHIFT NT(VP) SHIFT#1 REDUCE FINISH"
    tokens = dq.parse_transitions(line)
    assert len(tokens) == 5
    assert dq.format_transitions(tokens) == line


# --- scheme names -----------------------------------------------------------

def test_all_shipped_scheme_names_roundtrip():
    names = [str(s) for s in ALL_SCHEMES]
    assert names == [
        "topdown", "topdown:enriched", "inorder", "inorder:enriched",
        "bottomup", "topdown+swap", "inorder+swap", "bottomup+swap",
        "inorder+swapk", "inorder+shiftk",
    ]
    for scheme in ALL_SCHEMES:
        assert dq.parse_scheme(str(scheme)) == scheme


def test_readme_scheme_table_lists_the_shipped_schemes():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Linearization schemes")[1]
    table = section.split("\n## ")[0]
    names = re.findall(r"^\| `([^`]+)`", table, flags=re.MULTILINE)
    assert names == [str(s) for s in dq.SHIPPED_SCHEMES]


@pytest.mark.parametrize("name", [
    "bottomup+shiftk", "topdown+swapk", "bottomup:enriched",
    "inorder+swap:enriched", "sideways", "inorder+", "",
    "inorder:enriched+none",
])
def test_parse_scheme_rejects(name):
    with pytest.raises(ValueError):
        dq.parse_scheme(name)


@pytest.mark.parametrize("fields", [
    ("inorder:enriched",), ("inorder", "swapk", True), ("inorder", "+swap"),
])
def test_scheme_rejects_unshipped_fields(fields):
    with pytest.raises(ValueError):
        dq.Scheme(*fields)


def test_scheme_token_kinds():
    assert TOPDOWN.kinds == frozenset({tr.SHIFT, tr.NT, tr.REDUCE})
    assert INORDER.kinds == frozenset({tr.SHIFT, tr.NT, tr.REDUCE, tr.FINISH})
    assert BOTTOMUP.kinds == frozenset({tr.SHIFT, tr.REDUCE_KL, tr.FINISH})
    assert SWAP.kinds == INORDER.kinds | {tr.SWAP}
    assert SWAPK.kinds == INORDER.kinds | {tr.SWAP_K}
    assert SHIFTK.kinds == (INORDER.kinds - {tr.SHIFT}) | {tr.SHIFT_K}
    assert dq.parse_scheme("topdown:enriched").kinds == frozenset(
        {tr.SHIFT, tr.NT, tr.REDUCE_L}
    )


# --- configurations and application ----------------------------------------

def test_initial_configuration():
    config = dq.initial(3)
    assert config.stack == ()
    assert list(config.buffer) == [0, 1, 2]
    assert not config.finished


def test_initial_requires_a_word():
    with pytest.raises(ValueError):
        dq.initial(0)


def test_shift_moves_buffer_front():
    config = dq.apply(dq.initial(3), dq.parse_transition("SHIFT"), INORDER)
    assert list(config.stack) == [0]
    assert list(config.buffer) == [1, 2]


def test_shift_k_picks_by_index():
    config = dq.apply(dq.initial(4), dq.parse_transition("SHIFT#2"), SHIFTK)
    assert list(config.stack) == [2]
    assert list(config.buffer) == [0, 1, 3]


def test_swap_returns_second_item_to_buffer_front():
    config = dq.initial(3)
    for token in dq.parse_transitions("SHIFT SHIFT SWAP"):
        config = dq.apply(config, token, SWAP)
    assert list(config.stack) == [1]
    assert list(config.buffer) == [0, 2]


def test_swap_k_preserves_depth_order():
    config = dq.initial(4)
    for token in dq.parse_transitions("SHIFT SHIFT SHIFT SWAP#2"):
        config = dq.apply(config, token, SWAPK)
    # the two moved items reach the buffer deepest first
    assert list(config.stack) == [2]
    assert list(config.buffer) == [0, 1, 3]


def test_swap_undo_guard():
    """Swapping an item back ahead of material it already passed is illegal."""
    config = dq.initial(2)
    shift, swap = dq.parse_transitions("SHIFT SWAP")
    for token in (shift, shift, swap):
        config = dq.apply(config, token, SWAP)
    # stack [1], buffer [0 2..]; shifting 0 back then swapping 1 out again
    config = dq.apply(config, shift, SWAP)
    assert dq.illegality(config, swap, SWAP) is not None


def test_apply_rejects_illegal():
    with pytest.raises(dq.IllegalTransition):
        dq.apply(dq.initial(2), dq.parse_transition("REDUCE"), INORDER)


def test_apply_rejects_foreign_kind():
    swap = dq.parse_transition("SWAP")
    assert dq.illegality(dq.initial(2), swap, INORDER) is not None
    with pytest.raises(dq.IllegalTransition):
        dq.apply(dq.initial(2), swap, INORDER)


def test_nothing_is_legal_after_finish():
    config = dq.initial(1)
    for token in dq.parse_transitions("SHIFT NT(S) REDUCE FINISH"):
        config = dq.apply(config, token, INORDER)
    assert config.finished
    for token in candidate_pool(1, INORDER):
        assert dq.illegality(config, token, INORDER) is not None


def test_topdown_terminates_without_finish():
    config = dq.initial(2)
    seq = "NT(S) SHIFT SHIFT REDUCE"
    for token in dq.parse_transitions(seq):
        config = dq.apply(config, token, TOPDOWN)
    assert dq.is_terminal(config, TOPDOWN)
    tree = dq.extract_tree(config, ("a", "b"), TOPDOWN)
    assert dq.emit_discbracket(tree) == "(S 0=a 1=b)"


def test_inorder_requires_finish_to_terminate():
    config = dq.initial(1)
    for token in dq.parse_transitions("SHIFT NT(S) REDUCE"):
        config = dq.apply(config, token, INORDER)
    assert not dq.is_terminal(config, INORDER)
    finish = dq.parse_transition("FINISH")
    assert dq.illegality(config, finish, INORDER) is None
    config = dq.apply(config, finish, INORDER)
    assert dq.is_terminal(config, INORDER)


def test_bottomup_reduce_k_takes_top_k():
    config = dq.initial(3)
    seq = "SHIFT SHIFT REDUCE#2(NP) SHIFT REDUCE#2(S) FINISH"
    for token in dq.parse_transitions(seq):
        config = dq.apply(config, token, BOTTOMUP)
    tree = dq.extract_tree(config, ("a", "b", "c"), BOTTOMUP)
    assert dq.emit_discbracket(tree) == "(S (NP 0=a 1=b) 2=c)"


def test_reduce_kl_needs_k_material_items():
    config = dq.apply(dq.initial(2), dq.parse_transition("SHIFT"), BOTTOMUP)
    assert dq.illegality(config, dq.parse_transition("REDUCE#2(S)"), BOTTOMUP) is not None
    assert dq.illegality(config, dq.parse_transition("REDUCE#1(S)"), BOTTOMUP) is None


def _oracle_prefixes(trees, scheme):
    """Every configuration an oracle sequence passes through, with its n."""
    for tree in trees:
        try:
            tokens = dq.encode(tree, scheme)
        except dq.EncodeError:
            continue
        n = len(tree.sentence)
        config = dq.initial(n)
        yield config, n
        for token in tokens:
            config = dq.apply(config, token, scheme)
            yield config, n


def _probes(n, scheme):
    """The candidate pool, every kind at k up to n + 1, and foreign kinds."""
    return (candidate_pool(n, scheme)
            + dq.parse_transitions("SHIFT SWAP NT(ZZ) REDUCE REDUCE(ZZ) FINISH SHIFT#0")
            + [t for k in range(1, n + 2)
               for t in (tr.Transition(tr.SHIFT_K, k), tr.Transition(tr.SWAP_K, k),
                         tr.Transition(tr.REDUCE_KL, k, "ZZ"))])


@pytest.fixture(scope="module")
def oracle_configs(toy20):
    trees = list(toy20) + list(dq.bundled("fig_disco.discbracket"))
    return {scheme: list(_oracle_prefixes(trees, scheme)) for scheme in ALL_SCHEMES}


@given(st.sampled_from(ALL_SCHEMES), st.booleans(), st.data())
@settings(deadline=None, max_examples=300)
def test_legal_agrees_with_illegality(oracle_configs, scheme, from_walk, data):
    if from_walk:
        n = data.draw(st.integers(1, 8), label="n")
        rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
        config = dq.initial(n)
        for token in random_walk(rng, n, scheme, max_steps=rng.randint(0, 40)):
            config = dq.apply(config, token, scheme)
    else:
        config, n = data.draw(st.sampled_from(oracle_configs[scheme]), label="prefix")
    largest = dq.legal(config, scheme)
    probes = _probes(n, scheme)
    legal_probes = [t for t in probes if dq.illegality(config, t, scheme) is None]
    assert [t for t in probes if is_legal(config, t, scheme)] == legal_probes
    assert {kind for kind, k in largest.items() if k >= 0} \
        == {t.kind for t in legal_probes}
    assert set(largest) == scheme.kinds


# --- parameterised token laws ------------------------------------------------

def _walk_to(rng, n, scheme, steps):
    config = dq.initial(n)
    for token in random_walk(rng, n, scheme, max_steps=steps):
        config = dq.apply(config, token, scheme)
    return config


def test_shift0_equals_shift():
    rng = random.Random(23)
    shift, shift0 = dq.parse_transitions("SHIFT SHIFT#0")
    checked = 0
    while checked < 50:
        config = _walk_to(rng, rng.randint(1, 6), SHIFTK, rng.randint(0, 10))
        if not is_legal(config, shift0, SHIFTK):
            continue
        via_k = dq.apply(config, shift0, SHIFTK)
        via_plain = dq.apply(config, shift, SWAP)
        assert via_k == via_plain
        checked += 1


def test_swap_k_equals_k_swaps():
    rng = random.Random(29)
    swap = dq.parse_transition("SWAP")
    checked = 0
    while checked < 50:
        n = rng.randint(3, 7)
        config = _walk_to(rng, n, SWAPK, rng.randint(2, 14))
        k = rng.randint(1, 3)
        if not is_legal(config, tr.Transition(tr.SWAP_K, k), SWAPK):
            continue
        via_k = dq.apply(config, tr.Transition(tr.SWAP_K, k), SWAPK)
        via_steps = config
        for _ in range(k):
            via_steps = dq.apply(via_steps, swap, SWAP)
        assert via_k == via_steps
        checked += 1


@given(st.integers(1, 8), st.data())
@settings(deadline=None)
def test_random_walks_stay_legal(n, data):
    scheme = data.draw(st.sampled_from(ALL_SCHEMES))
    seed = data.draw(st.integers(0, 2**31))
    config = dq.initial(n)
    for token in random_walk(random.Random(seed), n, scheme):
        assert dq.illegality(config, token, scheme) is None
        config = dq.apply(config, token, scheme)
