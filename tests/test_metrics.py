import json
from collections import Counter

import pytest
from hypothesis import given, settings

import discoseq as dq
import discoseq.metrics as mx
from conftest import trees


def T(line):
    return dq.parse_discbracket(line)


def test_hand_counted_fifty_percent():
    gold = T("(S (NP 0=a) (VP 1=b))")
    pred = T("(S (NP 0=a) (NP 1=b))")
    score = dq.evaluate([gold], [pred], ignore_root=True).labeled
    assert (score.precision, score.recall, score.f1) == (50.0, 50.0, 50.0)
    assert score.matched == 1 and score.gold_total == 2


def test_gold_vs_gold_is_perfect(toy20):
    report = dq.evaluate(list(toy20), list(toy20))
    assert report.labeled.f1 == 100.0
    assert report.discontinuous.f1 == 100.0
    assert report.exact_match == 1.0
    assert report.trees == 20


@given(trees())
@settings(deadline=None)
def test_self_evaluation_is_always_perfect(tree):
    score = dq.evaluate([tree], [tree]).labeled
    assert score.f1 == 100.0 or score.zero_denominator


def test_empty_prediction_has_zero_recall():
    gold = T("(S (NP 0=a) (VP 1=b))")
    flat = T("(S 0=a 1=b)")  # no brackets besides the ignored root
    score = dq.evaluate([gold], [flat], ignore_root=True).labeled
    assert score.recall == 0.0 and score.f1 == 0.0
    assert score.predicted_total == 0
    assert score.precision == 100.0 and score.zero_denominator


def test_missing_crossing_scores_zero_disc_f1(fig_tree):
    continuous = T(
        "(S 0=Allerdings 1=wird (PP 2=in 3=bestimmten 4=Vierteln)"
        " 5=Wasser (PP 6=aus 7=Brunnen) 8=gewonnen)"
    )
    score = dq.evaluate([fig_tree], [continuous]).discontinuous
    assert score.gold_total == 1
    assert score.predicted_total == 0
    assert score.recall == 0.0 and score.f1 == 0.0


def test_continuous_banks_flag_empty_disc_denominator(cont5):
    score = dq.evaluate(list(cont5), list(cont5)).discontinuous
    assert score.f1 == 100.0
    assert score.zero_denominator
    assert score.gold_total == 0


def test_duplicate_brackets_need_duplicate_partners():
    gold = T("(S (NP (NP 0=a)) 1=b)")
    assert dq.bracket_items(gold, ignore_root=True) == Counter({("NP", 0b1): 2})
    pred = T("(S (NP 0=a) 1=b)")
    score = dq.evaluate([gold], [pred], ignore_root=True).labeled
    assert score.matched == 1
    assert score.gold_total == 2 and score.predicted_total == 1


def test_bracket_items_drops_root_by_identity():
    tree = T("(S (S 0=a 1=b))")
    # only the outermost S is the root; the inner unary S still counts
    assert dq.bracket_items(tree, ignore_root=True) == Counter({("S", 0b11): 1})


def test_ignore_root_off_keeps_root():
    tree = T("(S (NP 0=a) 1=b)")
    items = dq.bracket_items(tree, ignore_root=False)
    assert items == Counter({
        ("S", 0b11): 1,
        ("NP", 0b01): 1,
    })


def test_punctuation_only_constituents_vanish():
    tree = T("(S (NP 0=a) (PNC 1=,) (VP 2=b))")
    assert dq.bracket_items(tree, remove_punctuation=True, ignore_root=True) == Counter({
        ("NP", 0b001): 1,
        ("VP", 0b100): 1,
    })
    kept = dq.bracket_items(tree, remove_punctuation=False)
    assert ("PNC", 0b010) in kept


def test_punctuation_gap_is_not_a_discontinuity():
    tree = T("(S (VP 0=go 2=home) 1=,)")
    counts = mx.pair_counts(tree, tree, remove_punctuation=True)
    assert counts.disc_gold == 0
    kept = mx.pair_counts(tree, tree, remove_punctuation=False)
    assert kept.disc_gold == 1


def test_pair_counts_requires_same_sentence():
    with pytest.raises(dq.MetricsError):
        mx.pair_counts(T("(S 0=a)"), T("(S 0=b)"))


def test_evaluate_reports_offending_index():
    gold = [T("(S 0=a)"), T("(S 0=b)")]
    pred = [T("(S 0=a)"), T("(S 0=c)")]
    with pytest.raises(dq.MetricsError) as exc:
        dq.evaluate(gold, pred)
    assert exc.value.index == 1
    assert str(exc.value) == "sentence mismatch"


def test_evaluate_rejects_size_mismatch():
    with pytest.raises(dq.MetricsError) as exc:
        dq.evaluate([T("(S 0=a)")], [])
    assert exc.value.index is None


def test_report_keeps_the_counts_of_every_pair():
    gold = [T("(S (NP 0=a) 1=b)"), T("(S (NP 0=a) (VP 1=b))")]
    pred = [T("(S (NP 0=a) 1=b)"), T("(S (NP 0=a) (NP 1=b))")]
    report = dq.evaluate(gold, pred, ignore_root=True)
    assert report.per_sentence == tuple(mx.pair_counts(g, p, ignore_root=True)
                                        for g, p in zip(gold, pred))


def test_exact_match_fraction():
    gold = [T("(S 0=a 1=b)"), T("(S (NP 0=a) 1=b)")]
    pred = [T("(S 0=a 1=b)"), T("(S 0=a 1=b)")]
    assert dq.evaluate(gold, pred).exact_match == 0.5
    assert dq.evaluate([], []).exact_match == 1.0


def test_f1_is_zero_when_nothing_matches():
    gold = T("(S (NP 0=a) 1=b)")
    pred = T("(S (VP 0=a) 1=b)")
    score = dq.evaluate([gold], [pred], ignore_root=True).labeled
    assert score.f1 == 0.0 and not score.zero_denominator


@given(trees(max_leaves=5), trees(max_leaves=5))
@settings(deadline=None)
def test_precision_recall_duality(a, b):
    if len(a.sentence) != len(b.sentence):
        return
    b = dq.ConstituentTree(a.sentence, b.root)
    forward = dq.evaluate([a], [b]).labeled
    backward = dq.evaluate([b], [a]).labeled
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision


def test_report_micro_averages_across_sentences():
    gold = [T("(S (NP 0=a) 1=b)"), T("(S (NP 0=a) (VP 1=b))")]
    pred = [T("(S (NP 0=a) 1=b)"), T("(S (NP 0=a) (NP 1=b))")]
    report = dq.evaluate(gold, pred, ignore_root=True)
    # 3 gold items, 3 predicted, 2 matched
    assert report.labeled.matched == 2
    assert report.labeled.gold_total == 3
    assert round(report.labeled.f1, 2) == 66.67
    assert report.exact_match == 0.5


def test_library_defaults_match_the_eval_command(tmp_path, capsys):
    from discoseq import cli
    gold = "(S (NP 0=the 1=dog) (VP 2=ran) 3=.)"
    pred = "(S 0=the 1=dog (VP 2=ran) 3=.)"
    assert round(dq.evaluate([T(gold)], [T(pred)]).labeled.f1, 2) == 80.0
    (tmp_path / "gold").write_text(gold + "\n", encoding="utf-8")
    (tmp_path / "pred").write_text(pred + "\n", encoding="utf-8")
    code = cli.main(["eval", "--gold", str(tmp_path / "gold"),
                     "--pred", str(tmp_path / "pred"), "--json"])
    assert code == 0
    assert round(json.loads(capsys.readouterr().out)["labeled"]["f1"], 2) == 80.0
