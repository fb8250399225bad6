import argparse
import gzip
import io
import json
import os
import re
import struct
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoseq as dq
from conftest import SHAPES, deep_line
from discoseq import cli, oracle


@pytest.fixture()
def toy_path(tmp_path, toy20):
    path = tmp_path / "toy.discbracket"
    dq.save_treebank(toy20, path)
    return path


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "discoseq" in proc.stdout


def test_missing_required_option_is_a_usage_error(capsys):
    code, _, err = run(["linearize"], capsys)
    assert code == 1
    assert "--scheme" in err


def test_unknown_scheme_is_a_usage_error(capsys):
    code, _, err = run(["linearize", "--scheme", "sideways"], capsys)
    assert code == 1
    assert "sideways" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code, _, err = run(
        ["linearize", "--scheme", "inorder+swap", "--in", str(tmp_path / "nope")],
        capsys)
    assert code == 2
    assert "nope" in err


def test_bad_tree_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.discbracket"
    path.write_text("(S 0=a)\n(S 0=a 0=b)\n", encoding="utf-8")
    code, _, err = run(
        ["linearize", "--scheme", "inorder+swap", "--in", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["linearize", "roundtrip", "stats", "eval"])
def test_bad_tree_is_reported_the_same_way(tmp_path, capsys, command):
    path = tmp_path / "bad.discbracket"
    path.write_text("(S 0=a)\n(S 0=a 0=b)\n", encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--gold", str(path), "--pred", str(path)]
    else:
        argv = [command, "--scheme", "inorder+swap", "--in", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"discoseq: {path}: line 2: position 0 appears twice at byte 7\n"


@pytest.mark.parametrize("command", ["linearize", "roundtrip", "stats", "eval",
                                     "mask-trace"])
def test_offsets_count_from_the_line_as_read(tmp_path, capsys, command):
    path = tmp_path / "indented.discbracket"
    path.write_text("  (S 0=a b)\n", encoding="utf-8")
    where = f"{path}: line 1: "
    if command == "eval":
        argv = ["eval", "--gold", str(path), "--pred", str(path)]
    elif command == "mask-trace":
        argv = [command, "--scheme", "inorder+swap", "--tree", path.read_text()]
        where = ""
    else:
        argv = [command, "--scheme", "inorder+swap", "--in", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == (f"discoseq: {where}discbracket leaf must look like "
                   "index=word at byte 9\n")


@pytest.mark.parametrize("leaf", ["\u0660=a 1=b", "\u00b2=a 0=b"],
                         ids=["arabic-indic-digit", "superscript-digit"])
def test_leaf_index_takes_ascii_digits_only(tmp_path, capsys, leaf):
    path = tmp_path / "digits.discbracket"
    path.write_text(f"(S 0=a)\n(S {leaf})\n", encoding="utf-8")
    code, out, err = run(["linearize", "--scheme", "inorder+swap", "--in", str(path)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == (f"discoseq: {path}: line 2: discbracket leaf must look like "
                   "index=word at byte 3\n")


@pytest.mark.parametrize("leaf", [
    "10000000=a", "1000000000000=a", "0=a " + "1" * 4000 + "=b", "0=a " + "1" * 5000 + "=b",
], ids=["1e7", "1e12", "4000-digits", "5000-digits"])
def test_a_leaf_index_far_beyond_the_line_is_a_bad_line(tmp_path, capsys, leaf):
    path = tmp_path / "far.discbracket"
    path.write_text(f"(S 0=a)\n(S {leaf})\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(["linearize", "--scheme", "inorder+swap", "--in", str(path)],
                         capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"discoseq: {path}: line 2: ") and len(err) < 200


@pytest.mark.parametrize("scheme", ["inorder+swap", "inorder+swapk", "inorder+shiftk"])
def test_a_dropped_reordering_token_fails_the_oracle_replay(tmp_path, capsys,
                                                           monkeypatch, fig_tree,
                                                           scheme):
    real = oracle._fetch
    monkeypatch.setattr(oracle, "_fetch", lambda j, scheme: real(j, scheme)[:-1]
                        if j else real(j, scheme))
    with pytest.raises(oracle.OracleInvariantError):
        dq.encode(fig_tree, dq.parse_scheme(scheme))
    path = tmp_path / "fig.discbracket"
    dq.save_treebank([fig_tree], path)
    for command in ("linearize", "roundtrip"):
        code, out, err = run([command, "--scheme", scheme, "--in", str(path)], capsys)
        assert (command, code, out) == (command, 3, "")
        assert err.startswith("discoseq: invariant breach: oracle replay")


@pytest.mark.parametrize("command", ["linearize", "roundtrip", "stats", "train"])
def test_unencodable_tree_is_reported_the_same_way(tmp_path, capsys, command):
    path = tmp_path / "disc.discbracket"
    path.write_text("(S 0=a 1=b)\n\n(S (VP 0=a 2=c) 1=b)\n", encoding="utf-8")
    argv = [command, "--scheme", "topdown", "--in", str(path)]
    if command == "train":
        argv += ["--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == (f"discoseq: {path}: line 3: scheme topdown cannot express "
                   "discontinuous constituents\n")


@pytest.mark.parametrize("command", ["stats", "train"])
def test_a_label_that_no_token_can_carry_is_named_by_its_line(tmp_path, command):
    # the reader resolves the escaped space, but no token takes a spaced label
    path = tmp_path / "spaced.discbracket"
    path.write_text("(S 0=a 1=b)\n(A\\ B 0=a 1=b)\n", encoding="utf-8")
    argv = [command, "--scheme", "inorder", "--in", str(path)]
    if command == "train":
        argv += ["--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]
    assert _cli(argv) == (2, "", f"discoseq: {path}: line 2: bad label 'A B': "
                                 "no whitespace or parentheses\n")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--checkpoint", "model.ckpt", "--beam", "0"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--epochs", "0"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--d-model", "0"],
    ["linearize", "--scheme", "inorder", "--jobs", "0"],
    ["linearize", "--scheme", "inorder", "--jobs", "-3"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--seed", "-1"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--seed", "\u00b2"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--seed", "\u0663"],
    ["predict", "--checkpoint", "model.ckpt", "--beam", "\u00b2"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--early-stop-accuracy", "-5"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--early-stop-accuracy", "1.5"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--early-stop-accuracy", "nan"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--early-stop-accuracy", "inf"],
], ids=["beam", "epochs", "d-model", "jobs-0", "jobs-negative", "seed",
        "seed-superscript-digit", "seed-arabic-indic-digit", "beam-superscript-digit",
        "early-stop-negative", "early-stop-above-one", "early-stop-nan", "early-stop-inf"])
def test_out_of_range_numeric_option_is_a_usage_error(tmp_path, capsys, argv):
    bank = tmp_path / "one.discbracket"
    bank.write_text("(S 0=a 1=b)\n", encoding="utf-8")
    if argv[0] != "predict":
        argv = argv + ["--in", str(bank)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    if "--early-stop-accuracy" in argv:
        assert "expected a number from 0 to 1" in err
    else:
        expected = "non-negative" if "--seed" in argv else "positive"
        assert f"expected a {expected} integer" in err
    assert "_int" not in err
    assert "Traceback" not in err


def test_every_option_the_readme_names_is_an_option_of_a_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", section))
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in commands.choices.values() for action in sub._actions
               for option in action.option_strings}
    assert "--scheme" in named
    assert sorted(named - options) == []


def test_d_model_the_model_cannot_split_is_a_usage_error(tmp_path):
    bank = tmp_path / "one.discbracket"
    bank.write_text("(S 0=a 1=b)\n", encoding="utf-8")
    ckpt = tmp_path / "m.ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "train", "--scheme", "inorder",
         "--in", str(bank), "--out", str(ckpt), "--d-model", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "argument --d-model: d_model must divide evenly into heads" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not ckpt.exists()


def test_linearize_leaves_out_untouched_on_a_bad_line(tmp_path, capsys):
    path = tmp_path / "bad.discbracket"
    path.write_text("(S 0=a)\n(S 0=a 0=b)\n", encoding="utf-8")
    out = tmp_path / "tokens.txt"
    out.write_text("kept\n", encoding="utf-8")
    code, _, _ = run(["linearize", "--scheme", "inorder+swap", "--in", str(path),
                      "--out", str(out)], capsys)
    assert code == 2
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_linearize_text(toy_path, tmp_path, capsys):
    out = tmp_path / "tokens.txt"
    code, _, _ = run(["linearize", "--scheme", "inorder+swap",
                      "--in", str(toy_path), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("SHIFT")


def test_linearize_jsonl_and_back(toy_path, tmp_path, capsys):
    tokens = tmp_path / "tokens.jsonl"
    code, _, _ = run(["linearize", "--scheme", "inorder+swap", "--jsonl",
                      "--in", str(toy_path), "--out", str(tokens)], capsys)
    assert code == 0
    first = json.loads(tokens.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"sentence", "scheme", "tokens"}
    assert first["scheme"] == "inorder+swap"

    rebuilt = tmp_path / "rebuilt.discbracket"
    code, _, err = run(["delinearize", "--scheme", "inorder+swap",
                        "--tokens", str(tokens), "--out", str(rebuilt)], capsys)
    assert code == 0
    assert rebuilt.read_bytes() == toy_path.read_bytes()
    assert "20 trees, 0 repaired" in err


def test_gz_out_paths_are_compressed(toy_path, tmp_path, capsys):
    tokens, trees = tmp_path / "tokens.jsonl.gz", tmp_path / "trees.discbracket.gz"
    scheme = ["--scheme", "inorder+swap"]
    assert run(["linearize", *scheme, "--jsonl", "--in", str(toy_path),
                "--out", str(tokens)], capsys)[0] == 0
    assert run(["delinearize", *scheme, "--tokens", str(tokens),
                "--out", str(trees)], capsys)[0] == 0
    code, out, _ = run(["eval", "--json", "--gold", str(toy_path),
                        "--pred", str(trees)], capsys)
    assert code == 0
    assert json.loads(out)["exact_match"] == 1.0
    with gzip.open(trees, "rt", encoding="utf-8") as handle:
        assert handle.read() == toy_path.read_text(encoding="utf-8")


def test_delinearize_text_mode_needs_sentences(toy_path, tmp_path, capsys):
    tokens = tmp_path / "tokens.txt"
    run(["linearize", "--scheme", "inorder+swap",
         "--in", str(toy_path), "--out", str(tokens)], capsys)

    delinearize = ["delinearize", "--scheme", "inorder+swap", "--tokens", str(tokens)]
    assert run(delinearize, capsys) == (
        2, "", f"discoseq: {tokens}: line 1: token text input needs --sentences "
               "(or use JSONL input)\n")

    sentences = tmp_path / "sents.txt"
    sentences.write_text("a b\n\nc d\n", encoding="utf-8")
    assert run([*delinearize, "--sentences", str(sentences)], capsys) == (
        2, "", f"discoseq: {sentences}: 2 sentences but 20 token lines\n")

    sentences.write_text(
        "\n".join(" ".join(t.sentence) for t in dq.load_treebank(toy_path)) + "\n",
        encoding="utf-8")
    rebuilt = tmp_path / "rebuilt.discbracket"
    code, _, _ = run(["delinearize", "--scheme", "inorder+swap",
                      "--tokens", str(tokens), "--sentences", str(sentences),
                      "--out", str(rebuilt)], capsys)
    assert code == 0
    assert rebuilt.read_bytes() == toy_path.read_bytes()


def test_delinearize_rejects_scheme_mismatch(toy_path, tmp_path, capsys):
    tokens = tmp_path / "tokens.jsonl"
    run(["linearize", "--scheme", "inorder+swap", "--jsonl",
         "--in", str(toy_path), "--out", str(tokens)], capsys)
    code, _, err = run(["delinearize", "--scheme", "topdown+swap",
                        "--tokens", str(tokens)], capsys)
    assert code == 2
    assert "scheme" in err


_NOT_STRINGS = "sentence and tokens must be lists of strings"


# the tokens are joined and split again, so each element must be one token
@pytest.mark.parametrize("record, message", [
    ({"sentence": [1, 2], "tokens": ["SHIFT", "SHIFT"]}, _NOT_STRINGS),
    ({"sentence": ["a"], "tokens": [1]}, _NOT_STRINGS),
    ({"sentence": "ab", "tokens": ["SHIFT", "SHIFT"]}, _NOT_STRINGS),
    *(({"sentence": ["a", "b"], "tokens": [element, "SHIFT", "REDUCE", "FINISH"]},
       f"{element!r} is not one token")
      for element in ["SHIFT NT(S)", "NT( )", "", " SHIFT", "SHIFT\t"]),
], ids=["number-words", "number-tokens", "string-sentence", "two-tokens", "spaced-label",
        "empty-token", "leading-space", "trailing-tab"])
def test_delinearize_rejects_malformed_jsonl_record(tmp_path, record, message):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text('{"sentence": ["a"], "tokens": ["SHIFT"]}\n'
                      + json.dumps(record) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "delinearize", "--scheme", "inorder",
         "--tokens", str(tokens)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"discoseq: {tokens}: line 2: bad JSONL record: {message}\n"


def test_roundtrip_clean(toy_path, capsys):
    code, out, err = run(["roundtrip", "--scheme", "inorder+swap",
                          "--in", str(toy_path)], capsys)
    assert code == 0
    assert out == ""
    assert "roundtrip: 20/20 trees reproduced" in err


def test_roundtrip_reports_a_bad_line_before_any_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.discbracket"
    path.write_text("(S 0=a 1=b)\n(S 0=a 0=b)\n", encoding="utf-8")
    code, out, err = run(["roundtrip", "--scheme", "inorder+swap",
                          "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"discoseq: {path}: line 2: position 0 appears twice at byte 7\n"


def test_stats_table(tmp_path, capsys):
    path = tmp_path / "tiny.discbracket"
    path.write_text("(S 0=a 1=b)\n", encoding="utf-8")
    code, out, _ = run(["stats", "--scheme", "inorder", "--in", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["scheme\tsize\tmax_length", "inorder\t4\t5"]


def test_stats_dictionary_listing(tmp_path, capsys):
    path = tmp_path / "tiny.discbracket"
    path.write_text("(S 0=a 1=b)\n", encoding="utf-8")
    code, out, _ = run(["stats", "--scheme", "inorder", "--in", str(path),
                        "--dictionary"], capsys)
    assert code == 0
    assert out.splitlines()[2:] == ["FINISH", "NT(S)", "REDUCE", "SHIFT"]


def test_mask_trace_table(capsys):
    code, out, _ = run(["mask-trace", "--scheme", "inorder+swap",
                        "--tree", "(S (VP 0=a 2=c) 1=b)"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step\ttoken\tstack\tbuffer"
    assert lines[1] == "0\t-\t{}\t{0,1,2}"
    assert lines[6] == "5\tSWAP\t{0,2}\t{1}"
    assert lines[-1] == "10\tFINISH\t{0}\t{}"


def test_mask_trace_reads_bracketed_only_when_asked(capsys):
    argv = ["mask-trace", "--scheme", "topdown", "--tree", "(S (NP a) (VP b))"]
    code, out, _ = run([*argv, "--format", "bracketed"], capsys)
    assert code == 0
    assert out.splitlines()[1].endswith("{0,1}")
    code, out, err = run(argv, capsys)  # discbracket by default
    assert (code, out) == (2, "")
    assert "index=word" in err and "Traceback" not in err
    # a raw "=" in a label or an escaped one in a leaf reads as bracketed
    for tree, token in (("(S (NP=1 a) (VP b))", "NT(NP=1)"),
                        (r"(S (NP a\=1) (VP b))", "NT(NP)")):
        code, labelled, _ = run(["mask-trace", "--scheme", "topdown", "--tree", tree,
                                 "--format", "bracketed"], capsys)
        assert code == 0 and token in labelled


def test_eval_text_output(tmp_path, capsys):
    gold = tmp_path / "gold.discbracket"
    pred = tmp_path / "pred.discbracket"
    gold.write_text("(S (NP 0=a) (VP 1=b))\n", encoding="utf-8")
    pred.write_text("(S (NP 0=a) (NP 1=b))\n", encoding="utf-8")
    code, out, _ = run(["eval", "--gold", str(gold), "--pred", str(pred),
                        "--ignore-root"], capsys)
    assert code == 0
    rows = dict(line.rsplit(None, 1) for line in out.splitlines()
                if line and not line.startswith("note:"))
    assert rows["labeled_f1"] == "50.00"
    assert rows["labeled_precision"] == "50.00"
    assert rows["exact_match"] == "0.00"
    assert rows["sentences"] == "1"
    # no discontinuous material anywhere: flagged, not silently perfect
    assert rows["disc_f1"] == "100.00"
    assert any(line.startswith("note:") for line in out.splitlines())


def test_eval_json_output(toy_path, capsys):
    code, out, _ = run(["eval", "--gold", str(toy_path), "--pred", str(toy_path),
                        "--ignore-root", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sentences"] == 20
    assert payload["labeled"]["f1"] == 100.0
    assert payload["discontinuous"]["f1"] == 100.0
    assert payload["exact_match"] == 1.0
    assert len(payload["per_sentence"]) == 20


def test_eval_jobs_matches_serial(toy_path, capsys):
    code1, out1, _ = run(["eval", "--gold", str(toy_path), "--pred",
                          str(toy_path), "--json"], capsys)
    code2, out2, _ = run(["eval", "--gold", str(toy_path), "--pred",
                          str(toy_path), "--json", "--jobs", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def _eval_mismatch(tmp_path, capsys, gold_text, pred_text):
    gold = tmp_path / "gold.discbracket"
    pred = tmp_path / "pred.discbracket"
    gold.write_text(gold_text, encoding="utf-8")
    pred.write_text(pred_text, encoding="utf-8")
    code, _, err = run(["eval", "--gold", str(gold), "--pred", str(pred)], capsys)
    return code, err, pred


def test_eval_sentence_mismatch_is_a_data_error(tmp_path, capsys):
    code, err, pred = _eval_mismatch(tmp_path, capsys, "(S 0=a)\n", "(S 0=b)\n")
    assert code == 2
    assert err == f"discoseq: {pred}: line 1: sentence mismatch\n"


def test_eval_sentence_mismatch_names_the_line_after_a_blank(tmp_path, capsys):
    code, err, pred = _eval_mismatch(tmp_path, capsys, "(S 0=a)\n", "\n(S 0=b)\n")
    assert code == 2
    assert err == f"discoseq: {pred}: line 2: sentence mismatch\n"


def test_linearize_jobs_matches_serial(toy_path, tmp_path, capsys):
    serial = tmp_path / "serial.txt"
    parallel = tmp_path / "parallel.txt"
    run(["linearize", "--scheme", "inorder+swap", "--in", str(toy_path),
         "--out", str(serial)], capsys)
    run(["linearize", "--scheme", "inorder+swap", "--in", str(toy_path),
         "--out", str(parallel), "--jobs", "3"], capsys)
    assert serial.read_bytes() == parallel.read_bytes()


def test_train_then_predict(tmp_path, toy20, capsys):
    bank = tmp_path / "four.discbracket"
    dq.save_treebank(list(toy20)[:4], bank)
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(["train", "--scheme", "inorder+swap", "--in", str(bank),
                        "--out", str(ckpt), "--epochs", "12", "--seed", "1",
                        "--d-model", "16"], capsys)
    assert code == 0
    assert ckpt.exists()
    assert "epoch 12" in err

    sentences = tmp_path / "sents.txt"
    sentences.write_text("the dog ran\n", encoding="utf-8")
    out_path = tmp_path / "pred.discbracket"
    code, _, err = run(["predict", "--checkpoint", str(ckpt), "--beam", "2",
                        "--in", str(sentences), "--out", str(out_path)], capsys)
    assert code == 0
    assert "1 sentences" in err
    tree = dq.load_treebank(out_path)[0]
    assert tree.sentence == ("the", "dog", "ran")
    assert dq.validate(tree) is None


def test_symbolic_commands_do_not_load_numpy(tmp_path):
    toy = Path(dq.__file__).parent / "data" / "toy20.discbracket"
    tree = toy.read_text(encoding="utf-8").splitlines()[0]
    jsonl, trees = tmp_path / "toy.jsonl", tmp_path / "toy.trees"
    scheme = ["--scheme", "inorder+swap"]
    commands = [
        ["linearize", *scheme, "--in", str(toy), "--out", str(jsonl), "--jsonl"],
        ["delinearize", *scheme, "--tokens", str(jsonl), "--out", str(trees)],
        ["roundtrip", *scheme, "--in", str(toy)],
        ["stats", *scheme, "--in", str(toy)],
        ["mask-trace", *scheme, "--tree", tree],
        ["eval", "--gold", str(toy), "--pred", str(trees)],
    ]
    script = (
        "import json, sys\n"
        "import discoseq, discoseq.cli\n"
        "codes = [discoseq.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "forbidden = ('numpy', 'multiprocessing')\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if any(name in m for name in forbidden))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, forbidden_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert forbidden_modules == []


def _cli(argv, stdin: bytes = b""):
    """Exit code, stdout and stderr of `python -m discoseq.cli`; no traceback.

    Standard input is strict UTF-8, as under a UTF-8 locale; the C locale
    would read it with surrogateescape already.
    """
    proc = subprocess.run([sys.executable, "-m", "discoseq.cli", *argv], input=stdin,
                          capture_output=True,
                          env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"})
    err = proc.stderr.decode("utf-8")
    assert "Traceback" not in err, err
    return proc.returncode, proc.stdout.decode("utf-8"), err


def _untrained_checkpoint(directory, toy20, max_positions=12):
    import numpy as np
    from discoseq.neural import ModelConfig, init_parameters, save_checkpoint
    from discoseq.neural.training import build_vocabularies
    words, tokens = build_vocabularies(list(toy20)[:2], "inorder+swap")
    config = ModelConfig(scheme="inorder+swap", word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16,
                         max_positions=max_positions)
    ckpt = directory / "model.ckpt"
    save_checkpoint(str(ckpt), init_parameters(config, np.random.default_rng(0)), config)
    return ckpt


def _bad_second_line_leaves_out_alone(tmp_path, argv, stderr):
    """A bad line after a good one exits 2 with nothing written: not to
    stdout, not to a new `--out`, and not over an existing one."""
    assert _cli(argv) == (2, "", stderr)
    out = tmp_path / "out.discbracket"
    assert _cli([*argv, "--out", str(out)]) == (2, "", stderr)
    assert not out.exists()
    out.write_text("kept\n", encoding="utf-8")
    assert _cli([*argv, "--out", str(out)]) == (2, "", stderr)
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_delinearize_writes_nothing_when_a_later_line_is_bad(tmp_path):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text('{"sentence": ["a"], "tokens": ["SHIFT"]}\n'
                      '{"sentence": ["a"], "tokens": ["BOGUS"]}\n', encoding="utf-8")
    _bad_second_line_leaves_out_alone(
        tmp_path, ["delinearize", "--scheme", "inorder", "--tokens", str(tokens)],
        f"discoseq: {tokens}: line 2: bad transition token 'BOGUS'\n")


def test_predict_writes_nothing_when_a_later_line_is_bad(tmp_path, toy20):
    sentences = tmp_path / "sents.txt"
    sentences.write_text("the dog ran\n" + " ".join(["a"] * 13) + "\n", encoding="utf-8")
    ckpt = _untrained_checkpoint(tmp_path, toy20)
    _bad_second_line_leaves_out_alone(
        tmp_path, ["predict", "--checkpoint", str(ckpt), "--beam", "1", "--in", str(sentences)],
        f"discoseq: {sentences}: line 2: sentence length 13 exceeds max_positions 12\n")


def test_predict_rejects_missing_checkpoint(tmp_path, capsys):
    code, _, err = run(["predict", "--checkpoint", str(tmp_path / "no.ckpt")],
                       capsys)
    assert code == 2


def test_delinearize_counts_a_label_mismatch_as_r6(tmp_path):
    record = {"sentence": ["a", "b"], "scheme": "topdown:enriched",
              "tokens": "NT(S) NT(NP) SHIFT REDUCE(VP) SHIFT REDUCE(S)".split()}
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = _cli(["delinearize", "--scheme", "topdown:enriched",
                           "--tokens", str(tokens)])
    assert (code, out, err) == (0, "(S (NP 0=a) 1=b)\n", "1 trees, 1 repaired (R6 x1)\n")


def test_predict_lists_its_repairs_by_rule(tmp_path, toy20):
    # two positions hold <bos> and one token, and two words
    ckpt = _untrained_checkpoint(tmp_path, toy20, max_positions=2)
    sentences = tmp_path / "sents.txt"
    sentences.write_text("the dog\n", encoding="utf-8")
    # one token, the in-order SHIFT, cannot finish a parse of two words
    code, out, err = _cli(["predict", "--checkpoint", str(ckpt), "--beam", "1",
                           "--in", str(sentences)])
    assert (code, out) == (0, "(ROOT 0=the 1=dog)\n")
    assert err == "1 sentences, 1 repaired (R2 x1, R3 x1)\n"


def test_train_names_a_tree_longer_than_max_positions(tmp_path):
    # a 64-word 2-way interleave: 1,063 tokens under inorder+swap
    evens = " ".join(f"{i}=w{i}" for i in range(0, 64, 2))
    odds = " ".join(f"{i}=w{i}" for i in range(1, 64, 2))
    bank = tmp_path / "long.discbracket"
    bank.write_text(f"(S 0=a 1=b)\n(S (A {evens}) (B {odds}))\n", encoding="utf-8")
    code, out, err = _cli(["train", "--scheme", "inorder+swap", "--in", str(bank),
                           "--out", str(tmp_path / "model.ckpt"), "--epochs", "1"])
    assert (code, out) == (2, "")
    assert err == (f"discoseq: {bank}: line 2: sequence length 1063 exceeds "
                   f"max_positions 512\n")
    assert not (tmp_path / "model.ckpt").exists()


def test_a_line_that_is_not_utf8_is_named(tmp_path, toy20):
    lines = [dq.emit_discbracket(tree).encode("utf-8") for tree in toy20] * 50
    trees = tmp_path / "trees.discbracket"
    trees.write_bytes(b"\n".join(lines + [b"(S 0=a 1=b\xff)"]) + b"\n")
    code, out, err = _cli(["linearize", "--scheme", "inorder+swap", "--in", str(trees)])
    assert (code, out, err) == (2, "", f"discoseq: {trees}: line 1001: invalid UTF-8 "
                                       f"at byte 10\n")
    record = json.dumps({"sentence": ["a"], "tokens": ["SHIFT", "NT(S)", "REDUCE"]})
    stdin = f"{record}\n\n".encode("utf-8") + b'{"sentence": ["\xc3"]}\n'
    code, out, err = _cli(["delinearize", "--scheme", "inorder", "--tokens", "-"], stdin)
    assert (code, out, err) == (2, "", "discoseq: <stdin>: line 3: invalid UTF-8 at byte 15\n")
    sentences = tmp_path / "sents.txt"
    sentences.write_bytes(b"the dog ran\nthe \x80dog\n")
    code, out, err = _cli(["predict", "--checkpoint", str(_untrained_checkpoint(tmp_path, toy20)),
                           "--beam", "1", "--in", str(sentences)])
    assert (code, out, err) == (2, "", f"discoseq: {sentences}: line 2: invalid UTF-8 "
                                       f"at byte 4\n")


def test_a_tree_argument_that_is_not_utf8_is_named():
    # argv is decoded with surrogateescape, so the raw byte reaches the command
    argv = ["mask-trace", "--scheme", "topdown", "--tree"]
    code, out, err = _cli([*argv, b"(S 0=a\xff 1=b)"])
    assert (code, out, err) == (2, "", "discoseq: --tree: invalid UTF-8 at byte 6\n")
    code, out, _ = _cli([*argv, "(S 0=a 1=b)"])
    assert code == 0 and out.startswith("step\ttoken\tstack\tbuffer\n")


@pytest.mark.parametrize("shape", SHAPES)
def test_a_line_nested_1200_deep_passes_every_command(tmp_path, shape):
    trees = tmp_path / "deep.discbracket"
    trees.write_text(deep_line(shape, 1200) + "\n", encoding="utf-8")
    tokens, rebuilt = tmp_path / "tokens.jsonl", tmp_path / "rebuilt.discbracket"
    scheme = ["--scheme", "inorder+swap"]
    for argv in (
        ["linearize", *scheme, "--jsonl", "--in", str(trees), "--out", str(tokens)],
        ["roundtrip", *scheme, "--in", str(trees)],
        ["stats", *scheme, "--in", str(trees)],
        ["delinearize", *scheme, "--tokens", str(tokens), "--out", str(rebuilt)],
        ["eval", "--json", "--gold", str(trees), "--pred", str(rebuilt)],
    ):
        proc = subprocess.run([sys.executable, "-m", "discoseq.cli", *argv],
                              capture_output=True, text=True)
        assert (argv[0], proc.returncode) == (argv[0], 0), proc.stderr
        assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["exact_match"] == 1.0


# --- every command ends in an exit code on any input ------------------------

_TOY_LINES = [dq.emit_discbracket(tree) for tree in dq.bundled("toy20.discbracket")]
_SCHEMES = [str(scheme) for scheme in dq.SHIPPED_SCHEMES]
_TOKEN_TEXTS = ["SHIFT", "SHIFT#1", "SWAP", "SWAP#2", "SWAP#99", "NT(S)", "NT(NP)",
                "REDUCE", "REDUCE(S)", "REDUCE#2(S)", "REDUCE#0(VP)", "FINISH", "NT()",
                "BOGUS"]
_WORDS = st.lists(st.sampled_from(["a", "b", "the", "(", "=", "\\"]), max_size=4)
_TOKENS = st.lists(st.sampled_from(_TOKEN_TEXTS), max_size=8)


@st.composite
def _tree_lines(draw):
    """A toy20 line after up to three edits, or a chain over 1,000 deep."""
    if draw(st.integers(0, 9)) == 0:
        return deep_line("chain", draw(st.integers(1001, 1100)))
    line = draw(st.sampled_from(_TOY_LINES))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(len(line), start + 8)))
        piece = draw(st.sampled_from(["", line[start:end] * 2, *"()= \t\\09", "\u0663",
                                      "\r"]))
        line = line[:start] + piece + line[end:]
    return line


# JSONL records with any field missing, of the wrong type or naming another
# scheme, and lines that are not JSON at all
_RECORDS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "sentence": _WORDS | _TOKENS | st.text(max_size=3) | st.integers() | st.none(),
        "tokens": _TOKENS | _WORDS | st.text(max_size=3) | st.integers() | st.none(),
        "scheme": st.sampled_from(_SCHEMES) | st.integers(),
    }).map(json.dumps),
    st.sampled_from(["{", '{"sentence": ["a"]', "[]"]),
)


@st.composite
def _runs(draw):
    """A command line and the files it reads, by name."""
    command = draw(st.sampled_from(["linearize", "roundtrip", "stats", "eval",
                                    "mask-trace", "delinearize"]))
    scheme = ["--scheme", draw(st.sampled_from(_SCHEMES))]
    tree_files = st.lists(_tree_lines(), min_size=1, max_size=3).map("\n".join)
    if command == "mask-trace":
        return [command, *scheme, "--tree=" + draw(_tree_lines())], {}
    if command == "eval":
        files = {"gold": draw(tree_files), "pred": draw(tree_files)}
        return [command, "--gold", "gold", "--pred", "pred", "--json"], files
    if command != "delinearize":
        extra = ["--jsonl"] if command == "linearize" and draw(st.booleans()) else []
        return [command, *scheme, "--in", "trees", *extra], {"trees": draw(tree_files)}
    if draw(st.booleans()):
        records = draw(st.lists(_RECORDS, min_size=1, max_size=3))
        return [command, *scheme, "--tokens", "tokens"], {"tokens": "\n".join(records)}
    lines = draw(st.lists(_TOKENS.map(" ".join), min_size=1, max_size=3))
    sentences = draw(st.lists(_WORDS.map(" ".join), min_size=1, max_size=3))
    files = {"tokens": "\n".join(lines), "sentences": "\n".join(sentences)}
    return [command, *scheme, "--tokens", "tokens", "--sentences", "sentences"], files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(_runs())
@settings(deadline=None, max_examples=150)
def test_every_command_exits_with_a_documented_code(fuzz_dir, run_and_files):
    argv, files = run_and_files
    for name, text in files.items():
        (fuzz_dir / name).write_text(text + "\n", encoding="utf-8")
    argv = [str(fuzz_dir / arg) if arg in files else arg for arg in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()



# --- predict ends in an exit code on any checkpoint bytes -------------------

@pytest.fixture(scope="module")
def checkpoint_parts(toy20, tmp_path_factory):
    """A tiny checkpoint's header text and payload, and a sentence file."""
    import numpy as np
    from discoseq.neural import ModelConfig, init_parameters, save_checkpoint
    from discoseq.neural.checkpoint import MAGIC
    from discoseq.neural.training import build_vocabularies
    words, tokens = build_vocabularies(list(toy20)[:2], "inorder+swap")
    config = ModelConfig(scheme="inorder+swap", word_to_id=words, token_to_id=tokens,
                         d_model=8, n_heads=2, n_layers=1, d_ff=16, max_positions=16)
    directory = tmp_path_factory.mktemp("checkpoint-fuzz")
    saved = directory / "model.ckpt"
    save_checkpoint(str(saved), init_parameters(config, np.random.default_rng(0)), config)
    data = saved.read_bytes()
    (length,) = struct.unpack("<Q", data[len(MAGIC):len(MAGIC) + 8])
    header_end = len(MAGIC) + 8 + length
    (directory / "sentences").write_text("the dog ran\n", encoding="utf-8")
    return directory, MAGIC, data[len(MAGIC) + 8:header_end], data[header_end:]


# a JSON value in the header: a number, a string, true, false or null
_JSON_VALUE = re.compile(rb'-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|"[^"]*"|true|false|null')
# what a value may become; no number past 64, since a greedy search on an
# untrained model runs to max_positions
_NEW_VALUES = st.sampled_from([b"0", b"1", b"-1", b"2", b"3", b"64", b"1.5", b"1e308",
                               b'"x"', b'""', b'"inorder"', b"true", b"null", b"[]", b"{}",
                               b"[8, 8]", b'{"a": 1}'])
_HEADER_BYTES = st.sampled_from(list(b'0129-.,:"{}[] eE') + [0x80, 0xFF])


@st.composite
def _checkpoint_edits(draw, header: bytes):
    """A checkpoint's header with values and bytes replaced, a length field
    (None for the true length, small ints as offsets from it) and a change
    of the payload size in bytes."""
    values = list(_JSON_VALUE.finditer(header))
    for _ in range(draw(st.integers(0, 2))):
        match = values[draw(st.integers(0, len(values) - 1))]
        header = header[:match.start()] + draw(_NEW_VALUES) + header[match.end():]
        values = list(_JSON_VALUE.finditer(header))
    header = bytearray(header)
    for _ in range(draw(st.integers(0, 1))):
        header[draw(st.integers(0, len(header) - 1))] = draw(_HEADER_BYTES)
    length = draw(st.one_of(st.none(), st.integers(-16, 16),
                            st.sampled_from([2**40, 2**62, 2**64 - 1])))
    payload = draw(st.one_of(st.just(0), st.integers(-64, 64)))
    return bytes(header), length, payload


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_predict_exits_with_a_documented_code_on_mutated_checkpoints(checkpoint_parts,
                                                                   data):
    directory, magic, header, payload = checkpoint_parts
    header, length, change = data.draw(_checkpoint_edits(header))
    if length is None or length < 2**32:
        length = max(0, len(header) + (length or 0))
    payload = payload[:len(payload) + change] if change < 0 else payload + bytes(change)
    path = directory / "mutated.ckpt"
    path.write_bytes(magic + struct.pack("<Q", length) + header + payload)
    argv = ["predict", "--checkpoint", str(path), "--beam", "1",
            "--in", str(directory / "sentences")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
