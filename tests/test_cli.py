import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

import discoseq as dq
from discoseq import cli


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


@pytest.mark.parametrize("argv", [
    ["predict", "--checkpoint", "model.ckpt", "--beam", "0"],
    ["predict", "--checkpoint", "model.ckpt", "--max-len", "0"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--epochs", "0"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--d-model", "0"],
    ["linearize", "--scheme", "inorder", "--jobs", "0"],
    ["linearize", "--scheme", "inorder", "--jobs", "-3"],
    ["train", "--scheme", "inorder", "--out", "m.ckpt", "--seed", "-1"],
], ids=["beam", "max-len", "epochs", "d-model", "jobs-0", "jobs-negative", "seed"])
def test_out_of_range_numeric_option_is_a_usage_error(tmp_path, capsys, argv):
    bank = tmp_path / "one.discbracket"
    bank.write_text("(S 0=a 1=b)\n", encoding="utf-8")
    if argv[0] != "predict":
        argv = argv + ["--in", str(bank)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    expected = "non-negative" if "--seed" in argv else "positive"
    assert f"expected a {expected} integer" in err
    assert "Traceback" not in err


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

    code, _, err = run(["delinearize", "--scheme", "inorder+swap",
                        "--tokens", str(tokens)], capsys)
    assert code == 2
    assert "--sentences" in err

    sentences = tmp_path / "sents.txt"
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


@pytest.mark.parametrize("record", [
    {"sentence": [1, 2], "tokens": ["SHIFT", "SHIFT"]},
    {"sentence": ["a"], "tokens": [1]},
    {"sentence": "ab", "tokens": ["SHIFT", "SHIFT"]},
], ids=["number-words", "number-tokens", "string-sentence"])
def test_delinearize_rejects_malformed_jsonl_record(tmp_path, record):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text('{"sentence": ["a"], "tokens": ["SHIFT"]}\n'
                      + json.dumps(record) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discoseq.cli", "delinearize", "--scheme", "inorder",
         "--tokens", str(tokens)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_roundtrip_clean(toy_path, capsys):
    code, out, err = run(["roundtrip", "--scheme", "inorder+swap",
                          "--in", str(toy_path)], capsys)
    assert code == 0
    assert out == ""
    assert "roundtrip: 20/20 trees reproduced" in err


def test_roundtrip_reports_mismatches(toy_path, capsys, monkeypatch):
    real = cli.decode

    def sabotage(sentence, tokens, scheme, fallback_label="ROOT"):
        return real(sentence, [], scheme, fallback_label)

    monkeypatch.setattr(cli, "decode", sabotage)
    code, out, err = run(["roundtrip", "--scheme", "inorder+swap",
                          "--in", str(toy_path)], capsys)
    assert code == 3
    assert "MISMATCH" in out and "repair:" in out
    assert "roundtrip: 0/20 trees reproduced" in err


def test_roundtrip_reports_a_bad_line_before_any_mismatch(tmp_path, capsys,
                                                         monkeypatch):
    path = tmp_path / "bad.discbracket"
    path.write_text("(S 0=a 1=b)\n(S 0=a 0=b)\n", encoding="utf-8")
    real = cli.decode
    monkeypatch.setattr(cli, "decode", lambda sentence, tokens, scheme, *rest:
                        real(sentence, [], scheme, *rest))
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


def test_mask_trace_autodetects_bracketed(capsys):
    code, out, _ = run(["mask-trace", "--scheme", "topdown",
                        "--tree", "(S (NP a) (VP b))"], capsys)
    assert code == 0
    assert out.splitlines()[1].endswith("{0,1}")


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
        "print(json.dumps([codes, sorted(m for m in sys.modules if 'numpy' in m)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, numpy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert numpy_modules == []


def test_predict_rejects_missing_checkpoint(tmp_path, capsys):
    code, _, err = run(["predict", "--checkpoint", str(tmp_path / "no.ckpt")],
                       capsys)
    assert code == 2
