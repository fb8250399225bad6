"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench/test_bench.py -q

Runs every workload to its end, traced and untraced, and shows that the
checks reject corrupted outputs.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0.2", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_to_its_end(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in ("convert", "parse"):
        done = _run(tmp_path, workload, 0)
        assert done.returncode != 0
        assert not done.stdout.strip()


@pytest.fixture(scope="module")
def dq():
    return workloads.import_discoseq()


def _inputs(tmp_path, workload):
    run.make_inputs(workload, "toy", 5, tmp_path)
    return tmp_path


def _move_a_leaf(line: str) -> str:
    """Swap the first two leaves that sit at different depths."""
    tree = line.replace("(", " ( ").replace(")", " ) ").split()
    leaves = [i for i, t in enumerate(tree) if "=" in t]
    depth, owner = 0, {}
    for i, t in enumerate(tree):
        depth += (t == "(") - (t == ")")
        owner[i] = depth
    for a in leaves:
        for b in leaves:
            if owner[a] != owner[b]:
                tree[a], tree[b] = tree[b], tree[a]
                return " ".join(tree).replace("( ", "(").replace(" )", ")")
    raise AssertionError("no two leaves at different depths")


def test_convert_check_rejects_a_moved_leaf(tmp_path, dq):
    convert = workloads.Convert(_inputs(tmp_path, "convert"),
                                workloads.SIZES["toy"]["convert"])
    convert.setup()
    result = convert.round()
    assert convert.check(result)[0] == []
    rebuilt = convert.work / "inorder+swap.discbracket"
    lines = rebuilt.read_text().splitlines()
    lines[0] = _move_a_leaf(lines[0])
    rebuilt.write_text("\n".join(lines) + "\n")
    problems = convert.check(result)[0]
    assert any("inorder+swap tree 0: brackets differ" in p for p in problems)


def test_token_checks_reject_broken_lines(dq):
    words, brackets, line = gen.generate(4, 1, 8, 8, 8, 0.3)[0]
    gold = {"words": words, "brackets": brackets}
    tree = dq.parse_discbracket(line)
    for scheme in workloads.CONVERT_SCHEMES:
        tokens = [str(t) for t in dq.encode(tree, dq.parse_scheme(scheme))]
        assert checks.check_token_line(tokens, scheme, gold) == []
        assert checks.check_token_line(tokens + ["SHIFT"], scheme, gold)
        assert checks.check_token_line(tokens[:-1], scheme, gold)


def test_parse_check_rejects_a_perturbed_score(tmp_path, dq):
    parse = workloads.Parse(_inputs(tmp_path, "parse"), workloads.SIZES["toy"]["parse"])
    parse.setup()
    result = parse.round()
    assert parse.check(result)[0] == []
    prediction, decoded = result["predictions"][0]
    moved = dataclasses.replace(prediction, score=prediction.score + 1e-6)
    result["predictions"][0] = (moved, decoded)
    problems = parse.check(result)[0]
    assert any("sentence 0: beam score" in p for p in problems)


def test_scores_must_match_the_benchmarks_own_matching():
    gold = [checks.bracket_multiset([["S", [0, 1, 2]], ["VP", [0, 2]]])]
    pred = [checks.bracket_multiset([["S", [0, 1, 2]], ["VP", [0, 1]]])]
    f1, disc_f1 = checks.bracket_scores(gold, pred)
    assert (f1, disc_f1) == (50.0, 0.0)

    @dataclasses.dataclass
    class Score:
        f1: float

    @dataclasses.dataclass
    class Report:
        labeled: Score
        discontinuous: Score

    assert checks.same_scores(Report(Score(50.0), Score(0.0)), f1, disc_f1) == []
    assert checks.same_scores(Report(Score(50.1), Score(0.0)), f1, disc_f1)
