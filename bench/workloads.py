"""One benchmark process: set up, run whole rounds, check, report.

Run by `run.py` as a fresh process per measurement:

    python3 bench/workloads.py WORKLOAD --inputs DIR --size full \
        --seconds 25 --spawned-at T [--setup-only | --trace FILE]

`T` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start, the `discoseq` import
and reading inputs.  A round is the workload's whole input set; rounds
repeat until their summed time reaches `--seconds`.  The last line of
standard output is one JSON object of raw measurements.
"""

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CONVERT_SCHEMES = ("topdown+swap", "inorder+swap", "bottomup+swap",
                   "inorder+swapk", "inorder+shiftk")
TRAIN_SCHEME = "inorder+swap"
BEAM = 10  # the `discoseq predict` default
CHECKPOINT = BENCH / "data" / "parse.ckpt"

# Generator settings per workload and size.  `toy` is the self-test's.
SIZES = {
    "full": {
        "convert": {"count": 240, "min_len": 3, "max_len": 100, "median_len": 20,
                    "disc": 0.07},
        "train": {"count": 96, "min_len": 3, "max_len": 25, "median_len": 10,
                  "disc": 0.15, "epochs": 4},
        "parse": {"count": 40},
    },
    "toy": {
        "convert": {"count": 12, "min_len": 3, "max_len": 30, "median_len": 8,
                    "disc": 0.2},
        "train": {"count": 6, "min_len": 3, "max_len": 10, "median_len": 5,
                  "disc": 0.2, "epochs": 3},
        "parse": {"count": 6},
    },
}

# The parse checkpoint's recipe and its held-out evaluation sentences.
# Both are fixed, so `f1` and `disc_f1` are the checkpoint's reference
# figures; the seed only permutes the order the sentences are parsed in.
RECIPE = {"seed": 1001, "count": 400, "min_len": 3, "max_len": 20,
          "median_len": 9, "disc": 0.2, "scheme": "inorder+swap", "epochs": 30}
PARSE_EVAL = {"seed": 2002, "count": 40, "min_len": 3, "max_len": 14,
              "median_len": 7, "disc": 0.3}


def import_discoseq():
    """Import the package from this checkout's `src`, nowhere else.

    Called before any workload method, which import from it freely.
    """
    sys.path.insert(0, str(SRC))
    import discoseq
    if Path(discoseq.__file__).resolve().parent != SRC / "discoseq":
        raise ImportError(f"discoseq imported from {discoseq.__file__}, "
                          f"not from {SRC}")
    return discoseq


def _quantiles(samples: list[float]) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=4)[2]


class _Workload:
    """Set-up, one timed round, and the checks of a round's outputs."""

    name = ""

    def __init__(self, inputs: Path, size: dict):
        self.inputs = inputs
        self.count = size["count"]

    @cached_property
    def generated(self) -> list[dict]:
        """The generator's words and brackets per tree, for the checks."""
        return json.loads((self.inputs / f"{self.name}.gold.json").read_text())

    def final_checks(self) -> list[str]:
        return []

    def rate(self, result: dict) -> float:
        return (result["attempted"] - result["failed"]) / result["elapsed"]


class Convert(_Workload):
    """linearize -> delinearize -> eval through `cli.main`, per scheme."""

    name = "convert"

    def __init__(self, inputs: Path, size: dict):
        super().__init__(inputs, size)
        self.trees = inputs / "convert.discbracket"
        self.work = inputs / "out"
        self.work.mkdir(exist_ok=True)
        self.jobs = "1"

    def setup(self) -> None:
        from discoseq import cli
        self.cli = cli

    def round(self) -> dict:
        started = time.perf_counter()
        calls, passes = [], []
        for scheme in CONVERT_SCHEMES:
            tokens = self.work / f"{scheme}.jsonl"
            rebuilt = self.work / f"{scheme}.discbracket"
            argvs = (
                ["linearize", "--scheme", scheme, "--jsonl", "--jobs", self.jobs,
                 "--in", str(self.trees), "--out", str(tokens)],
                ["delinearize", "--scheme", scheme, "--jobs", self.jobs,
                 "--tokens", str(tokens), "--out", str(rebuilt)],
                ["eval", "--json", "--jobs", self.jobs, "--gold", str(self.trees),
                 "--pred", str(rebuilt)],
            )
            codes, logs = [], []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                begin = time.perf_counter()
                with redirect_stdout(out), redirect_stderr(err):
                    codes.append(self.cli.main(argv))
                calls.append(time.perf_counter() - begin)
                logs.append((out.getvalue(), err.getvalue()))
            passes.append({"scheme": scheme, "codes": codes, "logs": logs})
        return {"elapsed": time.perf_counter() - started, "latencies": calls,
                "passes": passes, "attempted": self.count * len(CONVERT_SCHEMES),
                "failed": sum(self.count for done in passes if any(done["codes"]))}

    def check(self, result: dict) -> tuple[list[str], dict]:
        """Problems and quality figures of one round."""
        gold = self.generated
        all_brackets = sum(len(g["brackets"]) for g in gold)
        disc_brackets = sum(1 for g in gold for _, pos in g["brackets"]
                            if checks.gapped(pos))
        problems = []
        f1s, disc_f1s, tokens_total, repairs = [], [], 0, 0
        for done in result["passes"]:
            scheme = done["scheme"]
            if any(done["codes"]):
                print(f"{scheme}: exit codes {done['codes']}", file=sys.stderr)
                continue
            lines = (self.work / f"{scheme}.jsonl").read_text().splitlines()
            trees = (self.work / f"{scheme}.discbracket").read_text().splitlines()
            if len(lines) != len(gold) or len(trees) != len(gold):
                problems.append(f"{scheme}: {len(lines)} token lines, "
                                f"{len(trees)} trees for {len(gold)} inputs")
                continue
            for i, (line, tree, g) in enumerate(zip(lines, trees, gold)):
                record = json.loads(line)
                tokens_total += len(record["tokens"])
                found = checks.check_token_line(record["tokens"], scheme, g)
                if record["sentence"] != g["words"]:
                    found.append("token line carries other words")
                found += checks.check_tree_line(tree, g)
                problems += [f"{scheme} tree {i}: {p}" for p in found]
            summary = done["logs"][1][1]
            repairs += checks.summary_repairs(summary)
            report = json.loads(done["logs"][2][0])
            labeled, disc = report["labeled"], report["discontinuous"]
            counts = (labeled["matched"], labeled["gold_total"], labeled["predicted_total"])
            if counts != (all_brackets,) * 3:
                problems.append(f"{scheme}: eval matched/gold/predicted {counts}, "
                                f"generator has {all_brackets} brackets")
            disc_counts = (disc["matched"], disc["gold_total"], disc["predicted_total"])
            if disc_counts != (disc_brackets,) * 3:
                problems.append(f"{scheme}: eval discontinuous counts {disc_counts}, "
                                f"generator has {disc_brackets}")
            f1s.append(labeled["f1"])
            disc_f1s.append(disc["f1"])
        quality = {}
        if f1s:
            quality = {"f1": min(f1s), "disc_f1": min(disc_f1s),
                       "token_accuracy_pct": 100.0 * (1 - repairs / tokens_total)}
        return problems, quality


class Train(_Workload):
    """The `train()` call `discoseq train` makes, on a parsed treebank."""

    name = "train"

    def __init__(self, inputs: Path, size: dict):
        super().__init__(inputs, size)
        self.epochs = size["epochs"]

    def setup(self) -> None:
        from discoseq import treebank
        from discoseq.neural import training
        self.training = training
        path = self.inputs / "train.discbracket"
        with open(path, encoding="utf-8") as handle:
            self.gold = treebank.parse_treebank(handle, "discbracket", source=str(path))

    def round(self) -> dict:
        stamps = []
        started = time.perf_counter()
        fit = self.training.train(list(self.gold), TRAIN_SCHEME,
                                  early_stop_accuracy=None,
                                  log=lambda stats: stamps.append(time.perf_counter()),
                                  epochs=self.epochs)
        elapsed = time.perf_counter() - started
        latencies = [b - a for a, b in zip([started] + stamps, stamps)]
        return {"elapsed": elapsed, "latencies": latencies, "fit": fit,
                "attempted": self.count * self.epochs, "failed": 0}

    def check(self, result: dict) -> tuple[list[str], dict]:
        fit = result["fit"]
        history = fit.history
        problems = []
        if len(history) != self.epochs:
            problems.append(f"{len(history)} epochs, expected {self.epochs}")
        if not history[-1].loss < history[0].loss:
            problems.append(f"final loss {history[-1].loss} is not below the "
                            f"first epoch's {history[0].loss}")
        # The training targets decode back to the gold trees.
        import discoseq as dq
        from discoseq.neural import training
        examples = training.build_examples(self.gold, TRAIN_SCHEME, fit.config)
        id_to_token = fit.config.id_to_token
        scheme = dq.parse_scheme(TRAIN_SCHEME)
        gold_sets, pred_sets, trees = [], [], []
        for example, g in zip(examples, self.generated, strict=True):
            tokens = [dq.parse_transition(id_to_token[int(i)]) for i in example.target_ids]
            tree = dq.decode(g["words"], tokens, scheme).tree
            brackets, found = checks.tree_brackets(tree, len(g["words"]))
            problems += found
            gold_sets.append(checks.bracket_multiset(g["brackets"]))
            pred_sets.append(brackets)
            trees.append(tree)
        f1, disc_f1 = checks.bracket_scores(gold_sets, pred_sets)
        report = dq.evaluate(list(self.gold), trees, remove_punctuation=False,
                             ignore_root=False)
        problems += checks.same_scores(report, f1, disc_f1)
        quality = {"f1": report.labeled.f1, "disc_f1": report.discontinuous.f1,
                   "token_accuracy_pct": 100.0 * history[-1].token_accuracy,
                   "final_loss": history[-1].loss}
        return problems, quality

    def final_checks(self) -> list[str]:
        """grad_check on a tiny model built from the two shortest trees."""
        import numpy as np
        from discoseq.neural import ModelConfig, grad_check, init_parameters, training
        tiny = sorted(self.gold, key=len)[:2]
        words, tokens = training.build_vocabularies(tiny, TRAIN_SCHEME)
        config = ModelConfig(scheme=TRAIN_SCHEME, word_to_id=words, token_to_id=tokens,
                             d_model=4, n_heads=2, n_layers=1, d_ff=8)
        params = init_parameters(config, np.random.default_rng(0))
        examples = training.build_examples(tiny, TRAIN_SCHEME, config)
        error = grad_check(params, config, examples)
        return [] if error < 1e-4 else [f"grad_check error {error:.2e} >= 1e-4"]


class Parse(_Workload):
    """Beam search over held-out sentences with the checked-in checkpoint."""

    name = "parse"

    def __init__(self, inputs: Path, size: dict):
        super().__init__(inputs, size)
        self.beam_size = BEAM

    def setup(self) -> None:
        import discoseq as dq
        from discoseq import treebank
        from discoseq.neural import checkpoint
        self.params, self.config = checkpoint.load_checkpoint(str(CHECKPOINT))
        with open(self.inputs / "parse.sentences", encoding="utf-8") as handle:
            self.sentences = [line.split() for line in handle if line.strip()]
        path = self.inputs / "parse.discbracket"
        with open(path, encoding="utf-8") as handle:
            self.gold = treebank.parse_treebank(handle, "discbracket", source=str(path))
        self.scheme = dq.parse_scheme(self.config.scheme)
        self.decode = sys.modules["discoseq.decode"]
        self.metrics = sys.modules["discoseq.metrics"]
        from discoseq.neural import beam
        self.beam = beam

    def round(self) -> dict:
        started = time.perf_counter()
        latencies, predictions, trees, failed = [], [], [], 0
        for words in self.sentences:
            begin = time.perf_counter()
            try:
                prediction = self.beam.predict(self.params, self.config, words,
                                               beam_size=self.beam_size)
                result = self.decode.decode(words, list(prediction.tokens), self.scheme)
            except Exception:  # one sentence's fault must not end the run
                traceback.print_exc(file=sys.stderr)
                failed += 1
                prediction = result = None
            latencies.append(time.perf_counter() - begin)
            predictions.append((prediction, result))
            if result is not None:
                trees.append(result.tree)
        scored = [g for g, (p, _) in zip(self.gold, predictions) if p is not None]
        report = self.metrics.evaluate(scored, trees, remove_punctuation=False,
                                       ignore_root=False)
        return {"elapsed": time.perf_counter() - started, "latencies": latencies,
                "predictions": predictions, "report": report, "failed": failed,
                "attempted": len(self.sentences)}

    def check(self, result: dict) -> tuple[list[str], dict]:
        import discoseq as dq
        import numpy as np
        from discoseq.neural import forward
        problems, gold_sets, pred_sets, flat_sets = [], [], [], []
        correct = total = 0
        for i, ((prediction, decoded), g) in enumerate(zip(result["predictions"],
                                                           self.generated)):
            if prediction is None:
                continue
            words = g["words"]
            brackets, found = checks.tree_brackets(decoded.tree, len(words))
            if list(decoded.tree.sentence) != words:
                found.append("tree words differ from the sentence")
            if prediction.terminal and decoded.repairs:
                found.append(f"terminal prediction needed {len(decoded.repairs)} repairs")
            word_ids = self.config.word_ids(words)
            ids = [self.config.token_to_id[str(t)] for t in prediction.tokens]
            pairs = dq.trace(len(words), prediction.tokens, self.scheme)
            probs = forward(word_ids, ids, pairs, self.params, self.config)
            score = float(np.log(probs[np.arange(len(ids)), ids]).sum())
            if abs(score - prediction.score) > 1e-9:
                found.append(f"beam score {prediction.score!r} but forward gives {score!r}")
            # teacher-forced accuracy of the checkpoint on the gold sequence
            gold_tokens = dq.encode(self.gold[i], self.scheme)
            gold_ids = [self.config.token_to_id[str(t)] for t in gold_tokens]
            gold_pairs = dq.trace(len(words), gold_tokens, self.scheme)
            rows = forward(word_ids, gold_ids, gold_pairs, self.params, self.config)
            correct += int((rows[:-1].argmax(axis=-1) == gold_ids).sum())
            total += len(gold_ids)
            problems += [f"sentence {i}: {p}" for p in found]
            gold_sets.append(checks.bracket_multiset(g["brackets"]))
            pred_sets.append(brackets)
            flat_sets.append(checks.flat_brackets(self.gold[i].root.label, len(words)))
        f1, disc_f1 = checks.bracket_scores(gold_sets, pred_sets)
        report = result["report"]
        problems += checks.same_scores(report, f1, disc_f1)
        flat_f1, _ = checks.bracket_scores(gold_sets, flat_sets)
        if not f1 > flat_f1:
            problems.append(f"f1 {f1:.2f} does not beat the flat baseline {flat_f1:.2f}")
        quality = {"f1": report.labeled.f1, "disc_f1": report.discontinuous.f1,
                   "token_accuracy_pct": 100.0 * correct / total,
                   "flat_f1": flat_f1,
                   "tokens": [[str(t) for t in p.tokens] if p else None
                              for p, _ in result["predictions"]]}
        return problems, quality


WORKLOADS = {"convert": Convert, "train": Train, "parse": Parse}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(workload, args) -> dict:
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}
    rounds, problems, failed, attempted, quality = [], [], 0, 0, None
    latencies: list[list[float]] = []
    peak = 0.0
    while not rounds or sum(r["elapsed"] for r in rounds) < args.seconds:
        result = workload.round()
        peak = _peak_rss_mb()  # read before this round's checks run
        found, figures = workload.check(result)
        problems += found
        failed += result["failed"]
        attempted += result["attempted"]
        if quality is not None and figures != quality:
            problems.append("a round's quality figures differ from the first round's")
        quality = figures
        latencies.append(result["latencies"])
        rounds.append({"elapsed": result["elapsed"], "rate": workload.rate(result)})
    problems += workload.final_checks()
    if isinstance(workload, Parse):
        # one latency per sentence: its median over the rounds
        samples = [statistics.median(times) for times in zip(*latencies)]
    else:
        samples = [t for times in latencies for t in times]
    p50, p75 = _quantiles(samples)
    quality.pop("tokens", None)
    return {"setup_s": setup_s, "round_rates": [r["rate"] for r in rounds],
            "sentences_per_s": statistics.median(r["rate"] for r in rounds),
            "latency_ms_p50": 1000.0 * p50, "latency_ms_p75": 1000.0 * p75,
            "latency_samples": len(samples), "peak_rss_mb": peak,
            "quality": quality, "attempted": attempted, "failed": failed,
            "problems": problems}


def _traced(workload, args) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    iterations, walls, result = [], [], None
    try:
        while not walls or sum(walls) < args.seconds:
            begin = time.perf_counter()
            workload.setup()
            result = workload.round()
            walls.append(time.perf_counter() - begin)
            iterations.append(tracer.layer_metrics())
            if len(walls) == 1:
                first_spans = tracer.by_name()
                tracer.write(args.trace, {"workload": args.workload})
            tracer.reset()
    finally:
        tracer.uninstall()
    problems, _ = workload.check(result)
    begin = time.perf_counter()
    workload.setup()
    workload.round()
    untraced_s = time.perf_counter() - begin
    layers = {name: statistics.median(it.get(name, 0.0) for it in iterations)
              for name in set().union(*iterations)}
    traced_s = statistics.median(walls)
    return {"layers": layers, "iterations": len(walls),
            "traced_s": traced_s, "untraced_s": untraced_s,
            "overhead": traced_s / untraced_s - 1.0, "spans_by_name": first_spans,
            "attempted": result["attempted"] * len(walls),
            "failed": result["failed"] * len(walls),
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    import_discoseq()
    workload = WORKLOADS[args.workload](args.inputs, SIZES[args.size][args.workload])
    run = _traced if args.trace else _untraced
    print(json.dumps(run(workload, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
