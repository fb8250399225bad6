"""Make the `parse` workload's checkpoint anew from its recipe.

    python3 bench/make_checkpoint.py [--out bench/data/parse.ckpt]

Generates the recipe's training treebank (workloads.RECIPE: generator
seed, sizes, scheme, epochs; everything else is the default
ModelConfig), trains with one BLAS thread, saves the checkpoint, and
prints the f1 and disc_f1 it reaches on the held-out parse sentences
(workloads.PARSE_EVAL).  Training is deterministic, so the same recipe
on the same NumPy build gives the same bytes.
"""

import argparse
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import gen  # noqa: E402  (the thread count must be set before NumPy loads)
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(workloads.CHECKPOINT))
    args = parser.parse_args(argv)
    dq = workloads.import_discoseq()
    from discoseq.neural import predict, save_checkpoint, train

    recipe = dict(workloads.RECIPE)
    seed, scheme, epochs = recipe.pop("seed"), recipe.pop("scheme"), recipe.pop("epochs")
    trees = gen.generate(seed, **recipe)
    print(f"training on {gen.describe(trees)}", file=sys.stderr)
    gold = dq.parse_treebank([line for _, _, line in trees])
    started = time.perf_counter()
    fit = train(list(gold), scheme, epochs=epochs,
                log=lambda s: print(f"epoch {s.epoch} loss {s.loss:.4f} "
                                    f"acc {s.token_accuracy:.4f}", file=sys.stderr))
    print(f"trained in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    save_checkpoint(args.out, fit.params, fit.config)

    spec = dict(workloads.PARSE_EVAL)
    held_out = gen.generate(spec.pop("seed"), **spec)
    print(f"held out: {gen.describe(held_out)}", file=sys.stderr)
    parsed_scheme = dq.parse_scheme(scheme)
    golds, preds = [], []
    for words, _, line in held_out:
        prediction = predict(fit.params, fit.config, words, beam_size=workloads.BEAM)
        preds.append(dq.decode(words, prediction.tokens, parsed_scheme).tree)
        golds.append(dq.parse_discbracket(line))
    report = dq.evaluate(golds, preds, remove_punctuation=False, ignore_root=False)
    print(f"f1 {report.labeled.f1:.2f} disc_f1 {report.discontinuous.f1:.2f} "
          f"({report.discontinuous.matched}/{report.discontinuous.gold_total} "
          f"discontinuous brackets matched)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
