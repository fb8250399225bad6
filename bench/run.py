"""discoseq benchmark: convert, train and parse workloads.

    python3 bench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs
from the seed, runs each measurement in a fresh process, and prints as
its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones (set-up
time is the median of several fresh processes); with `--trace 1` they
are the per-layer figures of one traced process, whose spans are
written to `.bench_out/`.  See bench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROCESSES = 5  # fresh processes whose set-up time is measured
RUN_LIMIT_S = 175  # every worker of a run must end within this

END_TO_END = {"setup_s": "s", "sentences_per_s": "sentences/s",
              "latency_ms_p50": "ms", "latency_ms_p75": "ms",
              "peak_rss_mb": "MiB", "f1": "%", "disc_f1": "%",
              "token_accuracy_pct": "%"}

# One worker thread for the numeric library, and a fixed hash seed, so
# timings are steady and every quality figure is reproducible.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def make_inputs(workload: str, size: str, seed: int, directory: Path) -> dict:
    """Write the workload's generated files; return their description."""
    if workload == "parse":
        spec = dict(workloads.PARSE_EVAL)
        spec["count"] = workloads.SIZES[size]["parse"]["count"]
        trees = gen.generate(spec.pop("seed"), **spec)
        random.Random(seed).shuffle(trees)
    else:
        spec = dict(workloads.SIZES[size][workload])
        spec.pop("epochs", None)
        trees = gen.generate(seed, **spec)
    gen.write(directory, workload, trees)
    return gen.describe(trees)


def _worker(workload: str, args, inputs: Path, extra: list[str]) -> dict:
    """Run one measuring process; its last stdout line is its JSON."""
    env = dict(os.environ, **WORKER_ENV)
    command = [sys.executable, str(BENCH / "workloads.py"), workload,
               "--inputs", str(inputs), "--size", args.size,
               "--seconds", str(args.seconds)] + extra
    spawned_at = time.monotonic()
    remaining = max(1.0, args.deadline - spawned_at)
    done = subprocess.run(command + ["--spawned-at", repr(spawned_at)], env=env,
                          capture_output=True, text=True, timeout=remaining)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _untraced(args, inputs: Path) -> dict:
    setups = [_worker(args.workload, args, inputs, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    raw = _worker(args.workload, args, inputs, [])
    setups.append(raw["setup_s"])
    values = {**raw, **raw["quality"], "setup_s": statistics.median(setups)}
    rates = ", ".join(f"{rate:.4g}" for rate in raw["round_rates"])
    print(f"round rates [{rates}], latency samples {raw['latency_samples']}, "
          f"setup samples {[round(s, 4) for s in setups]}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return {"raw": raw, "metrics": metrics}


def _traced(args, inputs: Path) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{args.workload}-{args.seed}.json"
    raw = _worker(args.workload, args, inputs, ["--trace", str(spans)])
    metrics = {}
    for name, unit in tracing.UNITS.items():
        value = raw["layers"].get(name, 0)  # 0: the workload never enters it
        metrics[name] = {"value": round(value) if unit == "count" else value,
                         "unit": unit}
    summary = {key: raw[key] for key in ("iterations", "traced_s", "untraced_s",
                                         "overhead", "spans_by_name")}
    (out_dir / f"trace-{args.workload}-{args.seed}.summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(f"tracing overhead {100 * raw['overhead']:.1f}% "
          f"({raw['traced_s']:.3f}s traced vs {raw['untraced_s']:.3f}s per "
          f"iteration); spans in {spans.relative_to(ROOT)}", file=sys.stderr)
    return {"raw": raw, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; `toy` is for the self-test")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    needed = [workloads.SRC / "discoseq" / "__init__.py"]
    if args.workload == "parse":
        needed.append(workloads.CHECKPOINT)
    missing = [path for path in needed if not path.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}; run from the "
              f"root of a discoseq checkout", file=sys.stderr)
        return 2
    inputs = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        described = make_inputs(args.workload, args.size, args.seed, inputs)
        print(f"inputs: {json.dumps(described)}", file=sys.stderr)
        run = _traced if args.trace else _untraced
        result = run(args, inputs)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    raw = result["raw"]
    for problem in raw["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not raw["problems"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
