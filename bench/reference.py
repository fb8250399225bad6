"""Reference figures recorded in bench/README.md.

    python3 bench/reference.py [--seed 1]

In one process with one BLAS thread: the parse workload with beam 1
against beam 10, and the convert workload with `--jobs 2` against
`--jobs 1`.  Each variant runs two whole rounds after a warm-up round;
the faster round is reported.  The CLI's worker pool with `--jobs 2`
may use the second core, so its figure is the only one here that is
not single-core.
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import run  # noqa: E402  (the thread count must be set before NumPy loads)
import workloads  # noqa: E402


def _best(workload, rounds: int = 2) -> tuple[float, dict]:
    workload.round()
    results = []
    for _ in range(rounds):
        result = workload.round()
        results.append((workload.rate(result), result))
    return max(results, key=lambda item: item[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads.import_discoseq()
    work = workloads.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name, attr, values in (("parse", "beam_size", (1, 10)),
                                   ("convert", "jobs", ("1", "2"))):
            inputs = Path(tmp) / name
            run.make_inputs(name, "full", args.seed, inputs)
            workload = workloads.WORKLOADS[name](inputs, workloads.SIZES["full"][name])
            workload.setup()
            for value in values:
                setattr(workload, attr, value)
                started = time.perf_counter()
                rate, result = _best(workload)
                problems, quality = workload.check(result)
                latencies = sorted(result["latencies"])
                print(f"{name} {attr}={value}: {rate:.4g} sentences/s, "
                      f"median call {1000 * latencies[len(latencies) // 2]:.4g} ms, "
                      f"f1 {quality['f1']:.2f}, disc_f1 {quality['disc_f1']:.2f}, "
                      f"checks {'ok' if not problems else problems[:3]} "
                      f"({time.perf_counter() - started:.0f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
