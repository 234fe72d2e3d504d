"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Imports ``skewhad`` from ``src/`` of the same
checkout, runs one workload (see ``workloads.py``) for the given seconds,
checks every output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, and the spans are written to
``.bench_out/``.  The line before it, prefixed ``detail``, holds the
per-stage timings, tail percentiles with sample counts, the probe outcomes,
the output digest and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7

# Cap BLAS/OpenMP threads at the usable core count before numpy loads, so
# that BLAS-based code is always compared at the same thread count.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skewhad" / "__init__.py").is_file():
        print(f"error: no skewhad package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skewhad
    import skewhad.cli  # noqa: F401  (loads the cli layer onto the package)

    if Path(skewhad.__file__).resolve().parent != SRC / "skewhad":
        print(f"error: imported skewhad from {skewhad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import report
    from perfbench.tracer import Tracer

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        tracer = Tracer() if args.trace else None
        prepare, run = workloads.WORKLOADS[args.workload]
        ctx = workloads.Context(skewhad, work, expected, args.seed)
        tally = workloads.Tally()
        setup_code = prepare(ctx, tally)
        setup_raw = report.time_setup(setup_code, SRC, ROOT, SETUP_SAMPLES)
        setup_s = statistics.median(setup_raw)
        if tracer:
            ctx.tracer = tracer
            tracer.install(skewhad)
        try:
            ctx.deadline = time.perf_counter() + args.seconds
            run(ctx, tally)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = tally.summarize()
    env = report.environment(ROOT, args.seed, NPROC, THREAD_VARS[0])
    setup = {"median_s": setup_s, "samples_s": setup_raw}
    detail = report.detail(args.workload, args.trace, tally, summary, setup, env)
    if tracer:
        metrics = tracer.metrics(tally.passes)
        metrics.update(report.traced_summary(summary))
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = report.end_to_end(summary, setup_s)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    report.print_summary(detail, metrics)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
