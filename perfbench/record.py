"""Run the benchmark over several seeds and summarize the runs.

    python3 perfbench/record.py --seeds 1-10 --out <file.json> [--workloads a,b]
    python3 perfbench/record.py --seeds 11-20 --out <file2.json> --first <file.json>

For each workload this runs ``run.py`` once per seed with tracing off and
once with tracing on (first seed), then reports for every end-to-end metric
its values per seed, median and quartiles, and the quartile spread as a share of
the median next to a third of the metric's bound from ``BENCHMARK.json``.
From the traced run it reports the per-layer metrics, the tracing overhead
(traced minus untraced, same seed) and whether both runs produced the same
output digest.  With ``--first``, each end-to-end median is also compared
with that of an earlier record: the two sets agree when the second median is
not worse than the first by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - start,
            "result": json.loads(lines[-1]), "detail": detail}


# Per-run detail kept in the record; the rest (per-command timings, the
# environment of every run) stays in each run's own output.
KEPT = ("passes", "pass_s", "op", "stages_s", "encode", "decode", "sketch_rel_err",
        "fail_frac", "probes", "problems", "output_sha256", "setup")


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third_of_bound": spread < bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first", type=Path, help="an earlier record to compare with")
    args = parser.parse_args(argv)
    first = json.loads(args.first.read_text())["workloads"] if args.first else {}

    seeds = parse_seeds(args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "env": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            m = runs[-1]["result"]["metrics"]
            print(workload, seed, {k: round(v["value"], 6) for k, v in m.items()},
                  "failed", runs[-1]["result"]["failed"], flush=True)
        w = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {m["name"]: summarize(
                [r["result"]["metrics"][m["name"]]["value"] for r in runs], m["bound"])
                for m in spec["end_to_end"]},
            "details": [{k: r["detail"][k] for k in KEPT if k in r["detail"]} for r in runs],
        }
        record["env"] = record["env"] or runs[0]["detail"]["env"]
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        tm = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        plain = runs[0]
        pm = plain["result"]["metrics"]
        w["traced"] = {
            "seed": seeds[0],
            "correct": traced["result"]["correct"],
            "per_layer": tm,
            "overhead": {
                "pipeline_s": tm["trace.pipeline_s"] - pm["pipeline_s"]["value"],
                "op_p50_ms": tm["trace.op_p50_ms"] - plain["detail"]["op"]["p50"],
            },
            "same_output_sha256": traced["detail"]["output_sha256"]
            == plain["detail"]["output_sha256"],
            "autgroup_ranks_share_of_wall": (tm["layer.autgroup_s"] + tm["layer.ranks_s"])
            / tm["trace.wall_s"],
            "attributed_frac": tm["trace.attributed_frac"],
            "cli_self_frac": tm["trace.cli_self_frac"],
            "detail": {k: traced["detail"][k] for k in KEPT if k in traced["detail"]},
        }
        print(workload, "traced", json.dumps({k: w["traced"][k] for k in (
            "overhead", "same_output_sha256", "autgroup_ranks_share_of_wall",
            "attributed_frac", "cli_self_frac")}),
            flush=True)
        for name, s in w["end_to_end"].items():
            print(f"{workload} {name} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(third of bound {s['bound'] / 3:.4f})", flush=True)
            if workload in first:
                before = first[workload]["end_to_end"][name]["median"]
                s["first_median"] = before
                s["agrees_with_first"] = s["median"] <= before * (1 + s["bound"])
                print(f"{workload} {name} first median {before:.6g} ratio "
                      f"{s['median'] / before:.4f} agrees {s['agrees_with_first']}", flush=True)
        record["workloads"][workload] = w
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
