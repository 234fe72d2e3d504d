"""Statistics, set-up timing and the environment record of one run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# Highest percentile reported for a sample is the largest of these that
# leaves at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(samples, pct))
    return None


def timing(samples: list[float], scale: float, unit: str) -> dict:
    """Median and highest valid tail percentile, with the sample count."""
    out = {"unit": unit, "count": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples) * scale
        t = tail(samples)
        if t:
            out[f"p{t[0]:g}"] = t[1] * scale
    return out


def time_setup(code: str, src: Path, root: Path, samples: int) -> list[float]:
    """Seconds for ``code`` in fresh interpreters, timed from inside each one
    so that interpreter start-up is left out."""
    program = ("import sys, time\n"
               f"sys.path.insert(0, {str(src)!r})\n"
               "start = time.perf_counter()\n"
               f"{code}\n"
               "print(time.perf_counter() - start)\n")
    out = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", program], cwd=root, capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        out.append(float(done.stdout.split()[-1]))
    return out


def end_to_end(summary: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    """The gated metrics: set-up time, and the median of the pass times."""
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(summary["pass_s"]), "s"),
    }


def traced_summary(summary: dict) -> dict[str, tuple[float, str]]:
    """Median pass and op times with tracing on; minus the same figures of
    an untraced run of the same seed, they give the tracing overhead."""
    return {
        "trace.pipeline_s": (statistics.median(summary["pass_s"]), "s"),
        "trace.op_p50_ms": (statistics.median(summary["op_s"]) * 1e3, "ms"),
    }


def detail(workload: str, trace: int, tally, summary: dict, setup: dict, env: dict) -> dict:
    """Everything a reader needs to judge one run, beyond the gated metrics."""
    samples = summary["samples"]
    d = {
        "workload": workload,
        "trace": trace,
        "env": env,
        "setup": setup,
        "passes": tally.passes,
        "pass_s": timing(summary["pass_s"], 1.0, "s"),
        "op": timing(summary["op_s"], 1e3, "ms"),
        "fail_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "problems": tally.problems,
        "output_sha256": tally.pass_digests[0] if tally.pass_digests else None,
    }
    if summary["stage_s"]:
        d["stages_s"] = {f"{stage}_s": statistics.median(v)
                         for stage, v in summary["stage_s"].items()}
        d["stages_s"]["pipeline_s"] = statistics.median(summary["pass_s"])
    if "encode" in samples:
        d["encode"] = timing(samples["encode"], 1e6, "us")
        d["decode"] = timing(samples["decode"], 1e6, "us")
    if tally.rel_errs:
        d["sketch_rel_err"] = float(np.mean(tally.rel_errs))
    if tally.probes:
        d["probes"] = tally.probes
    d["commands_ms"] = {key: timing(v, 1e3, "ms") for key, v in sorted(samples.items())
                        if key not in ("encode", "decode", "roundtrip")}
    return d


def print_summary(detail: dict, metrics: dict) -> None:
    counts = {"setup_s": len(detail["setup"]["samples_s"]), "pipeline_s": detail["passes"],
              "trace.pipeline_s": detail["passes"], "trace.op_p50_ms": detail["op"]["count"]}
    for name, (value, unit) in metrics.items():
        count = f" (median of {counts[name]})" if name in counts else ""
        print(f"{name} {value:.6g} {unit}{count}")
    op = detail["op"]
    print(f"ops {op['count']} p50 {op.get('p50', 0):.4g} ms "
          + " ".join(f"{k} {v:.4g} ms" for k, v in op.items() if k.startswith("p") and k != "p50"))
    for name in ("encode", "decode"):
        if name in detail:
            print(f"{name} " + " ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                                        for k, v in detail[name].items()))
    for name, value in detail.get("stages_s", {}).items():
        print(f"{name} {value:.6g} s")
    for name, outcome in detail.get("probes", {}).items():
        print(f"probe {name}: {outcome}")
    for problem in detail["problems"]:
        print(f"FAILED {problem}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{dep.get('name')} {dep.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = Path(path).name
                return info
    return info


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, nproc: int, thread_var: str) -> dict:
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_cap": os.environ.get(thread_var),
        "git_commit": _git_commit(root),
        "src_sha256": _source_sha256(root / "src"),
        "seed": seed,
    }
