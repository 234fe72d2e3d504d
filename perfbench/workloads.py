"""The workloads and the checks each operation must pass.

``flagship-1252`` drives ``skewhad.cli.main`` in-process, one command at a
time (a closed loop with one client), and ends each pass with the
invalid-input probes.  ``sketch-stream`` calls the codec directly, also as a
closed loop with one client.  Every operation is timed on its own; the
checks run outside the timed region.

Each workload has a ``prepare`` step (input files, untimed, never traced), a
``setup`` snippet that ``run.py`` times in fresh interpreters, and a ``run``
loop that repeats passes until the deadline, always finishing at least one.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks


@dataclass(frozen=True)
class Instance:
    """One build configuration and the sketch size used on its matrix."""

    name: str
    p: int
    e: int
    N: int
    i0: str
    i1: str
    n: int
    k: int

    def build_argv(self, out: Path) -> list[str]:
        return ["build", "--p", str(self.p), "--e", str(self.e), "--N", str(self.N),
                "--i0", self.i0, "--i1", self.i1, "--out", str(out)]


FLAGSHIP = Instance("n1252", 5, 4, 16, "4-11", "0-7", 1252, 300)
# Small instances, for the benchmark's own tests: one CLI pass over all four
# takes well under a second.
SMALL = (
    Instance("n8", 3, 1, 2, "0", "0", 8, 4),
    Instance("n12", 5, 1, 4, "0-1", "0,2", 12, 6),
    Instance("n24", 11, 1, 2, "0", "0", 24, 12),
    Instance("n56", 3, 3, 2, "0", "0", 56, 28),
)
ARTIFACTS = ("shdf_certificate.txt", "gate0_report.txt", "manifest.txt")

# Invalid-input probes: each must exit 1 with one "error:" line.  The last
# three fail at the seed commit (two tracebacks, one NaN output); they stay
# in the run and are reported on every pass until fixed.  A search that does
# not finish in bounded time (``build --p 8209 --N 2``) is left out until the
# search is bounded.
PROBES = ("malformed-matrix", "truncated-packet", "manifest-missing-field",
          "build-i0-out-of-range", "rank-field-4", "packet-nan-scale")
KNOWN_FAILING = ("build-i0-out-of-range", "rank-field-4", "packet-nan-scale")

# Sketch sizes; one stream block holds STREAM_PER_KIND dense and as many
# transform-sparse vectors for each k.
STREAM_KS = (32, 300, 1252)
STREAM_PER_KIND = 8


@dataclass
class Command:
    """Outcome of one in-process CLI call."""

    argv: list[str]
    rc: int | None
    out: str
    err: str
    exc: str | None
    seconds: float


@dataclass
class Timing:
    """One timed call: an op, or a part of one (``is_op`` false)."""

    seconds: float
    pass_no: int
    key: str
    stage: str
    is_op: bool


@dataclass
class Tally:
    """What a run did: timings, failures, observed outputs and details."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: list[Timing] = field(default_factory=list)
    passes: int = 0
    rel_errs: list[float] = field(default_factory=list)
    probes: dict[str, str] = field(default_factory=dict)
    pass_digests: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=lambda: defaultdict(
        lambda: {"stdout": {}, "artifacts": {}}))

    def record(self, problems: list[str], what: str) -> None:
        """Count one checked operation, failed if there are problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{what}: {p}" for p in problems)

    def time(self, seconds: float, key: str, stage: str = "", is_op: bool = True) -> None:
        self.timings.append(Timing(seconds, self.passes, key, stage, is_op))

    def end_pass(self, digest: str) -> None:
        self.pass_digests.append(digest)
        self.passes += 1

    def summarize(self) -> dict:
        """Op times, pass times, stage times per pass and per-key samples."""
        op_s, samples = [], defaultdict(list)
        pass_s = [0.0] * self.passes
        stage_s = defaultdict(lambda: [0.0] * self.passes)
        for t in self.timings:
            samples[t.key].append(t.seconds)
            if not t.is_op:
                continue
            op_s.append(t.seconds)
            pass_s[t.pass_no] += t.seconds
            if t.stage:
                stage_s[t.stage][t.pass_no] += t.seconds
        return {"op_s": op_s, "pass_s": pass_s, "stage_s": dict(stage_s),
                "samples": dict(samples)}


class Context:
    """The loaded package, the work directory, the pinned outputs, the seed,
    the deadline and the tracer (None when untraced)."""

    def __init__(self, package, work: Path, expected: dict, seed: int, tracer=None):
        self.sh = package
        self.work = work
        self.expected = expected
        self.seed = seed
        self.tracer = tracer
        self.deadline = math.inf
        self.signs: dict[str, np.ndarray] = {}
        self.state: dict = {}

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def run(self, argv: list[str]) -> Command:
        out, err = io.StringIO(), io.StringIO()
        exc = rc = None
        span = self.tracer.op(argv[0]) if self.tracer else nullcontext()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                with span:
                    rc = self.sh.cli.main(argv)
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 1
            except Exception:  # a traceback is a failed op, not a benchmark crash
                exc = traceback.format_exc()
            seconds = time.perf_counter() - start
        norm = str(self.work)
        return Command(argv, rc, out.getvalue().replace(norm, "<work>"),
                       err.getvalue().replace(norm, "<work>"), exc, seconds)


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1] if text.strip() else ""


def _hash_command(digest, cmd: Command) -> None:
    exc = _last_line(cmd.exc).split(":")[0] if cmd.exc else ""
    digest.update(repr((cmd.argv[0], cmd.rc, cmd.out, cmd.err, exc)).encode())


def command_problems(cmd: Command, want: str | None) -> list[str]:
    """Exit 0, no traceback, stdout equal to the pinned text."""
    if cmd.exc:
        return ["traceback: " + _last_line(cmd.exc)]
    problems = []
    if cmd.rc != 0:
        problems.append(f"exit {cmd.rc}, expected 0")
    if want is None:
        problems.append("no pinned stdout")
    elif cmd.out != want:
        problems.append(f"stdout {cmd.out!r} != pinned {want!r}")
    return problems


def probe_problems(cmd: Command, output: Path | None = None) -> list[str]:
    """Exit 1, one "error:" line on stderr, no traceback, no NaN output."""
    if cmd.exc:
        return ["traceback: " + _last_line(cmd.exc)]
    problems = []
    if cmd.rc != 1:
        problems.append(f"exit {cmd.rc}, expected 1")
    lines = cmd.err.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:"):
        problems.append(f"stderr {cmd.err!r} is not one 'error:' line")
    if output is not None and output.is_file() and "nan" in output.read_text("ascii").lower():
        problems.append("wrote NaN output")
    return problems


def instance_pass(ctx: Context, tally: Tally, inst: Instance, out: Path,
                  x: np.ndarray, digest) -> None:
    """Run and check the CLI sequence on one instance."""
    pinned = ctx.expected.get(inst.name, {})
    want = pinned.get("stdout", {})
    seen = tally.observed[inst.name]
    matrix, manifest = out / f"matrix_{inst.n}.txt", out / "manifest.txt"
    vec, packet, xhat = out / "x.txt", out / "packet.bin", out / "xhat.txt"
    out.mkdir(parents=True, exist_ok=True)
    checks.write_vector(vec, x)
    steps = (
        ("build", "build", inst.build_argv(out)),
        ("verify", "manifest", ["manifest", str(out)]),
        ("verify", "verify-gate0", ["verify", "gate0", str(matrix)]),
        ("verify", "verify-shdf", ["verify", "shdf", str(manifest)]),
        ("rank", "rank-2t", ["rank", str(matrix), "--field", "2", "--tournament"]),
        ("rank", "rank-3", ["rank", str(matrix), "--field", "3"]),
        ("rank", "rank-5", ["rank", str(matrix), "--field", "5"]),
        ("aut", "aut", ["aut", str(manifest), "--exhaustive"]),
        ("sketch_cli", "sketch-encode", ["sketch", "encode", str(matrix), str(vec),
                                     "--k", str(inst.k), "--out", str(packet)]),
        ("sketch_cli", "sketch-decode", ["sketch", "decode", str(matrix), str(packet),
                                     "--out", str(xhat)]),
    )
    for stage, key, argv in steps:
        cmd = ctx.run(argv)
        _hash_command(digest, cmd)
        seen["stdout"][key] = cmd.out
        problems = command_problems(cmd, want.get(key))
        if key == "build" and not cmd.exc:
            for name in (matrix.name,) + ARTIFACTS:
                path = out / name
                seen["artifacts"][name] = checks.sha256_file(path) if path.is_file() else None
                digest.update(repr((name, seen["artifacts"][name])).encode())
            problems += checks.artifact_problems(out, pinned.get("artifacts", {}))
            if not pinned.get("artifacts"):
                problems.append("no pinned artifact digests")
            if inst.name not in ctx.signs and matrix.is_file():
                signs = checks.parse_signs(matrix.read_bytes())
                problems += checks.skew_hadamard_problems(signs)
                ctx.signs[inst.name] = signs.astype(np.float64)
        signs = ctx.signs.get(inst.name)
        if key == "sketch-encode" and not cmd.exc and signs is not None:
            data = packet.read_bytes() if packet.is_file() else b""
            problems += checks.packet_problems(data, x, signs, inst.k)
            digest.update(data)
        if key == "sketch-decode" and not cmd.exc and signs is not None and xhat.is_file():
            got = checks.read_vector(xhat)
            problems += checks.decoded_problems(got, packet.read_bytes(), signs)
            if not problems:
                tally.rel_errs.append(checks.rel_err(got, x))
            digest.update(got.tobytes())
        tally.record(problems, f"{inst.name} {key}")
        tally.time(cmd.seconds, f"{inst.name}.{key}", stage)


def cli_passes(ctx: Context, tally: Tally, instances) -> None:
    """Passes of the CLI sequence over ``instances``, then the probes."""
    while tally.passes == 0 or time.perf_counter() < ctx.deadline:
        digest = hashlib.sha256()
        for number, inst in enumerate(instances):
            x = ctx.rng(tally.passes, number).standard_normal(inst.n)
            instance_pass(ctx, tally, inst, ctx.work / inst.name, x, digest)
        _probe_pass(ctx, tally, instances[0], digest)
        tally.end_pass(digest.hexdigest())


def _probe_files(ctx: Context, inst: Instance) -> dict[str, Path]:
    """Invalid inputs made from the artifacts of ``inst`` in the first pass."""
    src, d = ctx.work / inst.name, ctx.work / "probes"
    d.mkdir(exist_ok=True)
    files = {"matrix": src / f"matrix_{inst.n}.txt", "bad-matrix": d / "bad_matrix.txt",
             "truncated": d / "truncated.bin", "no-generator": d / "manifest.txt",
             "nan": d / "nan_scale.bin", "out": d / "decoded.txt"}
    files["bad-matrix"].write_bytes(b"3\n+-+\n+x+\n---\n")
    good = (src / "packet.bin").read_bytes()
    files["truncated"].write_bytes(good[:-1])
    files["nan"].write_bytes(struct.pack("<f", math.nan) + good[4:])
    lines = (src / "manifest.txt").read_text("ascii").splitlines(keepends=True)
    files["no-generator"].write_text(
        "".join(line for line in lines if not line.startswith("# generator")), "ascii")
    return files


def _probe_pass(ctx: Context, tally: Tally, inst: Instance, digest) -> None:
    if "probe_files" not in ctx.state:
        ctx.state["probe_files"] = _probe_files(ctx, inst)
    f = ctx.state["probe_files"]
    argvs = {
        "malformed-matrix": ["verify", "gate0", str(f["bad-matrix"])],
        "truncated-packet": ["sketch", "decode", str(f["matrix"]), str(f["truncated"]),
                             "--out", str(f["out"])],
        "manifest-missing-field": ["verify", "shdf", str(f["no-generator"])],
        "build-i0-out-of-range": ["build", "--p", "3", "--e", "1", "--N", "2", "--i0", "5",
                                  "--i1", "0", "--out", str(ctx.work / "probes" / "build")],
        "rank-field-4": ["rank", str(f["matrix"]), "--field", "4"],
        "packet-nan-scale": ["sketch", "decode", str(f["matrix"]), str(f["nan"]),
                             "--out", str(f["out"])],
    }
    for name in PROBES:
        f["out"].unlink(missing_ok=True)
        cmd = ctx.run(argvs[name])
        _hash_command(digest, cmd)
        problems = probe_problems(cmd, f["out"])
        if name in KNOWN_FAILING:
            tally.probes[name] = ("known failure: " + "; ".join(problems)) if problems \
                else "passes (listed as a known failure)"
            problems = []
        else:
            tally.probes[name] = "; ".join(problems) or "ok"
        tally.record(problems, f"probe {name}")
        tally.time(cmd.seconds, f"probe.{name}", "probe")


# -- flagship-1252 -------------------------------------------------------------

def flagship_prepare(ctx: Context, tally: Tally) -> str:
    return "import skewhad, skewhad.cli"


def flagship_run(ctx: Context, tally: Tally) -> None:
    cli_passes(ctx, tally, (FLAGSHIP,))


# -- sketch-stream ------------------------------------------------------------

def stream_prepare(ctx: Context, tally: Tally) -> str:
    """Build and check the order-1252 matrix, load it once, make the inputs."""
    out = ctx.work / FLAGSHIP.name
    cmd = ctx.run(FLAGSHIP.build_argv(out))
    matrix = out / f"matrix_{FLAGSHIP.n}.txt"
    pinned = ctx.expected.get(FLAGSHIP.name, {})
    problems = command_problems(cmd, pinned.get("stdout", {}).get("build"))
    problems += checks.artifact_problems(out, pinned.get("artifacts", {}))
    tally.record(problems, "stream input build")
    if problems:
        raise RuntimeError(f"cannot make the stream input: {problems}")
    data = matrix.read_bytes()
    signs = checks.parse_signs(data).astype(np.float64)
    hadamard = ctx.sh.hadamard
    h = hadamard.parse_matrix_text(data)
    if not hadamard.gate0_verify(h).passed:
        raise RuntimeError("the order-1252 matrix fails Gate0")
    n = FLAGSHIP.n
    vectors = []
    for i, k in enumerate(STREAM_KS):
        for j in range(STREAM_PER_KIND):
            rng = ctx.rng(i, j)
            vectors.append((k, "dense", rng.standard_normal(n)))
            y = np.zeros(n)
            support = rng.choice(n, size=int(rng.integers(1, k + 1)), replace=False)
            y[support] = rng.standard_normal(support.size)
            vectors.append((k, "sparse", checks.transform(signs.T, y)))
    ctx.state.update(h=h, signs=signs, vectors=vectors,
                     configs={k: ctx.sh.sketch.SketchConfig(n=n, k=k) for k in STREAM_KS})
    return ("from pathlib import Path\n"
            "from skewhad import hadamard\n"
            f"h = hadamard.parse_matrix_text(Path({str(matrix)!r}).read_bytes())\n"
            "assert hadamard.gate0_verify(h).passed")


def stream_run(ctx: Context, tally: Tally) -> None:
    sketch = ctx.sh.sketch
    h, signs, vectors, configs = (ctx.state[k] for k in ("h", "signs", "vectors", "configs"))
    while tally.passes == 0 or time.perf_counter() < ctx.deadline:
        digest = hashlib.sha256()
        for k, kind, x in vectors:
            span = ctx.tracer.op("roundtrip") if ctx.tracer else nullcontext()
            exc = None
            with span:
                start = time.perf_counter()
                try:
                    data = sketch.encode(x, h, configs[k]).to_bytes()
                    mid = time.perf_counter()
                    xhat = sketch.decode(sketch.SketchPacket.from_bytes(data), h)
                except Exception:  # a traceback is a failed op
                    exc = traceback.format_exc()
                end = time.perf_counter()
            tally.time(end - start, "roundtrip")
            if exc:
                tally.record(["traceback: " + _last_line(exc)], f"roundtrip k={k} {kind}")
                continue
            tally.time(mid - start, "encode", is_op=False)
            tally.time(end - mid, "decode", is_op=False)
            problems = checks.packet_problems(data, x, signs, k)
            problems += checks.decoded_problems(xhat, data, signs)
            if not problems:
                tally.rel_errs.append(checks.rel_err(xhat, x))
            tally.record(problems, f"roundtrip k={k} {kind}")
            digest.update(data)
            digest.update(xhat.tobytes())
        tally.end_pass(digest.hexdigest())


# name: (prepare, run)
WORKLOADS = {
    "flagship-1252": (flagship_prepare, flagship_run),
    "sketch-stream": (stream_prepare, stream_run),
}
