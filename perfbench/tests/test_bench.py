"""Tests of the benchmark's own checks and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewhad
import skewhad.cli
from perfbench import checks, workloads
from perfbench.tracer import LIBRARY, Tracer, gfp_ops_computed, public_functions

BENCH = Path(workloads.__file__).resolve().parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def make_context(tmp_path, tracer=None):
    return workloads.Context(skewhad, tmp_path, EXPECTED, 7, tracer)


def small_pass(ctx):
    tally = workloads.Tally()
    ctx.deadline = 0.0  # exactly one pass
    workloads.cli_passes(ctx, tally, workloads.SMALL)
    return tally


def build(ctx, inst):
    out = ctx.work / inst.name
    cmd = ctx.run(inst.build_argv(out))
    assert cmd.rc == 0, cmd.out + cmd.err
    return out


def test_small_pass_passes_its_checks(tmp_path):
    tally = small_pass(make_context(tmp_path))
    assert tally.failed == 0, tally.problems
    assert tally.attempted == 4 * 10 + len(workloads.PROBES)
    assert set(tally.probes) == set(workloads.PROBES)
    for name in set(workloads.PROBES) - set(workloads.KNOWN_FAILING):
        assert tally.probes[name] == "ok"


def test_flipped_matrix_entry_fails_the_digest_check(tmp_path):
    ctx = make_context(tmp_path)
    inst = workloads.SMALL[0]
    out = build(ctx, inst)
    pinned = EXPECTED[inst.name]["artifacts"]
    assert checks.artifact_problems(out, pinned) == []
    matrix = out / "matrix_8.txt"
    data = bytearray(matrix.read_bytes())
    pos = data.index(b"+", 2)
    data[pos] = ord("-")
    matrix.write_bytes(bytes(data))
    tally = workloads.Tally()
    tally.record(checks.artifact_problems(out, pinned), "n8 build")
    assert tally.failed == 1
    assert "matrix_8.txt" in tally.problems[0]
    assert checks.skew_hadamard_problems(checks.parse_signs(bytes(data)))


def packet_for(tmp_path, inst, x):
    ctx = make_context(tmp_path)
    out = build(ctx, inst)
    data = (out / f"matrix_{inst.n}.txt").read_bytes()
    h = skewhad.parse_matrix_text(data)
    packet = skewhad.encode(x, h, skewhad.SketchConfig(n=inst.n, k=inst.k)).to_bytes()
    return packet, checks.parse_signs(data).astype(np.float64), h


def test_corrupted_packet_record_fails_the_packet_check(tmp_path):
    inst = workloads.SMALL[3]
    x = np.random.default_rng(3).standard_normal(inst.n)
    packet, signs, _ = packet_for(tmp_path, inst, x)
    assert len(packet) == 8 + 3 * inst.k
    assert checks.packet_problems(packet, x, signs, inst.k) == []

    first = 8  # records follow the 8-byte header: index u16, qvalue i8
    bad_q = bytearray(packet)
    bad_q[first + 2] = (bad_q[first + 2] + 9) % 256
    bad_index = bytearray(packet)
    unused = next(i for i in range(inst.n) if i not in checks.read_packet(packet)[3])
    struct.pack_into("<H", bad_index, first, unused)
    for corrupted in (bad_q, bad_index):
        tally = workloads.Tally()
        tally.record(checks.packet_problems(bytes(corrupted), x, signs, inst.k), "packet")
        assert tally.failed == 1
    assert checks.packet_problems(packet[:-1], x, signs, inst.k)


def test_packet_check_accepts_every_stream_kind(tmp_path):
    inst = workloads.FLAGSHIP
    ctx = make_context(tmp_path)
    tally = workloads.Tally()
    workloads.stream_prepare(ctx, tally)
    assert tally.failed == 0, tally.problems
    ctx.deadline = 0.0
    workloads.stream_run(ctx, tally)
    assert tally.failed == 0, tally.problems
    per_block = len(workloads.STREAM_KS) * 2 * workloads.STREAM_PER_KIND
    assert sum(t.is_op for t in tally.timings) == per_block
    assert inst.n == ctx.state["h"].n


def test_tracing_changes_no_output_and_is_removed(tmp_path):
    plain = small_pass(make_context(tmp_path / "plain"))
    originals = (skewhad.sketch.encode, skewhad.cli.main, skewhad.shdf.autocorrelation_profile,
                 skewhad.GroupSpec.__dict__["field_additive"])
    tracer = Tracer()
    tracer.install(skewhad)
    try:
        assert skewhad.sketch.encode is not originals[0]
        assert skewhad.shdf.autocorrelation_profile is skewhad.groups.autocorrelation_profile
        traced = small_pass(make_context(tmp_path / "traced", tracer))
    finally:
        tracer.uninstall()
    now = (skewhad.sketch.encode, skewhad.cli.main, skewhad.shdf.autocorrelation_profile,
           skewhad.GroupSpec.__dict__["field_additive"])
    assert all(a is b for a, b in zip(now, originals))
    assert traced.pass_digests == plain.pass_digests
    assert traced.observed == plain.observed
    metrics = tracer.metrics(traced.passes)
    # Per instance: build, verify shdf and aut each search once; build,
    # verify gate0, the tournament rank, encode and decode each run Gate0.
    # The probes add one search (build --i0 5) and two Gate0 runs (decodes).
    assert metrics["shdf.searches"][0] == 3 * len(workloads.SMALL) + 1
    assert metrics["hadamard.gate0_calls"][0] == 5 * len(workloads.SMALL) + 2
    assert metrics["cli.bytes_written"][0] > 0
    # Self times account for the wall time: library layers, the cli
    # commands' own code and the benchmark's op spans.
    shares = (metrics["trace.attributed_frac"][0] + metrics["trace.cli_self_frac"][0]
              + metrics["layer.bench_s"][0] / metrics["trace.wall_s"][0])
    assert shares == pytest.approx(1.0)
    assert metrics["trace.attributed_frac"][0] > 0.3
    ops = {span[2] for span in tracer.spans}
    assert len(ops) == traced.attempted


def test_every_public_library_function_is_wrapped():
    tracer = Tracer()
    tracer.install(skewhad)
    try:
        for layer in LIBRARY:
            module = getattr(skewhad, layer)
            for name in public_functions(module):
                assert getattr(module, name).__wrapped__ is not None, f"{layer}.{name}"
    finally:
        tracer.uninstall()
    assert not hasattr(skewhad.hadamard.gate0_verify, "__wrapped__")


def test_per_layer_metrics_are_per_pass(tmp_path):
    metrics = []
    for passes in (1, 2):
        tracer = Tracer()
        tracer.install(skewhad)
        try:
            ctx = make_context(tmp_path / str(passes), tracer)
            for _ in range(passes):
                small_pass(ctx)
        finally:
            tracer.uninstall()
        metrics.append(tracer.metrics(passes))
    counts = [name for name, (_, unit) in metrics[0].items() if unit in ("count", "bytes")]
    assert counts
    for name in counts:
        assert metrics[0][name] == metrics[1][name], name


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(BENCH / "expected.json", tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flagship-1252",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("n,rank,ops", [(3, 3, 2 * 3 + 1 * 2), (4, 0, 0)])
def test_gfp_ops_computed(n, rank, ops):
    assert gfp_ops_computed(n, rank) == ops
