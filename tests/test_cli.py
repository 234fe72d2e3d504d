from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewhad as sh
from skewhad.cli import (BuildConfig, CliError, format_index_set, format_manifest, main,
                         parse_index_set, parse_manifest, read_manifest, sha256_file,
                         write_vector_file)

from _naive import naive_rank_gfp
from conftest import (PAPER_I0, PAPER_I1, mutate_one_byte, orbit_flip, swap_member,
                      traced_peak)


@pytest.fixture()
def desk_build(tmp_path, capsys):
    out = tmp_path / "desk"
    code = main(["build", "--p", "3", "--e", "1", "--N", "2",
                 "--i0", "0", "--i1", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def test_parse_index_set():
    assert parse_index_set("4-11") == tuple(range(4, 12))
    assert parse_index_set("0,2,5") == (0, 2, 5)
    assert parse_index_set("0-3,8") == (0, 1, 2, 3, 8)
    assert parse_index_set("1048574-1048575") == (1048574, 1048575)
    assert format_index_set([3, 1, 2]) == "1,2,3"


def test_parse_index_set_errors():
    from skewhad.cli import CliError
    # a class index is below N, which divides q - 1 < 2^20, so a range that
    # reaches 2^20 is refused before it is expanded, however long it is
    for bad in ("", "1,,2", "a", "5-2", "1-x",
                "0-1048576", "1048576", "3,0-99999999999", "99999999999-99999999999"):
        with pytest.raises(CliError):
            parse_index_set(bad)


def test_build_desk_outputs(desk_build, capsys):
    assert (desk_build / "matrix_8.txt").is_file()
    assert (desk_build / "shdf_certificate.txt").is_file()
    assert (desk_build / "gate0_report.txt").is_file()
    assert (desk_build / "manifest.txt").is_file()
    cert = (desk_build / "shdf_certificate.txt").read_text()
    assert cert.endswith("PASS\n")
    report = (desk_build / "gate0_report.txt").read_text()
    assert report.endswith("PASS\n")


def test_verify_gate0_pass(desk_build, capsys):
    code = main(["verify", "gate0", str(desk_build / "matrix_8.txt")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "GATE0 PASS n=8"


def test_verify_gate0_fail_on_tamper(desk_build, capsys, tmp_path):
    data = bytearray((desk_build / "matrix_8.txt").read_bytes())
    pos = data.index(b"+", 2)
    data[pos] = ord("-")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bytes(data))
    code = main(["verify", "gate0", str(bad)])
    assert code == 2
    assert "GATE0 FAIL" in capsys.readouterr().out


def test_verify_shdf_from_manifest(desk_build, capsys):
    code = main(["verify", "shdf", str(desk_build / "manifest.txt")])
    assert code == 0
    assert "SHDF PASS v=3" in capsys.readouterr().out


def test_rank_output(desk_build, capsys):
    code = main(["rank", str(desk_build / "matrix_8.txt"), "--field", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "hadamard 3 8 8"
    code = main(["rank", str(desk_build / "matrix_8.txt"), "--field", "2",
                 "--tournament"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "tournament 2 7 4"
    # H mod 2 is the all-ones matrix
    code = main(["rank", str(desk_build / "matrix_8.txt"), "--field", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "hadamard 2 8 1"


def test_rank_tournament_on_gate0_failing_matrix_exits_2(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n++\n++\n")
    calls = []
    gate0 = sh.hadamard.gate0_verify
    monkeypatch.setattr(sh.hadamard, "gate0_verify", lambda m: calls.append(1) or gate0(m))
    code = main(["rank", str(bad), "--field", "2", "--tournament"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "GATE0 FAIL n=2\n"
    assert err == ""
    assert len(calls) == 1


@pytest.fixture(scope="module")
def small_matrix_files(tmp_path_factory, small_matrices):
    """(path, 0/1 tournament core) of each small instance, its H written as
    matrix text."""
    out = []
    for n, signs, m01 in small_matrices:
        path = tmp_path_factory.mktemp("small") / f"matrix_{n}.txt"
        path.write_bytes(sh.to_matrix_text(sh.PmMatrix(signs)))
        out.append((path, m01))
    return out


@pytest.fixture(scope="module")
def matrix1252_file(tmp_path_factory, matrix1252):
    path = tmp_path_factory.mktemp("flagship") / "matrix_1252.txt"
    path.write_bytes(sh.to_matrix_text(matrix1252))
    return path


@pytest.mark.parametrize("p", [2, 3, 5, 7, 313])
def test_rank_tournament_matches_the_oracle(small_matrix_files, capsys, p):
    for path, m01 in small_matrix_files:
        code = main(["rank", str(path), "--field", str(p), "--tournament"])
        assert code == 0
        want = naive_rank_gfp(m01.tolist(), p)
        assert capsys.readouterr().out == f"tournament {p} {len(m01)} {want}\n"


def _count_rank_calls(monkeypatch):
    """Counts of Gate0 runs, Gram checks (Gate0's and the rank certificate's),
    the certificate's row-0 checks, core normalizations, ranks, rank
    certificates and eliminations."""
    calls = {"gate0_verify": 0, "_deviation": 0, "_panel_deviation": 0,
             "normalize_core_tournament": 0, "rank_gfp": 0, "_gram_certifies_full_rank": 0,
             "_eliminate": 0, "_eliminate_gf2": 0}
    for module, name in ((sh.hadamard, "gate0_verify"), (sh.hadamard, "_deviation"),
                         (sh.hadamard, "normalize_core_tournament"), (sh.ranks, "rank_gfp"),
                         (sh.ranks, "_deviation"), (sh.ranks, "_panel_deviation"),
                         (sh.ranks, "_gram_certifies_full_rank"), (sh.ranks, "_eliminate"),
                         (sh.ranks, "_eliminate_gf2")):
        def counted(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


# a tournament rank runs Gate0 and nothing after it
TOURNAMENT_CALLS = {"gate0_verify": 1, "_deviation": 1, "_panel_deviation": 0,
                    "normalize_core_tournament": 0, "rank_gfp": 0,
                    "_gram_certifies_full_rank": 0, "_eliminate": 0, "_eliminate_gf2": 0}


@pytest.mark.parametrize("p, rank", [(2, 1251), (5, 1250), (313, 626)])
def test_rank_tournament_at_1252_forms_only_the_gate0_gram(
        matrix1252_file, capsys, monkeypatch, p, rank):
    # Gate0 passed, so the core's rank follows from n = 4 * 313 and p:
    # n/2 = 626 at p = 313, n - 2 at p = 5, which divides n/2 - 1 = 625,
    # and n - 1 otherwise; nothing is eliminated, not even where p | det(M)
    calls = _count_rank_calls(monkeypatch)
    code = main(["rank", str(matrix1252_file), "--field", str(p), "--tournament"])
    assert code == 0
    assert capsys.readouterr().out == f"tournament {p} 1251 {rank}\n"
    assert calls == TOURNAMENT_CALLS


@pytest.mark.parametrize("p", [3, 5])
def test_rank_at_1252_is_certified_on_the_orbit_rows(matrix1252_file, capsys, monkeypatch, p):
    # the certificate forms the 36 rows of the verified shift by 16, row 0
    # among them, in one Gram
    calls = _count_rank_calls(monkeypatch)
    rows = []
    inner = sh.ranks._deviation
    monkeypatch.setattr(sh.ranks, "_deviation", lambda f, s, t, d: rows.append(
        len(sh.hadamard._orbit_rows(len(f), d))) or inner(f, s, t, d))
    code = main(["rank", str(matrix1252_file), "--field", str(p)])
    assert code == 0
    assert capsys.readouterr().out == f"hadamard {p} 1252 1252\n"
    assert rows == [36]
    assert calls == {"gate0_verify": 0, "_deviation": 1, "_panel_deviation": 0,
                     "normalize_core_tournament": 0, "rank_gfp": 1,
                     "_gram_certifies_full_rank": 1, "_eliminate": 0, "_eliminate_gf2": 0}


def test_rank_tournament_on_a_flipped_1252_matrix_exits_2(tmp_path, capsys, monkeypatch,
                                                          matrix1252):
    signs = matrix1252.signs().copy()
    signs[40, 700] *= -1
    bad = tmp_path / "bad.txt"
    bad.write_bytes(sh.to_matrix_text(sh.PmMatrix(signs)))
    calls = _count_rank_calls(monkeypatch)
    code = main(["rank", str(bad), "--field", "2", "--tournament"])
    assert code == 2
    assert capsys.readouterr() == ("GATE0 FAIL n=1252\n", "")
    assert calls == TOURNAMENT_CALLS


class MemoryGate(NamedTuple):
    """A command at order 4080 that exits with ``code`` and whose stdout
    passes ``check(stdout, pin)``, and its peak bounds in n^2 bytes:
    ``traced`` by tracemalloc, and ``process``, its ru_maxrss above that of ``--help``."""

    argv: str
    check: Callable[[str, str], bool]
    pin: str
    traced: float
    process: float
    code: int = 0


# {d} is the build's directory, {m} its matrix, {f} that matrix with entry
# (40, 700) flipped, which the walk writes after the build, {x} a vector,
# {pkt} a packet and {y} a decoded vector; each row runs on the files the
# rows before wrote.
MEMORY_GATES = [
    # build develops the int8 matrix in place and writes its text, formed in
    # place in one bytearray, before Gate0 runs
    MemoryGate("build --p 2039 --e 1 --N 2 --i0 0 --i1 0 --out {d}", str.__contains__,
               "GATE0 PASS n=4080\n", 2.25, 2.6),
    # Gate0 and the rank certificate (7 does not divide n) hold the text and
    # the int8 matrix (2 n^2) and Gram panels of a quarter n^2 bytes
    MemoryGate("verify gate0 {m}", str.__eq__, "GATE0 PASS n=4080\n", 2.5, 2.5),
    # no block shift keeps the flipped matrix: Gate0 forms every Gram row
    # and adds H^T into H in panels of _PANEL rows, with no n x n gather
    # (it reads 2.01 traced and 2.16 process, and 3.02 and 3.08 with the gathers)
    MemoryGate("verify gate0 {f}", str.__eq__,
               "GATE0 FAIL n=4080 gram_ok=False skew_ok=False max_offdiag_gram=2\n", 2.5, 2.5,
               code=2),
    MemoryGate("rank {m} --field 7", str.__eq__, "hadamard 7 4080 4080\n", 2.5, 2.5),
    # over GF(2) H is J mod 2: its parity, read in row panels, gives rank 1
    MemoryGate("rank {m} --field 2", str.__eq__, "hadamard 2 4080 1\n", 2.5, 2.5),
    # a tournament rank is Gate0 alone: n/4 = 2^2 * 3 * 5 * 17 gives rank n/2
    *(MemoryGate(f"rank {{m}} --field {p} --tournament", str.__eq__,
                 f"tournament {p} 4079 2040\n", 2.5, 2.5) for p in (2, 3, 17)),
    # encode and decode peak as they parse (2 n^2), then keep their product
    # over Z_1019 (one W, half n^2); no float copy of the matrix is made
    MemoryGate("sketch encode {m} {x} --k 300 --out {pkt}", str.startswith,
               "wrote {pkt}: 908 bytes", 2.25, 2.5),
    MemoryGate("sketch decode {m} {pkt} --out {y}", str.__eq__, "wrote {y}: 4080 values\n",
               2.25, 2.5),
    # aut drops the text once it is parsed; manifest hashes in 1 MiB chunks
    MemoryGate("aut {d}/manifest.txt --exhaustive", str.endswith,
               "PASS order 2077741 = 1019*2039\n", 2.25, 2.5),
    MemoryGate("manifest {d}", str.__contains__, "OK matrix_4080.txt\n", 0.25, 0.25),
]


def _walk_memory_gates(tmp_path, run, bound):
    """Runs MEMORY_GATES in order through ``run(argv) -> (exit code, stdout,
    peak bytes)``, each row's peak within its ``bound``: "traced" or "process"."""
    paths = {"d": tmp_path / "n4080", "m": tmp_path / "n4080" / "matrix_4080.txt",
             "f": tmp_path / "flipped.txt", "x": tmp_path / "x.txt",
             "pkt": tmp_path / "packet.bin", "y": tmp_path / "y.txt"}
    write_vector_file(paths["x"], np.random.default_rng(5).normal(size=4080))
    for row in MEMORY_GATES:
        argv = [word.format(**paths) for word in row.argv.split()]
        code, out, peak = run(argv)
        assert code == row.code and row.check(out, row.pin.format(**paths)), (argv, code, out)
        if argv[0] == "build":
            text = bytearray(paths["m"].read_bytes())
            at = text.index(b"\n") + 1 + 40 * 4081 + 700
            text[at] = 88 - text[at]  # '+' (43) and '-' (45) trade places
            paths["f"].write_bytes(text)
        assert peak <= getattr(row, bound) * 4080 ** 2, (
            f"skewhad {' '.join(argv)}: {bound} peak {peak / 4080 ** 2:.2f} n^2 bytes, "
            f"bound {getattr(row, bound)} n^2")


def test_order_4080_commands_stay_within_their_traced_bounds(tmp_path, capsys, monkeypatch):
    def run(argv):
        calls = _count_rank_calls(monkeypatch) if "--tournament" in argv else None
        code, peak = traced_peak(lambda: main(argv))
        monkeypatch.undo()
        assert calls in (None, TOURNAMENT_CALLS), (argv, calls)
        return code, capsys.readouterr().out, peak

    _walk_memory_gates(tmp_path, run, "traced")


# Linux counts in ru_maxrss (kilobytes) the peak of the image an exec
# replaced, for a child of the test process the suite's own; so each command
# runs under this driver, which prints its exit code and peak bytes first.
_DRIVER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024, flush=True)
sys.stdout.buffer.write(out)
"""


def _child_peak(*args, above=0):
    """(exit code, stdout, ru_maxrss in bytes less ``above``) of ``python
    *args``, which imports skewhad from the source tree the tests import."""
    env = {**os.environ, "PYTHONPATH": str(Path(sh.__file__).parents[1])}
    head, out = subprocess.run([sys.executable, "-c", _DRIVER, *args], env=env, check=True,
                               stdout=subprocess.PIPE, text=True).stdout.split("\n", 1)
    code, peak = map(int, head.split())
    return code, out, peak - above


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kilobytes on Linux alone")
def test_order_4080_commands_stay_within_their_process_bounds(tmp_path):
    # a child that imports what `--help` imports and fills 3 n^2 bytes must
    # read them, or a unit slip would let every row pass
    _, _, base = _child_peak("-m", "skewhad", "--help")
    _, _, filled = _child_peak("-c", "import numpy, skewhad.cli; numpy.ones(3 * 4080 ** 2, 'u1')",
                               above=base)
    assert filled >= 2.9 * 4080 ** 2, filled / 4080 ** 2
    _walk_memory_gates(tmp_path, lambda argv: _child_peak("-m", "skewhad", *argv, above=base),
                       "process")


def test_aut_command(desk_build, capsys):
    code = main(["aut", str(desk_build / "manifest.txt"), "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exhaustive 3/3 PASS" in out
    assert out.strip().endswith("PASS order 3 = 1*3")


def test_aut_audits_the_matrix_file_on_disk(desk_build, capsys):
    matrix = desk_build / "matrix_8.txt"
    data = bytearray(matrix.read_bytes())
    pos = data.index(b"+", 2)
    data[pos] = ord("-")
    matrix.write_bytes(bytes(data))
    code = main(["aut", str(desk_build / "manifest.txt"), "--exhaustive"])
    assert code == 2
    assert capsys.readouterr().out == "MISMATCH matrix_8.txt\n"

    matrix.unlink()
    code = main(["aut", str(desk_build / "manifest.txt")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


_GENERATORS_FAIL = ("translation basis 0 FAIL\ntranslation basis 1 FAIL\n"
                    "translation basis 2 FAIL\ntranslation basis 3 FAIL\n"
                    "closure_sample 0/100 FAIL\nFAIL order 24375 = 39*625\n")


# (flip, exit code, stdout): one flipped entry, a switch of four, one whole
# orbit of the block shift by 16, and the pair (0, 1) every affine map fixes
@pytest.mark.parametrize("flip, code, out", [
    ("40-700", 2, "multiplier g^16 FAIL\n" + _GENERATORS_FAIL),
    ("2-2", 2, "multiplier g^16 PASS\n" + _GENERATORS_FAIL),
    ("switch", 2, "multiplier g^16 FAIL\n" + _GENERATORS_FAIL),
    ("orbit-16-5", 2, "multiplier g^16 PASS\n" + _GENERATORS_FAIL),
    ("0-1", 0, "multiplier g^16 PASS\ntranslation basis 0 PASS\ntranslation basis 1 PASS\n"
               "translation basis 2 PASS\ntranslation basis 3 PASS\n"
               "closure_sample 100/100 PASS\nPASS order 24375 = 39*625\n")],
    ids=["40-700", "2-2", "switch", "orbit-16-5", "0-1"])
def test_aut_on_a_flipped_flagship_matrix_prints_the_pinned_log(
        instance625, matrix1252, tmp_path, capsys, flip, code, out):
    tables, _, _, _ = instance625
    signs = matrix1252.signs().copy()
    if flip == "switch":
        signs[np.ix_([40, 41], [700, 301])] *= -1
    elif flip == "orbit-16-5":
        signs = orbit_flip(signs, 16, 5)
    else:
        row, col = map(int, flip.split("-"))
        signs[row, col] *= -1
    data = sh.to_matrix_text(sh.PmMatrix(signs))
    (tmp_path / "matrix_1252.txt").write_bytes(data)
    config = BuildConfig(p=5, e=4, N=16, modulus=tables.modulus, generator=tables.generator,
                         i0=PAPER_I0, i1=PAPER_I1)
    digests = {"matrix_1252.txt": hashlib.sha256(data).hexdigest()}
    (tmp_path / "manifest.txt").write_text(format_manifest(config, digests))
    assert main(["aut", str(tmp_path / "manifest.txt")]) == code
    assert capsys.readouterr() == (out, "")


def test_aut_on_a_swapped_member_flagship_counts_by_run_checks(
        instance625, tmp_path, capsys, audit_checks):
    # One member of D0 swapped for its negative keeps every translation and
    # breaks the multiplier, so a power lifts into the automorphisms exactly
    # when its block shift keeps the matrix: the count takes the run checks
    # of the multiplier and of the divisors 3 and 13 of f = 39, which fail,
    # so only power 0 lifts, and the dense checks are the 4 translations and
    # the 100 closure samples, not the 24 375 of checking every map.
    tables, partition, pair, _ = instance625
    group = pair.group
    member = int(np.flatnonzero(pair.d0[1:])[0]) + 1
    h = sh.build_bordered_from_blocks(group, swap_member(group, pair.d0, member), pair.d1)
    data = sh.to_matrix_text(h)
    (tmp_path / "matrix_1252.txt").write_bytes(data)
    config = BuildConfig(p=5, e=4, N=16, modulus=tables.modulus, generator=tables.generator,
                         i0=PAPER_I0, i1=PAPER_I1)
    digests = {"matrix_1252.txt": hashlib.sha256(data).hexdigest()}
    (tmp_path / "manifest.txt").write_text(format_manifest(config, digests))
    assert main(["aut", str(tmp_path / "manifest.txt"), "--exhaustive"]) == 2
    assert capsys.readouterr() == (
        "multiplier g^16 FAIL\ntranslation basis 0 PASS\ntranslation basis 1 PASS\n"
        "translation basis 2 PASS\ntranslation basis 3 PASS\nclosure_sample 4/100 FAIL\n"
        "exhaustive 625/24375 FAIL\nFAIL order 24375 = 39*625\n", "")
    assert len(audit_checks.dense) == 4 + 100 and audit_checks.shifts == [16, 48, 208]


def test_manifest_verification(desk_build, capsys):
    code = main(["manifest", str(desk_build)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("OK ") == 3

    (desk_build / "matrix_8.txt").write_bytes(b"2\n++\n-+\n")
    code = main(["manifest", str(desk_build)])
    out = capsys.readouterr().out
    assert code == 2
    assert "MISMATCH matrix_8.txt" in out


def test_manifest_round_trip_format():
    config = BuildConfig(p=5, e=4, N=16, modulus=(2, 0, 0, 0, 1), generator=6,
                         i0=tuple(range(4, 12)), i1=tuple(range(8)))
    digests = {"matrix_1252.txt": "ab" * 32}
    text = format_manifest(config, digests)
    parsed_config, parsed_digests = parse_manifest(text)
    assert parsed_config == config
    assert parsed_digests == digests


_MANIFEST = format_manifest(
    BuildConfig(p=5, e=4, N=16, modulus=(2, 0, 0, 0, 1), generator=6,
                i0=tuple(range(4, 12)), i1=tuple(range(8))),
    {"matrix_1252.txt": "ee" * 32, "shdf_certificate.txt": "0123456789abcdef" * 4,
     "gate0_report.txt": "fedcba9876543210" * 4}).encode("ascii")


# Deterministic examples and no example database, so every run checks the
# same inputs.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_manifest_byte_mutation_is_rejected_or_round_trips(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated_manifest.txt"
    path.write_bytes(mutate_one_byte(_MANIFEST, data.draw))
    try:
        config, digests = read_manifest(path)
    except CliError:
        return
    assert parse_manifest(format_manifest(config, digests)) == (config, digests)


def test_rebuild_from_manifest_reproduces_digest(desk_build, tmp_path, capsys):
    config, digests = parse_manifest((desk_build / "manifest.txt").read_text())
    out2 = tmp_path / "again"
    code = main(["build", "--p", str(config.p), "--e", str(config.e),
                 "--N", str(config.N),
                 "--i0", format_index_set(config.i0),
                 "--i1", format_index_set(config.i1),
                 "--poly", ",".join(str(c) for c in config.modulus),
                 "--gen", str(config.generator),
                 "--out", str(out2)])
    capsys.readouterr()
    assert code == 0
    assert (out2 / "matrix_8.txt").read_bytes() == (desk_build / "matrix_8.txt").read_bytes()
    _, digests2 = parse_manifest((out2 / "manifest.txt").read_text())
    assert digests2 == digests


def test_build_exhaustion_exits_2(tmp_path, capsys):
    code = main(["build", "--p", "17", "--e", "1", "--N", "16",
                 "--i0", "0-7", "--i1", "0-7", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "SHDF FAIL" in capsys.readouterr().out


def test_build_infeasible_sets_exit_2_before_search(tmp_path, capsys):
    # -1 is a square mod 8209, so no generator makes a class of squares skew;
    # this is decided before the search over its 2592 primitive elements
    code = main(["build", "--p", "8209", "--e", "1", "--N", "2",
                 "--i0", "0", "--i1", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "SHDF FAIL: i0 meets i0 + 0 (mod 2), the classes of -D0, so D0 cannot be skew"]
    assert err == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["build", "verify", "aut"])
@pytest.mark.parametrize("p, generator", [(8219, 2), (65543, 5), (1000003, 2)])
def test_a_field_above_the_dense_order_exits_1_at_once(tmp_path, capsys, command, p, generator):
    # the index sets are feasible, so only the order of the field refuses
    # them, before any search and before a dense table is asked for
    if command == "build":
        argv = ["build", "--p", str(p), "--e", "1", "--N", "2", "--i0", "0", "--i1", "0",
                "--out", str(tmp_path / "x")]
    else:
        manifest = tmp_path / "manifest.txt"
        config = BuildConfig(p=p, e=1, N=2, modulus=(0, 1), generator=generator,
                             i0=(0,), i1=(0,))
        manifest.write_text(format_manifest(config, {f"matrix_{2 * p + 2}.txt": "ee" * 32}))
        argv = ["verify", "shdf", str(manifest)] if command == "verify" else ["aut", str(manifest)]
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"GF({p}) is too large" in err[0]
    assert not (tmp_path / "x").exists()


def _desk_argv(command, desk_build, tmp_path, field, build_value, manifest_value):
    """``command``'s argv for the desk configuration with one field changed:
    on build's command line, or on the desk manifest's config line."""
    if command == "build":
        options = {"--i0": "0", "--i1": "0", field: build_value}
        return ["build", "--p", "3", "--e", "1", "--N", "2",
                *(word for option in options.items() for word in option),
                "--out", str(tmp_path / "x")]
    manifest = desk_build / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    key = {"--i1": "# i1 = ", "--gen": "# generator = "}[field]
    lines = [f"{key}{manifest_value}\n" if line.startswith(key) else line for line in lines]
    manifest.write_text("".join(lines))
    return ["verify", "shdf", str(manifest)] if command == "verify" else ["aut", str(manifest)]


@pytest.mark.parametrize("command", ["build", "verify", "aut"])
def test_a_configuration_no_generator_certifies_exits_2_alike(desk_build, tmp_path, capsys,
                                                              command):
    # |D1| = 2 classes of one element each is not (q-1)/2 = 1, whatever the
    # generator: all three commands report the same search failure
    argv = _desk_argv(command, desk_build, tmp_path, "--i1", "0,1", "0,1")
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "SHDF FAIL: |D1| = (q-1)/2 needs N/2 = 1 classes, i1 has 2\n", "")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["build", "verify", "aut"])
def test_a_pinned_generator_that_is_not_primitive_exits_1_alike(desk_build, tmp_path, capsys,
                                                                command):
    # 1 has order 1 in GF(3): a bad configuration, not a failed search
    argv = _desk_argv(command, desk_build, tmp_path, "--gen", "1", "1")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: generator encoding 1 is not primitive in GF(3)\n"
    assert not (tmp_path / "x").exists()


def test_build_bad_generator_exits_1(tmp_path, capsys):
    code = main(["build", "--p", "7", "--e", "1", "--N", "2",
                 "--i0", "0", "--i1", "0", "--gen", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "not primitive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "verify", "aut"])
def test_an_index_range_no_class_reaches_exits_1(desk_build, tmp_path, capsys, command):
    # expanded, the range would take more memory than the machine has
    if command == "build":
        argv = ["build", "--p", "3", "--e", "1", "--N", "2", "--i0", "0-99999999999",
                "--i1", "0", "--out", str(tmp_path / "x")]
    else:
        manifest = desk_build / "manifest.txt"
        text = manifest.read_text()
        assert "# i0 = 0\n" in text
        manifest.write_text(text.replace("# i0 = 0\n", "# i0 = 0-99999999999\n"))
        argv = ["verify", "shdf", str(manifest)] if command == "verify" else ["aut", str(manifest)]
    code = main(argv)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "out of range" in err[0]
    assert not (tmp_path / "x").exists()


def test_build_class_index_out_of_range_exits_1(tmp_path, capsys):
    code = main(["build", "--p", "3", "--e", "1", "--N", "2",
                 "--i0", "5", "--i1", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "out of range" in err[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("extra", [[], ["--tournament"]])
def test_rank_non_prime_field_exits_1(desk_build, capsys, extra):
    code = main(["rank", str(desk_build / "matrix_8.txt"), "--field", "4"] + extra)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not prime" in err[0]


@pytest.mark.parametrize("field,message", [("4", "not prime"),
                                           ("2305843009213693951", "exceeds")])
def test_rank_refuses_the_field_before_reading_the_file(tmp_path, capsys, field, message):
    # the file does not exist, so the field's error proves nothing was read
    code = main(["rank", str(tmp_path / "missing.txt"), "--field", field])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_rank_huge_prime_exits_1_at_once(desk_build, capsys):
    # a Mersenne prime far beyond exact float64 elimination; trial division
    # of it would not end, so the bound is checked first
    t0 = time.perf_counter()
    code = main(["rank", str(desk_build / "matrix_8.txt"), "--field", "2305843009213693951"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceeds" in err[0]


def test_build_huge_prime_exits_1_at_once(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["build", "--p", "2305843009213693951", "--e", "1", "--N", "2",
                 "--i0", "0", "--i1", "1", "--out", str(tmp_path / "x")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceeds" in err[0]
    assert not (tmp_path / "x").exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--p", "3"])
    assert exc.value.code == 1


def test_aut_negative_samples_exits_1(desk_build, capsys):
    code = main(["aut", str(desk_build / "manifest.txt"), "--samples", "-3"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--samples" in err[0]


@pytest.mark.parametrize("case", ["build-poly-not-integers", "build-poly-wrong-degree",
                                  "aut-negative-seed"])
def test_bad_option_values_exit_1(desk_build, tmp_path, capsys, case):
    if case == "build-poly-not-integers":
        argv = ["build", "--p", "3", "--e", "1", "--N", "2", "--i0", "0", "--i1", "0",
                "--poly", "a,1", "--out", str(tmp_path / "x")]
        word = "--poly"
    elif case == "build-poly-wrong-degree":  # three coefficients for a modulus of degree e = 1
        argv = ["build", "--p", "5", "--e", "1", "--N", "4", "--i0", "0-1", "--i1", "0,2",
                "--poly", "1,1,1", "--out", str(tmp_path / "x")]
        word = "error: modulus must be monic with 2 coefficients"
    else:
        argv = ["aut", str(desk_build / "manifest.txt"), "--seed", "-1"]
        word = "--seed"
    code = main(argv)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["/etc/hostname", "../matrix_8.txt", "sub/matrix_8.txt",
                                  "sub\\matrix_8.txt", ".", ".."])
def test_manifest_refuses_names_outside_its_directory(desk_build, capsys, name):
    manifest = desk_build / "manifest.txt"
    manifest.write_text(manifest.read_text() + "ab" * 32 + "  " + name + "\n")
    code = main(["manifest", str(desk_build)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not a plain file name" in err[0]


@pytest.mark.parametrize("command", ["manifest", "verify shdf", "aut"])
@pytest.mark.parametrize("repeat", ["config", "digest", "unknown"])
def test_a_repeated_manifest_line_exits_1(desk_build, capsys, command, repeat):
    # a second "# p = ..." line, a second digest line for the matrix, or a
    # config key that is no field ("n" beside "N") is refused on its own
    # line, whatever the value it gives
    manifest = desk_build / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    if repeat == "config":
        at = next(i for i, line in enumerate(lines) if line.startswith("# p ="))
        lines.insert(at + 1, "# p = 7\n")
        want = "error: manifest line %d: config field 'p' is repeated" % (at + 2)
    elif repeat == "unknown":
        at = next(i for i, line in enumerate(lines) if line.startswith("# N ="))
        lines.insert(at + 1, "# n = 4\n")
        want = "error: manifest line %d: unknown config field 'n'" % (at + 2)
    else:
        at = next(i for i, line in enumerate(lines) if line.endswith("  matrix_8.txt\n"))
        lines.append(lines[at])
        want = "error: manifest line %d: 'matrix_8.txt' has a second digest line" % len(lines)
    manifest.write_text("".join(lines))
    argv = {"manifest": ["manifest", str(desk_build)],
            "verify shdf": ["verify", "shdf", str(manifest)],
            "aut": ["aut", str(manifest)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", want + "\n")


@pytest.mark.parametrize("case", ["build-out-is-a-file", "encode-out-in-missing-dir",
                                  "decode-out-in-missing-dir"])
def test_output_path_errors_exit_1(desk_build, tmp_path, capsys, case):
    matrix = str(desk_build / "matrix_8.txt")
    vec = tmp_path / "vec.txt"
    vec.write_text("1.0\n" * 8)
    pkt = tmp_path / "pkt.bin"
    assert main(["sketch", "encode", matrix, str(vec), "--k", "8", "--out", str(pkt)]) == 0
    capsys.readouterr()
    missing = tmp_path / "missing_dir"
    if case == "build-out-is-a-file":
        argv = ["build", "--p", "3", "--e", "1", "--N", "2", "--i0", "0", "--i1", "0",
                "--out", str(vec)]
    elif case == "encode-out-in-missing-dir":
        argv = ["sketch", "encode", matrix, str(vec), "--k", "8", "--out", str(missing / "x.pkt")]
    else:
        argv = ["sketch", "decode", matrix, str(pkt), "--out", str(missing / "y.txt")]
    code = main(argv)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not missing.exists()


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_file_exits_1(capsys):
    code = main(["verify", "gate0", "/nonexistent/matrix.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_manifest_with_an_unreadable_file_exits_1(desk_build, monkeypatch, capsys):
    # root ignores chmod, so the opening of one listed file is made to fail
    path_open = Path.open

    def unreadable(path, *args, **kwargs):
        if path.name == "gate0_report.txt":
            raise PermissionError(13, "Permission denied", str(path))
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", unreadable)
    code = main(["manifest", str(desk_build)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Permission denied" in err[0]


def test_matrix_parse_error_reports_location(desk_build, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n+*\n-+\n")
    code = main(["verify", "gate0", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2, column 2" in err


def test_sketch_cli_round_trip(desk_build, tmp_path, capsys):
    rng = np.random.default_rng(6)
    x = rng.normal(size=8)
    vec = tmp_path / "vec.txt"
    vec.write_text("".join(f"{float(v)!r}\n" for v in x))
    pkt = tmp_path / "pkt.bin"
    rec = tmp_path / "rec.txt"

    code = main(["sketch", "encode", str(desk_build / "matrix_8.txt"),
                 str(vec), "--k", "8", "--out", str(pkt)])
    assert code == 0
    assert "20 bytes" not in capsys.readouterr().out  # k=8: 8 + 24 = 32 bytes
    assert pkt.stat().st_size == 8 + 3 * 8

    code = main(["sketch", "decode", str(desk_build / "matrix_8.txt"),
                 str(pkt), "--out", str(rec)])
    capsys.readouterr()
    assert code == 0
    xr = np.array([float(line) for line in rec.read_text().splitlines()])
    # k = n, so the only loss is 8-bit quantization
    scale = sh.SketchPacket.from_bytes(pkt.read_bytes()).scale
    assert np.max(np.abs(x - xr)) <= scale * np.sqrt(8) / 2 + 1e-12


def test_sketch_cli_rejects_nan_scale_packet(desk_build, tmp_path, capsys):
    good = sh.SketchPacket(scale=1.0, k=2, n_tag=8, indices=(1, 5),
                           qvalues=(1, 2)).to_bytes()
    pkt = tmp_path / "nan.bin"
    pkt.write_bytes(struct.pack("<f", float("nan")) + good[4:])
    out = tmp_path / "rec.txt"
    code = main(["sketch", "decode", str(desk_build / "matrix_8.txt"), str(pkt),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("peak", ["1e45", "1e308", "1e-44"])
def test_sketch_cli_refuses_a_peak_without_a_float32_scale(desk_build, tmp_path, capsys, peak):
    vec = tmp_path / "vec.txt"
    vec.write_text(peak + "\n" + "0\n" * 7)
    pkt = tmp_path / "p.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sketch", "encode", str(desk_build / "matrix_8.txt"),
                     str(vec), "--k", "8", "--out", str(pkt)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error:")
    assert "float32 scale" in err
    assert not pkt.exists()


def test_sketch_cli_rejects_wrong_length_vector(desk_build, tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("1.0\n2.0\n")
    code = main(["sketch", "encode", str(desk_build / "matrix_8.txt"),
                 str(vec), "--k", "2", "--out", str(tmp_path / "p.bin")])
    assert code == 1


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "skewhad.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "skewhad", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout


def _per_value_vector_text(values):
    """The vector file as written one f-string per value."""
    return "".join(f"{float(v)!r}\n" for v in np.asarray(values, dtype=np.float64)).encode()


@pytest.mark.parametrize("case", ["random", "edges", "float32", "integers", "empty"])
def test_write_vector_file_matches_the_per_value_writer(tmp_path, case):
    rng = np.random.default_rng(1252)
    values = {
        "random": rng.standard_normal(1252) * 10.0 ** rng.integers(-300, 300, 1252),
        "edges": np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
                           2.2250738585072014e-308, 0.1, 1 / 3, np.inf, -np.inf, np.nan]),
        "float32": rng.standard_normal(64).astype(np.float32),
        "integers": np.arange(-5, 6),
        "empty": np.zeros(0),
    }[case]
    path = tmp_path / "x.txt"
    write_vector_file(path, values)
    assert path.read_bytes() == _per_value_vector_text(values)
    assert (path.read_bytes() == b"") == (case == "empty")


@pytest.mark.parametrize("case", ["not-ascii", "not-ascii-mid-line", "not-a-number"])
def test_a_bad_vector_file_exits_1_with_one_error_line(desk_build, tmp_path, capsys, case):
    # a blank line is skipped but counted, so the bad line is reported as line 3;
    # a byte that is not ASCII is placed by its line, CRLF counted as one break
    vec = tmp_path / "vec.txt"
    vec.write_bytes({"not-ascii": b"1.0\n\xe9\n", "not-ascii-mid-line": b"1.0\r\n\r\n2.\xe95\n",
                     "not-a-number": b"1.0\n\nabc\n"}[case])
    pkt = tmp_path / "p.bin"
    code = main(["sketch", "encode", str(desk_build / "matrix_8.txt"), str(vec),
                 "--k", "2", "--out", str(pkt)])
    want = {"not-ascii": f"error: {vec}: line 2: not ASCII text\n",
            "not-ascii-mid-line": f"error: {vec}: line 3: not ASCII text\n",
            "not-a-number": f"error: {vec}: line 3: not a number: 'abc'\n"}[case]
    assert (code, capsys.readouterr()) == (1, ("", want))
    assert not pkt.exists()


def test_aut_without_a_digest_line_for_the_matrix_exits_1(desk_build, capsys):
    manifest = desk_build / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.endswith("  matrix_8.txt\n")))
    assert main(["aut", str(manifest)]) == 1
    assert capsys.readouterr() == ("", f"error: {manifest}: no digest line for matrix_8.txt\n")


def test_aut_on_a_matrix_of_another_order_exits_1(desk_build, capsys):
    # the file's digest matches the manifest, but its order is not 2(q + 1)
    manifest, matrix = desk_build / "manifest.txt", desk_build / "matrix_8.txt"
    old = sha256_file(matrix)
    matrix.write_bytes(b"2\n++\n-+\n")
    manifest.write_text(manifest.read_text().replace(old, sha256_file(matrix)))
    assert main(["aut", str(manifest)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {matrix}: order 2 does not match the manifest's 8\n")


@pytest.mark.parametrize("action", ["encode", "decode"])
def test_sketch_on_a_matrix_that_fails_gate0_exits_2(desk_build, tmp_path, capsys, action):
    matrix = desk_build / "matrix_8.txt"
    vec, pkt, out = tmp_path / "vec.txt", tmp_path / "pkt.bin", tmp_path / "out"
    vec.write_text("1.0\n" * 8)
    assert main(["sketch", "encode", str(matrix), str(vec), "--k", "8", "--out", str(pkt)]) == 0
    capsys.readouterr()
    data = bytearray(matrix.read_bytes())
    data[data.index(b"+", 2)] = ord("-")
    matrix.write_bytes(bytes(data))
    given = vec if action == "encode" else pkt
    code = main(["sketch", action, str(matrix), str(given), "--out", str(out)])
    assert (code, capsys.readouterr()) == (2, ("GATE0 FAIL n=8\n", ""))
    assert not out.exists()


def test_manifest_with_a_missing_file_exits_2(desk_build, capsys):
    (desk_build / "gate0_report.txt").unlink()
    assert main(["manifest", str(desk_build)]) == 2
    assert capsys.readouterr() == (
        "MISSING gate0_report.txt\nOK matrix_8.txt\nOK shdf_certificate.txt\n", "")
