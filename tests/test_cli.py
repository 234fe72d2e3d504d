from __future__ import annotations

import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewhad as sh
from skewhad.cli import (BuildConfig, CliError, format_index_set, format_manifest, main,
                         parse_index_set, parse_manifest, read_manifest)

from _naive import naive_rank_gfp
from conftest import mutate_one_byte


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
    rank certificates and eliminations."""
    calls = {"gate0_verify": 0, "gram_deviation": 0, "_gram_certifies_full_rank": 0,
             "_eliminate": 0, "_eliminate_gf2": 0}
    for module, name in ((sh.hadamard, "gate0_verify"), (sh.hadamard, "gram_deviation"),
                         (sh.ranks, "gram_deviation"), (sh.ranks, "_gram_certifies_full_rank"),
                         (sh.ranks, "_eliminate"), (sh.ranks, "_eliminate_gf2")):
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("p, rank, eliminations", [(2, 1251, 0), (5, 1250, 1), (313, 626, 1)])
def test_rank_tournament_at_1252_forms_only_the_gate0_gram(
        matrix1252_file, capsys, monkeypatch, p, rank, eliminations):
    # Gate0 passed, so M M^T = 313 I + 312 J: det(M)^2 = 313^1250 * 625^2 is
    # a unit mod 2, and 5 and 313 divide it, so those two ranks eliminate
    calls = _count_rank_calls(monkeypatch)
    code = main(["rank", str(matrix1252_file), "--field", str(p), "--tournament"])
    assert code == 0
    assert capsys.readouterr().out == f"tournament {p} 1251 {rank}\n"
    assert calls == {"gate0_verify": 1, "gram_deviation": 1, "_gram_certifies_full_rank": 0,
                     "_eliminate": eliminations, "_eliminate_gf2": 0}


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
    assert calls == {"gate0_verify": 1, "gram_deviation": 1, "_gram_certifies_full_rank": 0,
                     "_eliminate": 0, "_eliminate_gf2": 0}


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


@pytest.mark.parametrize("case", ["build-poly-not-integers", "aut-negative-seed"])
def test_bad_option_values_exit_1(desk_build, tmp_path, capsys, case):
    if case == "build-poly-not-integers":
        argv = ["build", "--p", "3", "--e", "1", "--N", "2", "--i0", "0", "--i1", "0",
                "--poly", "a,1", "--out", str(tmp_path / "x")]
        word = "--poly"
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
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "skewhad.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout


def test_package_runs_as_a_module():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "skewhad", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout
