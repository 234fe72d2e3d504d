"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; the suite builds the order-1252 instance once (session fixture) and
checks every published figure at its stated tolerance.
"""

from __future__ import annotations

import time

import numpy as np

import skewhad as sh
from skewhad import ranks

from _naive import naive_autocorrelation, naive_rank_gf2, naive_rank_gfp, naive_reversed_type2
from conftest import SMALL_FIELDS, desk_group, field_group, subset_of_encodings


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_desk_oracles():
    t0 = time.perf_counter()
    g3 = desk_group(3)
    d3 = subset_of_encodings(g3, [1])
    h8 = sh.build_bordered_from_blocks(g3, d3, d3)
    r8 = sh.gate0_verify(h8)

    g5 = desk_group(5)
    h12 = sh.build_bordered_from_blocks(g5,
                                        subset_of_encodings(g5, [1, 2]),
                                        subset_of_encodings(g5, [1, 4]))
    r12 = sh.gate0_verify(h12)
    elapsed = time.perf_counter() - t0

    ok = h8.n == 8 and r8.passed and h12.n == 12 and r12.passed and elapsed < 1.0
    _report(1, ok, f"order-8 and order-12 desk pipelines pass Gate0 in {elapsed:.3f}s")
    assert h8.n == 8 and r8.passed
    assert h12.n == 12 and r12.passed
    assert elapsed < 1.0


def test_criterion_2_shdf_certification(instance625):
    _, _, pair, _ = instance625
    t0 = time.perf_counter()
    skew_ok = sh.check_skew(pair.group, pair.d0)
    cert = sh.check_shdf(pair.group, pair)
    elapsed = time.perf_counter() - t0

    ok = (skew_ok and cert.passed and cert.sums.shape == (624,)
          and bool(np.all(cert.sums == -2)) and elapsed < 5.0)
    _report(2, ok, f"skew + all 624 shift sums == -2 exactly in {elapsed:.3f}s")
    assert skew_ok
    assert cert.sums.shape == (624,)
    assert np.all(cert.sums == -2)
    assert elapsed < 5.0


def test_criterion_3_gate0_order_1252(matrix1252):
    t0 = time.perf_counter()
    report = sh.gate0_verify(matrix1252)
    elapsed = time.perf_counter() - t0

    ok = matrix1252.n == 1252 and report.passed and elapsed < 60.0
    _report(3, ok, f"HH^T = 1252 I and H + H^T = 2I, exact, in {elapsed:.3f}s "
                   f"(float32 BLAS Gram, target < 2s)")
    assert matrix1252.n == 1252
    assert report.gram_ok and report.skew_ok
    assert report.max_offdiag_gram == 0
    assert elapsed < 60.0


def test_criterion_4_class_structure(instance625):
    tables, partition, pair, _ = instance625
    counts = np.bincount(partition.class_of[partition.class_of >= 0], minlength=16)
    shift = sh.negation_class_shift(tables, 16)
    d0, d1 = sh.subset_size(pair.d0), sh.subset_size(pair.d1)

    ok = (partition.N == 16 and counts.tolist() == [39] * 16
          and shift == 8 and d0 == 312 and d1 == 312)
    _report(4, ok, f"16 classes of 39, negation shift {shift}, |D0|=|D1|={d0}")
    assert counts.tolist() == [39] * 16
    assert shift == 8
    assert d0 == 312 and d1 == 312


def test_criterion_5_rank_invariants(instance625, matrix1252):
    tables = instance625[0]
    # H H^T = nI certifies full rank over 3 and 5, and the doubly regular
    # tournament's det(M)^2 = 313^1250 * 625^2 over 2; 313 divides
    # n = 1252 and 5 divides det(M), so those two ranks come from elimination
    expected = {("tournament", 2): 1251, ("hadamard", 3): 1252, ("hadamard", 5): 1252,
                ("hadamard", 313): 626, ("tournament", 5): 1250, ("tournament", 313): 626}
    t0 = time.perf_counter()
    m01 = sh.normalize_core_tournament(matrix1252)
    signs = matrix1252.signs()
    got = {
        ("tournament", 2): sh.rank_gfp(m01, 2, label="tournament").rank,
        ("hadamard", 3): sh.rank_gfp(signs, 3, label="hadamard").rank,
        ("hadamard", 5): sh.rank_gfp(signs, 5, label="hadamard").rank,
        ("hadamard", 313): sh.rank_gfp(signs, 313, label="hadamard").rank,
        ("tournament", 5): sh.rank_gfp(m01, 5, label="tournament").rank,
        ("tournament", 313): sh.rank_gfp(m01, 313, label="tournament").rank,
    }
    # the certified ranks again, by elimination alone: proof and elimination
    # check each other on the artifact
    eliminated = {("tournament", 2): ranks._eliminate_gf2(m01),
                  ("hadamard", 3): ranks._eliminate(signs, 3),
                  ("hadamard", 5): ranks._eliminate(signs, 5)}
    elapsed = time.perf_counter() - t0

    mismatches = {k: (v, expected[k]) for k, v in got.items() if v != expected[k]}
    mismatches.update({("eliminated",) + k: (v, expected[k])
                       for k, v in eliminated.items() if v != expected[k]})
    ok = not mismatches and elapsed < 30.0
    detail = (f"ranks {got[('tournament', 2)]}/{got[('hadamard', 3)]}/"
              f"{got[('hadamard', 5)]}/{got[('hadamard', 313)]}, tournament "
              f"{got[('tournament', 5)]}/{got[('tournament', 313)]} over 5/313, "
              f"certified and eliminated, match reference in {elapsed:.1f}s")
    if mismatches:
        # a different generator choice is the only conceivable source of a
        # mismatch; flag it with the generator so the discrepancy is auditable
        detail = (f"DISCREPANCY {mismatches} with generator encoding "
                  f"{tables.generator} (modulus {tables.modulus})")
    _report(5, ok, detail)
    assert not mismatches, detail
    assert elapsed < 30.0


def test_criterion_6_automorphism_subgroup(instance625, matrix1252):
    _, partition, _, _ = instance625
    t0 = time.perf_counter()
    report = sh.subgroup_audit(matrix1252, partition, samples=100, exhaustive=True)
    elapsed = time.perf_counter() - t0

    generators_ok = all(ok for _, ok in report.generator_results)
    ok = (report.passed and generators_ok
          and len(report.generator_results) == 5       # multiplier + 4 translations
          and report.samples_ok == report.samples_checked == 100
          and report.asserted_order == 24375
          and report.exhaustive_ok == report.exhaustive_checked == 24375
          and elapsed < 600.0)
    _report(6, ok, f"5 generators, 100 closure samples, exhaustive 24375/24375 "
                   f"in {elapsed:.0f}s, order 24375 = 39*625")
    assert generators_ok
    assert report.samples_ok == 100
    assert report.asserted_order == 24375
    assert report.exhaustive_ok == report.exhaustive_checked == 24375
    assert elapsed < 600.0


def test_criterion_7_sketch(matrix1252):
    raw, size, ratio = sh.byte_accounting(sh.SketchConfig(n=1252, k=300))
    gran = (1252 / 1024 - 1.0) * 100.0  # order gain over the power of two below, in percent

    rng = np.random.default_rng(42)
    x = rng.normal(size=1252)
    y = sh.transform(x, matrix1252)
    xr = sh.inverse_transform(y, matrix1252)
    round_trip = float(np.max(np.abs(x - xr)) / np.max(np.abs(x)))

    packet = sh.encode(x, matrix1252, sh.SketchConfig(n=1252, k=300))  # warm caches
    best = min(_timed_encode(x, matrix1252) for _ in range(7))

    ok = (raw == 5008 and size == 908 and abs(ratio - 5.52) <= 0.005
          and abs(gran - 22.27) <= 0.01 and round_trip <= 1e-9
          and len(packet.to_bytes()) == 908 and best < 5e-3)
    _report(7, ok, f"bytes ({raw}, {size}, {ratio:.2f}), granularity +{gran:.2f}%, "
                   f"round trip {round_trip:.1e}, encode {best * 1e3:.2f}ms")
    assert raw == 5008 and size == 908
    assert abs(ratio - 5.52) <= 0.005
    assert abs(gran - 22.27) <= 0.01
    assert round_trip <= 1e-9
    assert len(packet.to_bytes()) == 908
    assert best < 5e-3


def _timed_encode(x, h):
    t0 = time.perf_counter()
    sh.encode(x, h, sh.SketchConfig(n=1252, k=300))
    return time.perf_counter() - t0


def test_criterion_8_property_suites():
    # autocorrelation: set identity == literal indicator sum, all shifts
    rng = np.random.default_rng(8)
    checked = 0
    for p, e in SMALL_FIELDS + [(3, 3), (5, 2), (61, 1), (2, 6)]:
        g, add, _ = field_group(p, e)
        name, v = f"gf{p}^{e}", g.order
        for members in ([], [1], sorted(rng.choice(v, size=v // 2, replace=False).tolist())):
            mask = sh.subset_from_indices(g, members)
            profile = sh.autocorrelation_profile(g, mask)
            for w in range(v):
                assert profile[w] == naive_autocorrelation(v, add, members, w), name
                checked += 1

    # rank eliminators against the naive oracles
    for n in (8, 21, 64):
        m2 = (rng.random((n, n)) < 0.5).astype(np.uint8)
        assert sh.rank_gfp(m2, 2).rank == naive_rank_gf2(m2.tolist())
        mp = rng.integers(-6, 7, size=(n, n))
        for p in (3, 5):
            assert sh.rank_gfp(mp, p).rank == naive_rank_gfp(mp.tolist(), p)

    # type-1 commutation and Gram-profile identities for every v <= 16; C is
    # the bordered assembly's block C[i, j] = s_D1(g_i - g_j), built by the
    # oracle as the reversed sum development
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        v = g.order
        d0 = sh.subset_from_indices(g, rng.choice(v, size=v // 2, replace=False))
        d1 = sh.subset_from_indices(g, rng.choice(v, size=max(1, v // 3), replace=False))
        a = sh.type1_matrix(g, d0).signs().astype(int)
        c = np.array(naive_reversed_type2(v, add, neg, np.flatnonzero(d1)))
        assert np.array_equal(a @ c, c @ a)
        gram = a @ a.T
        profile = sh.autocorrelation_profile(g, d0)
        for i in range(v):
            for k in range(v):
                assert gram[i, k] == profile[add(i, neg(k))]

    _report(8, True, f"identity sweeps pass ({checked} autocorrelation checks, "
                     f"rank oracles to 64, development identities to v=16)")
