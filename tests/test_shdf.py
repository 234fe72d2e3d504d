from __future__ import annotations

import numpy as np
import pytest

import skewhad as sh
from skewhad import gf, shdf
from skewhad.shdf import GeneratorSearchError

from conftest import PAPER_I0, PAPER_I1, desk_group, subset_of_encodings


def test_blocks_from_indices_sizes_625(instance625):
    _, partition, pair, _ = instance625
    assert pair.i0 == frozenset(PAPER_I0)
    assert pair.i1 == frozenset(PAPER_I1)
    assert sh.subset_size(pair.d0) == 8 * 39 == 312
    assert sh.subset_size(pair.d1) == 312
    assert not pair.d0[0] and not pair.d1[0]


def test_blocks_empty_index_set():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    part = sh.cyclotomic_partition(tables, 3)
    pair = sh.blocks_from_indices(part, [], [0])
    assert sh.subset_size(pair.d0) == 0


def test_blocks_gf7_frozen_membership():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    part = sh.cyclotomic_partition(tables, 3)
    pair = sh.blocks_from_indices(part, [0], [1])
    enc = np.array([0, *tables.antilog])
    assert set(enc[pair.d0].tolist()) == {1, 6}
    assert set(enc[pair.d1].tolist()) == {3, 4}


def test_blocks_membership_agrees_with_class_of(instance625):
    # index-computed masks match the partition's class-of-encoding map
    tables, partition, pair, _ = instance625
    for i in np.random.default_rng(0).integers(1, 625, size=50):
        enc = int(tables.antilog[i - 1])  # index i holds g^(i - 1)
        in_d0 = int(partition.class_of[enc]) in pair.i0
        assert bool(pair.d0[int(i)]) == in_d0


def test_blocks_reject_out_of_range():
    tables = sh.build_field(sh.FieldConfig(7, 1))
    part = sh.cyclotomic_partition(tables, 3)
    with pytest.raises(ValueError):
        sh.blocks_from_indices(part, [3], [0])


def test_check_skew_examples():
    g5 = desk_group(5)
    assert sh.check_skew(g5, subset_of_encodings(g5, [1, 2]))
    assert not sh.check_skew(g5, subset_of_encodings(g5, [1, 4]))
    assert not sh.check_skew(g5, subset_of_encodings(g5, []))
    assert not sh.check_skew(g5, subset_of_encodings(g5, [0, 1]))  # 0 in D


def test_check_skew_625(instance625):
    _, _, pair, _ = instance625
    assert sh.check_skew(pair.group, pair.d0)


def test_check_shdf_desk_z3():
    g = desk_group(3)
    d = subset_of_encodings(g, [1])
    pair = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(), d0=d, d1=d.copy())
    cert = sh.check_shdf(g, pair)
    assert cert.passed
    assert cert.sums.tolist() == [-2, -2]


def test_check_shdf_desk_z5():
    g = desk_group(5)
    pair = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(),
                        d0=subset_of_encodings(g, [1, 2]),
                        d1=subset_of_encodings(g, [1, 4]))
    cert = sh.check_shdf(g, pair)
    assert cert.passed
    assert cert.sums.tolist() == [-2, -2, -2, -2]


def test_check_shdf_failure_reasons():
    g = desk_group(5)
    bad_skew = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(),
                            d0=subset_of_encodings(g, [1, 4]),
                            d1=subset_of_encodings(g, [1, 4]))
    cert = sh.check_shdf(g, bad_skew)
    assert not cert.passed and not cert.skew_ok
    assert "skew" in cert.reason

    zero_in = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(),
                           d0=subset_of_encodings(g, [0, 1]),
                           d1=subset_of_encodings(g, [1, 4]))
    cert = sh.check_shdf(g, zero_in)
    assert not cert.passed and "zero element" in cert.reason

    bad_size = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(),
                            d0=subset_of_encodings(g, [1, 2]),
                            d1=subset_of_encodings(g, [1, 2, 4]))
    cert = sh.check_shdf(g, bad_size)
    assert not cert.passed and not cert.d1_size_ok


def test_certificate_log_format():
    g = desk_group(3)
    d = subset_of_encodings(g, [1])
    pair = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(), d0=d, d1=d.copy())
    cert = sh.check_shdf(g, pair)
    assert cert.to_log() == "1 -2\n2 -2\nPASS\n"


def test_check_shdf_625(instance625):
    tables, _, pair, cert = instance625
    assert cert.passed
    assert cert.sums.shape == (624,)
    assert np.all(cert.sums == -2)
    fresh = sh.check_shdf(pair.group, pair)
    assert fresh.passed and np.array_equal(fresh.sums, cert.sums)


def test_parity_consistency(instance625):
    # each autocorrelation is v mod 4, so sums are 2v mod 4; for odd v that
    # equals -2 mod 4, which is what makes the -2 target attainable at all
    _, _, pair, cert = instance625
    v = pair.group.order
    assert np.all((cert.sums - 2 * v) % 4 == 0)
    assert (-2 - 2 * v) % 4 == 0


def test_simultaneous_rotation_invariance(instance625):
    tables, partition, _, _ = instance625
    for j in (1, 5, 11):
        i0 = [(i + j) % 16 for i in PAPER_I0]
        i1 = [(i + j) % 16 for i in PAPER_I1]
        pair = sh.blocks_from_indices(partition, i0, i1)
        assert sh.check_shdf(pair.group, pair).passed


def test_find_valid_generator_625(instance625):
    tables, partition, pair, cert = instance625
    assert cert.passed
    assert tables.q == 625
    # the winner must be primitive: its powers enumerate all 624 nonzero elements
    assert sorted(tables.antilog.tolist()) == list(range(1, 625))
    assert partition.f == 39


def test_find_valid_generator_desk_z3():
    tables, partition, pair, cert = sh.find_valid_generator(
        sh.FieldConfig(3, 1), 2, [0], [0])
    assert cert.passed
    assert tables.generator == 2
    assert sh.subset_size(pair.d0) == 1


def test_find_valid_generator_pinned():
    tables, _, _, cert = sh.find_valid_generator(
        sh.FieldConfig(5, 4, generator=6), 16, PAPER_I0, PAPER_I1)
    assert cert.passed and tables.generator == 6


def test_find_valid_generator_exhaustion():
    # I0 = I1 = {0, ..., 7} passes the generator-free checks (-1 lies in
    # class 8), but no relabeling certifies it: all eight primitive roots
    # mod 17 are tried and fail
    with pytest.raises(GeneratorSearchError) as exc:
        sh.find_valid_generator(sh.FieldConfig(17, 1), 16, range(8), range(8))
    assert exc.value.candidates_tried == 8


def test_find_valid_generator_checks_one_labeling_per_residue(monkeypatch):
    # GF(81) has 32 primitive elements but only phi(16) = 8 residues of log
    # mod 16, so 8 checks exhaust the search
    calls = []
    check = shdf.check_shdf
    monkeypatch.setattr(shdf, "check_shdf", lambda *a: calls.append(a) or check(*a))
    with pytest.raises(GeneratorSearchError, match="8 class labelings checked") as exc:
        sh.find_valid_generator(sh.FieldConfig(3, 4), 16, range(8), range(0, 16, 2))
    assert exc.value.candidates_tried == len(calls) == 8


def _every_candidate(fieldcfg, N, i0, i1):
    """The first primitive element in encoding order whose own labeling
    passes, with one full check per candidate, and the residues that fail."""
    base = sh.build_field(fieldcfg)
    failing, winner = set(), None
    for enc in range(1, base.q):
        if np.gcd(int(base.log[enc]), base.q - 1) != 1:
            continue
        partition = sh.cyclotomic_partition(gf.tables_for_generator(base, enc), N)
        pair = sh.blocks_from_indices(partition, i0, i1)
        if sh.check_shdf(pair.group, pair).passed:
            winner = enc if winner is None else winner
        else:
            failing.add(int(base.log[enc]) % N)
    return winner, failing


def test_find_valid_generator_matches_every_candidate_oracle():
    cfg = sh.FieldConfig(5, 3)
    winner, failing = _every_candidate(cfg, 4, [0, 1], [0, 2])
    assert failing == {1}  # residue 1 fails, so the search must go on to residue 3
    tables, _, pair, cert = sh.find_valid_generator(cfg, 4, [0, 1], [0, 2])
    assert cert.passed and tables.generator == winner
    base = sh.build_field(cfg)
    assert int(base.log[winner]) % 4 == 3
    # the winner's certificate is the full one, not a relabeled copy
    again = sh.check_shdf(pair.group, pair)
    assert np.array_equal(again.sums, cert.sums)


@pytest.mark.parametrize("p,N,i0,i1,reason", [
    (17, 16, [0, 8], [0, 1, 2, 3], "a skew D0 needs N/2 = 8 classes, i0 has 2"),
    (8209, 2, [0], [1], "i0 meets i0 + 0 (mod 2)"),  # -1 is a square mod 8209
    (13, 4, [0, 2], [0, 1], "i0 meets i0 + 2 (mod 4)"),
    (17, 16, range(8), range(7), "|D1| = (q-1)/2 needs N/2 = 8 classes, i1 has 7"),
])
def test_find_valid_generator_rejects_infeasible_sets_before_search(p, N, i0, i1, reason):
    # -1 = g^((q-1)/2) for every primitive g, so these fail for every generator
    with pytest.raises(GeneratorSearchError) as exc:
        sh.find_valid_generator(sh.FieldConfig(p, 1), N, i0, i1)
    assert exc.value.candidates_tried == 0
    assert reason in str(exc.value)


def test_find_valid_generator_range_checks_before_feasibility():
    # {5} would pass the size and negation checks mod 2; the range check
    # comes first and rejects it as bad input
    with pytest.raises(ValueError, match="class index 5 out of range"):
        sh.find_valid_generator(sh.FieldConfig(3, 1), 2, [5], [0])


def test_find_valid_generator_rejects_bad_n():
    with pytest.raises(sh.FieldError):
        sh.find_valid_generator(sh.FieldConfig(7, 1), 4, [0], [0])
