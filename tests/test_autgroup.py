from __future__ import annotations

import itertools

import numpy as np
import pytest

import skewhad as sh
from skewhad import autgroup, gf
from skewhad.autgroup import AffineMap

from _naive import (naive_closure_samples, naive_compose_affine, naive_enc_add,
                    naive_exhaustive_audit, naive_field_mul)


@pytest.fixture(scope="module")
def desk_field():
    """GF(27) instance with both blocks the nonzero squares (q = 3 mod 4,
    so the square class is skew and the pair certifies)."""
    tables, partition, pair, cert = sh.find_valid_generator(
        sh.FieldConfig(3, 3), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    assert cert.passed and sh.gate0_verify(h).passed
    return tables, partition, pair, h


def test_compose_identity_and_translations():
    # composing maps is composing the permutations they induce
    tables = sh.build_field(sh.FieldConfig(5, 2))
    ident = sh.induced_permutation(tables, AffineMap(u=1, a=0))
    m = sh.induced_permutation(tables, AffineMap(u=int(tables.antilog[4]), a=17))
    assert np.array_equal(ident[m], m)
    assert np.array_equal(m[ident], m)
    t1 = sh.induced_permutation(tables, AffineMap(u=1, a=7))
    t2 = sh.induced_permutation(tables, AffineMap(u=1, a=11))
    combined = AffineMap(u=1, a=naive_enc_add(5, 2, 7, 11))
    assert np.array_equal(t1[t2], sh.induced_permutation(tables, combined))


@pytest.mark.parametrize("p,e", [(5, 1), (5, 4)])
def test_induced_permutation_refuses_out_of_range_maps(p, e):
    # u = 0 used to read log[0] = -1 and build the map of g^-1; u = q raised
    # a bare IndexError
    tables = sh.build_field(sh.FieldConfig(p, e))
    q = tables.q
    for u in (0, -1, q):
        with pytest.raises(ValueError, match="multiplier"):
            sh.induced_permutation(tables, AffineMap(u=u, a=0))
    for a in (-1, q):
        with pytest.raises(ValueError, match="translation"):
            sh.induced_permutation(tables, AffineMap(u=1, a=a))
    sigma = sh.induced_permutation(tables, AffineMap(u=q - 1, a=q - 1))
    assert np.array_equal(np.sort(sigma), np.arange(2 * q + 2))


def test_make_affine_validates_class(desk_field):
    tables, partition, _, _ = desk_field
    u_good = int(tables.pow_g(partition.N))
    assert sh.make_affine(partition, u_good, 0).u == u_good
    u_bad = int(tables.pow_g(1))
    with pytest.raises(ValueError):
        sh.make_affine(partition, u_bad, 0)
    with pytest.raises(ValueError):
        sh.make_affine(partition, 0, 0)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_make_affine_refuses_encodings_out_of_range(offset):
    # GF(5), N = 2: class 0 is {1, 4}, so x -> 1 * x + a is valid for a in [0, 5)
    partition = sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(5, 1)), 2)
    bad = -1 if offset == -1 else 5 + offset
    with pytest.raises(ValueError, match="translation encoding .* out of range"):
        sh.make_affine(partition, 1, bad)
    with pytest.raises(ValueError, match="multiplier encoding .* out of range"):
        sh.make_affine(partition, bad, 0)
    assert sh.make_affine(partition, 4, 4) == AffineMap(u=4, a=4)


def test_multiplier_preserves_classes():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    partition = sh.cyclotomic_partition(tables, 16)
    u = int(tables.pow_g(16))
    mul = naive_field_mul(tables)
    rng = np.random.default_rng(0)
    for x in rng.integers(1, 625, size=50):
        assert partition.class_of[mul(u, int(x))] == partition.class_of[int(x)]


def test_induced_identity_permutation(desk_field):
    tables, _, _, h = desk_field
    sigma = sh.induced_permutation(tables, AffineMap(u=1, a=0))
    assert np.array_equal(sigma, np.arange(h.n))


def test_induced_translation_moves_zero(desk_field):
    tables, _, _, _ = desk_field
    a = 5
    sigma = sh.induced_permutation(tables, AffineMap(u=1, a=a))
    assert sigma[0] == 0 and sigma[1] == 1
    # the zero element sits at block position 0; translating by a sends it
    # to the block position of a in both blocks
    target = [0, *tables.antilog].index(a)
    q = tables.q
    assert sigma[2 + 0] == 2 + target
    assert sigma[2 + q + 0] == 2 + q + target


def test_induced_permutation_is_homomorphism(desk_field):
    # the closure sample's product s1[s2] is the map m1 after m2
    partitions = [desk_field[1]] + [
        sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(p, e)), n)
        for p, e, n in ((5, 2, 4), (5, 4, 16))]
    rng = np.random.default_rng(1)
    for partition in partitions:
        tables = partition.tables
        f, q, N = partition.f, tables.q, partition.N
        for _ in range(20):
            m1 = AffineMap(u=int(tables.pow_g(N * int(rng.integers(f)))), a=int(rng.integers(q)))
            m2 = AffineMap(u=int(tables.pow_g(N * int(rng.integers(f)))), a=int(rng.integers(q)))
            s1 = sh.induced_permutation(tables, m1)
            s2 = sh.induced_permutation(tables, m2)
            s12 = sh.induced_permutation(tables, naive_compose_affine(tables, m1, m2))
            assert np.array_equal(s12, s1[s2])


def test_verify_automorphism_identity_and_transposition(desk_field):
    _, _, _, h = desk_field
    assert sh.verify_automorphism(h, np.arange(h.n))
    swapped = np.arange(h.n)
    swapped[[2, 3]] = swapped[[3, 2]]
    assert not sh.verify_automorphism(h, swapped)


def test_verify_automorphism_size_mismatch(desk_field):
    _, _, _, h = desk_field
    with pytest.raises(ValueError):
        sh.verify_automorphism(h, np.arange(h.n - 1))


def test_subgroup_elements_fix_matrix(desk_field):
    tables, partition, _, h = desk_field
    rng = np.random.default_rng(2)
    f, q, N = partition.f, tables.q, partition.N
    for _ in range(30):
        m = AffineMap(u=int(tables.pow_g(N * int(rng.integers(f)))), a=int(rng.integers(q)))
        assert sh.verify_automorphism(h, sh.induced_permutation(tables, m))


def test_audit_desk_exhaustive(desk_field):
    tables, partition, _, h = desk_field
    report = sh.subgroup_audit(h, partition, samples=25, exhaustive=True)
    assert report.passed
    assert report.asserted_order == partition.f * tables.q
    assert report.exhaustive_checked == report.asserted_order
    assert report.exhaustive_ok == report.exhaustive_checked
    log = report.to_log()
    assert log.splitlines()[-1].startswith("PASS order")


def test_audit_translations_only_group():
    # GF(3) desk instance: C_0 = {1}, so the subgroup is the 3 translations
    tables, partition, pair, cert = sh.find_valid_generator(
        sh.FieldConfig(3, 1), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    report = sh.subgroup_audit(h, partition, samples=10, exhaustive=True)
    assert report.passed
    assert report.asserted_order == 3
    assert report.exhaustive_checked == 3


def test_audit_order_mismatch_rejected(desk_field, matrix8):
    _, partition, _, _ = desk_field
    with pytest.raises(ValueError):
        sh.subgroup_audit(matrix8, partition)


def test_multiplier_order():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    u = int(tables.pow_g(16))
    assert tables.element_order(u) == 39  # (g^16)^39 = g^624 = 1


# (p, e, N, i0, i1) of the order-8, 12, 24, 56 and 252 instances.  Of
# GF(25), GF(49) and GF(125) with N = 2 or 4, only GF(125) has a valid
# instance; it is the one here with p > 3 and more than one translation.
SMALL_INSTANCES = [(3, 1, 2, [0], [0]), (5, 1, 4, [0, 1], [0, 2]),
                   (11, 1, 2, [0], [0]), (3, 3, 2, [0], [0]),
                   (5, 3, 4, [0, 1], [0, 2])]


@pytest.mark.parametrize("p,e,N,i0,i1", SMALL_INSTANCES)
def test_exhaustive_audit_matches_dense_oracle(p, e, N, i0, i1):
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    report = sh.subgroup_audit(h, partition, samples=0, exhaustive=True)
    counts = (report.exhaustive_ok, report.exhaustive_checked)
    assert counts == naive_exhaustive_audit(h, partition)
    assert counts == (partition.f * partition.tables.q,) * 2


@pytest.mark.parametrize("row,col", [
    (2, 2), (0, 5), (2, 5), (30, 40), (29, 29), (55, 3),
    # switches of four entries that keep every row's and column's -1 count:
    # one inside the first block, where every block index keeps its key, so
    # all f*q maps are checked densely, and one across the two blocks
    pytest.param((5, 6), (2, 11), id="switch-in-one-block"),
    pytest.param((3, 30), (2, 5), id="switch-across-blocks")])
def test_exhaustive_audit_on_flipped_entry_matches_dense_oracle(desk_field, row, col):
    # A flipped diagonal or border entry leaves the maps fixing that index as
    # automorphisms; once a generator fails, the key-class count checks only
    # the maps that keep the rarest key class, and it must still be exact.
    _, partition, _, h = desk_field
    signs = h.signs().copy()
    signs[np.ix_(np.atleast_1d(row), np.atleast_1d(col))] *= -1
    broken = sh.PmMatrix.from_signs(signs)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    assert not all(ok for _, ok in report.generator_results)
    assert not report.passed
    ok, total = naive_exhaustive_audit(broken, partition)
    assert (report.exhaustive_ok, report.exhaustive_checked) == (ok, total)
    assert 0 < ok < total


def test_affine_tables_give_the_induced_permutations(desk_field):
    # The orbit-stabilizer certificate compares the generators' products with
    # the rows these tables give, and the key-class count checks those rows
    # densely, so the rows must be exactly the induced maps.
    tables, partition, _, _ = desk_field
    q, N = tables.q, partition.N
    enc = [0, *tables.antilog]
    _, plus, scaled = autgroup._affine_tables(partition)
    for k in range(partition.f):
        for i in range(q):
            m = AffineMap(u=tables.pow_g(N * k), a=int(enc[i]))
            sigma = sh.induced_permutation(tables, m)
            assert np.array_equal(autgroup._bordered(plus[i * q + scaled[k]], q), sigma)


def test_affine_tables_refuse_two_maps_that_collide(desk_field, monkeypatch):
    # g_0 + g^N read as g_0 + g^0: maps 0 and q (k = 0 and 1, both i = 0)
    # then send block indices 0 and 1 to the same pair, and only they collide
    _, partition, _, _ = desk_field
    n_cls, real = partition.N, sh.GroupSpec.sum_index_table

    def colliding(self):
        t = real(self).copy()
        t[0, 1 + n_cls] = t[0, 1]
        return t

    monkeypatch.setattr(sh.GroupSpec, "sum_index_table", colliding)
    with pytest.raises(AssertionError, match="not pairwise distinct"):
        autgroup._affine_tables(partition)


def _generator_actions(tables, partition):
    """Block actions of the multiplier and the e basis translations."""
    q = tables.q
    maps = [AffineMap(u=int(tables.pow_g(partition.N)), a=0)]
    maps += [AffineMap(u=1, a=tables.p**i) for i in range(tables.e)]
    return [autgroup._block_action(sh.induced_permutation(tables, m), q) for m in maps]


def _certifies(partition, multiplier, translations):
    """The orbit-stabilizer verdict on these block actions."""
    _, plus, scaled = autgroup._affine_tables(partition)
    return autgroup._orbit_stabilizer(partition, plus, scaled, multiplier, translations)


def test_closure_outside_the_affine_maps_fails(desk_field, monkeypatch):
    # The Frobenius map x -> x^3 keeps the squares of GF(27), so it is an
    # automorphism of this matrix, but it is not affine: passed as the
    # multiplier it passes its dense check, and the stabilizer step must
    # reject it instead of counting the maps it would generate.
    tables, partition, _, h = desk_field
    q, p = tables.q, tables.p
    frobenius = np.zeros(q, dtype=np.int64)
    frobenius[1:] = 1 + (p * np.arange(q - 1)) % (q - 1)
    frobenius_sigma = autgroup._bordered(frobenius, q)
    assert sh.verify_automorphism(h, frobenius_sigma)
    multiplier, *translations = _generator_actions(tables, partition)
    assert _certifies(partition, multiplier, translations)
    assert not _certifies(partition, frobenius, translations)
    # a repeated translation leaves the orbit of index 0 short; translations
    # after the Frobenius map reach every index but are not translations
    assert not _certifies(partition, multiplier, [translations[0]] * 3)
    assert not _certifies(partition, multiplier,
                          [t[frobenius] for t in translations])

    expected = naive_exhaustive_audit(h, partition)
    induced = autgroup.induced_permutation
    monkeypatch.setattr(autgroup, "induced_permutation",
                        lambda t, m: frobenius_sigma if m.u != 1 else induced(t, m))
    report = sh.subgroup_audit(h, partition, samples=0, exhaustive=True)
    assert all(ok for _, ok in report.generator_results)
    assert not report.passed
    assert (report.exhaustive_ok, report.exhaustive_checked) == expected


def test_stabilizer_of_a_trivial_class_must_be_the_identity():
    # GF(3) with N = 2: C_0 = {1}, so f = 1 and the multiplier's first power
    # must already be the identity; negation has order 2 and must fail.
    tables, partition, _, _ = sh.find_valid_generator(sh.FieldConfig(3, 1), 2, [0], [0])
    multiplier, *translations = _generator_actions(tables, partition)
    assert partition.f == 1
    assert _certifies(partition, multiplier, translations)
    assert not _certifies(partition, np.array([0, 2, 1]), translations)


@pytest.mark.parametrize("row,col,log", [
    (40, 700, "exhaustive 1/24375 FAIL"), (2, 2, "exhaustive 39/24375 FAIL"),
    pytest.param((40, 41), (700, 301), "exhaustive 1/24375 FAIL", id="switch")])
def test_flipped_1252_audit_checks_few_maps_densely(instance625, matrix1252, monkeypatch,
                                                    row, col, log):
    # One flipped block entry changes the key of its row's and its column's
    # block index, so the key-class count checks at most one map per
    # multiplier power, f = 39, beside the 1 + e = 5 generators.  The switch
    # of four entries keeps every row's and column's -1 count, but not the
    # counts inside each block: with whole-row counts for a key it took
    # 24 380 dense checks.
    tables, partition, _, _ = instance625
    signs = matrix1252.signs().copy()
    signs[np.ix_(np.atleast_1d(row), np.atleast_1d(col))] *= -1
    broken = sh.PmMatrix.from_signs(signs)
    calls = []
    verify = autgroup.verify_automorphism
    monkeypatch.setattr(autgroup, "verify_automorphism",
                        lambda h, sigma: calls.append(1) or verify(h, sigma))
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    assert log in report.to_log().splitlines()
    assert not report.passed
    assert len(calls) <= 1 + tables.e + partition.f


def test_block_action_rejects_other_shapes(desk_field):
    tables, _, _, h = desk_field
    sigma = np.arange(h.n)
    sigma[[0, 1]] = sigma[[1, 0]]  # swaps the borders
    with pytest.raises(AssertionError):
        autgroup._block_action(sigma, tables.q)
    sigma = np.arange(h.n)
    sigma[[2, 3]] = sigma[[3, 2]]  # acts on the first block only
    with pytest.raises(AssertionError):
        autgroup._block_action(sigma, tables.q)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_certified_1252_samples_need_no_dense_check(instance625, matrix1252, monkeypatch,
                                                    exhaustive):
    # Once the generators certify the group, every closure sample equals one
    # of its maps entry for entry, so only the 1 + e = 5 generators are
    # checked densely.
    tables, partition, _, _ = instance625
    calls = []
    verify = autgroup.verify_automorphism
    monkeypatch.setattr(autgroup, "verify_automorphism",
                        lambda h, sigma: calls.append(1) or verify(h, sigma))
    report = sh.subgroup_audit(matrix1252, partition, samples=100, exhaustive=exhaustive)
    assert report.passed
    assert "closure_sample 100/100 PASS" in report.to_log().splitlines()
    assert len(calls) == 1 + tables.e == 5


def _flipped(h, row, col):
    signs = h.signs().copy()
    signs[row, col] = -signs[row, col]
    return sh.PmMatrix.from_signs(signs)


@pytest.mark.parametrize("flip", [None, (2, 2), (0, 5), (2, 5), (30, 40), (55, 3)])
def test_desk_closure_samples_match_dense_oracle(desk_field, monkeypatch, flip):
    tables, partition, _, h = desk_field
    broken = h if flip is None else _flipped(h, *flip)
    expected = naive_closure_samples(broken, partition, 60, seed=3)
    calls = []
    verify = autgroup.verify_automorphism
    monkeypatch.setattr(autgroup, "verify_automorphism",
                        lambda h, sigma: calls.append(1) or verify(h, sigma))
    report = sh.subgroup_audit(broken, partition, samples=60, seed=3)
    assert (report.samples_ok, report.samples_checked) == (expected, 60)
    if flip is None:
        assert expected == 60 and len(calls) == 1 + tables.e
    else:
        # a failing generator leaves no certificate, so every sample is dense
        assert not all(ok for _, ok in report.generator_results)
        assert len(calls) == 1 + tables.e + 60


@pytest.mark.parametrize("row,col", [(40, 700), (2, 2)])
def test_flipped_1252_closure_samples_match_dense_oracle(instance625, matrix1252, row, col):
    _, partition, _, _ = instance625
    broken = _flipped(matrix1252, row, col)
    report = sh.subgroup_audit(broken, partition, samples=20, exhaustive=True, seed=5)
    assert not report.passed
    assert report.samples_ok == naive_closure_samples(broken, partition, 20, seed=5)


def _first_factor_twisted(twist, skip):
    """induced_permutation with ``twist`` applied after the first factor of
    each sample pair, once ``skip`` generator calls have gone by."""
    induced = autgroup.induced_permutation
    calls = itertools.count(-skip)

    def twisted(tables, m):
        k, sigma = next(calls), induced(tables, m)
        return twist[sigma] if k >= 0 and k % 2 == 0 else sigma

    return twisted


@pytest.mark.parametrize("twist", ["frobenius", "swap_blocks", "swap_borders",
                                   "translate_one_block"])
def test_sample_outside_the_affine_tables_is_checked_densely(desk_field, monkeypatch, twist):
    # The generators certify the group, but each sample is a twist after an
    # affine map, which is none of the certified maps: the Frobenius map
    # x -> x^3 (an automorphism here, but not affine), a swap of the two
    # blocks, a swap of the borders, or a translation of the first block
    # alone.  Each sample must fall back to its dense verdict, and nothing
    # may raise.
    tables, partition, _, h = desk_field
    q, p, samples = tables.q, tables.p, 30
    sigma = np.arange(h.n)
    if twist == "frobenius":
        frobenius = np.zeros(q, dtype=np.int64)
        frobenius[1:] = 1 + (p * np.arange(q - 1)) % (q - 1)
        sigma = autgroup._bordered(frobenius, q)
    elif twist == "translate_one_block":
        sigma[2: q + 2] = sh.induced_permutation(tables, AffineMap(u=1, a=1))[2: q + 2]
    elif twist == "swap_blocks":
        sigma[2:] = np.roll(sigma[2:], q)
    else:
        sigma[[0, 1]] = [1, 0]
    expected = naive_closure_samples(h, partition, samples,
                                     induced=_first_factor_twisted(sigma, 0))
    assert expected == (samples if twist == "frobenius" else 0)
    calls = []
    verify = autgroup.verify_automorphism
    monkeypatch.setattr(autgroup, "induced_permutation",
                        _first_factor_twisted(sigma, 1 + tables.e))
    monkeypatch.setattr(autgroup, "verify_automorphism",
                        lambda h, sigma: calls.append(1) or verify(h, sigma))
    report = sh.subgroup_audit(h, partition, samples=samples, exhaustive=True)
    assert all(ok for _, ok in report.generator_results)
    assert report.exhaustive_ok == report.exhaustive_checked  # certified
    assert report.samples_ok == expected
    assert len(calls) == 1 + tables.e + samples


def test_no_samples_and_no_exhaustive_skips_the_certificate(desk_field, monkeypatch):
    _, partition, _, h = desk_field
    monkeypatch.setattr(autgroup, "_affine_tables", None)  # any call would raise
    report = sh.subgroup_audit(h, partition, samples=0)
    assert report.passed and report.to_log().splitlines()[-1].startswith("PASS order")


def test_audit_builds_one_additive_group_and_one_set_of_tables(monkeypatch):
    # The digit tables and the affine tables are built once per audit, not
    # once per induced permutation or per certificate step.
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(5, 3), 4, [0, 1], [0, 2])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    fresh = sh.cyclotomic_partition(gf.tables_for_generator(partition.tables,
                                                            partition.tables.generator), 4)
    counts = {"groups": 0, "tables": 0}
    init, tables_of = sh.GroupSpec.__init__, autgroup._affine_tables

    def counting_init(self, *args, **kwargs):
        counts["groups"] += 1
        init(self, *args, **kwargs)

    def counting_tables(partition):
        counts["tables"] += 1
        return tables_of(partition)

    monkeypatch.setattr(sh.GroupSpec, "__init__", counting_init)
    monkeypatch.setattr(autgroup, "_affine_tables", counting_tables)
    report = sh.subgroup_audit(h, fresh, samples=20, exhaustive=True)
    assert report.passed
    assert counts == {"groups": 1, "tables": 1}
