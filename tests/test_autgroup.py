from __future__ import annotations

import numpy as np
import pytest

import skewhad as sh
from skewhad import autgroup, gf

from _naive import (naive_affine_maps, naive_closure_samples, naive_compose_affine,
                    naive_enc_add, naive_exhaustive_audit, naive_field_mul)


@pytest.fixture(scope="module")
def desk_field():
    """GF(27) instance with both blocks the nonzero squares (q = 3 mod 4,
    so the square class is skew and the pair certifies)."""
    tables, partition, pair, cert = sh.find_valid_generator(
        sh.FieldConfig(3, 3), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    assert cert.passed and sh.gate0_verify(h).passed
    return tables, partition, pair, h


def _table_map(partition, k, a):
    """Block action of x -> g^(N*k) x + a from the tables of
    :func:`autgroup._affine_tables`, for a translation encoding a."""
    _, plus, scaled = autgroup._affine_tables(partition)
    q = partition.tables.q
    i = [0, *partition.tables.antilog].index(a)
    return plus[i * q + scaled[k]]


def test_compose_identity_and_translations():
    # composing maps is composing the block actions of their table rows
    partition = sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(5, 2)), 4)
    ident = _table_map(partition, 0, 0)
    assert np.array_equal(ident, np.arange(25))
    m = _table_map(partition, 1, 17)
    assert np.array_equal(ident[m], m)
    assert np.array_equal(m[ident], m)
    t1, t2 = _table_map(partition, 0, 7), _table_map(partition, 0, 11)
    assert np.array_equal(t1[t2], _table_map(partition, 0, naive_enc_add(5, 2, 7, 11)))


def test_multiplier_preserves_classes():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    partition = sh.cyclotomic_partition(tables, 16)
    u = int(tables.pow_g(16))
    mul = naive_field_mul(tables)
    rng = np.random.default_rng(0)
    for x in rng.integers(1, 625, size=50):
        assert partition.class_of[mul(u, int(x))] == partition.class_of[int(x)]


def test_induced_identity_permutation(desk_field):
    tables, partition, _, h = desk_field
    sigma = autgroup._bordered(_table_map(partition, 0, 0), tables.q)
    assert np.array_equal(sigma, np.arange(h.n))


def test_induced_translation_moves_zero(desk_field):
    tables, partition, _, _ = desk_field
    a = 5
    sigma = autgroup._bordered(_table_map(partition, 0, a), tables.q)
    assert sigma[0] == 0 and sigma[1] == 1
    # the zero element sits at block position 0; translating by a sends it
    # to the block position of a in both blocks
    target = [0, *tables.antilog].index(a)
    q = tables.q
    assert sigma[2 + 0] == 2 + target
    assert sigma[2 + q + 0] == 2 + q + target


def test_induced_permutation_is_homomorphism(desk_field):
    # the closure sample's product pi1[pi2] is the table row of m1 after m2
    partitions = [desk_field[1]] + [
        sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(p, e)), n)
        for p, e, n in ((5, 2, 4), (5, 4, 16))]
    rng = np.random.default_rng(1)
    for partition in partitions:
        tables = partition.tables
        f, q, N = partition.f, tables.q, partition.N
        _, action = naive_affine_maps(tables)
        for _ in range(20):
            (k1, k2), (a1, a2) = rng.integers(f, size=2), rng.integers(q, size=2)
            m1 = (tables.pow_g(N * int(k1)), int(a1))
            m2 = (tables.pow_g(N * int(k2)), int(a2))
            product = _table_map(partition, k1, a1)[_table_map(partition, k2, a2)]
            _, a12 = naive_compose_affine(tables, m1, m2)
            assert np.array_equal(product, _table_map(partition, (k1 + k2) % f, a12))
            assert np.array_equal(product, action(*naive_compose_affine(tables, m1, m2)))


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


@pytest.mark.parametrize("sigma", [
    # negative indices used to wrap and pass, fractions to truncate and pass,
    # and indices past the end to raise a bare IndexError
    pytest.param(np.arange(8) - 8, id="negative"),
    pytest.param(np.arange(8) + 0.7, id="fractional"),
    pytest.param(np.arange(8) + 8, id="past-the-end")])
def test_verify_automorphism_refuses_what_is_not_a_permutation(matrix8, sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        sh.verify_automorphism(matrix8, sigma)


def test_subgroup_elements_fix_matrix(desk_field):
    tables, partition, _, h = desk_field
    rng = np.random.default_rng(2)
    for _ in range(30):
        pi = _table_map(partition, int(rng.integers(partition.f)), int(rng.integers(tables.q)))
        assert sh.verify_automorphism(h, autgroup._bordered(pi, tables.q))


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
    # (g^16)^39 = g^624 = 1, and no smaller power of g^16 is 1
    tables = sh.build_field(sh.FieldConfig(5, 4))
    u = int(tables.pow_g(16))
    mul, power = naive_field_mul(tables), 1
    for k in range(1, 40):
        power = mul(power, u)
        assert (power == 1) == (k == 39)


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


def test_affine_tables_give_the_induced_permutations():
    # Every map the audit checks is a row of these tables, so on every desk
    # field each row k*q + i must be x -> g^(N*k) x + g_i under schoolbook
    # field arithmetic, and the block indices must hold zero, then the
    # powers of g.
    for p, e, N, i0, i1 in SMALL_INSTANCES:
        _, partition, _, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
        tables, q = partition.tables, p**e
        enc, action = naive_affine_maps(tables)
        assert enc == [0, *tables.antilog]
        _, plus, scaled = autgroup._affine_tables(partition)
        for k in range(partition.f):
            for i in range(q):
                assert np.array_equal(plus[i * q + scaled[k]],
                                      action(enc[1 + N * k % (q - 1)], enc[i]))


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
    enc, action = naive_affine_maps(tables)
    multiplier = action(enc[1 + partition.N % (tables.q - 1)], 0)
    return [multiplier] + [action(1, tables.p**i) for i in range(tables.e)]


def _certifies(partition, multiplier, translations):
    """The orbit-stabilizer verdict on these block actions."""
    _, plus, scaled = autgroup._affine_tables(partition)
    return autgroup._orbit_stabilizer(partition, plus, scaled, multiplier, translations)


def _frobenius(tables):
    """Block action of x -> x^p, which keeps every cyclotomic class."""
    q, p = tables.q, tables.p
    frobenius = np.zeros(q, dtype=np.int64)
    frobenius[1:] = 1 + (p * np.arange(q - 1)) % (q - 1)
    return frobenius


def test_closure_outside_the_affine_maps_fails(desk_field):
    # The Frobenius map x -> x^3 keeps the squares of GF(27), so it is an
    # automorphism of this matrix, but it is not affine: passed as the
    # multiplier it passes its dense check, and the stabilizer step must
    # reject it instead of counting the maps it would generate.
    tables, partition, _, h = desk_field
    q = tables.q
    frobenius = _frobenius(tables)
    assert sh.verify_automorphism(h, autgroup._bordered(frobenius, q))
    multiplier, *translations = _generator_actions(tables, partition)
    assert _certifies(partition, multiplier, translations)
    assert not _certifies(partition, frobenius, translations)
    # a repeated translation leaves the orbit of index 0 short; translations
    # after the Frobenius map reach every index but are not translations
    assert not _certifies(partition, multiplier, [translations[0]] * 3)
    assert not _certifies(partition, multiplier,
                          [t[frobenius] for t in translations])
    # nor is the Frobenius map, or any map after it, one of the table maps
    minus, plus, scaled = autgroup._affine_tables(partition)
    for pi in [frobenius, frobenius[multiplier], translations[1][frobenius]]:
        assert not autgroup._is_affine_map(pi, minus, plus, scaled)


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


# Failing audit logs, pinned as literals: the closure counts depend on every
# draw of the seeded generator, so these hold the draw order byte for byte.
PINNED_FAILING_LOGS = [
    pytest.param((3, 3, 2, [0], [0]), (2, 5), 3, 60, False,
                 "multiplier g^2 FAIL\ntranslation basis 0 FAIL\ntranslation basis 1 FAIL\n"
                 "translation basis 2 FAIL\nclosure_sample 1/60 FAIL\nFAIL order 351 = 13*27\n",
                 id="gf27-2-5-seed3"),
    pytest.param((5, 1, 4, [0, 1], [0, 2]), (0, 5), 3, 60, False,
                 "multiplier g^4 PASS\ntranslation basis 0 FAIL\nclosure_sample 12/60 FAIL\n"
                 "FAIL order 5 = 1*5\n", id="gf5-0-5-seed3"),
    pytest.param((11, 1, 2, [0], [0]), (2, 2), 5, 100, True,
                 "multiplier g^2 PASS\ntranslation basis 0 FAIL\nclosure_sample 8/100 FAIL\n"
                 "exhaustive 5/55 FAIL\nFAIL order 55 = 5*11\n", id="gf11-2-2-seed5"),
    pytest.param((5, 3, 4, [0, 1], [0, 2]), (2, 2), 0, 100, True,
                 "multiplier g^4 PASS\ntranslation basis 0 FAIL\ntranslation basis 1 FAIL\n"
                 "translation basis 2 FAIL\nclosure_sample 2/100 FAIL\n"
                 "exhaustive 31/3875 FAIL\nFAIL order 3875 = 31*125\n", id="gf125-2-2-seed0"),
]


@pytest.mark.parametrize("instance,flip,seed,samples,exhaustive,log", PINNED_FAILING_LOGS)
def test_failing_desk_audit_logs_are_pinned(instance, flip, seed, samples, exhaustive, log):
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(*instance[:2]), *instance[2:])
    h = _flipped(sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1), *flip)
    report = sh.subgroup_audit(h, partition, samples=samples, exhaustive=exhaustive, seed=seed)
    assert report.to_log() == log


def test_failing_1252_audit_log_is_pinned(instance625, matrix1252):
    _, partition, _, _ = instance625
    report = sh.subgroup_audit(_flipped(matrix1252, 40, 700), partition,
                               samples=20, exhaustive=True, seed=5)
    assert report.to_log() == (
        "multiplier g^16 FAIL\ntranslation basis 0 FAIL\ntranslation basis 1 FAIL\n"
        "translation basis 2 FAIL\ntranslation basis 3 FAIL\nclosure_sample 0/20 FAIL\n"
        "exhaustive 1/24375 FAIL\nFAIL order 24375 = 39*625\n")


@pytest.mark.parametrize("twist", ["frobenius", "swap_blocks", "swap_borders",
                                   "translate_one_block"])
def test_sample_outside_the_affine_tables_is_checked_densely(desk_field, twist):
    # A sample is the product of two table rows, so it is always one of the
    # maps; these twists of such a product are not.  The Frobenius map
    # x -> x^3 after it (an automorphism here, but not affine); the product
    # moved by q, as a swap of the blocks would leave the first block's slots;
    # the product before the swap of block indices 0 and 1, the two indices
    # every candidate is read from; and a translation after it on half of
    # the indices only, which is no permutation.  _is_affine_map and the
    # stabilizer step must reject each without raising, so the audit falls
    # back to the dense verdict, and that verdict must be exact.
    tables, partition, _, h = desk_field
    q, f = tables.q, partition.f
    minus, plus, scaled = autgroup._affine_tables(partition)
    translations = _generator_actions(tables, partition)[1:]
    rng = np.random.default_rng(4)
    for _ in range(30):
        pi1, pi2 = (plus[int(rng.integers(q)) * q + scaled[int(rng.integers(f))]]
                    for _ in range(2))
        product = pi1[pi2]
        assert autgroup._is_affine_map(product, minus, plus, scaled)
        if twist == "frobenius":
            twisted = _frobenius(tables)[product]
        elif twist == "swap_blocks":
            twisted = product + q
        elif twist == "swap_borders":
            twisted = product[np.r_[1, 0, 2:q]]
        else:
            twisted = product.copy()
            twisted[: q // 2] = translations[0][product[: q // 2]]
        assert not autgroup._is_affine_map(twisted, minus, plus, scaled)
        assert not autgroup._orbit_stabilizer(partition, plus, scaled, twisted, translations)
        sigma = autgroup._bordered(twisted, q)
        if np.array_equal(np.sort(twisted), np.arange(q)):
            signs = h.signs()
            dense = np.array_equal(signs[np.ix_(sigma, sigma)], signs)
            assert sh.verify_automorphism(h, sigma) == dense == (twist == "frobenius")
        else:
            with pytest.raises(ValueError, match="not a permutation"):
                sh.verify_automorphism(h, sigma)


def test_no_samples_and_no_exhaustive_skips_the_certificate(desk_field, monkeypatch):
    _, partition, _, h = desk_field
    monkeypatch.setattr(autgroup, "_orbit_stabilizer", None)  # any call would raise
    report = sh.subgroup_audit(h, partition, samples=0)
    assert report.passed and report.to_log().splitlines()[-1].startswith("PASS order")


def test_audit_builds_one_additive_group_and_one_set_of_tables(monkeypatch):
    # The digit tables and the affine tables are built once per audit, not
    # once per generator, per sample or per certificate step.
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
