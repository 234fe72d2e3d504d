from __future__ import annotations

import numpy as np
import pytest

import skewhad as sh
from skewhad import autgroup, gf

from _naive import (naive_affine_maps, naive_closure_samples, naive_compose_affine,
                    naive_enc_add, naive_exhaustive_audit, naive_field_mul,
                    naive_generator_verdicts, naive_is_automorphism,
                    naive_rarest_key_class_size)
from conftest import orbit_flip, swap_member, traced_peak


@pytest.fixture(scope="module")
def desk_field():
    """GF(27) instance with both blocks the nonzero squares (q = 3 mod 4,
    so the square class is skew and the pair certifies)."""
    tables, partition, pair, cert = sh.find_valid_generator(
        sh.FieldConfig(3, 3), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    assert cert.passed and sh.gate0_verify(h).passed
    return tables, partition, pair, h


def _affine_map(partition, k, a):
    """Block action of x -> g^(N*k) x + a for a translation encoding a,
    built as the audit builds it: the multiplier power's log shift, then
    one Zech-table sum."""
    group = gf.additive_group(partition.tables)
    scale = autgroup._scaled(partition.tables.q, partition.N, k)
    return group.add_shift(scale, group.indices_of_encodings(a))


def test_compose_identity_and_translations():
    # composing maps is composing their block actions
    partition = sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(5, 2)), 4)
    ident = _affine_map(partition, 0, 0)
    assert np.array_equal(ident, np.arange(25))
    m = _affine_map(partition, 1, 17)
    assert np.array_equal(ident[m], m)
    assert np.array_equal(m[ident], m)
    t1, t2 = _affine_map(partition, 0, 7), _affine_map(partition, 0, 11)
    assert np.array_equal(t1[t2], _affine_map(partition, 0, naive_enc_add(5, 2, 7, 11)))


def test_multiplier_preserves_classes():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    u = int(tables.antilog[16 % (tables.q - 1)])
    mul = naive_field_mul(tables)
    rng = np.random.default_rng(0)
    for x in rng.integers(1, 625, size=50):
        assert tables.log[mul(u, int(x))] % 16 == tables.log[x] % 16


def test_induced_identity_permutation(desk_field):
    tables, partition, _, h = desk_field
    sigma = autgroup._bordered(_affine_map(partition, 0, 0), tables.q)
    assert np.array_equal(sigma, np.arange(h.n))


def test_induced_translation_moves_zero(desk_field):
    tables, partition, _, _ = desk_field
    a = 5
    sigma = autgroup._bordered(_affine_map(partition, 0, a), tables.q)
    assert sigma[0] == 0 and sigma[1] == 1
    # the zero element sits at block position 0; translating by a sends it
    # to the block position of a in both blocks
    target = [0, *tables.antilog].index(a)
    q = tables.q
    assert sigma[2 + 0] == 2 + target
    assert sigma[2 + q + 0] == 2 + q + target


def test_induced_permutation_is_homomorphism(desk_field):
    # the closure sample's product pi1[pi2] is the block action of m1 after m2
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
            m1 = (int(tables.antilog[N * int(k1) % (q - 1)]), int(a1))
            m2 = (int(tables.antilog[N * int(k2) % (q - 1)]), int(a2))
            product = _affine_map(partition, k1, a1)[_affine_map(partition, k2, a2)]
            _, a12 = naive_compose_affine(tables, m1, m2)
            assert np.array_equal(product, _affine_map(partition, (k1 + k2) % f, a12))
            assert np.array_equal(product, action(*naive_compose_affine(tables, m1, m2)))


def _divisors(f):
    return [d for d in range(1, f + 1) if f % d == 0]


def _assert_dense_checks_within_the_bound(checks, signs, partition):
    """At most e generator checks and tau(f) * |R| key-class candidates,
    tau(f) the number of divisors of f and R the rarest key class."""
    q, e, f = partition.tables.q, partition.tables.e, partition.f
    assert len(checks.dense) <= e + len(_divisors(f)) * naive_rarest_key_class_size(signs, q)


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


def _circulant(n, rng):
    """A random n x n +-1 matrix whose entry [i, j] depends on j - i mod n
    alone, so every cyclic shift x -> x + k (mod n) keeps it."""
    first = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return first[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


@pytest.mark.parametrize("n", [8, 127, 128, 300, 1252])
def test_panel_check_matches_the_two_gather_oracle(n):
    # Cyclic shifts keep a circulant and random permutations almost never
    # do; a flipped entry (i, j) differs under the shift by 1 at (i, j) and
    # (i - 1, j - 1), so a flip in the last row differs in the last panel
    # of rows alone, the one the check reaches last.
    rng = np.random.default_rng(n)
    signs = _circulant(n, rng)
    flipped, last = signs.copy(), signs.copy()
    flipped[tuple(rng.integers(n, size=2))] *= -1
    last[n - 1, rng.integers(n)] *= -1
    shifts = [(np.arange(n) + k) % n for k in (0, 1, n // 2, n - 1)]
    perms = shifts + [rng.permutation(n) for _ in range(4)]
    for x in (signs, flipped, last):
        for sigma in perms:
            assert sh.verify_automorphism(sh.PmMatrix(x), sigma) == \
                naive_is_automorphism(x, sigma)
    rows = np.flatnonzero((last[np.ix_(shifts[1], shifts[1])] != last).any(axis=1))
    assert rows.min() >= (n - 1) // autgroup._CHECK_ROWS * autgroup._CHECK_ROWS
    assert not sh.verify_automorphism(sh.PmMatrix(last), shifts[1])
    assert all(sh.verify_automorphism(sh.PmMatrix(signs), sigma) for sigma in shifts)


def test_dense_check_at_order_4080_allocates_below_a_quarter_n_squared_bytes():
    # a passing check compares every panel of rows, each against its two
    # gathers of _CHECK_ROWS rows: no n x n gather is formed
    n = 4080
    h = sh.PmMatrix(_circulant(n, np.random.default_rng(n)))
    passed, peak = traced_peak(lambda: sh.verify_automorphism(h, (np.arange(n) + 1) % n))
    assert passed
    assert peak <= 0.25 * n ** 2


def test_subgroup_elements_fix_matrix(desk_field):
    tables, partition, _, h = desk_field
    rng = np.random.default_rng(2)
    for _ in range(30):
        pi = _affine_map(partition, int(rng.integers(partition.f)), int(rng.integers(tables.q)))
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


def test_audit_refuses_a_negative_sample_count():
    # the order-8 desk matrix passes with no sample; -1 is refused, not
    # reported as a failed closure sample of a valid matrix
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(3, 1), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    assert sh.subgroup_audit(h, partition, samples=0).passed
    with pytest.raises(ValueError, match="samples must be at least 0, not -1"):
        sh.subgroup_audit(h, partition, samples=-1)


def test_audit_order_mismatch_rejected(desk_field, matrix8):
    _, partition, _, _ = desk_field
    with pytest.raises(ValueError):
        sh.subgroup_audit(matrix8, partition)


def test_multiplier_order():
    # (g^16)^39 = g^624 = 1, and no smaller power of g^16 is 1
    tables = sh.build_field(sh.FieldConfig(5, 4))
    u = int(tables.antilog[16 % (tables.q - 1)])
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
    # each is a candidate, and one across the two blocks
    pytest.param((5, 6), (2, 11), id="switch-in-one-block"),
    pytest.param((3, 30), (2, 5), id="switch-across-blocks")])
def test_exhaustive_audit_on_flipped_entry_matches_dense_oracle(desk_field, audit_checks,
                                                                row, col):
    # A flipped diagonal or border entry leaves the maps fixing that index as
    # automorphisms; once a generator fails, the count checks only the maps
    # that keep the rarest key class, and it must still be exact.  The
    # switch inside one block ties every key, so |R| = q = 27 and the bound
    # is met: 3 generators, then 27 maps each for the powers 0 and 1.
    _, partition, _, h = desk_field
    signs = h.signs().copy()
    signs[np.ix_(np.atleast_1d(row), np.atleast_1d(col))] *= -1
    broken = sh.PmMatrix.from_signs(signs)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    _assert_dense_checks_within_the_bound(audit_checks, signs, partition)
    assert not all(ok for _, ok in report.generator_results)
    assert not report.passed
    ok, total = naive_exhaustive_audit(broken, partition)
    assert (report.exhaustive_ok, report.exhaustive_checked) == (ok, total)
    assert 0 < ok < total


def _negate_orbits(h, partition, entries, step=None):
    """The signs of h with the orbit of each block entry (row, col) negated
    under the maps x -> g^(N*k) x + a with ``step`` | k, only the q
    translations when ``step`` is None: all of those maps still keep it."""
    tables, q, n_cls = partition.tables, partition.tables.q, partition.N
    enc, action = naive_affine_maps(tables)
    signs = h.signs().copy()
    for k in range(0, partition.f, step or partition.f):
        for a in range(q):
            sigma = autgroup._bordered(action(enc[1 + n_cls * k % (q - 1)], a), q)
            for row, col in entries:
                signs[sigma[row], sigma[col]] *= -1
    return sh.PmMatrix(signs)


@pytest.mark.parametrize("p,e,N,i0,i1", SMALL_INSTANCES)
def test_exhaustive_count_by_run_checks_matches_dense_oracle(p, e, N, i0, i1, audit_checks):
    # A member of D0 or of D1 swapped, or the orbits under the translations
    # of one block entry and of a switch of four negated: every translation
    # still keeps the matrix, so when the multiplier fails, map (k, a) is an
    # automorphism exactly when the block shift by N*k is, and the count
    # takes at most one run check per proper divisor of f and no dense check
    # beyond the e translations.
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
    group, q = pair.group, p**e
    h = sh.build_bordered_from_blocks(group, pair.d0, pair.d1)
    member0, member1 = (int(np.flatnonzero(d[1:])[0]) + 1 for d in (pair.d0, pair.d1))
    cases = [sh.build_bordered_from_blocks(group, swap_member(group, pair.d0, member0), pair.d1),
             sh.build_bordered_from_blocks(group, pair.d0, swap_member(group, pair.d1, member1)),
             _negate_orbits(h, partition, [(3, 4), (3, q + 3), (3, q + 4), (4, q + 3),
                                           (4, q + 4)])]
    run_checks = 0
    for broken in cases:
        audit_checks.clear()
        report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
        ok, total = naive_exhaustive_audit(broken, partition)
        assert (report.exhaustive_ok, report.exhaustive_checked) == (ok, total)
        multiplier, *translations = (verdict for _, verdict in report.generator_results)
        assert all(translations)
        if not multiplier:
            run_checks += 1
            assert len(audit_checks.dense) == e and ok % q == 0 and ok < total
            assert len(audit_checks.shifts) < len(_divisors(partition.f))
    assert run_checks == (partition.f > 1) * len(cases)


@pytest.mark.parametrize("p,e,N,step", [(13, 1, 2, 2), (13, 1, 2, 3), (5, 2, 4, 2),
                                        (5, 2, 4, 3)])
def test_exhaustive_count_by_run_checks_counts_every_kept_power(p, e, N, step, audit_checks):
    # The orbit of one block entry under the maps with step | k negated on
    # the cyclotomic development of GF(13) or GF(25), where f = 6: the
    # multiplier fails, the powers with step | k and every translation keep
    # the matrix, and the block shifts by N*d, d | 6 ascending, stop at the
    # first that keeps it, d = step.
    field = sh.build_field(sh.FieldConfig(p, e))
    partition = sh.cyclotomic_partition(field, N)
    pair = sh.blocks_from_indices(partition, range(N // 2), range(N // 2))
    q = field.q
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    broken = _negate_orbits(h, partition, [(3, q + 4)], step)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    multiplier, *translations = (verdict for _, verdict in report.generator_results)
    assert not multiplier and all(translations) and len(audit_checks.dense) == e
    assert audit_checks.shifts == [N * d for d in _divisors(partition.f) if d <= step]
    assert (report.exhaustive_ok, report.exhaustive_checked) == \
        naive_exhaustive_audit(broken, partition)
    assert report.exhaustive_ok == q * partition.f // step


@pytest.mark.parametrize("p,e,N,d", [
    (p, e, N, d) for p, e, N in ((13, 1, 2), (5, 2, 4), (7, 2, 4))
    for d in _divisors((p**e - 1) // N)[:-1]])
def test_exhaustive_count_lifts_a_power_through_a_translation(p, e, N, d, audit_checks):
    # The orbit of one block entry under the cyclic group of x -> g^(N*d) x + a,
    # a encoded 3, negated on the cyclotomic development of GF(13), GF(25)
    # (f = 6) or GF(49) (f = 12): every generator fails, only the identity
    # among the translations keeps the matrix, and power d lifts only with
    # a != 0, so the count is f/d.
    field = sh.build_field(sh.FieldConfig(p, e))
    partition = sh.cyclotomic_partition(field, N)
    pair = sh.blocks_from_indices(partition, range(N // 2), range(N // 2))
    q, f = field.q, partition.f
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1).signs()
    enc, action = naive_affine_maps(field)
    step, pi, signs = action(enc[1 + N * d], 3), np.arange(q), h.copy()
    for _ in range(f // d):
        sigma = autgroup._bordered(pi, q)
        signs[sigma[3], sigma[q + 4]] = -h[3, q + 4]
        pi = step[pi]
    assert np.array_equal(pi, np.arange(q))  # the group has order f/d
    broken = sh.PmMatrix(signs)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    assert not any(ok for _, ok in report.generator_results)
    assert (report.exhaustive_ok, report.exhaustive_checked) == \
        naive_exhaustive_audit(broken, partition) == (f // d, f * q)
    _assert_dense_checks_within_the_bound(audit_checks, signs, partition)


def test_affine_tables_give_the_induced_permutations():
    # Every map the audit checks is a multiplier power's log shift and then
    # one Zech-table sum, so on every desk field each map (k, a) must be
    # x -> g^(N*k) x + a under schoolbook field arithmetic, and the block
    # indices must hold zero, then the powers of g.
    for p, e, N, i0, i1 in SMALL_INSTANCES:
        _, partition, _, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
        tables, q = partition.tables, p**e
        enc, action = naive_affine_maps(tables)
        assert enc == [0, *tables.antilog]
        for k in range(partition.f):
            for a in range(q):
                assert np.array_equal(_affine_map(partition, k, a),
                                      action(enc[1 + N * k % (q - 1)], a))


def test_affine_tables_refuse_two_maps_that_collide(desk_field, monkeypatch):
    # the last basis translation read as the identity: the translations
    # whose encodings differ only in the last digit then coincide, and the
    # audit refuses to count them before it checks any generator
    _, partition, _, h = desk_field
    real, last = sh.GroupSpec.add_shift, partition.tables.p ** (partition.tables.e - 1)

    def colliding(self, xs, w):
        return real(self, xs, 0 if w == self.indices_of_encodings(last) else w)

    monkeypatch.setattr(sh.GroupSpec, "add_shift", colliding)
    with pytest.raises(AssertionError, match="not pairwise distinct"):
        sh.subgroup_audit(h, partition, samples=0, exhaustive=True)


def test_audit_refuses_a_basis_translation_that_is_no_permutation(desk_field, monkeypatch):
    # The last basis translation x -> x + p^(e-1) sends (p - 1) p^(e-1),
    # which no digit product reads on its way from 0, where it sends 0: the
    # images of 0 stay distinct, and only the permutation fact refuses the
    # maps.  On this certified field that translation is derived, not
    # checked densely.
    _, partition, _, h = desk_field
    real, p = sh.GroupSpec.add_shift, partition.tables.p
    last = p ** (partition.tables.e - 1)
    unread = (p - 1) * last

    def merging(self, xs, w):
        out = real(self, xs, w)
        if w == self.indices_of_encodings(last) and len(out) == self.order:
            out[self.indices_of_encodings(unread)] = out[0]
        return out

    monkeypatch.setattr(sh.GroupSpec, "add_shift", merging)
    with pytest.raises(AssertionError, match="not pairwise distinct"):
        sh.subgroup_audit(h, partition, samples=0, exhaustive=True)


def _frobenius(tables):
    """Block action of x -> x^p, which keeps every cyclotomic class."""
    q, p = tables.q, tables.p
    frobenius = np.zeros(q, dtype=np.int64)
    frobenius[1:] = 1 + (p * np.arange(q - 1)) % (q - 1)
    return frobenius


@pytest.mark.parametrize("row,col,log", [
    (40, 700, "exhaustive 1/24375 FAIL"), (2, 2, "exhaustive 39/24375 FAIL"),
    pytest.param((40, 41), (700, 301), "exhaustive 1/24375 FAIL", id="switch"),
    pytest.param(None, None, "exhaustive 39/24375 FAIL", id="orbit-16-5")])
def test_flipped_1252_audit_checks_few_maps_densely(instance625, matrix1252, audit_checks,
                                                    row, col, log):
    # One flipped block entry changes the key of its row's and its column's
    # block index, so |R| = 1 and the count checks at most one map for
    # power 0 and for each divisor 1, 3, 13 of f = 39, beside the e = 4
    # translations (the multiplier is decided by slice compares, not
    # densely): 8 in all, and never more than e + f = 43.  The switch of four entries keeps every row's and
    # column's -1 count, but not the counts inside each block: with
    # whole-row counts for a key it took 24 380 dense checks.  One whole
    # orbit of the block shift by 16 negated keeps the multiplier, so only
    # the |R| = 39 maps with no multiplier power are checked.
    tables, partition, _, _ = instance625
    if row is None:
        signs = orbit_flip(matrix1252.signs(), 16, 5)
    else:
        signs = matrix1252.signs().copy()
        signs[np.ix_(np.atleast_1d(row), np.atleast_1d(col))] *= -1
    broken = sh.PmMatrix.from_signs(signs)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    assert log in report.to_log().splitlines()
    assert not report.passed
    assert naive_rarest_key_class_size(signs, tables.q) == (1 if row is not None else 39)
    _assert_dense_checks_within_the_bound(audit_checks, signs, partition)
    assert len(audit_checks.dense) <= tables.e + partition.f


def _assert_certified_audit_derives_the_samples(h, partition, exhaustive, checks,
                                                monkeypatch):
    """Once the generators certify the group, every closure sample is a
    product of two of its maps, so the audit draws none and makes one dense
    check, of x -> x + 1, whatever the sample count: the multiplier is
    decided by the slice compares of one block shift, and on every field
    here f divides no p^m - 1 with m < e, so the conjugates of x -> x + 1
    by its powers derive the other basis translations.  The exhaustive
    count then follows from those verdicts with no further check."""

    class NoDraws:
        def __init__(self, seed=None):
            pass

        def integers(self, *args, **kwargs):
            raise AssertionError("a certified audit drew a closure sample")

    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    for samples in (1, 100, 10**6):
        checks.clear()
        report = sh.subgroup_audit(h, partition, samples=samples, exhaustive=exhaustive)
        assert report.passed
        assert f"closure_sample {samples}/{samples} PASS" in report.to_log().splitlines()
        assert len(checks.dense) == 1 and checks.shifts == [partition.N]


@pytest.mark.parametrize("exhaustive", [True, False])
def test_certified_1252_samples_need_no_dense_check(instance625, matrix1252, audit_checks,
                                                    monkeypatch, exhaustive):
    _, partition, _, _ = instance625
    _assert_certified_audit_derives_the_samples(matrix1252, partition, exhaustive,
                                                audit_checks, monkeypatch)


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("p,e,N,i0,i1", SMALL_INSTANCES)
def test_certified_desk_audit_derives_the_closure_samples(p, e, N, i0, i1, exhaustive,
                                                          audit_checks, monkeypatch):
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    _assert_certified_audit_derives_the_samples(h, partition, exhaustive, audit_checks,
                                                monkeypatch)


def _flipped(h, row, col):
    signs = h.signs().copy()
    signs[row, col] = -signs[row, col]
    return sh.PmMatrix.from_signs(signs)


@pytest.mark.parametrize("flip", [None, (2, 2), (0, 5), (2, 5), (30, 40), (55, 3)])
def test_desk_closure_samples_match_dense_oracle(desk_field, audit_checks, flip):
    tables, partition, _, h = desk_field
    broken = h if flip is None else _flipped(h, *flip)
    expected = naive_closure_samples(broken, partition, 60, seed=3)
    report = sh.subgroup_audit(broken, partition, samples=60, seed=3)
    assert (report.samples_ok, report.samples_checked) == (expected, 60)
    if flip is None:
        assert expected == 60 and len(audit_checks.dense) == 1  # x -> x + 1; the rest derived
    else:
        # a failing generator leaves no certificate, so every sample is dense
        assert not all(ok for _, ok in report.generator_results)
        assert len(audit_checks.dense) == tables.e + 60


@pytest.mark.parametrize("flip", [
    "40-700", "2-2",
    # one whole orbit of the block shift by 16 negated: the multiplier still
    # keeps the matrix and the translations do not
    "orbit-16-5",
    # a pair every affine map fixes: the whole group still keeps the matrix
    "0-1",
    # one member of D0 swapped for its negative: every translation keeps
    # the matrix and the multiplier does not
    "swap-d0"])
def test_flipped_1252_closure_samples_match_dense_oracle(instance625, matrix1252, flip):
    # the multiplier's verdict, decided by the slice compares of the block
    # shift, is the dense check of its bordered permutation
    _, partition, pair, _ = instance625
    if flip == "orbit-16-5":
        broken = sh.PmMatrix.from_signs(orbit_flip(matrix1252.signs(), 16, 5))
    elif flip == "swap-d0":
        member = int(np.flatnonzero(pair.d0[1:])[0]) + 1
        broken = sh.build_bordered_from_blocks(
            pair.group, swap_member(pair.group, pair.d0, member), pair.d1)
    else:
        broken = _flipped(matrix1252, *map(int, flip.split("-")))
    multiplier = sh.verify_automorphism(broken, autgroup._bordered(autgroup._scaled(625, 16, 1),
                                                                   625))
    assert multiplier == (flip not in ("40-700", "swap-d0"))
    report = sh.subgroup_audit(broken, partition, samples=20, exhaustive=True, seed=5)
    assert report.generator_results[0] == ("multiplier g^16", multiplier)
    assert report.passed == (flip == "0-1")
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
    # A sample is the product of two affine maps, so it is always one of the
    # maps; these twists of such a product are not.  The Frobenius map
    # x -> x^3 after it (an automorphism here, but not affine); the product
    # moved by q, as a swap of the blocks would leave the first block's slots;
    # the product before the swap of block indices 0 and 1, the two indices
    # the distinctness check reads; and a translation after it on half of
    # the indices only, which is no permutation.  The dense verdict on each
    # must be exact, and what is no permutation must be refused.
    tables, partition, _, h = desk_field
    q, f = tables.q, partition.f
    rng = np.random.default_rng(4)

    def draw():  # the translation encoding, then the multiplier power
        a = int(rng.integers(q))
        return _affine_map(partition, int(rng.integers(f)), a)

    for _ in range(30):
        pi1, pi2 = draw(), draw()
        product = pi1[pi2]
        if twist == "frobenius":
            twisted = _frobenius(tables)[product]
        elif twist == "swap_blocks":
            twisted = product + q
        elif twist == "swap_borders":
            twisted = product[np.r_[1, 0, 2:q]]
        else:
            twisted = product.copy()
            twisted[: q // 2] = _affine_map(partition, 0, 1)[product[: q // 2]]
        sigma = autgroup._bordered(twisted, q)
        if np.array_equal(np.sort(twisted), np.arange(q)):
            signs = h.signs()
            dense = np.array_equal(signs[np.ix_(sigma, sigma)], signs)
            assert sh.verify_automorphism(h, sigma) == dense == (twist == "frobenius")
        else:
            with pytest.raises(ValueError, match="not a permutation"):
                sh.verify_automorphism(h, sigma)


def test_no_samples_and_no_exhaustive_skips_the_certificate(desk_field, audit_checks):
    # the generators alone decide the verdict: one dense check, of x -> x + 1,
    # nothing more (GF(27) with f = 13: the conjugates span the field)
    _, partition, _, h = desk_field
    report = sh.subgroup_audit(h, partition, samples=0)
    assert report.passed and report.to_log().splitlines()[-1].startswith("PASS order")
    assert len(audit_checks.dense) == 1


def test_audit_forms_no_difference_or_sum_table(desk_field, instance625, matrix1252,
                                                audit_checks, monkeypatch):
    # the build develops each block from the rows of one period, and every
    # map the audit checks is one Zech-table sum after a log shift, so
    # neither the build nor a certified audit nor a failing exhaustive count
    # reads a q x q table
    _, partition, _, h = desk_field

    def refuse(self):
        raise AssertionError("a q x q index table was formed")

    monkeypatch.setattr(sh.GroupSpec, "diff_index_table", refuse)
    monkeypatch.setattr(sh.GroupSpec, "sum_index_table", refuse)
    for p, e, N, i0, i1 in SMALL_INSTANCES:
        _, _, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
        assert sh.gate0_verify(sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)).passed
    _, _, pair, _ = instance625
    assert sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1) == matrix1252
    audit_checks.clear()
    assert sh.subgroup_audit(h, partition, samples=10, exhaustive=True).passed
    assert len(audit_checks.dense) == 1
    broken = _flipped(h, 2, 2)
    report = sh.subgroup_audit(broken, partition, samples=0, exhaustive=True)
    assert (report.exhaustive_ok, report.exhaustive_checked) == \
        naive_exhaustive_audit(broken, partition)


def test_exhaustive_audit_at_order_4080_allocates_below_three_n_squared_bytes(instance4080):
    # No audit path forms a q x q or f x q array: beside the n x n int8
    # matrix, the certified exhaustive audit holds O(q) state and the dense
    # check of x -> x + 1.
    partition, signs = instance4080
    h = sh.PmMatrix(signs)
    report, peak = traced_peak(lambda: sh.subgroup_audit(h, partition, exhaustive=True))
    assert report.passed and report.exhaustive_ok == 1019 * 2039
    assert peak <= 3 * h.n ** 2


def _spans(partition):
    """Whether g^N, of order f, lies in no proper subfield of GF(p^e)."""
    p, e, f = partition.tables.p, partition.tables.e, partition.f
    return all((p**m - 1) % f for m in range(1, e))


def _assert_generator_lines_are_dense_verdicts(h, partition, checks):
    """The audit's generator lines equal the dense check of every generator,
    and the audit itself checks only x -> x + 1 densely exactly when it and
    the multiplier pass and the conjugates span the field; ``checks`` is the
    ``audit_checks`` fixture."""
    checks.clear()
    report = sh.subgroup_audit(h, partition, samples=0)
    dense = naive_generator_verdicts(h, partition)
    assert [ok for _, ok in report.generator_results] == dense
    derived = dense[0] and dense[1] and _spans(partition)
    assert len(checks.dense) == (1 if derived else partition.tables.e)
    return dense


@pytest.mark.parametrize("p,e,N,i0,i1", SMALL_INSTANCES)
def test_generator_lines_match_dense_checks_under_flips(p, e, N, i0, i1, audit_checks):
    # Unbroken, a flipped pair every affine map fixes, one orbit of the
    # multiplier's block shift negated (the multiplier keeps it and x -> x + 1
    # does not), one orbit of x -> x + 1 negated (the reverse), and random
    # flips and switches of four entries.
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
    assert _spans(partition)
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1).signs()
    n, q = len(h), partition.tables.q
    _, action = naive_affine_maps(partition.tables)
    translated = h.copy()
    for c in range(p):
        sigma = autgroup._bordered(action(1, c), q)
        translated[sigma[3], sigma[q + 4]] = -h[3, q + 4]
    cases = [h, _flipped(sh.PmMatrix(h), 0, 1).signs(), orbit_flip(h, N, 1), translated]
    rng = np.random.default_rng(p * e)
    for _ in range(4):
        signs = h.copy()
        signs[tuple(rng.integers(n, size=2))] *= -1
        cases.append(signs)
        signs = h.copy()
        signs[np.ix_(rng.choice(n, 2, replace=False), rng.choice(n, 2, replace=False))] *= -1
        cases.append(signs)
    verdicts = [_assert_generator_lines_are_dense_verdicts(sh.PmMatrix.from_signs(signs),
                                                           partition, audit_checks)
                for signs in cases]
    assert all(verdicts[0]) and all(verdicts[1])
    assert any(multiplier and not translation for multiplier, translation, *_ in verdicts)
    assert partition.f == 1 or not verdicts[3][0] and verdicts[3][1]


def test_non_spanning_partition_checks_every_translation_densely(audit_checks):
    # GF(49) with N = 16: g^16 has order f = 3, which divides 7 - 1, so it
    # lies in GF(7), and the conjugates of x -> x + 1 give only the
    # translations by GF(7).  Negating the orbit of one entry under the 21
    # maps x -> g^(16k) x + c, c in GF(7), keeps the multiplier and x -> x + 1
    # but not the basis translation encoded 7; only its dense check says so.
    partition = sh.cyclotomic_partition(sh.build_field(sh.FieldConfig(7, 2)), 16)
    tables, q = partition.tables, 49
    assert not _spans(partition) and tables.antilog[0] == 1
    pair = sh.blocks_from_indices(partition, range(8), range(0, 16, 2))
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    assert _assert_generator_lines_are_dense_verdicts(h, partition, audit_checks) == [True] * 3
    enc, action = naive_affine_maps(tables)
    signs = h.signs().copy()
    for k in range(partition.f):
        for c in range(7):
            sigma = autgroup._bordered(action(enc[1 + 16 * k], c), q)
            signs[sigma[3], sigma[q + 10]] = -h.signs()[3, q + 10]
    broken = sh.PmMatrix(signs)
    assert _assert_generator_lines_are_dense_verdicts(broken, partition, audit_checks) == \
        [True, True, False]
    assert not sh.subgroup_audit(broken, partition, samples=0).passed


def test_audit_builds_one_additive_group_and_one_set_of_tables(monkeypatch):
    # The additive group's digit tables are built once per audit, not once
    # per generator, per sample or per certificate step; every map is formed
    # from them when it is checked.
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(5, 3), 4, [0, 1], [0, 2])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1)
    fresh = sh.cyclotomic_partition(gf.tables_for_generator(partition.tables,
                                                            partition.tables.generator), 4)
    counts = {"groups": 0}
    init = sh.GroupSpec.__init__

    def counting_init(self, *args, **kwargs):
        counts["groups"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(sh.GroupSpec, "__init__", counting_init)
    report = sh.subgroup_audit(h, fresh, samples=20, exhaustive=True)
    assert report.passed
    assert counts == {"groups": 1}
