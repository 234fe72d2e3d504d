from __future__ import annotations

import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewhad as sh
from _naive import (field_index_add, naive_autocorrelation, naive_diff_index_table,
                    naive_neg_perm, naive_profile, naive_sum_index_table)
from conftest import SMALL_FIELDS, desk_group, field_group, subset_of_encodings


def cyclic_group(p):
    """(group, add): Z_p as the additive group of GF(p), enumerated by the
    powers of its largest primitive root, with addition mod p of the
    encodings as oracle."""
    base = sh.build_field(sh.FieldConfig(p, 1))
    root = max(x for x in range(1, p) if gcd(int(base.log[x]), p - 1) == 1)
    tables = sh.gf.tables_for_generator(base, root)
    enc = [0, *tables.antilog.tolist()]
    g = sh.additive_group(tables)
    return g, lambda x, y: enc.index((enc[x] + enc[y]) % p)


def small_groups():
    """Field-additive groups of order up to 64, with an independent
    index-addition oracle for each; the cyclic groups of prime order come
    in a second element order, with a modular oracle."""
    out = []
    for p in [2, 3, 5, 7]:
        out.append((f"cyclic{p}", *cyclic_group(p)))
    for p, e in SMALL_FIELDS + [(5, 2), (3, 3), (2, 5), (7, 2), (61, 1), (2, 6)]:
        g, add, _ = field_group(p, e)
        out.append((f"gf{p}^{e}", g, add))
    return out


GROUPS = small_groups()


def group_add(g, x, y):
    """The index of g_x + g_y, through the vectorized shift."""
    return int(g.add_shift(x, y))


def group_neg(g, x):
    """The index of -g_x, through the negation permutation."""
    return int(g.neg_perm()[x])


def autocorrelation_at(g, mask, w):
    """The autocorrelation of the subset at shift w, read from the profile."""
    return int(sh.autocorrelation_profile(g, mask)[w])


def sample_subsets(v, seed=0):
    rng = np.random.default_rng(seed)
    subsets = [[], list(range(v))]
    if v > 1:
        subsets.append([1])
        subsets.append(sorted(rng.choice(v, size=v // 2, replace=False).tolist()))
        subsets.append(sorted(rng.choice(v, size=max(1, v // 3), replace=False).tolist()))
    return subsets


def test_cyclic_add_examples():
    # GF(5) adds its encodings mod 5
    g = desk_group(5)
    i = g.indices_of_encodings(range(5))
    assert group_add(g, i[3], i[4]) == i[2]
    assert group_add(g, i[3], i[0]) == i[3]
    assert group_neg(g, i[2]) == i[3]
    assert group_neg(g, i[0]) == i[0]


def test_field_add_inverse_example():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    g = sh.additive_group(tables)
    one = int(g.indices_of_encodings(tables.antilog[0]))  # g^0
    assert group_add(g, one, group_neg(g, one)) == 0


def test_field_negation_lands_in_shifted_class():
    # multiplying by -1 shifts the discrete log by (q-1)/2, so for N=16 over
    # GF(5^4) the negative of an element of class k lies in class k+8
    tables = sh.build_field(sh.FieldConfig(5, 4))
    part = sh.cyclotomic_partition(tables, 16)
    g = sh.additive_group(tables)
    rng = np.random.default_rng(1)
    for k in rng.integers(0, 624, size=40):
        idx = 1 + int(k)  # element g^k
        nidx = group_neg(g, idx)
        assert part.class_of[tables.antilog[nidx - 1]] == (int(k) + 8) % 16


@pytest.mark.parametrize("name,g,add", GROUPS, ids=[t[0] for t in GROUPS])
def test_add_properties_sampled(name, g, add):
    rng = np.random.default_rng(3)
    v = g.order
    xs = rng.integers(0, v, size=(30, 3))
    for x, y, z in xs:
        x, y, z = int(x), int(y), int(z)
        assert group_add(g, x, y) == group_add(g, y, x) == add(x, y)
        assert group_add(g, group_add(g, x, y), z) == group_add(g, x, group_add(g, y, z))
        assert group_add(g, x, 0) == x
        assert group_neg(g, group_neg(g, x)) == x
        assert group_add(g, x, group_neg(g, x)) == 0


def test_index_out_of_range():
    g = desk_group(5)
    with pytest.raises(ValueError):
        g.add_shift(5, 0)
    with pytest.raises(ValueError):
        g.add_shift(0, -1)
    for bad in (-1, 5, 6):
        with pytest.raises(ValueError, match="out of range"):
            g.add_shift(np.array([0, bad]), 1)


def test_autocorrelation_frozen_examples():
    # members and shifts by encoding, so the values read as over Z_3 and Z_5
    g3 = desk_group(3)
    d = subset_of_encodings(g3, [1])
    assert autocorrelation_at(g3, d, 1) == -1
    assert sh.autocorrelation_profile(g3, d)[g3.indices_of_encodings(range(3))].tolist() == \
        [3, -1, -1]

    g5 = desk_group(5)
    d = subset_of_encodings(g5, [1, 2])
    assert sh.autocorrelation_profile(g5, d)[g5.indices_of_encodings(range(5))].tolist() == \
        [5, 1, -3, -3, 1]


def test_autocorrelation_at_zero_is_order():
    for name, g, _ in GROUPS:
        for members in sample_subsets(g.order, seed=5):
            mask = sh.subset_from_indices(g, members)
            assert autocorrelation_at(g, mask, 0) == g.order, name


def test_autocorrelation_empty_subset():
    g = desk_group(7)
    mask = sh.subset_from_indices(g, [])
    for w in range(7):
        assert autocorrelation_at(g, mask, w) == 7


@pytest.mark.parametrize("name,g,add", GROUPS, ids=[t[0] for t in GROUPS])
def test_autocorrelation_matches_literal_sum_all_shifts(name, g, add):
    # counted differences vs the written-out indicator sum, every shift
    for members in sample_subsets(g.order, seed=11):
        mask = sh.subset_from_indices(g, members)
        profile = sh.autocorrelation_profile(g, mask)
        for w in range(g.order):
            assert profile[w] == naive_autocorrelation(g.order, add, members, w)


@pytest.mark.parametrize("name,g,add", GROUPS, ids=[t[0] for t in GROUPS])
def test_autocorrelation_symmetry_and_parity(name, g, add):
    v = g.order
    for members in sample_subsets(v, seed=17):
        mask = sh.subset_from_indices(g, members)
        profile = sh.autocorrelation_profile(g, mask)
        neg = g.neg_perm()
        assert np.array_equal(profile, profile[neg])          # P(w) == P(-w)
        assert np.all((profile - v) % 4 == 0)                 # P(w) == v mod 4


@pytest.mark.parametrize("name,g,add", GROUPS, ids=[t[0] for t in GROUPS])
def test_profile_total_identity(name, g, add):
    # sum over nonzero shifts equals (v - 2|D|)^2 - v
    v = g.order
    for members in sample_subsets(v, seed=23):
        mask = sh.subset_from_indices(g, members)
        profile = sh.autocorrelation_profile(g, mask)
        assert profile[1:].sum() == (v - 2 * len(members)) ** 2 - v


def test_neg_perm_is_involution():
    for name, g, _ in GROUPS:
        perm = g.neg_perm()
        assert np.array_equal(perm[perm], np.arange(g.order)), name


def test_development_tables_match_scalar_ops():
    for name, g, _ in GROUPS:
        if g.order > 16:
            continue
        diff = g.diff_index_table()
        tot = g.sum_index_table()
        for i in range(g.order):
            for j in range(g.order):
                assert diff[i, j] == group_add(g, j, group_neg(g, i)), name
                assert tot[i, j] == group_add(g, i, j), name


# The flagship GF(5^4), odd and even characteristic, a prime field and the
# smallest extension of GF(2), against the digit-by-digit oracles.
ZECH_FIELDS = [(5, 4), (3, 6), (7, 3), (2, 10), (1021, 1), (2, 3)]


@pytest.fixture(scope="module", params=ZECH_FIELDS, ids=[f"gf{p}^{e}" for p, e in ZECH_FIELDS])
def zech_field(request):
    p, e = request.param
    tables = sh.build_field(sh.FieldConfig(p, e))
    return p, e, sh.additive_group(tables), np.concatenate([[0], tables.antilog])


def test_tables_match_digit_oracle(zech_field):
    p, e, g, enc = zech_field
    assert np.array_equal(g.diff_index_table(), naive_diff_index_table(p, e, enc))
    assert np.array_equal(g.sum_index_table(), naive_sum_index_table(p, e, enc))
    assert np.array_equal(g.neg_perm(), naive_neg_perm(p, e, enc))


def test_profile_matches_digit_oracle(zech_field):
    p, e, g, enc = zech_field
    rng = np.random.default_rng(g.order)
    for density in (0.05, 0.5):
        for zero_is_member in (False, True):
            mask = rng.random(g.order) < density
            mask[0] = zero_is_member
            expected = naive_profile(p, e, enc, np.flatnonzero(mask))
            assert np.array_equal(sh.autocorrelation_profile(g, mask), expected)


@pytest.mark.parametrize("name,g,add", GROUPS, ids=[t[0] for t in GROUPS])
def test_profile_in_small_blocks_matches_literal_sum(name, g, add, monkeypatch):
    # a block of a few pairs splits every subset into many row blocks
    monkeypatch.setattr(sh.groups, "_PROFILE_BLOCK_PAIRS", 5)
    for members in sample_subsets(g.order, seed=29):
        mask = sh.subset_from_indices(g, members)
        expected = [naive_autocorrelation(g.order, add, members, w) for w in range(g.order)]
        assert sh.autocorrelation_profile(g, mask).tolist() == expected


@pytest.mark.parametrize("p,e", [(3, 5), (2, 7)])
def test_field_add_neg_match_digit_addition(p, e):
    tables = sh.build_field(sh.FieldConfig(p, e))
    g = sh.additive_group(tables)
    add = field_index_add(p, e, [0, *tables.antilog])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, g.order - 1), st.integers(0, g.order - 1))
    def check(x, y):
        assert group_add(g, x, y) == add(x, y)
        assert add(x, group_neg(g, x)) == 0

    check()


def test_field_additive_refuses_an_order_not_starting_at_one():
    tables = sh.build_field(sh.FieldConfig(5, 2))
    enc = np.concatenate([[0], tables.antilog])
    with pytest.raises(ValueError, match="g\\^0 = 1"):
        sh.GroupSpec.field_additive(5, 2, np.concatenate([[0], np.roll(enc[1:], 1)]))
    with pytest.raises(ValueError, match="enumerate"):
        sh.GroupSpec.field_additive(5, 2, np.concatenate([enc[:-1], [1]]))


def test_field_additive_refuses_encodings_of_another_field():
    # the order is p**e, so the list of another field has the wrong length
    enc5, enc25 = ([0, *sh.build_field(sh.FieldConfig(5, e)).antilog] for e in (1, 2))
    with pytest.raises(ValueError, match="the 5 field elements"):
        sh.GroupSpec.field_additive(5, 1, enc25)
    with pytest.raises(ValueError, match="the 25 field elements"):
        sh.GroupSpec.field_additive(5, 2, enc5)
    assert repr(sh.GroupSpec.field_additive(5, 1, enc5)) == "GroupSpec.field_additive(5, 1)"


def test_field_additive_refuses_an_order_that_is_not_a_power_sequence():
    # 1 first, then g^1 ... g^(q-2) rotated by one place: every element is
    # listed, yet the Zech table gave 530 of the 625 sums wrong
    tables = sh.build_field(sh.FieldConfig(5, 2))
    enc = np.concatenate([[0], tables.antilog])
    for shift in (1, -1):
        rotated = np.concatenate([enc[:2], np.roll(enc[2:], shift)])
        with pytest.raises(ValueError, match="powers"):
            sh.GroupSpec.field_additive(5, 2, rotated)
    swapped = enc.copy()
    swapped[[5, 9]] = swapped[[9, 5]]
    with pytest.raises(ValueError, match="powers"):
        sh.GroupSpec.field_additive(5, 2, swapped)


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2), (7, 1), (3, 3)])
def test_field_additive_accepts_every_generator_and_modulus(p, e, monkeypatch):
    # a block of a few encodings splits the check into many blocks
    monkeypatch.setattr(sh.groups, "_SHIFT_CHECK_ROWS", 4)
    moduli = [None] + [m for m in (tuple(sh.gf.decode_encoding(low, p, e)) + (1,)
                                   for low in range(p**e)) if sh.gf.is_irreducible(m, p)]
    for modulus in moduli:
        base = sh.build_field(sh.FieldConfig(p, e, modulus=modulus))
        for generator in range(1, p**e):
            if gcd(int(base.log[generator]), p**e - 1) != 1:
                continue
            tables = sh.gf.tables_for_generator(base, generator)
            g = sh.additive_group(tables)
            add = field_index_add(p, e, [0, *tables.antilog])
            xs = np.arange(g.order)
            for w in (1, 2, g.order - 1):
                assert g.add_shift(xs, w).tolist() == [add(int(x), w) for x in xs]


@pytest.mark.parametrize("kind", ["cyclic", "field", "extension"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_encodings_out_of_range_are_refused(kind, offset):
    g = {"cyclic": lambda: cyclic_group(7)[0], "field": lambda: field_group(5, 1)[0],
         "extension": lambda: field_group(3, 2)[0]}[kind]()
    bad = -1 if offset == -1 else g.order + offset
    with pytest.raises(ValueError, match="out of range"):
        g.indices_of_encodings(bad)
    with pytest.raises(ValueError, match="out of range"):
        g.indices_of_encodings(np.array([0, bad, 1]))
    assert g.indices_of_encodings(np.arange(g.order)).tolist() == [
        int(g.indices_of_encodings(x)) for x in range(g.order)]


def test_profile_memory_is_bounded_at_q_8209():
    # GF(8209), N = 16, D = classes 0..7: 4104 members, 16.8 M ordered pairs
    g = sh.additive_group(sh.build_field(sh.FieldConfig(8209, 1)))
    mask = np.concatenate([[False], np.arange(8208) % 16 < 8])
    tracemalloc.start()
    try:
        profile = sh.autocorrelation_profile(g, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert profile[0] == 8209
    assert (profile[1:].min(), profile[1:].max()) == (-195, 169)
