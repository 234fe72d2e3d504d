from __future__ import annotations

import re

import numpy as np
import pytest

import skewhad as sh
from skewhad.gf import (FieldError, decode_encoding, find_modulus, is_irreducible, is_prime,
                        tables_for_generator)

from _naive import (_poly_mulmod, naive_antilog_walk, naive_encode_coeffs, naive_field_mul,
                    naive_is_primitive, naive_neg_perm, naive_prime_factors)
from conftest import SMALL_FIELDS


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(625)


def test_prime_factors():
    assert naive_prime_factors(624) == [2, 3, 13]
    assert naive_prime_factors(1) == []


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (2, 12), (3, 1), (3, 3), (3, 7), (5, 1),
                                 (5, 4), (7, 2), (13, 1), (17, 1), (61, 1), (8209, 1)])
def test_generator_is_the_smallest_primitive_element(p, e):
    # the antilog walk agrees with primitivity by polynomial powering
    tables = sh.build_field(sh.FieldConfig(p, e))
    smallest = next(x for x in range(1, p**e)
                    if naive_is_primitive(x, p, e, tables.modulus))
    assert tables.generator == smallest


WALK_FIELDS = ([(2, k) for k in range(1, 13)] + [(3, k) for k in range(1, 8)]
               + [(5, k) for k in range(1, 6)] + [(7, 3), (11, 2), (8209, 1)])


def _last_irreducible(p, e):
    """The monic irreducible of degree e whose low coefficients have the
    largest encoding, a modulus the auto selection never picks for e > 1."""
    for low in reversed(range(p**e)):
        coeffs = decode_encoding(low, p, e) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs


@pytest.mark.parametrize("p,e", WALK_FIELDS)
@pytest.mark.parametrize("supplied", [False, True], ids=["auto", "poly"])
def test_build_field_matches_the_candidate_walk(p, e, supplied):
    modulus = _last_irreducible(p, e) if supplied else None
    tables = sh.build_field(sh.FieldConfig(p, e, modulus=modulus))
    if supplied:
        assert tables.modulus == modulus
    generator, antilog = naive_antilog_walk(p, e, list(tables.modulus))
    assert tables.generator == generator
    assert tables.antilog.tolist() == antilog


@pytest.mark.parametrize("p,e,generator", [(37, 3, 75), (3, 10, 34), (1021, 2, 1035)])
def test_generators_of_fields_the_walk_was_slow_on(p, e, generator):
    # generators pinned from naive_antilog_walk, which walks each
    # non-primitive candidate up to its order and takes 2.4 to 17.5 s on
    # these fields (2-vCPU Xeon), too slow to run in the suite
    tables = sh.build_field(sh.FieldConfig(p, e))
    assert tables.generator == generator
    assert tables.antilog[1] == generator
    assert naive_is_primitive(generator, p, e, tables.modulus)
    assert not any(naive_is_primitive(x, p, e, tables.modulus) for x in range(1, generator))
    # g^a g = g^(a+1) by the naive polynomial product
    g = list(decode_encoding(generator, p, e))
    for a in (1, 2, 7, tables.q // 3, tables.q - 2):
        y = list(decode_encoding(int(tables.antilog[a]), p, e))
        product = naive_encode_coeffs(_poly_mulmod(y, g, list(tables.modulus), p), p)
        assert product == tables.antilog[(a + 1) % (tables.q - 1)]


def test_encoding_round_trip():
    for enc in range(625):
        assert naive_encode_coeffs(decode_encoding(enc, 5, 4), 5) == enc


def test_auto_modulus_5_4_is_x4_plus_2():
    # smallest-encoding monic irreducible quartic over GF(5); cross-checked
    # below against the trial-division oracle and by excluding x^4 and x^4+1
    assert find_modulus(5, 4) == (2, 0, 0, 0, 1)
    assert not is_irreducible((0, 0, 0, 0, 1), 5)      # x^4 = x * x^3
    assert not is_irreducible((1, 0, 0, 0, 1), 5)      # x^4+1 = (x^2+2)(x^2+3)
    assert is_irreducible((2, 0, 0, 0, 1), 5)


@pytest.mark.parametrize("coeffs", [(2, 0, 0, 0, 2), (1, 3), (1,), (3,)],
                         ids=["non-monic quartic", "non-monic linear", "constant 1", "constant 3"])
def test_only_monic_polynomials_of_degree_1_or_more_are_irreducible(coeffs):
    # a constant has no roots and 3 x + 1 has degree 1, yet neither is a modulus
    assert not is_irreducible(coeffs, 5)


def test_irreducible_matches_root_search_for_quadratics():
    # degree <= 2 over a prime field: irreducible iff there is no root
    for p in (3, 5, 7):
        for c0 in range(p):
            for c1 in range(p):
                poly = (c0, c1, 1)
                has_root = any((x * x + c1 * x + c0) % p == 0 for x in range(p))
                assert is_irreducible(poly, p) == (not has_root)


def test_build_field_gf625_sizes():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    assert tables.q == 625
    assert tables.antilog.shape == (624,)
    assert sorted(tables.antilog.tolist()) == list(range(1, 625))
    assert tables.log[0] == -1


def test_build_field_gf5_enumerates_powers_of_two():
    tables = sh.build_field(sh.FieldConfig(5, 1))
    assert tables.generator == 2
    assert tables.antilog.tolist() == [1, 2, 4, 3]


def test_build_field_gf7_pinned_generator():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    assert tables.log[3] == 1
    assert tables.log[2] == 2
    assert tables.antilog.tolist() == [1, 3, 2, 6, 4, 5]


def test_build_field_rejects_bad_inputs():
    with pytest.raises(FieldError):
        sh.build_field(sh.FieldConfig(6, 2))           # composite p
    with pytest.raises(FieldError):
        sh.build_field(sh.FieldConfig(5, 0))           # bad degree
    with pytest.raises(FieldError):
        sh.build_field(sh.FieldConfig(5, 4, modulus=(1, 0, 0, 0, 1)))  # reducible
    with pytest.raises(FieldError):
        sh.build_field(sh.FieldConfig(7, 1, generator=2))  # order 3, not primitive
    with pytest.raises(FieldError):
        sh.build_field(sh.FieldConfig(2, 21))          # q > 2^20
    # bounded before the primality test and before p**e: neither call ends
    # when trial division of the Mersenne prime or 3**(10**18) runs first
    with pytest.raises(FieldError, match="exceeds"):
        sh.build_field(sh.FieldConfig(2305843009213693951, 1))
    with pytest.raises(FieldError, match="exceeds"):
        sh.build_field(sh.FieldConfig(3, 10**18))
    with pytest.raises(FieldError, match="not prime"):
        sh.build_field(sh.FieldConfig(1024, 2))        # composite, q = 2^20


@pytest.mark.parametrize("config, value", [
    (sh.FieldConfig(7, 1, generator=3.0), "3.0"),
    (sh.FieldConfig(7, 1, generator=2.5), "2.5"),
    (sh.FieldConfig(7, 1, generator=True), "True"),
    (sh.FieldConfig(7, 1, generator=np.float64(3)), "np.float64(3.0)"),
    (sh.FieldConfig(7, 1, generator="3"), "'3'"),
    (sh.FieldConfig(5, 4, modulus=(2, 0, 0, 0, 1.0)), "1.0"),
    (sh.FieldConfig(5, 4, modulus=(2.5, 0, 0, 0, 1)), "2.5"),
    (sh.FieldConfig(5, 4, modulus=(2, False, 0, 0, True)), "False"),
], ids=["whole-float-generator", "fractional-generator", "bool-generator", "numpy-float-generator",
        "text-generator", "whole-float-coefficient", "fractional-coefficient", "bool-coefficient"])
def test_pinned_field_parameters_must_be_integers(config, value):
    # int() would truncate each of these to an integer and build that field
    with pytest.raises(FieldError, match=re.escape(f" {value} is not an integer")):
        sh.build_field(config)


def test_pinned_field_parameters_accept_numpy_integers():
    tables = sh.build_field(sh.FieldConfig(5, 4, modulus=tuple(np.int8(c) for c in (2, 0, 0, 0, 1)),
                                           generator=np.int64(6)))
    assert tables.modulus == (2, 0, 0, 0, 1) and tables.generator == 6
    assert all(type(c) is int for c in tables.modulus) and type(tables.generator) is int
    tables = sh.build_field(sh.FieldConfig(5, 4, modulus=np.array([2, 0, 0, 0, 1])))
    assert tables.modulus == (2, 0, 0, 0, 1)


def test_antilog_multiplication_property():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    mul = naive_field_mul(tables)
    rng = np.random.default_rng(2)
    for a, b in rng.integers(0, 624, size=(50, 2)):
        x = int(tables.antilog[a])
        y = int(tables.antilog[b])
        assert mul(x, y) == tables.antilog[(a + b) % 624]


def test_field_add_neg_helpers():
    # field addition is the additive group's digit arithmetic
    g = sh.additive_group(sh.build_field(sh.FieldConfig(5, 4)))
    four, one = g.indices_of_encodings([4, 1])
    assert g.add_shift(four, one) == 0  # 4 + 1 = 0 mod 5
    neg = g.neg_perm()
    assert neg[0] == 0
    xs = np.random.default_rng(3).integers(0, 625, size=30)
    for x in xs:
        assert g.add_shift(x, neg[x]) == 0


def test_build_is_deterministic():
    t1 = sh.build_field(sh.FieldConfig(5, 4))
    t2 = sh.build_field(sh.FieldConfig(5, 4))
    assert t1.modulus == t2.modulus
    assert t1.generator == t2.generator
    assert np.array_equal(t1.antilog, t2.antilog)


def test_tables_for_generator_matches_direct_build():
    base = sh.build_field(sh.FieldConfig(7, 1))        # generator 3
    alt = tables_for_generator(base, 5)                # 5 is the other primitive root
    direct = sh.build_field(sh.FieldConfig(7, 1, generator=5))
    assert np.array_equal(alt.antilog, direct.antilog)
    assert np.array_equal(alt.log, direct.log)
    with pytest.raises(FieldError):
        tables_for_generator(base, 2)                  # not primitive


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_a_pinned_generator_is_built_once_as_the_search_reindexes_it(monkeypatch, p, e):
    base = sh.build_field(sh.FieldConfig(p, e))
    q = base.q
    reindexed = {g: tables_for_generator(base, g) for g in range(1, q)
                 if naive_is_primitive(g, p, e, base.modulus)}
    assert base.generator == min(reindexed)

    def no_call(*args):
        raise AssertionError("a pinned generator was searched for or re-indexed")
    # a pinned generator's own antilog table is its primitivity test
    monkeypatch.setattr(sh.gf, "_poly_pow", no_call)
    monkeypatch.setattr(sh.gf, "tables_for_generator", no_call)
    for g in range(1, q):
        config = sh.FieldConfig(p, e, base.modulus, g)
        if g not in reindexed:
            with pytest.raises(FieldError, match=rf"^generator encoding {g} is not primitive "
                                                 rf"in GF\({q}\)$"):
                sh.build_field(config)
            continue
        pinned, want = sh.build_field(config), reindexed[g]
        assert (pinned.generator, pinned.modulus) == (want.generator, want.modulus)
        assert np.array_equal(pinned.antilog, want.antilog)
        assert np.array_equal(pinned.log, want.log)


@pytest.mark.parametrize("generator", [-2, 0, 7, 8])
def test_tables_for_generator_rejects_out_of_range(generator):
    base = sh.build_field(sh.FieldConfig(7, 1))
    with pytest.raises(FieldError, match="out of range"):
        tables_for_generator(base, generator)
    with pytest.raises(FieldError, match="out of range"):
        sh.build_field(sh.FieldConfig(7, 1, generator=generator))


@pytest.mark.parametrize("antilog", [[1, 2, 0], [1, -1, 2], [1, 5, 2], [1, 2], [1, 2, 3, 1]],
                         ids=["zero", "negative", "beyond-q", "short", "long"])
def test_field_tables_refuse_an_antilog_outside_1_to_q_minus_1(antilog):
    # GF(4) = GF(2)[x]/(x^2 + x + 1), g = x: the antilog is 1, x, x + 1
    make = lambda a: sh.FieldTables(p=2, e=2, q=4, modulus=(1, 1, 1), generator=2,
                                    antilog=np.array(a, dtype=np.int64))
    assert make([1, 2, 3]).log.tolist() == [-1, 0, 1, 2]
    with pytest.raises(FieldError, match=r"^antilog is not a permutation of 1 \.\. 3$"):
        make(antilog)
    with pytest.raises(FieldError, match="not primitive"):
        make([1, 2, 2])


def test_partition_sizes_625():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    part = sh.cyclotomic_partition(tables, 16)
    assert part.N == 16 and part.f == 39
    counts = np.bincount(tables.log[1:] % part.N, minlength=16)  # encoding 0 is zero
    assert counts.tolist() == [39] * 16


def test_partition_n1_is_whole_group():
    tables = sh.build_field(sh.FieldConfig(3, 2))
    part = sh.cyclotomic_partition(tables, 1)
    assert part.f == 8
    assert tables.log[0] == -1  # zero has no discrete log and no class
    assert np.all(tables.log[1:] % part.N == 0)


def test_partition_gf7_n3_frozen():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    part = sh.cyclotomic_partition(tables, 3)
    classes = tables.log[1:] % part.N  # of the encodings 1 .. 6
    assert (1 + np.flatnonzero(classes == 0)).tolist() == [1, 6]
    assert (1 + np.flatnonzero(classes == 1)).tolist() == [3, 4]
    assert (1 + np.flatnonzero(classes == 2)).tolist() == [2, 5]


def test_partition_rejects_bad_n():
    tables = sh.build_field(sh.FieldConfig(7, 1))
    with pytest.raises(FieldError):
        sh.cyclotomic_partition(tables, 4)


def test_class_multiplication_additivity():
    # an element of C_i times an element of C_j lands in C_{i+j mod N}
    tables = sh.build_field(sh.FieldConfig(13, 1))
    mul = naive_field_mul(tables)
    for x in range(1, 13):
        for y in range(1, 13):
            cx, cy = tables.log[x] % 4, tables.log[y] % 4
            assert tables.log[mul(x, y)] % 4 == (cx + cy) % 4

    big = sh.build_field(sh.FieldConfig(5, 4))
    mul = naive_field_mul(big)
    rng = np.random.default_rng(4)
    for x, y in rng.integers(1, 625, size=(60, 2)):
        cx, cy = big.log[x] % 16, big.log[y] % 16
        assert big.log[mul(int(x), int(y))] % 16 == (cx + cy) % 16


def test_negation_class_shift_values():
    t625 = sh.build_field(sh.FieldConfig(5, 4))
    assert sh.negation_class_shift(t625, 16) == 8
    assert sh.negation_class_shift(t625, 1) == 0
    t7 = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    assert sh.negation_class_shift(t7, 3) == 0
    with pytest.raises(FieldError):
        sh.negation_class_shift(sh.build_field(sh.FieldConfig(2, 4)), 3)
    with pytest.raises(FieldError, match="does not divide"):
        sh.negation_class_shift(t625, 7)  # 7 does not divide 624


def test_negation_class_shift_matches_class_of_minus_one():
    for p, e, n in [(5, 4, 16), (7, 1, 3), (13, 1, 4), (3, 2, 8), (5, 2, 12)]:
        tables = sh.build_field(sh.FieldConfig(p, e))
        enc = np.array([0, *tables.antilog])
        minus_one = enc[naive_neg_perm(p, e, enc)[1]]  # index 1 holds g^0 = 1
        assert minus_one == p - 1
        assert sh.negation_class_shift(tables, n) == tables.log[minus_one] % n


def test_class_of_negative_is_shifted():
    tables = sh.build_field(sh.FieldConfig(5, 4))
    shift = sh.negation_class_shift(tables, 16)
    g = sh.additive_group(tables)
    enc = np.array([0, *tables.antilog])
    rng = np.random.default_rng(5)
    for x in rng.integers(1, 625, size=60):
        minus_x = enc[g.neg_perm()[g.indices_of_encodings(x)]]
        assert tables.log[minus_x] % 16 == (tables.log[x] % 16 + shift) % 16


def test_additive_group_ordering():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    g = sh.additive_group(tables)
    enc = [0, 1, 3, 2, 6, 4, 5]  # 0, then the powers of 3 mod 7
    assert [0, *tables.antilog] == enc
    assert g.indices_of_encodings(enc).tolist() == list(range(7))


def test_additive_group_is_built_once_per_field_tables():
    tables = sh.build_field(sh.FieldConfig(7, 1, generator=3))
    g = sh.additive_group(tables)
    assert sh.additive_group(tables) is g
    other = tables_for_generator(tables, 5)
    assert sh.additive_group(other) is not g
    enc = [0, 1, 5, 4, 6, 2, 3]  # 0, then the powers of 5 mod 7
    assert [0, *other.antilog] == enc
    assert sh.additive_group(other).indices_of_encodings(enc).tolist() == list(range(7))
