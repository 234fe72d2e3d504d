from __future__ import annotations

import numpy as np
import pytest

import skewhad as sh

from _naive import naive_rank_gf2, naive_rank_gfp


def test_rank_gf2_trivial():
    assert sh.rank_gf2(np.zeros((5, 5), dtype=np.uint8)).rank == 0
    assert sh.rank_gf2(np.eye(7, dtype=np.uint8)).rank == 7


def test_rank_gf2_matches_naive_random():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 8, 17, 33, 64):
        for density in (0.2, 0.5, 0.8):
            m = (rng.random((n, n)) < density).astype(np.uint8)
            assert sh.rank_gf2(m).rank == naive_rank_gf2(m.tolist())


def test_rank_gf2_rejects_non_square():
    with pytest.raises(ValueError):
        sh.rank_gf2(np.zeros((3, 4), dtype=np.uint8))


def test_rank_gfp_requires_prime():
    with pytest.raises(ValueError):
        sh.rank_gfp(np.eye(3, dtype=int), 4)


def test_rank_gfp_trivial():
    assert sh.rank_gfp(np.zeros((4, 4), dtype=int), 3).rank == 0
    assert sh.rank_gfp(np.eye(6, dtype=int), 5).rank == 6
    # 3 I vanishes mod 3 but not mod 5
    assert sh.rank_gfp(3 * np.eye(4, dtype=int), 3).rank == 0
    assert sh.rank_gfp(3 * np.eye(4, dtype=int), 5).rank == 4


def test_rank_gfp_matches_naive_random():
    rng = np.random.default_rng(1)
    for p in (2, 3, 5, 7):
        for n in (1, 4, 9, 21, 40, 64):
            m = rng.integers(-10, 10, size=(n, n))
            assert sh.rank_gfp(m, p).rank == naive_rank_gfp(m.tolist(), p)


# rank_gfp eliminates panels of 64 columns for every prime below about 1.2e7;
# sizes 63, 64, 65 and 130 end on a panel of width 63, 64, 1 and 2.
# Each shape is paired with one of the primes, so every prime meets several.
PANEL_SIZES = (63, 64, 65, 130)
ORACLE_PRIMES = (2, 3, 5, 7, 313)
PANEL_SHAPES = [(n, m) for n in PANEL_SIZES for m in PANEL_SIZES]


@pytest.mark.parametrize("n, m, p", [(n, m, ORACLE_PRIMES[i % 5])
                                     for i, (n, m) in enumerate(PANEL_SHAPES)])
def test_rank_gfp_matches_naive_at_panel_boundaries(n, m, p):
    rng = np.random.default_rng([n, m, p])
    a = rng.integers(-10, 10, size=(n, m))
    assert sh.rank_gfp(a, p).rank == naive_rank_gfp(a.tolist(), p)


@pytest.mark.parametrize("n, m, p, k", [(n, m, ORACLE_PRIMES[(i + 2) % 5],
                                         (1, 40, 63, 64, 65, 100)[i % 6])
                                        for i, (n, m) in enumerate(PANEL_SHAPES)])
def test_rank_gfp_matches_naive_on_deficient_products(n, m, p, k):
    # (A @ B) % p has rank at most k; k runs across the panel width
    rng = np.random.default_rng([n, m, p, k])
    a = (rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, m))) % p
    got = sh.rank_gfp(a, p).rank
    assert got == naive_rank_gfp(a.tolist(), p)
    assert got <= min(n, m, k)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rank_gfp_panel_zero_below_the_pivot_rows(p):
    # rows 64.. are X times rows 0..63 on columns 0..127, so once the first
    # panel is eliminated the second panel (columns 64..127) is zero below
    # row 64 and finds no pivot; columns 128.. are free
    rng = np.random.default_rng(70 + p)
    top = rng.integers(0, p, size=(64, 131))
    top[:, :64] = np.triu(top[:, :64], 1) + np.eye(64, dtype=np.int64)
    x = rng.integers(0, p, size=(66, 64))
    bottom = rng.integers(0, p, size=(66, 131))
    bottom[:, :128] = (x @ top[:, :128]) % p
    a = np.vstack([top, bottom])
    got = sh.rank_gfp(a, p).rank
    assert got == naive_rank_gfp(a.tolist(), p)
    assert 64 <= got <= 67
    # a panel of all-zero columns
    a[:, 64:128] = 0
    assert sh.rank_gfp(a, p).rank == naive_rank_gfp(a.tolist(), p)


def test_rank_gfp_exact_at_the_largest_supported_prime():
    # at p = 94 906 249 the panel width is 1 and (p - 1)^2 + p is just
    # below 2^53, so entries of p - 1 take the largest exact updates
    p = 94_906_249
    assert (p - 1) ** 2 + p <= 2**53
    for n, m in ((5, 5), (4, 7), (9, 3)):
        a = np.full((n, m), p - 1, dtype=np.int64)
        assert sh.rank_gfp(a, p).rank == naive_rank_gfp(a.tolist(), p) == 1
        b = a - np.eye(n, m, dtype=np.int64)          # -(J + I) mod p
        assert sh.rank_gfp(b, p).rank == naive_rank_gfp(b.tolist(), p)
    # a rank-8 product: one inexact update would leave a dependent row nonzero
    rng = np.random.default_rng(5)
    f = rng.integers(0, p, size=(24, 8)).astype(object)
    g = rng.integers(0, p, size=(8, 20)).astype(object)
    c = ((f @ g) % p).astype(np.int64)
    assert sh.rank_gfp(c, p).rank == naive_rank_gfp(c.tolist(), p) == 8


def test_rank_gfp_rejects_primes_beyond_exact_elimination():
    # the next prime after 94 906 249 breaks the 2^53 bound even for one
    # column; int64 products used to overflow and give rank 2 here
    with pytest.raises(ValueError, match="exceeds"):
        sh.rank_gfp(np.eye(2, dtype=int), 94_906_297)
    p, x, y = 4294967311, 4 * 10**9, 41 * 10**8
    with pytest.raises(ValueError, match="exceeds"):
        sh.rank_gfp([[1, x], [y, x * y % p]], p)
    # rejected before a trial division that would not end
    with pytest.raises(ValueError, match="exceeds"):
        sh.rank_gfp(np.eye(2, dtype=int), 2305843009213693951)


def test_rank_invariant_under_signed_permutation():
    rng = np.random.default_rng(2)
    for n in (20, 70):
        for p in (3, 5):
            m = rng.integers(-4, 5, size=(n, n))
            base = sh.rank_gfp(m, p).rank
            for _ in range(5):
                rp = rng.permutation(n)
                cp = rng.permutation(n)
                rs = rng.choice([-1, 1], size=n)
                cs = rng.choice([-1, 1], size=n)
                scrambled = (rs[:, None] * m[np.ix_(rp, cp)]) * cs[None, :]
                assert sh.rank_gfp(scrambled, p).rank == base


def test_desk_hadamard_full_rank_coprime_primes(matrix8, matrix12):
    # p not dividing n forces full rank, since det(H)^2 = n^n
    assert sh.rank_gfp(matrix8.signs(), 3).rank == 8
    assert sh.rank_gfp(matrix8.signs(), 5).rank == 8
    assert sh.rank_gfp(matrix12.signs(), 5).rank == 12
    assert sh.rank_gfp(matrix12.signs(), 7).rank == 12


def test_desk_tournament_gf2_rank(matrix8):
    # the 7-vertex core is the quadratic-residue tournament; its circulant
    # polynomial x + x^2 + x^4 = x(x^3 + x + 1) shares a cubic factor with
    # x^7 - 1 over GF(2), so the rank is 7 - 3 = 4 (naive oracle agrees)
    _, _, m01 = sh.normalize_core_tournament(matrix8)
    assert sh.rank_gf2(m01, label="tournament").rank == 4
    assert naive_rank_gf2(m01.tolist()) == 4


def test_report_line_format():
    r = sh.rank_gf2(np.eye(3, dtype=np.uint8), label="tournament")
    assert r.line() == "tournament 2 3 3"
    assert sh.RankReport("hadamard", 5, 12, 12).line() == "hadamard 5 12 12"
