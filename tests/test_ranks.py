from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import skewhad as sh
from skewhad import hadamard, ranks

from _naive import naive_prime_factors, naive_rank_gf2, naive_rank_gfp
from conftest import orbit_flip, random_signs, traced_peak


def test_rank_gfp_requires_prime():
    with pytest.raises(ValueError):
        sh.rank_gfp(np.eye(3, dtype=int), 4)


def test_rank_gf2_trivial():
    assert sh.rank_gfp(np.zeros((5, 5), dtype=np.uint8), 2).rank == 0
    assert sh.rank_gfp(np.eye(7, dtype=np.uint8), 2).rank == 7
    # 2 I vanishes mod 2
    assert sh.rank_gfp(2 * np.eye(4, dtype=int), 2).rank == 0


def test_rank_gf2_matches_naive_random():
    # 0/1 matrices of every density over GF(2), against the XOR oracle
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 8, 17, 33, 64):
        for density in (0.2, 0.5, 0.8):
            m = (rng.random((n, n)) < density).astype(np.uint8)
            assert sh.rank_gfp(m, 2).rank == naive_rank_gf2(m.tolist())


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


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_rank_gfp_over_gf2_matches_naive_on_any_shape(dtype, monkeypatch):
    # rows and columns on either side of 64, so a row spans several machine
    # words; square shapes and empty ones as well.  No shape here is
    # certified, and every one is eliminated by XOR rows, none in panels.
    calls = _count_calls(monkeypatch, ("_eliminate", "_eliminate_gf2"))
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (4, 3), (1, 70), (70, 1), (5, 130), (130, 5), (63, 65), (65, 63),
              (40, 40), (0, 3), (3, 0), (0, 0)]
    for shape in shapes:
        if dtype is bool:
            x = rng.random(shape) < 0.5
        elif dtype is np.int64:
            x = rng.integers(-2**62, 2**62, size=shape)  # negative entries keep their parity
        else:
            x = rng.integers(0, 2, size=shape, dtype=dtype)
        report = sh.rank_gfp(x, 2)
        assert report.rank == naive_rank_gf2(x.tolist()) == naive_rank_gfp(x.tolist(), 2), shape
        assert (report.field_char, report.size) == (2, shape[0])
    assert calls == {"_eliminate": 0, "_eliminate_gf2": len(shapes)}


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, bool])
def test_an_all_odd_matrix_has_rank_1_over_gf2_and_eliminates_nothing(dtype, monkeypatch):
    # every +-1 matrix is J mod 2; the shapes fall on either side of the
    # parity check's panels of _UPDATE_ROWS rows, and one even entry in the
    # last row sends the matrix to XOR elimination
    calls = _count_calls(monkeypatch, ("_eliminate", "_eliminate_gf2"))
    rng = np.random.default_rng(14)
    shapes = [(1, 5), (5, 1), (3, 3), (127, 4), (128, 2), (300, 7)]
    for shape in shapes:
        x = np.ones(shape, dtype=bool) if dtype is bool else (
            2 * rng.integers(-60, 60, size=shape) + 1).astype(dtype)
        assert sh.rank_gfp(x, 2).rank == naive_rank_gf2(x.tolist()) == 1, shape
    assert calls == {"_eliminate": 0, "_eliminate_gf2": 0}
    for shape in shapes:
        x = np.ones(shape, dtype=dtype)
        x[-1, -1] = 0
        assert sh.rank_gfp(x, 2).rank == naive_rank_gf2(x.tolist()), shape
    assert calls == {"_eliminate": 0, "_eliminate_gf2": len(shapes)}


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
    m01 = sh.normalize_core_tournament(matrix8)
    assert sh.rank_gfp(m01, 2, label="tournament").rank == 4
    assert naive_rank_gf2(m01.tolist()) == 4


def test_report_line_format():
    r = sh.rank_gfp(np.eye(3, dtype=np.uint8), 2, label="tournament")
    assert r.line() == "tournament 2 3 3"
    assert sh.RankReport("hadamard", 5, 12, 12).line() == "hadamard 5 12 12"


CERT_PRIMES = (2, 3, 5, 7, 11, 13, 313)


def test_certificate_and_elimination_agree_with_the_oracles(small_matrices):
    certified = set()
    for n, signs, m01 in small_matrices:
        for label, x in (("hadamard", signs), ("tournament", m01)):
            for p in CERT_PRIMES:
                if ranks._gram_certifies_full_rank(x, p):
                    certified.add((n, label, p))
                want = naive_rank_gfp(x.tolist(), p)
                assert sh.rank_gfp(x, p).rank == want, (n, label, p)
            assert sh.rank_gfp(x, 2).rank == naive_rank_gf2(x.tolist())
    # H H^T = nI certifies exactly the primes not dividing n
    for n, _, _ in small_matrices:
        for p in CERT_PRIMES:
            assert ((n, "hadamard", p) in certified) == (n % p != 0)
    # det(M)^2 = (n/4)^(n-2) ((n-2)/2)^2: at n = 12 that is 3^10 * 5^2
    assert (12, "tournament", 2) in certified
    assert (12, "tournament", 3) not in certified
    assert (12, "tournament", 5) not in certified
    assert (12, "tournament", 7) in certified


def test_core_gram_from_gate0_is_the_core_gram(small_matrices, matrix1252):
    # the identities Gate0Report.core_rank derives the core's rank from:
    # rows of Hn Hn^T = nI give S S^T = nI - J and row sums 1, and
    # H + H^T = 2I gives S + S^T = 2I, so the core M = (J - S)/2 has
    # M M^T = (n/4) I + (n/4 - 1) J, M + M^T = J - I and M J = (n/2 - 1) J
    cases = [(sh.PmMatrix(signs), m01) for _, signs, m01 in small_matrices]
    cases.append((matrix1252, sh.normalize_core_tournament(matrix1252)))
    assert [h.n for h, _ in cases] == [8, 12, 24, 56, 1252]
    for h, m01 in cases:
        assert sh.gate0_verify(h).passed
        n, m = h.n, m01.astype(np.float64)  # its Gram entries are integers below 2^53
        eye = np.eye(n - 1)
        assert np.array_equal(m @ m.T, n // 4 * eye + (n // 4 - 1))
        assert np.array_equal(m + m.T, 1 - eye)
        assert np.array_equal(m.sum(axis=1), np.full(n - 1, n // 2 - 1))
        assert n // 4 + (n - 1) * (n // 4 - 1) == ((n - 2) // 2) ** 2


def test_core_rank_needs_a_passed_report(matrix8):
    assert sh.Gate0Report(8, gram_ok=True, skew_ok=False, max_offdiag_gram=0).core_rank(2) is None
    assert sh.Gate0Report(8, gram_ok=False, skew_ok=True, max_offdiag_gram=2).core_rank(3) is None
    flipped = matrix8.signs().copy()
    flipped[0, 3] *= -1
    assert sh.gate0_verify(sh.PmMatrix(flipped)).core_rank(2) is None
    # no +-1 matrix of order 6 has H H^T = nI, so a report that says so is refused
    assert sh.Gate0Report(n=6, gram_ok=True, skew_ok=True, max_offdiag_gram=0).core_rank(5) is None
    for n in (1, 2):  # the skew-Hadamard orders below 4: a core of order 0, and [[0]]
        h = sh.PmMatrix.from_signs(np.array([[1]]) if n == 1 else np.array([[1, 1], [-1, 1]]))
        report = sh.gate0_verify(h)
        core = sh.normalize_core_tournament(h)
        for p in CERT_PRIMES:
            assert report.passed and report.core_rank(p) == 0 == sh.rank_gfp(core, p).rank


def _core_primes(n):
    """CERT_PRIMES and every prime dividing n/4 or n/2 - 1, the primes at
    which the core's rank falls below n - 1."""
    return sorted({*CERT_PRIMES, *naive_prime_factors(n // 4),
                   *naive_prime_factors(n // 2 - 1)})


@pytest.mark.parametrize("p", CERT_PRIMES)
def test_ranks_read_from_the_gate0_identity_match_the_oracles(small_matrices, p):
    # the small orders' primes below n - 1 are all among CERT_PRIMES
    assert all(set(_core_primes(n)) == set(CERT_PRIMES) for n, _, _ in small_matrices)
    for n, signs, m01 in small_matrices:
        rank = sh.gate0_verify(sh.PmMatrix(signs)).core_rank(p)
        assert rank == naive_rank_gfp(m01.tolist(), p), (n, p)


def test_core_rank_at_1252_matches_elimination(matrix1252):
    report = sh.gate0_verify(matrix1252)
    core = sh.normalize_core_tournament(matrix1252)
    got = {p: report.core_rank(p) for p in _core_primes(1252)}
    want = {p: ranks._eliminate_gf2(core) if p == 2 else ranks._eliminate(core, p)
            for p in got}
    assert got == want
    assert {p: r for p, r in got.items() if r != 1251} == {5: 1250, 313: 626}


def test_certificate_declines_what_it_cannot_prove(matrix8):
    signs = matrix8.signs()
    assert ranks._gram_certifies_full_rank(signs, 3)
    # not square, not a matrix, empty
    assert not ranks._gram_certifies_full_rank(signs[:, :7], 3)
    assert not ranks._gram_certifies_full_rank(signs[0], 3)
    assert not ranks._gram_certifies_full_rank(np.zeros((0, 0), dtype=int), 3)
    # row 0 and the diagonal of the Gram alone would certify (2 I), yet
    # rows 1 and 2 agree
    w = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, -1, 0, 0]])
    assert not ranks._gram_certifies_full_rank(w, 5)
    assert sh.rank_gfp(w, 5).rank == 3
    # unstructured Grams of full-rank matrices: row 0 is (2, 1, 0), and
    # [[2, 1], [1, 1]] differs from I + J only at its last entry
    x = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert not ranks._gram_certifies_full_rank(x, 5)
    assert sh.rank_gfp(x, 5).rank == 3
    u = np.array([[1, 1], [0, 1]])
    assert not ranks._gram_certifies_full_rank(u, 5)
    assert sh.rank_gfp(u, 5).rank == 2
    # s I + t J with p | s: H H^T = 8 I at p = 2
    assert not ranks._gram_certifies_full_rank(signs, 2)
    assert sh.rank_gfp(signs, 2).rank == naive_rank_gfp(signs.tolist(), 2) == 1
    # p | s + m t: y y^T = I + J, so det(y)^2 = 1 + 3 = 4, a unit mod 3 only
    y = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert not ranks._gram_certifies_full_rank(y, 2)
    assert ranks._gram_certifies_full_rank(y, 3)
    assert sh.rank_gfp(y, 2).rank == naive_rank_gfp(y.tolist(), 2) == 2
    # t < 0: z z^T = 4 I - J, det(z)^2 = 4^2 * 1
    z = 2 * np.eye(3, dtype=int) - np.ones((3, 3), dtype=int)
    assert ranks._gram_certifies_full_rank(z, 3)
    assert not ranks._gram_certifies_full_rank(z, 2)
    assert sh.rank_gfp(z, 3).rank == naive_rank_gfp(z.tolist(), 3) == 3


def test_certificate_declines_beyond_the_float32_bound(matrix8):
    # m max|c|^2 must stay below 2^24; p = 8209 leaves 4095 and 4096 as
    # their own centered residues
    assert ranks._gram_certifies_full_rank(np.array([[4095]]), 8209)
    assert not ranks._gram_certifies_full_rank(np.array([[4096]]), 8209)
    assert sh.rank_gfp(np.array([[4096]]), 8209).rank == 1
    d = 2897 * np.eye(2, dtype=int)  # 2 * 2897^2 just above 2^24
    assert 2 * 2897**2 >= 2**24 > 2 * 2896**2
    assert not ranks._gram_certifies_full_rank(d, 8209)
    assert ranks._gram_certifies_full_rank(d - np.eye(2, dtype=int), 8209)
    # residues are centered: H mod p has entries 1 and p - 1, taken as +-1
    assert ranks._gram_certifies_full_rank(matrix8.signs().astype(np.int64) % 8209, 8209)
    # a large entry is reduced first: 10^9 I is 10^9 mod 7 = 6 = -1 I
    assert ranks._gram_certifies_full_rank(10**9 * np.eye(5, dtype=np.int64), 7)
    assert not ranks._gram_certifies_full_rank(7 * 10**8 * np.eye(5, dtype=np.int64), 7)


def test_certificate_is_exact_when_s_needs_25_bits():
    # x x^T = [[G00, t], [t, G00 + 1]] with t = -16105115 and s = G00 - t =
    # 32213652 > 2^24; det(x) = -332041 = -31 * 10711.  Taking t and then s
    # off the last diagonal entry would round G00 + 1 - t to s in float32
    # and certify rank 2 over GF(10711), so s + t = G00 goes in one step.
    x = np.array([[2891, 2784], [-2833, -2843]])
    gram = x @ x.T
    assert gram[1, 1] - gram[0, 0] == 1 and gram[0, 0] - gram[0, 1] > 2**24
    assert not ranks._gram_certifies_full_rank(x, 10711)
    assert sh.rank_gfp(x, 10711).rank == naive_rank_gfp(x.tolist(), 10711) == 1


_small_square = st.integers(1, 5).flatmap(
    lambda m: arrays(np.int64, (m, m), elements=st.integers(-3, 3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_square, st.sampled_from((2, 3, 5, 7)))
def test_rank_matches_naive_whichever_path_decides(x, p):
    # small entries make s I + t J Grams common (permutations, 1 x 1, +-1 rows)
    assert sh.rank_gfp(x, p).rank == naive_rank_gfp(x.tolist(), p)
    assert sh.rank_gfp(x, 2).rank == naive_rank_gf2(x.tolist())


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(ranks, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(ranks, name, counted)
    return calls


@pytest.mark.parametrize("label, p, certified, rank", [
    ("hadamard", 3, True, 1252), ("hadamard", 5, True, 1252), ("tournament", 2, True, 1251),
    ("hadamard", 313, False, 626), ("hadamard", 2, False, 1), ("tournament", 5, False, 1250),
    ("random", 3, False, None)])
def test_certified_ranks_eliminate_nothing_and_declined_ranks_form_no_gram(
        monkeypatch, matrix1252, label, p, certified, rank):
    m01 = sh.normalize_core_tournament(matrix1252)
    x = {"hadamard": matrix1252.signs(), "tournament": m01,
         "random": random_signs(160, 9)}[label]
    if rank is None:
        rank = naive_rank_gfp(x.tolist(), p)
    formed = []  # the Gram rows of each product the certificate forms
    deviation, panels = ranks._deviation, ranks._panel_deviation
    monkeypatch.setattr(ranks, "_deviation", lambda f, s, t, d: formed.append(
        len(hadamard._orbit_rows(len(f), d))) or deviation(f, s, t, d))
    monkeypatch.setattr(ranks, "_panel_deviation",
                        lambda f, s, t, rows: formed.append(len(rows)) or panels(f, s, t, rows))
    calls = _count_calls(monkeypatch, ("_eliminate", "_eliminate_gf2"))
    assert sh.rank_gfp(x, p).rank == rank
    # a certified rank forms the orbit rows of H's block shift in one product,
    # and checks Gram row 0 alone before all rows of the odd-order core,
    # which no shift keeps; a declined one forms no orbit row: the random
    # matrix is stopped by row 0 and the others by s and t alone, and each
    # eliminates once in panels, but H over GF(2), J mod 2, has rank 1 and
    # eliminates nothing
    eliminations = (calls["_eliminate_gf2"], calls["_eliminate"])
    if certified:
        orbits = len(hadamard._orbit_rows(len(x), hadamard._block_shift(x)))
        assert (orbits < len(x)) == (label == "hadamard")
        assert (eliminations, formed) == ((0, 0), [orbits] if label == "hadamard"
                                          else [1, orbits])
    else:
        assert (eliminations, formed) == ((0, 0) if p == 2 else (0, 1),
                                          [1] if label == "random" else [])


@pytest.mark.parametrize("p", [3, 5])
def test_orbit_invariant_non_hadamard_matrix_declines_and_eliminates(
        monkeypatch, small_matrices, p):
    # two whole orbits of the block shift by 2 negated at order 56, one of +1
    # entries and one of -1 entries in each row 3 + k, 2 | k: the shift still
    # keeps the matrix, and every row sum (Gram row 0) is unchanged, so the
    # certificate forms the orbit rows in one Gram, which finds H H^T != nI
    n, h, _ = next(m for m in small_matrices if m[0] == 56)
    b = next(b for b in range(2, n // 2 - 2) if h[3, 3 + b] != h[3, 4])
    x = orbit_flip(orbit_flip(h, 2, 1), 2, b)
    assert hadamard._block_shift(x) == 2 and len(hadamard._orbit_rows(n, 2)) == 8
    seen = []  # (orbit rows, deviation) of each Gram
    inner = ranks._deviation

    def recorded(f, s, t, d):
        seen.append((len(hadamard._orbit_rows(len(f), d)), inner(f, s, t, d)))
        return seen[-1][1]
    monkeypatch.setattr(ranks, "_deviation", recorded)
    monkeypatch.setattr(ranks, "_panel_deviation", lambda *a: pytest.fail("row 0 alone"))
    calls = _count_calls(monkeypatch, ("_eliminate",))
    assert sh.rank_gfp(x, p).rank == naive_rank_gfp(x.tolist(), p)
    assert len(seen) == 1 and seen[0][0] == 8 and seen[0][1] > 0
    assert calls == {"_eliminate": 1}


@pytest.mark.parametrize("shape", [(4,), (0,), (2, 3, 3)])
def test_ranks_refuse_arrays_that_are_not_matrices(shape):
    for p in (2, 3):
        with pytest.raises(ValueError, match="expected a matrix"):
            sh.rank_gfp(np.ones(shape, dtype=np.int8), p)


@pytest.mark.parametrize("bad", [[[1.5, 2], [3, 4]], [[np.nan]], [[1.0]],
                                 np.eye(2, dtype=np.float32), [[1 + 0j]],
                                 np.array([[1]], dtype=object), [["1"]]])
def test_ranks_refuse_non_integer_dtypes(bad):
    for p in (2, 3):
        with pytest.raises(ValueError, match="integer or boolean"):
            sh.rank_gfp(bad, p)


def test_ranks_accept_boolean_and_unsigned_matrices():
    b = np.array([[True, True, False], [True, False, True], [False, True, True]])
    assert sh.rank_gfp(b, 2).rank == 2
    assert sh.rank_gfp(b, 3).rank == 3
    assert sh.rank_gfp(b.astype(np.uint16) * 3, 3).rank == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 313])
def test_uint64_entries_at_and_above_2_63_match_the_oracles(p):
    # Residues are taken in the array's own unsigned dtype: a cast to int64
    # first would wrap 2^63 + 1 to -(2^63 - 1), which is 1 mod 3, not 0.
    rng = np.random.default_rng(p)
    cases = [np.array([[v]], dtype=np.uint64) for v in (2**63, 2**63 + 1, 2**64 - 1)]
    cases += [rng.integers(2**63 - 4, 2**64, size=shape, dtype=np.uint64)
              for shape in ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2))]
    # rows that agree mod p, so that the rank is deficient
    row = rng.integers(2**63, 2**64 - 2 * p, size=3, dtype=np.uint64)
    cases.append(np.stack([row, row + np.uint64(p), row + np.uint64(2 * p)]))
    for x in cases:
        assert sh.rank_gfp(x, p).rank == naive_rank_gfp(x.tolist(), p), (x, p)
        if p == 2:
            assert sh.rank_gfp(x, 2).rank == naive_rank_gf2(x.tolist()), x


@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint8, np.int16, np.uint16,
                                   np.int32, np.uint32, np.int64, np.uint64])
def test_residues_match_python_mod_in_every_integer_dtype(dtype):
    # the remainder is taken in int64, or uint64 for an unsigned dtype, and
    # written straight into the requested dtype
    if dtype is np.bool_:
        values = [False, True]
    else:
        info = np.iinfo(dtype)
        values = sorted(v for v in {int(info.min), int(info.min) + 1, -1, 0, 1, 2,
                                    int(info.max) - 1, int(info.max)} if v >= info.min)
    x = np.array(values, dtype=dtype).reshape(1, -1)
    for p in (2, 3, 5, 313, 94_906_249):
        for out in (np.int64, np.float64):
            got = ranks._residues(x, p, out)
            assert got.dtype == out and got.ravel().tolist() == [int(v) % p for v in values]


def test_elimination_of_the_1251_core_allocates_at_most_12_n_squared_bytes(
        matrix1252, monkeypatch):
    # the core is one bool array with both sign vectors XORed in place; its
    # GF(5) rank eliminates (5 divides det) in one float64 array of residues
    # (8 n^2 bytes), updated and reduced in blocks of rows, with no int64
    # copy beside it and no n x n product.  normalize's own Gate0, whose
    # transient Gram buffers are bounded by the Gate0 tests, is handed the
    # report it would give, so the peak is the core's alone
    report = sh.gate0_verify(matrix1252)
    monkeypatch.setattr(sh.hadamard, "gate0_verify", lambda m: report)
    core, peak = traced_peak(lambda: sh.normalize_core_tournament(matrix1252))
    n = core.shape[0]
    assert n == 1251 and peak <= 1.1 * n ** 2
    rank, peak = traced_peak(lambda: sh.rank_gfp(core, 5).rank)
    assert rank == 1250 and peak <= 12 * n ** 2
