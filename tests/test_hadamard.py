from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import skewhad as sh
from skewhad.cli import main
from skewhad import autgroup, hadamard, ranks
from skewhad.hadamard import MatrixFormatError, gram_deviation

from _naive import (naive_bordered, naive_developed, naive_gram, naive_gram_deviation,
                    naive_parse_matrix_text, naive_power_matrix, naive_reversed_type2,
                    naive_to_matrix_text)
from conftest import (SMALL_CONFIGS, SMALL_FIELDS, desk_group, field_group, mutate_one_byte,
                      orbit_flip, random_signs, subset_of_encodings, traced_peak)


def sum_developed(g, d):
    """Type-2 development M[i, j] = s_D(g_i + g_j)."""
    return sh.indicator_signs(d)[g.sum_index_table()]


def type1(g, d):
    """Type-1 development M[i, j] = s_D(g_j - g_i), the block A of the
    bordered matrix."""
    return g.develop(sh.indicator_signs(d))


def _assert_read_only_int8(m):
    s = m.signs()
    assert s.dtype == np.int8 and s.shape == (m.n, m.n)
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 1


def test_pack_unpack_round_trip_awkward_sizes(matrix8):
    for n in (1, 2, 7, 63, 64, 65, 100, 128, 130):
        signs = random_signs(n, seed=n)
        m = sh.PmMatrix.from_signs(signs)
        assert np.array_equal(m.signs(), signs)
        assert m == sh.PmMatrix.from_signs(signs)
        parsed = sh.parse_matrix_text(sh.to_matrix_text(m))
        assert parsed == m
        for built in (m, parsed):
            _assert_read_only_int8(built)
    # from_signs copies: the caller's array stays writable and unshared
    signs = random_signs(5, seed=0)
    m = sh.PmMatrix.from_signs(signs)
    signs[0, 0] *= -1
    assert m.signs()[0, 0] == -signs[0, 0]
    _assert_read_only_int8(matrix8)  # build_bordered_from_blocks


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_to_matrix_text_matches_row_writer(n):
    signs = random_signs(n, seed=n)
    assert sh.to_matrix_text(sh.PmMatrix.from_signs(signs)) == naive_to_matrix_text(signs)


def test_to_matrix_text_matches_row_writer_1252(matrix1252):
    assert sh.to_matrix_text(matrix1252) == naive_to_matrix_text(matrix1252.signs())


def test_to_matrix_text_at_order_4080_allocates_below_1_1_n_squared_bytes():
    # the header and the rows are written in place into the one bytearray of
    # n(n + 1) + 5 bytes that is returned: no copy and no n x n temporary
    n = 4080
    m = sh.PmMatrix.from_signs(random_signs(n, seed=4080))
    text, peak = traced_peak(lambda: sh.to_matrix_text(m))
    assert text[:5] == b"4080\n" and len(text) == 5 + n * (n + 1)
    assert sh.parse_matrix_text(text) == m
    assert peak <= 1.1 * n ** 2


def test_to_matrix_text_is_a_bytearray_that_every_reader_takes(tmp_path, matrix12):
    text = sh.to_matrix_text(matrix12)
    assert isinstance(text, bytearray) and text == bytes(text)
    assert hashlib.sha256(text).hexdigest() == hashlib.sha256(bytes(text)).hexdigest()
    (tmp_path / "m.txt").write_bytes(text)
    assert sh.parse_matrix_text((tmp_path / "m.txt").read_bytes()) == matrix12
    text += b"x"  # the text holds no buffer export, so it can still grow
    assert len(text) == 12 * 13 + 4


def test_from_signs_rejects_bad_input():
    with pytest.raises(ValueError):
        sh.PmMatrix.from_signs(np.array([[1, 2], [1, 1]]))
    with pytest.raises(ValueError):
        sh.PmMatrix.from_signs(np.ones((2, 3)))
    with pytest.raises(ValueError, match="order 1 or more"):
        sh.PmMatrix.from_signs(np.zeros((0, 0)))


def test_type1_frozen_z3():
    g = desk_group(3)  # GF(3) in discrete-log order is Z_3 in its own order
    d = sh.subset_from_indices(g, [1])
    assert type1(g, d).tolist() == [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]


def test_type2_frozen_z3():
    g = desk_group(3)
    d = sh.subset_from_indices(g, [1])
    assert sum_developed(g, d).tolist() == [[1, -1, 1], [-1, 1, 1], [1, 1, -1]]


def test_developed_empty_block_is_all_ones():
    g = field_group(2, 2)[0]
    d = sh.subset_from_indices(g, [])
    assert np.all(type1(g, d) == 1)
    assert np.all(sum_developed(g, d) == 1)


def test_developed_match_naive_all_small_groups():
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        n = g.order
        rng = np.random.default_rng(n)
        members = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
        d = sh.subset_from_indices(g, members)
        assert type1(g, d).tolist() == \
            naive_developed(n, add, neg, members, "type1")
        assert sum_developed(g, d).tolist() == \
            naive_developed(n, add, neg, members, "type2")


def test_type1_row_sums_and_skewness():
    g = desk_group(7)
    d = subset_of_encodings(g, [1, 2, 4])  # the squares; -1 is not one
    m = type1(g, d)
    assert np.all(m.sum(axis=1) == 7 - 2 * 3)
    assert np.array_equal(m + m.T, 2 * np.eye(7, dtype=m.dtype))  # D is skew


def test_type2_symmetric_random():
    g = desk_group(13)
    rng = np.random.default_rng(9)
    for _ in range(5):
        members = rng.choice(13, size=rng.integers(0, 14), replace=False)
        m = sum_developed(g, sh.subset_from_indices(g, members))
        assert np.array_equal(m, m.T)


def test_reversal_conjugate_properties():
    g = field_group(3, 2)[0]
    perm = g.neg_perm()
    assert np.array_equal(perm[perm], np.arange(9))  # R^2 = I
    rng = np.random.default_rng(10)
    for _ in range(5):
        members = rng.choice(9, size=rng.integers(0, 10), replace=False)
        d = sh.subset_from_indices(g, members)
        bs = sum_developed(g, d).astype(int)
        cs = bs[:, perm]
        # Gram preserved: C C^T == B B^T
        assert np.array_equal(cs @ cs.T, bs @ bs.T)
        # C is the transpose of the type-1 development of the same block
        assert np.array_equal(cs, type1(g, d).T)


def test_bordered_blocks_match_naive_developments():
    # A is the type-1 development of D0; C is the reversed type-2 development
    # of D1, each as the bordered assembly holds it
    rng = np.random.default_rng(11)
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (3, 3)]:
        g, add, neg = field_group(p, e)
        v = g.order
        m0, m1 = (sorted(rng.choice(v, size=(v - 1) // 2, replace=False).tolist())
                  for _ in range(2))
        h = sh.build_bordered_from_blocks(g, sh.subset_from_indices(g, m0),
                                          sh.subset_from_indices(g, m1))
        s = h.signs()
        a, c = s[2: v + 2, 2: v + 2], s[2: v + 2, v + 2:]
        assert a.tolist() == naive_developed(v, add, neg, m0, "type1")
        assert c.tolist() == naive_reversed_type2(v, add, neg, m1)
        assert s.tolist() == naive_bordered(v, add, neg, m0, m1)


def test_type1_matrices_commute():
    # difference-developed matrices over one abelian group commute
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        n = g.order
        rng = np.random.default_rng(n + 100)
        d0 = sh.subset_from_indices(g, rng.choice(n, size=n // 2, replace=False))
        d1 = sh.subset_from_indices(g, rng.choice(n, size=n // 3, replace=False))
        a = type1(g, d0).astype(int)
        c = np.array(naive_reversed_type2(n, add, neg, np.flatnonzero(d1)))
        assert np.array_equal(a @ c, c @ a)


def test_gram_profile_identity_small_groups():
    # (A A^T)[i, k] equals the autocorrelation of D at g_i - g_k
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        n = g.order
        rng = np.random.default_rng(n + 200)
        members = rng.choice(n, size=n // 2, replace=False)
        d = sh.subset_from_indices(g, members)
        a = type1(g, d).astype(int)
        gram = a @ a.T
        profile = sh.autocorrelation_profile(g, d)
        for i in range(n):
            for k in range(n):
                assert gram[i, k] == profile[add(i, neg(k))]


def test_assemble_desk_instances(matrix8, matrix12):
    assert matrix8.n == 8
    assert sh.gate0_verify(matrix8).passed
    assert matrix12.n == 12
    assert sh.gate0_verify(matrix12).passed


def test_assemble_rejects_mismatched_orders():
    # a block of GF(3) with a block of GF(5): the masks have other lengths
    g3, g5 = desk_group(3), desk_group(5)
    d3, d5 = sh.subset_from_indices(g3, [1]), sh.subset_from_indices(g5, [1, 2])
    for d0, d1 in ((d3, d5), (d5, d3)):
        with pytest.raises(ValueError, match="shape"):
            sh.build_bordered_from_blocks(g5, d0, d1)
    with pytest.raises(ValueError, match="shape"):
        sh.build_bordered_from_blocks(g3, d3, d5)


def test_assemble_rejects_bad_row_sums():
    # a developed block sums to v - 2|D| on every row and column, so a
    # block of another size than (v - 1)/2 is refused by its size alone
    g = desk_group(5)
    good = sh.subset_from_indices(g, [1, 2])
    for members in ([1], [1, 2, 3], [], [0, 1, 2, 3, 4]):  # row sums 3, -1, 5, -5
        bad = sh.subset_from_indices(g, members)
        assert np.all(type1(g, bad).sum(axis=1) == 5 - 2 * len(members))
        for name, d0, d1 in (("D1", good, bad), ("D0", bad, good)):
            with pytest.raises(ValueError, match=f"\\|{name}\\| = {len(members)}: .* 2"):
                sh.build_bordered_from_blocks(g, d0, d1)


def test_assemble_always_skew_even_when_sums_fail():
    # any skew D0 with |D0| = (v-1)/2 and any D1 of the same size assembles
    # into a matrix with H + H^T = 2I; the Gram identity holds iff certified
    rng = np.random.default_rng(31)
    hit_fail = 0
    for p, e in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        g = field_group(p, e)[0]
        v = g.order
        # g^k for k < (v - 1)/2: -g^k = g^(k + (v - 1)/2), so one of {x, -x} each
        d0 = sh.subset_from_indices(g, range(1, (v + 1) // 2))
        assert sh.check_skew(g, d0)
        for _ in range(4):
            members = rng.choice(np.arange(0, v), size=(v - 1) // 2, replace=False)
            d1 = sh.subset_from_indices(g, members)
            h = sh.build_bordered_from_blocks(g, d0, d1)
            rep = sh.gate0_verify(h)
            assert rep.skew_ok
            pair = sh.BlockPair(group=g, i0=frozenset(), i1=frozenset(),
                                d0=d0, d1=d1)
            cert = sh.check_shdf(g, pair)
            assert rep.gram_ok == cert.passed
            hit_fail += not cert.passed
    assert hit_fail > 0  # the fuzz actually exercised failing pairs


def test_gate0_smallest_instance():
    m = sh.PmMatrix.from_signs(np.array([[1, 1], [-1, 1]], dtype=np.int8))
    rep = sh.gate0_verify(m)
    assert rep.passed and rep.n == 2 and rep.max_offdiag_gram == 0


def test_gate0_max_offdiag_gram_is_a_magnitude():
    # the rows are negatives of each other: the only off-diagonal entry is -2
    rep = sh.gate0_verify(sh.PmMatrix.from_signs(np.array([[1, 1], [-1, -1]], dtype=np.int8)))
    assert not rep.gram_ok and rep.max_offdiag_gram == 2


def test_gate0_detects_single_flip(matrix8):
    signs = matrix8.signs().copy()
    signs[3, 5] *= -1
    rep = sh.gate0_verify(sh.PmMatrix.from_signs(signs))
    assert not rep.gram_ok
    assert rep.max_offdiag_gram != 0


# The panel logic does not depend on the height b, so b = 8 puts every
# boundary at an order naive_gram computes quickly; the module's own height
# is checked against the exact int64 product.
_PANELS = pytest.mark.parametrize("b", (8, hadamard._PANEL), ids=("b8", "module-b"))


def _public_gram(x, s, t):
    """gram_deviation of x; a float x, which the public call refuses, by the
    kernel that call would run on its verified block shift."""
    if x.dtype.kind == "f":
        with pytest.raises(ValueError, match="integer or boolean"):
            gram_deviation(x, s, t)
        return hadamard._deviation(x, s, t, hadamard._block_shift(x))
    return gram_deviation(x, s, t)


def _deviation_oracle(x, s, t, b):
    """max |x x^T - s I - t J| from naive_gram, or from the exact int64
    product (numpy's integer loop, no BLAS) at the module's panel height."""
    if b == hadamard._PANEL:
        x = np.asarray(x, dtype=np.int64)
        gram = x @ x.T
    else:
        gram = np.array(naive_gram(np.asarray(x).tolist()), dtype=np.int64)
    gram -= t
    gram[np.diag_indices_from(gram)] -= s
    return int(np.abs(gram).max())


@_PANELS
@pytest.mark.parametrize("order", ["1", "b-1", "b", "b+1", "2b+1"])
def test_gram_deviation_matches_naive_gram(monkeypatch, b, order):
    monkeypatch.setattr(hadamard, "_PANEL", b)
    n = {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "2b+1": 2 * b + 1}[order]
    signs = random_signs(n, n + b)
    # t = 0 and t != 0, a diagonal off by s = 5n, and entries of 97, whose
    # Gram entries reach 97^2 n and stay exact in float32
    for x, s, t in ((signs, n, 0), (signs, 5 * n, 0), (signs, n, 1), (signs, 0, -3),
                    (97 * signs, 97**2 * n, 0)):
        assert gram_deviation(x, s, t) == _deviation_oracle(x, s, t, b), (s, t)
    rep = sh.gate0_verify(sh.PmMatrix.from_signs(signs))
    assert rep.max_offdiag_gram == _deviation_oracle(signs, n, 0, b)
    assert rep.gram_ok == (n == 1)


@_PANELS
def test_gram_deviation_with_t_nonzero_matches_naive_gram(monkeypatch, small_matrices, b):
    # the rank certificate's inputs: the 0/1 core M, with M M^T = (n/4) I +
    # (n/4 - 1) J, and the normalized core S = J - 2M, +-1 entries that are
    # their own centered residues, with S S^T = nI - J
    monkeypatch.setattr(hadamard, "_PANEL", b)
    for n, _, m01 in small_matrices:
        m = m01.astype(np.int64)
        for x, s, t, flip in ((m, n // 4, n // 4 - 1, lambda e: 1 - e),
                              (1 - 2 * m, n, -1, lambda e: -e)):
            assert gram_deviation(x, s, t) == 0
            for r, c in ((0, n - 2), (n - 2, 0), (n // 2, n // 2 + 1), (n - 2, n - 3)):
                bad = x.copy()
                bad[r, c] = flip(bad[r, c])
                want = _deviation_oracle(bad, s, t, b)
                assert gram_deviation(bad, s, t) == want > 0, (n, r, c)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
@_PANELS
def test_gram_deviation_reads_the_matrix_in_its_own_dtype(monkeypatch, small_matrices, dtype, b):
    # the public call, every row (d = 0) and the orbit rows of the verified
    # shift; a flip leaves every row its own orbit, and entries of 97 keep
    # the Gram exact
    monkeypatch.setattr(hadamard, "_PANEL", b)
    for n, signs, _ in small_matrices:
        flipped = signs.copy()
        flipped[n // 2, 1] *= -1
        for x, scale in ((signs, 1), (flipped, 1), (97 * signs, 97**2)):
            x = x.astype(dtype)
            d = hadamard._block_shift(x)
            for s, t in ((scale * n, 0), (n + 2, -2), (0, n), (5 * n, 1)):
                want = naive_gram_deviation(x, s, t)
                assert _public_gram(x, s, t) == want, (n, dtype, s, t)
                assert hadamard._deviation(x, s, t, 0) == want, (n, dtype, s, t)
                assert hadamard._deviation(x, s, t, d) == want, (n, dtype, s, t)
        assert _public_gram(flipped.astype(dtype), n, 0) > 0


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_gram_deviation_is_exact_when_s_needs_25_bits(dtype):
    # x x^T = [[G00, t], [t, G00 + 1]] with s = G00 - t = 32213652 > 2^24:
    # the diagonal loses s + t = G00 in one step, so the last entry is 1
    x = np.array([[2891, 2784], [-2833, -2843]], dtype=dtype)
    s, t = 32213652, -16105115
    assert _public_gram(x, s, t) == naive_gram_deviation(x, s, t) == 1
    panel = hadamard._panel_deviation
    assert panel(x, s, t, np.array([0])) == 0 and panel(x, s, t, np.array([1])) == 1


@pytest.mark.parametrize("x, match", [
    ([[0.5, 0.5], [0.5, -0.5]], "integer or boolean"),  # deviates from 0 by 0.5
    ([[1 + 0j]], "integer or boolean"), (np.ones(4, dtype=np.int8), "expected a matrix"),
    (np.ones((2, 3, 3), dtype=np.int8), "expected a matrix")],
    ids=["float", "complex", "1-d", "3-d"])
def test_gram_deviation_refuses_what_is_not_an_integer_matrix(x, match):
    with pytest.raises(ValueError, match=match):
        gram_deviation(x, 0, 0)


def test_gram_deviation_takes_lists_and_booleans():
    assert gram_deviation([[1, 1], [1, -1]], 2, 0) == 0
    assert gram_deviation([[1, 1], [1, 1]], 2, 0) == 2
    assert gram_deviation(np.array([[True, False], [False, True]]), 1, 0) == 0


def test_gram_deviation_refuses_t_or_s_plus_t_outside_the_float32_bound():
    # 4097^2 = 2^24 + 8193 rounds to s in float32, so the panels would read
    # 0 where the deviation is 1; |t| >= 2^24 breaks the bound alike
    x = np.diag([4097, 4097])
    assert naive_gram_deviation(x, 4097**2 - 1, 0) == 1
    for s, t in ((4097**2 - 1, 0), (-(1 << 24), 1 << 24), (1 << 24, 0)):
        with pytest.raises(ValueError, match="below 2\\^24"):
            gram_deviation(x, s, t)


def test_the_public_gram_verifies_the_block_shift_on_its_own_input(monkeypatch, matrix1252):
    # the flagship takes the 36 orbit rows of the shift it verifies once on
    # x itself, and no panel; a flip breaks the shift, so the flipped
    # matrix's deviation comes from every row and equals the oracle's
    shifts, keeps = [], hadamard._keeps_block_shift
    monkeypatch.setattr(hadamard, "_keeps_block_shift",
                        lambda x, d: shifts.append(d) or keeps(x, d))
    panel = hadamard._panel_deviation
    monkeypatch.setattr(hadamard, "_panel_deviation", lambda *a: pytest.fail("a panel"))
    signs = matrix1252.signs()
    assert gram_deviation(signs, 1252, 0) == 0
    assert shifts == [16]
    monkeypatch.setattr(hadamard, "_panel_deviation", panel)
    flipped = signs.copy()
    flipped[40, 700] *= -1
    assert hadamard._block_shift(flipped) == 0
    assert gram_deviation(flipped, 1252, 0) == naive_gram_deviation(flipped, 1252, 0) == 2


@pytest.mark.parametrize("edits", [
    [("flip", 3, 900)], [("flip", 900, 3)], [("flip", 300, 310)], [("flip", 1200, 1240)],
    [("flip", 1250, 7), ("flip", 1250, 1251)],
    # a row copied over another deviates from nI at that one pair of entries
    [("copy", 3, 900)], [("copy", 300, 310)], [("copy", 1200, 1240)]],
    ids=["upper", "lower", "diagonal-block", "last-partial-panel", "two-flips",
         "copy-across-panels", "copy-in-diagonal-block", "copy-in-last-partial-panel"])
def test_gate0_max_offdiag_gram_matches_the_integer_product(matrix1252, edits):
    b = hadamard._PANEL
    assert 3 // b < 900 // b and 300 // b == 310 // b and 1252 % b and 1200 // b == 1251 // b
    signs = matrix1252.signs().copy()
    for kind, r, c in edits:
        if kind == "flip":
            signs[r, c] *= -1
        else:
            signs[c] = signs[r]
    # the rows left alone keep H H^T = nI among themselves, so the Gram
    # deviates only in the edited rows
    rows = sorted({r if kind == "flip" else c for kind, r, c in edits})
    part = signs[rows].astype(np.int64) @ signs.T.astype(np.int64)
    part[range(len(rows)), rows] -= 1252
    rep = sh.gate0_verify(sh.PmMatrix.from_signs(signs))
    assert not rep.gram_ok
    assert rep.max_offdiag_gram == int(np.abs(part).max()) > 0


@pytest.mark.parametrize("n", [1, 64, 1252])
def test_gram_all_minus_one_is_n_everywhere(n):
    # every partial sum is as large as it can be: the float32 worst case
    m = sh.PmMatrix.from_signs(-np.ones((n, n), dtype=np.int8))
    assert gram_deviation(m.signs(), 0, n) == 0  # f f^T = nJ exactly
    assert gram_deviation(m.signs(), n, 0) == (0 if n == 1 else n)
    rep = sh.gate0_verify(m)
    assert rep.gram_ok == (n == 1) and rep.max_offdiag_gram == (0 if n == 1 else n)


def test_gram_of_flipped_1252_matches_integer_product(matrix1252):
    # the n1252-flip case of the dense-oracle test below, so the memoized
    # oracle forms its integer product once for both
    signs = matrix1252.signs().copy()
    signs[40, 700] *= -1
    m = sh.PmMatrix.from_signs(signs)
    for s, t in ((1252, 0), (1254, -2), (1250, 2)):
        assert gram_deviation(m.signs(), s, t) == naive_gram_deviation(signs, s, t) > 0
    rep = sh.gate0_verify(m)
    assert not rep.gram_ok
    # every diagonal entry of a +-1 Gram is n, so (s, t) = (n, 0) measures the rest
    assert rep.max_offdiag_gram == naive_gram_deviation(signs, 1252, 0) > 0


def _gram_case(case, small_matrices, matrix1252):
    """The +-1 matrix of one Gram oracle case."""
    small = {f"n{n}": signs for n, signs, _ in small_matrices}
    if case in small:
        return small[case]
    if case == "row2-periodic":  # row 2 proposes d = 1, which no other row keeps
        signs = random_signs(56, 19)
        signs[2] = 1
        return signs
    signs = matrix1252.signs()
    if case == "n1252-flip":
        signs = signs.copy()
        signs[40, 700] *= -1
    elif case == "n1252-orbit-flip":
        signs = orbit_flip(signs, 16, 5)
    return signs


_GRAM_CASES = [
    ("n8", None, 0), ("n12", None, 0), ("n24", 8, 0), ("n56", 8, 0), ("n1252", 36, 0),
    ("n1252-flip", None, None), ("n1252-orbit-flip", 36, 4), ("row2-periodic", None, None)]


# orbit_rows counts the rows of a verified block shift, None when no shift is
# verified and every row is its own orbit.  Each case also runs at panel
# height 8, where the 36 orbit rows at order 1252 span five panels.
@pytest.mark.parametrize("case, orbit_rows, want, b", [
    pytest.param(*case, b, id="-".join(map(str, case)) + ("-b8" if b == 8 else ""))
    for b in (hadamard._PANEL, 8) for case in _GRAM_CASES])
def test_gram_deviation_and_gate0_match_the_dense_oracle(
        monkeypatch, small_matrices, matrix1252, case, orbit_rows, want, b):
    monkeypatch.setattr(hadamard, "_PANEL", b)
    signs = _gram_case(case, small_matrices, matrix1252)
    n = len(signs)
    oracle = naive_gram_deviation(signs, n, 0)
    assert oracle == want if want is not None else oracle > 0
    d = hadamard._block_shift(signs)
    rows = hadamard._orbit_rows(n, d)
    if orbit_rows is None:
        assert d == 0 and np.array_equal(rows, np.arange(n))
    else:
        assert len(rows) == orbit_rows
    if case == "row2-periodic":  # refused by the check, not by the proposal
        assert hadamard._period(signs[2, 3:29]) == hadamard._period(signs[2, 30:]) == 1
    # the orbit rows, every row (d = 0), and the public call, which verifies d
    deviation = hadamard._deviation
    assert (deviation(signs, n, 0, d) == deviation(signs, n, 0, 0) == gram_deviation(signs, n, 0)
            == oracle)
    if n < 100:  # t != 0 on both paths
        for s, t in ((n + 2, -2), (n - 2, 2), (0, n)):
            want_st = naive_gram_deviation(signs, s, t)
            assert (deviation(signs, s, t, d) == deviation(signs, s, t, 0)
                    == gram_deviation(signs, s, t) == want_st), (s, t)
    # Gate0 hands its Gram the same shift and the orbit rows it gathered
    # (copied here: the skew check then adds the orbit columns into them),
    # and none when d = 0, where the Gram reads every row in panels
    seen = []
    monkeypatch.setattr(hadamard, "_deviation",
                        lambda g, s, t, d, reps=None: seen.append((d, reps if reps is None
                                                                   else reps.copy()))
                        or deviation(g, s, t, d, reps))
    rep = sh.gate0_verify(sh.PmMatrix.from_signs(signs))
    assert len(seen) == 1 and seen[0][0] == d
    assert np.array_equal(seen[0][1], signs[rows]) if d else seen[0][1] is None
    wide = signs.astype(np.int64)
    skew_ok = np.array_equal(wide + wide.T, 2 * np.eye(n, dtype=np.int64))
    assert (rep.gram_ok, rep.skew_ok, rep.max_offdiag_gram) == (oracle == 0, skew_ok, oracle)


def test_block_shift_compares_in_row_panels_decide_every_single_flip(monkeypatch):
    # panels of 3 rows split every run of the order-24 instance, and the
    # shift's verdict on each single flip is still the dense check's
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(11, 1), 2, [0], [0])
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1).signs()
    n, q = len(h), partition.tables.q
    monkeypatch.setattr(hadamard, "_SHIFT_ENTRIES", 3 * (q - 1))
    sigma = autgroup._bordered(autgroup._scaled(q, 2, 1), q)
    assert hadamard._keeps_block_shift(h, 2)
    for i in range(n):
        for j in range(n):
            signs = h.copy()
            signs[i, j] *= -1
            assert hadamard._keeps_block_shift(signs, 2) == \
                sh.verify_automorphism(sh.PmMatrix(signs), sigma), (i, j)


@pytest.mark.parametrize("d", [2, 2038])
def test_block_shift_check_at_order_4080_allocates_below_a_tenth_n_squared_bytes(instance4080,
                                                                                  d):
    # each slice compare reads at most _SHIFT_ENTRIES entries, so no (v - 1 - d)
    # square of bools is formed; d = q - 1 is the identity, every row compared
    signs = instance4080[1]
    kept, peak = traced_peak(lambda: hadamard._keeps_block_shift(signs, d))
    assert kept and peak <= 0.1 * len(signs) ** 2


@pytest.mark.parametrize("p, e, N, i0, i1", SMALL_CONFIGS[2:], ids=["24", "56"])
def test_every_single_flip_is_decided_exactly(p, e, N, i0, i1):
    # a flip keeps the block shift by N = 2 only at a pair of the four fixed
    # indices 0, 1, 2 and v + 2, whose orbit is the pair alone; every other
    # flip, in row 2 or elsewhere, is refused and decided on every row.  The
    # audit's multiplier x -> g^N x is that shift: its slice compares give
    # the dense check's verdict on its bordered permutation.
    _, partition, pair, _ = sh.find_valid_generator(sh.FieldConfig(p, e), N, i0, i1)
    h = sh.build_bordered_from_blocks(pair.group, pair.d0, pair.d1).signs()
    n, q = len(h), partition.tables.q
    sigma = autgroup._bordered(autgroup._scaled(q, N, 1), q)
    fixed = {0, 1, 2, q + 2}
    for i in range(n):
        for j in range(n):
            signs = h.copy()
            signs[i, j] *= -1
            kept = i in fixed and j in fixed
            dense = sh.verify_automorphism(sh.PmMatrix(signs), sigma)
            assert hadamard._keeps_block_shift(signs, N) == dense == kept, (i, j)
            d = hadamard._block_shift(signs)
            assert d == (N if kept else 0), (i, j)
            assert len(hadamard._orbit_rows(n, d)) == (8 if kept else n), (i, j)
            oracle = naive_gram_deviation(signs, n, 0)
            rep = sh.gate0_verify(sh.PmMatrix.from_signs(signs))
            assert (rep.max_offdiag_gram, rep.skew_ok) == (oracle, False), (i, j)
            assert gram_deviation(signs, n, 0) == oracle, (i, j)


def _counted_panels(monkeypatch):
    """A list that gains the row count of each call of the every-column panel
    product, ``hadamard._panel_deviation``."""
    calls, inner = [], hadamard._panel_deviation
    monkeypatch.setattr(hadamard, "_panel_deviation",
                        lambda x, s, t, rows: calls.append(len(rows)) or inner(x, s, t, rows))
    return calls


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
def test_orbit_gram_by_the_transform_matches_the_dense_oracle(
        monkeypatch, small_matrices, matrix1252, dtype):
    # every instance whose block shift is verified (orders 24, 56 and 1252;
    # at 8 and 12 every row is its own orbit), and an orbit flip of each,
    # which the shift keeps and which deviates; none reaches the panels
    panels = _counted_panels(monkeypatch)
    shifted = []
    for signs in [signs for _, signs, _ in small_matrices] + [matrix1252.signs()]:
        n, d = len(signs), hadamard._block_shift(signs)
        if not d:
            continue
        assert hadamard._orbit_field(n, d, n) is not None
        shifted.append(n)
        flipped = orbit_flip(signs, d, 5)
        assert hadamard._block_shift(flipped.astype(dtype)) == d
        assert naive_gram_deviation(flipped, n, 0) > 0
        for x in (signs, flipped):
            for s, t in ((n, 0), (n - 3, 1), (5, -2), (0, 0)):
                want = naive_gram_deviation(x, s, t)
                assert _public_gram(x.astype(dtype), s, t) == want, (n, s, t)
    assert shifted == [24, 56, 1252] and panels == []


@pytest.mark.parametrize("f", [1, 2, 3, 39, 1019, 4095])
def test_transform_field_is_the_least_prime_with_an_element_of_order_f(f):
    def prime(q):
        return q > 1 and all(q % k for k in range(2, math.isqrt(q) + 1))

    k = max(f, 32)  # the inner dimension of the longest product
    for bound in (1, 2504, 32768):
        p, z = hadamard._transform_field(f, bound, k)
        assert prime(p) and (p - 1) % f == 0 and p > 2 * bound
        assert not [q for q in range(2 * bound + 1, p) if (q - 1) % f == 0 and prime(q)]
        assert pow(z, f, p) == 1 and all(pow(z, e, p) != 1 for e in range(1, f))
        assert k * (p - 1) ** 2 + p <= 2 ** 53
    # every prime above 2^27 breaks the rule at k >= 1
    assert hadamard._transform_field(f, 2 ** 26, k) is None


@pytest.mark.parametrize("f", [1, 2, 3, 5, 13, 39, 1019])
def test_power_panels_stack_to_w_and_the_inverse_undoes_the_transform(f):
    # panel heights b above f, equal to it (f = b = 1) and not dividing it;
    # a b-row buffer takes each panel in turn, an f-row one keeps all of W
    p, z = hadamard._transform_field(f, 1000, f)
    powers, want = hadamard._powers(z, p, f), naive_power_matrix(f, p, z)
    inverse = hadamard._inverse_powers(powers, p)
    assert inverse.tolist() == [pow(f, -1, p) * pow(z, -e, p) % p for e in range(f)]
    y = np.random.default_rng(f).integers(0, p, size=(f, 3)).astype(np.float64)
    for b in (1, 8, hadamard._PANEL):
        index = hadamard._exponents(f, b)
        first = index.copy()
        w = np.empty((min(b, f), f))
        panels = [(lo, panel.copy()) for lo, panel in hadamard._power_panels(powers, index, w)]
        assert [lo for lo, _ in panels] == list(range(0, f, min(b, f))), b
        assert np.array_equal(np.vstack([panel for _, panel in panels]), want), b
        assert np.array_equal(index, first), b  # moved back for the next transform
        kept = np.empty((f, f))
        assert len(list(hadamard._power_panels(powers, index, kept))) == len(panels)
        assert np.array_equal(kept, want), b
        forward = hadamard._reduce(hadamard._transform(powers, y, np.empty_like(y), index, w), p)
        assert np.array_equal(forward, want @ y % p), b
        back = hadamard._transform(inverse, forward, np.empty_like(y), index, w)
        assert np.array_equal(hadamard._reduce(back, p), y), b


@pytest.mark.parametrize("flip", [False, True], ids=["n1252", "n1252-orbit-flip"])
def test_the_gram_and_the_product_are_one_correlation(matrix1252, flip):
    # the Gram's columns at the orbit rows are x q for q = x[rows]^T, the
    # product along axis 1: the largest |x q - nI| there is the deviation,
    # 0 on H and above 0 on an orbit flip, which the shift still keeps
    x = orbit_flip(matrix1252.signs(), 16, 5) if flip else matrix1252.signs()
    m = sh.PmMatrix(x)
    n, rows = m.n, hadamard._orbit_rows(m.n, m.block_shift())
    assert m.block_shift() == 16 and rows.size == 36
    gram = hadamard._product(m, x[rows].T, 1)
    assert isinstance(m._product, hadamard._OrbitCorrelation)
    gram[rows, np.arange(rows.size)] -= n
    want = naive_gram_deviation(x, n, 0)
    assert int(np.abs(gram).max()) == gram_deviation(x, n, 0) == want
    assert (want > 0) == flip


def test_a_gram_forms_no_full_w(monkeypatch, matrix1252):
    # the Gram builds a correlation of its own, which multiplies W's panels
    # and forms no W, and leaves the matrix without a product
    built, correlation = [], hadamard._OrbitCorrelation
    monkeypatch.setattr(hadamard, "_OrbitCorrelation",
                        lambda *a: built.append(correlation(*a)) or built[-1])
    for run in (lambda m: gram_deviation(m.signs(), m.n, 0), sh.gate0_verify):
        m = sh.PmMatrix(matrix1252.signs())
        built.clear()
        run(m)
        assert len(built) == 1 and built[0].w is None and m._product is None


def test_orbit_rows_at_1252_convert_no_column_panel(monkeypatch, matrix1252):
    # Gate0, the GF(3) rank certificate and the public Gram form the Gram
    # rows of the 36 orbit rows from those rows alone: no _PANEL panel of H
    # is converted and no product with n rows is formed.  Every-row input
    # (d = 0), and a bound that breaks the 2^53 rule (entries of 97), take
    # the panels.
    panels = _counted_panels(monkeypatch)
    signs = matrix1252.signs()
    assert sh.gate0_verify(matrix1252).passed
    assert sh.rank_gfp(signs, 3).rank == 1252
    assert gram_deviation(signs, 1252, 0) == 0
    assert panels == []
    assert hadamard._deviation(signs, 1252, 0, 0) == 0
    assert panels == [1252]
    assert gram_deviation(97 * signs.astype(np.int64), 97**2 * 1252, 0) == 0
    assert panels == [1252, 36]


def test_gram_rejects_orders_beyond_exact_float32():
    # a read-only broadcast int8 view stands in for the 2^24 x 2^24 signs,
    # which must never be asked for (a float32 copy would take 2^50 bytes):
    # the guard refuses first
    n = 1 << 24
    m = sh.PmMatrix(np.broadcast_to(np.ones(1, dtype=np.int8), (n, n)))
    m.signs = lambda: pytest.fail("the dense signs were requested")
    with pytest.raises(ValueError, match="2\\^24"):
        sh.gate0_verify(m)


@pytest.mark.parametrize("case", ["n8", "n12", "n1252", "n1252-flip"])
def test_gate0_reads_the_int8_signs_alone(matrix8, matrix12, matrix1252, case):
    # on the orbit rows or, after a flip, on every row, the int8 signs
    # give the exact deviation
    signs = {"n8": matrix8, "n12": matrix12, "n1252": matrix1252}[case[:5]].signs()
    if case == "n1252-flip":
        signs = signs.copy()
        signs[40, 700] *= -1
    m = sh.PmMatrix.from_signs(signs)
    rep = sh.gate0_verify(m)
    assert rep.passed == (case != "n1252-flip")
    assert rep.max_offdiag_gram == naive_gram_deviation(signs, len(signs), 0)


def test_gate0_and_the_rank_certificate_at_order_4080_allocate_below_half_n_squared_bytes(
        instance4080, monkeypatch):
    # each forms the 8 orbit rows' Gram by the transform over Z_1019, in
    # panels of _PANEL rows of the transform matrix (a quarter of n^2 bytes
    # of exponents and entries at this order), and keeps no float copy of
    # the matrix
    h = sh.PmMatrix(instance4080[1])
    n = h.n
    d = hadamard._block_shift(h.signs())  # not kept by h: Gate0 verifies it under the trace
    assert n == 4080 and d == 2 and len(hadamard._orbit_rows(n, d)) == 8
    passed, peak = traced_peak(lambda: sh.gate0_verify(h).passed)
    assert passed and peak <= 0.5 * n ** 2
    # 3 divides n = 4080, so GF(3) eliminates; GF(7) is certified
    monkeypatch.setattr(ranks, "_eliminate", lambda *args: pytest.fail("eliminated"))
    rank, peak = traced_peak(lambda: sh.rank_gfp(h.signs(), 7).rank)
    assert rank == n and peak <= 0.5 * n ** 2


def test_gate0_never_forms_the_gram(matrix1252):
    # Gate0 holds less than one n x n float32 array at its peak: the Gram
    # is decided on the 36 orbit rows
    assert len(hadamard._orbit_rows(1252, hadamard._block_shift(matrix1252.signs()))) == 36
    passed, peak = traced_peak(lambda: sh.gate0_verify(sh.PmMatrix(matrix1252.signs())).passed)
    assert passed and peak < 1252 * 1252 * 4


@pytest.mark.parametrize("k", [0, 1, 300])
def test_panel_product_of_a_row_slice_matches_the_int64_oracle(matrix1252, k):
    # x[k:] is (n - k) x n: x q has n - k rows and x^T q n, whatever k
    x, n, big = matrix1252.signs(), matrix1252.n, hadamard._QMAX
    rng = np.random.default_rng(k)
    q = np.stack([np.full(n, big), np.full(n, -big), rng.integers(-big, big + 1, n)], 1)
    wide = x[k:].astype(np.int64)
    got = hadamard._panel_product(x[k:], q, 1)
    assert got.dtype == np.float32 and np.array_equal(got, wide @ q)
    assert np.array_equal(hadamard._panel_product(x[k:], q[k:], 0), wide.T @ q[k:])
    sparse = q.copy()
    sparse[:k] = 0  # the rows below k are the only ones converted
    assert np.array_equal(hadamard._panel_product(x, sparse, 0), wide.T @ q[k:])


def test_gate0_on_a_flipped_4080_matrix_gathers_no_n_by_n_array(instance4080):
    # every row is its own orbit: the skew check walks H's rows in panels,
    # where two n x n int8 gathers took 2 n^2 bytes
    signs = instance4080[1].copy()
    signs[40, 700] *= -1
    rep, peak = traced_peak(lambda: sh.gate0_verify(sh.PmMatrix(signs)))
    assert rep == sh.Gate0Report(n=4080, gram_ok=False, skew_ok=False, max_offdiag_gram=2)
    assert peak < 1.25 * 4080 ** 2, peak / 4080 ** 2


def test_gate0_on_the_panels_never_forms_the_gram(matrix1252):
    # a flip breaks the block shift, so every row is its own orbit and the
    # Gram is decided panel by panel
    signs = matrix1252.signs().copy()
    signs[40, 700] *= -1
    assert hadamard._block_shift(signs) == 0
    passed, peak = traced_peak(lambda: sh.gate0_verify(sh.PmMatrix(signs)).passed)
    assert not passed and peak < 1252 * 1252 * 4


def test_gate0_skew_verdict(matrix8, tmp_path, capsys):
    # each case fails H + H^T = 2I; the Gram verdict is decided on its own
    negated = sh.PmMatrix.from_signs(-matrix8.signs())  # the Gram holds, the diagonal is -1
    sylvester = sh.PmMatrix.from_signs(np.array([[1, 1], [1, -1]]))  # Hadamard, symmetric
    signs = matrix8.signs().copy()
    signs[5, 3] = signs[3, 5]  # one off-diagonal pair made symmetric
    paired = sh.PmMatrix.from_signs(signs)
    for m, gram_ok in ((negated, True), (sylvester, True), (paired, False)):
        rep = sh.gate0_verify(m)
        assert (rep.gram_ok, rep.skew_ok, rep.passed) == (gram_ok, False, False)
    path = tmp_path / "negated.txt"
    path.write_bytes(sh.to_matrix_text(negated))
    assert main(["verify", "gate0", str(path)]) == 2
    assert capsys.readouterr().out == \
        "GATE0 FAIL n=8 gram_ok=True skew_ok=False max_offdiag_gram=0\n"


def test_normalize_core_tournament_desk(matrix8):
    m01 = sh.normalize_core_tournament(matrix8)
    assert m01.dtype == np.uint8 and m01.shape == (7, 7)
    assert np.all(np.diagonal(m01) == 0)
    j = np.ones((7, 7), dtype=int)
    assert np.array_equal(m01 + m01.T, j - np.eye(7, dtype=int))
    # our bordered assembly already has an all-ones first row, so the core
    # is read from H with no sign change
    assert np.array_equal(m01, (1 - matrix8.signs()[1:, 1:]) // 2)


def test_normalize_none_trivial_normalization(matrix8, matrix12):
    # E H E passes Gate0 for any +-1 diagonal E and normalizes to the same core
    rng = np.random.default_rng(12)
    for h in (matrix8, matrix12):
        core = sh.normalize_core_tournament(h)
        for _ in range(4):
            e = rng.choice(np.array([-1, 1], dtype=np.int8), size=h.n)
            m = sh.PmMatrix.from_signs(e[:, None] * h.signs() * e[None, :])
            assert np.array_equal(sh.normalize_core_tournament(m), core)


def test_normalize_rejects_non_hadamard():
    with pytest.raises(ValueError):
        sh.normalize_core_tournament(sh.PmMatrix.from_signs(np.ones((3, 3), dtype=np.int8)))


def test_normalize_runs_its_own_gate0_and_rejects_a_failed_matrix(matrix8, monkeypatch):
    calls, inner = [], sh.hadamard.gate0_verify
    monkeypatch.setattr(sh.hadamard, "gate0_verify", lambda m: calls.append(m) or inner(m))
    assert sh.normalize_core_tournament(matrix8).shape == (7, 7) and calls == [matrix8]
    gram = matrix8.signs().copy()
    gram[0, 3] *= -1  # H H^T = nI fails
    for failed in (gram, -matrix8.signs()):  # -H keeps H H^T = nI, and H + H^T = -2I
        with pytest.raises(ValueError, match="fails the defining identities"):
            sh.normalize_core_tournament(sh.PmMatrix(failed))


def test_matrix_text_golden():
    m = sh.PmMatrix.from_signs(np.array([[1, 1], [-1, 1]], dtype=np.int8))
    assert sh.to_matrix_text(m) == b"2\n++\n-+\n"


def test_matrix_text_round_trip(matrix8, matrix12):
    for m in (matrix8, matrix12):
        assert sh.parse_matrix_text(sh.to_matrix_text(m)) == m


def _parse_outcome(parse, data):
    """The parsed matrix, or the (line, column, message) of the rejection."""
    try:
        return parse(data)
    except MatrixFormatError as exc:
        return exc.line, exc.column, str(exc)


@pytest.mark.parametrize("data,line,column", [
    (b"2\n++\n-+", 3, 0),          # missing trailing newline
    (b"x\n++\n-+\n", 1, 0),        # bad header
    (b"0\n", 1, 0),                # non-positive order
    (b"2\n++\n", 2, 0),            # wrong row count
    (b"2\n+++\n-+\n", 2, 3),       # row too long
    (b"2\n++\n-+ \n", 3, 3),       # trailing whitespace
    (b"2\n+*\n-+\n", 2, 2),        # invalid character
    (b"2\n++\r\n-+\n", 2, 3),      # CR is rejected
    (b" 2\n++\n-+\n", 1, 0),       # the header is exactly [1-9][0-9]*
    (b"+2\n++\n-+\n", 1, 0),
    (b"02\n++\n-+\n", 1, 0),
    (b"2 \n++\n-+\n", 1, 0),
    (b"0_2\n++\n-+\n", 1, 0),
    (b"", 1, 0),
    (b"\n", 1, 0),
    (b"3\n+++\n--\n+x+\n", 3, 3),   # a short row before a bad character
    (b"3\n+x+\n--\n+++\n", 2, 2),   # a bad character before a short row
    (b"3\n+x+-\n+++\n+++\n", 2, 4),  # a long row with a bad character
    (b"3\n+++\n+++\n+++-\n", 4, 4),  # the last row too long
    (b"1\n\n", 2, 1),               # an empty row
    (b"2\n++\n-,\n", 3, 2),         # ',' (sign 0) in the last column of the last row
    (b"3\n+++\n+++\n++,\n", 4, 3),
    (b"12345678901234567890\n+\n", 2, 0),
])
def test_matrix_text_parse_errors(data, line, column):
    with pytest.raises(MatrixFormatError) as exc:
        sh.parse_matrix_text(data)
    assert exc.value.line == line
    if column:
        assert exc.value.column == column
    assert _parse_outcome(naive_parse_matrix_text, data) == \
        (exc.value.line, exc.value.column, str(exc.value))


# Deterministic examples and no example database, so every run checks the
# same inputs.
_property = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_pm_matrices = st.integers(1, 12).flatmap(
    lambda n: arrays(np.int8, (n, n), elements=st.sampled_from([-1, 1])))


@_property
@given(_pm_matrices)
def test_matrix_text_round_trip_property(signs):
    m = sh.PmMatrix.from_signs(signs)
    assert sh.parse_matrix_text(sh.to_matrix_text(m)) == m


@_property
@given(_pm_matrices, st.data())
def test_matrix_text_single_byte_mutation_is_rejected_or_canonical(signs, data):
    text = sh.to_matrix_text(sh.PmMatrix.from_signs(signs))
    pos = data.draw(st.integers(0, len(text) - 1))
    mutated = text[:pos] + bytes([data.draw(st.integers(0, 255))]) + text[pos + 1:]
    try:
        parsed = sh.parse_matrix_text(mutated)
    except MatrixFormatError:
        return
    assert sh.to_matrix_text(parsed) == mutated


@_property
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.data())
def test_matrix_text_parser_agrees_with_row_loop_oracle(n, seed, data):
    # one byte replaced, deleted or inserted, or one line deleted or
    # duplicated: both parsers accept the same matrix, or reject at the same
    # place and with the same message
    text = sh.to_matrix_text(sh.PmMatrix.from_signs(random_signs(n, seed)))
    lines = text.split(b"\n")[:-1]
    kind = data.draw(st.sampled_from(["byte", "delete", "duplicate"]))
    if kind == "byte":
        mutated = mutate_one_byte(text, data.draw)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines = lines[:i] + lines[i + 1:] if kind == "delete" else \
            lines[:i] + [lines[i]] + lines[i:]
        mutated = b"".join(line + b"\n" for line in lines)
    outcome = _parse_outcome(sh.parse_matrix_text, mutated)
    assert outcome == _parse_outcome(naive_parse_matrix_text, mutated)
    if kind != "byte":  # the row count no longer matches the header
        assert isinstance(outcome, tuple)


def test_canonical_parse_never_calls_the_error_locator(monkeypatch, matrix1252):
    # canonical text is accepted by the whole-array checks alone; the row
    # scan runs only to place the error of text they refuse
    def refuse(data):
        raise AssertionError("the error locator ran on canonical text")

    monkeypatch.setattr(hadamard, "_first_format_error", refuse)
    for m in [matrix1252, *(sh.PmMatrix.from_signs(random_signs(n, n)) for n in (1, 2, 7, 130))]:
        assert sh.parse_matrix_text(sh.to_matrix_text(m)) == m
    with pytest.raises(AssertionError, match="error locator"):
        sh.parse_matrix_text(b"2\n+,\n-+\n")


def test_matrix_text_header_beyond_int_digit_limit():
    # the order is compared with the row count as text; int() would refuse
    # a string of more than 4300 digits with a plain ValueError
    with pytest.raises(MatrixFormatError, match="found 1 ") as exc:
        sh.parse_matrix_text(b"9" * 5000 + b"\n+\n")
    assert exc.value.line == 2
