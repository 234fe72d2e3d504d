from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import skewhad as sh
from skewhad.cli import main
from skewhad import hadamard
from skewhad.hadamard import MatrixFormatError, gram_deviation

from _naive import (naive_developed, naive_gram, naive_parse_matrix_text, naive_reversed_type2,
                    naive_to_matrix_text)
from conftest import (SMALL_FIELDS, desk_group, field_group, mutate_one_byte, random_signs,
                      subset_of_encodings)


def sum_developed(g, d):
    """Type-2 development M[i, j] = s_D(g_i + g_j)."""
    return sh.indicator_signs(d)[g.sum_index_table()]


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
    _assert_read_only_int8(matrix8)  # assemble_bordered


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_to_matrix_text_matches_row_writer(n):
    signs = random_signs(n, seed=n)
    assert sh.to_matrix_text(sh.PmMatrix.from_signs(signs)) == naive_to_matrix_text(signs)


def test_to_matrix_text_matches_row_writer_1252(matrix1252):
    assert sh.to_matrix_text(matrix1252) == naive_to_matrix_text(matrix1252.signs())


def test_from_signs_rejects_bad_input():
    with pytest.raises(ValueError):
        sh.PmMatrix.from_signs(np.array([[1, 2], [1, 1]]))
    with pytest.raises(ValueError):
        sh.PmMatrix.from_signs(np.ones((2, 3)))


def test_type1_frozen_z3():
    g = desk_group(3)  # GF(3) in discrete-log order is Z_3 in its own order
    d = sh.subset_from_indices(g, [1])
    m = sh.type1_matrix(g, d)
    assert m.signs().tolist() == [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]


def test_type2_frozen_z3():
    g = desk_group(3)
    d = sh.subset_from_indices(g, [1])
    assert sum_developed(g, d).tolist() == [[1, -1, 1], [-1, 1, 1], [1, 1, -1]]


def test_developed_empty_block_is_all_ones():
    g = field_group(2, 2)[0]
    d = sh.subset_from_indices(g, [])
    assert np.all(sh.type1_matrix(g, d).signs() == 1)
    assert np.all(sum_developed(g, d) == 1)


def test_developed_match_naive_all_small_groups():
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        n = g.order
        rng = np.random.default_rng(n)
        members = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
        d = sh.subset_from_indices(g, members)
        assert sh.type1_matrix(g, d).signs().tolist() == \
            naive_developed(n, add, neg, members, "type1")
        assert sum_developed(g, d).tolist() == \
            naive_developed(n, add, neg, members, "type2")


def test_type1_row_sums_and_skewness():
    g = desk_group(7)
    d = subset_of_encodings(g, [1, 2, 4])  # the squares; -1 is not one
    m = sh.type1_matrix(g, d).signs()
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
        assert np.array_equal(cs, sh.type1_matrix(g, d).signs().T)


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


def test_type1_matrices_commute():
    # difference-developed matrices over one abelian group commute
    for p, e in SMALL_FIELDS:
        g, add, neg = field_group(p, e)
        n = g.order
        rng = np.random.default_rng(n + 100)
        d0 = sh.subset_from_indices(g, rng.choice(n, size=n // 2, replace=False))
        d1 = sh.subset_from_indices(g, rng.choice(n, size=n // 3, replace=False))
        a = sh.type1_matrix(g, d0).signs().astype(int)
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
        a = sh.type1_matrix(g, d).signs().astype(int)
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
    g3, g5 = desk_group(3), desk_group(5)
    a = sh.type1_matrix(g3, sh.subset_from_indices(g3, [1]))
    c = sh.type1_matrix(g5, sh.subset_from_indices(g5, [1, 2]))
    with pytest.raises(ValueError):
        sh.assemble_bordered(a, c)


def test_assemble_rejects_bad_row_sums():
    g = desk_group(5)
    a = sh.type1_matrix(g, sh.subset_from_indices(g, [1, 2]))
    bad = sh.type1_matrix(g, sh.subset_from_indices(g, [1]))  # row sums 3
    with pytest.raises(ValueError):
        sh.assemble_bordered(a, bad)


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
    # t = 0 packs two columns into one float when the deviations are small
    # enough (signs, with s = n or 5n); signs times 97 and t != 0 are not
    for x, s, t in ((signs, n, 0), (signs, 5 * n, 0), (signs, n, 1), (signs, 0, -3),
                    (97 * signs, 97**2 * n, 0)):
        assert gram_deviation(x.astype(np.float32), s, t) == _deviation_oracle(x, s, t, b), (s, t)
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
            assert gram_deviation(x.astype(np.float32), s, t) == 0
            for r, c in ((0, n - 2), (n - 2, 0), (n // 2, n // 2 + 1), (n - 2, n - 3)):
                bad = x.copy()
                bad[r, c] = flip(bad[r, c])
                want = _deviation_oracle(bad, s, t, b)
                assert gram_deviation(bad.astype(np.float32), s, t) == want > 0, (n, r, c)


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
    assert gram_deviation(m.float32_signs(), 0, n) == 0  # f f^T = nJ exactly
    assert gram_deviation(m.float32_signs(), n, 0) == (0 if n == 1 else n)
    rep = sh.gate0_verify(m)
    assert rep.gram_ok == (n == 1) and rep.max_offdiag_gram == (0 if n == 1 else n)


def test_gram_of_flipped_1252_matches_integer_product(matrix1252):
    signs = matrix1252.signs().copy()
    signs[3, 5] *= -1
    m = sh.PmMatrix.from_signs(signs)
    exact = signs.astype(np.int64) @ signs.T.astype(np.int64)  # numpy integer loop, no BLAS
    for s, t in ((1252, 0), (1254, -2), (1250, 2)):
        dev = exact - t
        dev[np.diag_indices(1252)] -= s
        assert gram_deviation(m.float32_signs(), s, t) == int(np.abs(dev).max()) > 0
    off = exact - 1252 * np.eye(1252, dtype=np.int64)
    rep = sh.gate0_verify(m)
    assert not rep.gram_ok
    assert rep.max_offdiag_gram == int(np.abs(off).max()) > 0


def test_gram_rejects_orders_beyond_exact_float32():
    # a read-only broadcast int8 view stands in for the 2^24 x 2^24 signs,
    # which must never be asked for (a float32 copy would take 2^50 bytes):
    # the guard refuses first
    n = 1 << 24
    m = sh.PmMatrix(np.broadcast_to(np.ones(1, dtype=np.int8), (n, n)))
    m.signs = lambda: pytest.fail("the dense signs were requested")
    m.float32_signs = lambda: pytest.fail("the float32 signs were requested")
    with pytest.raises(ValueError, match="2\\^24"):
        sh.gate0_verify(m)


def test_gate0_never_forms_the_gram(matrix1252):
    # with the float32 copy cached, Gate0 holds less than one n x n float32
    # array at its peak: the Gram is decided panel by panel
    m = sh.PmMatrix.from_signs(matrix1252.signs())
    m.float32_signs()
    tracemalloc.start()
    try:
        assert sh.gate0_verify(m).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1252 * 1252 * 4


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


def test_normalize_takes_a_passed_report_of_the_same_order(matrix8, matrix12, monkeypatch):
    report = sh.gate0_verify(matrix8)
    want = sh.normalize_core_tournament(matrix8)
    monkeypatch.setattr(sh.hadamard, "gate0_verify", lambda m: pytest.fail("Gate0 ran again"))
    assert np.array_equal(sh.normalize_core_tournament(matrix8, report), want)
    failed = sh.Gate0Report(n=8, gram_ok=False, skew_ok=True, max_offdiag_gram=4)
    with pytest.raises(ValueError):
        sh.normalize_core_tournament(matrix8, failed)
    with pytest.raises(ValueError):  # a passed report of another order
        sh.normalize_core_tournament(matrix12, report)


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


def test_matrix_text_header_beyond_int_digit_limit():
    # the order is compared with the row count as text; int() would refuse
    # a string of more than 4300 digits with a plain ValueError
    with pytest.raises(MatrixFormatError, match="found 1 ") as exc:
        sh.parse_matrix_text(b"9" * 5000 + b"\n+\n")
    assert exc.value.line == 2
