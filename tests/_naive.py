"""Brute-force reference implementations, independent of the library paths.

Everything here is deliberately slow and literal: autocorrelation as the
written-out indicator sum, Gram matrices as integer dot products, ranks by
textbook elimination on Python lists.  Tests freeze expected values computed
by these oracles and compare the production implementations against them.
"""

from __future__ import annotations


def field_index_add(p, e, encodings):
    """Index addition for a field-additive group with the given element order.

    ``encodings[i]`` is the base-p digit encoding of the i-th element; the
    sum is computed digit by digit in plain Python.
    """
    index_of = {enc: i for i, enc in enumerate(encodings)}

    def add(x, y):
        a, b, out, pw = int(encodings[x]), int(encodings[y]), 0, 1
        for _ in range(e):
            out += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return index_of[out]

    return add


def _digit_tables(p, e, encodings):
    """Base-p digits of each encoding, the place values, and encoding -> index."""
    import numpy as np

    enc = np.asarray(encodings, dtype=np.int64)
    pow_p = p ** np.arange(e, dtype=np.int64)
    index_of = np.empty(enc.size, dtype=np.int64)
    index_of[enc] = np.arange(enc.size)
    return (enc[:, None] // pow_p) % p, pow_p, index_of


def naive_diff_index_table(p, e, encodings):
    """T[i, j] = index of g_j - g_i, with the base-p digits of the two
    encodings subtracted mod p and re-encoded, one row at a time."""
    import numpy as np

    digits, pow_p, index_of = _digit_tables(p, e, encodings)
    return np.stack([index_of[((digits - row) % p) @ pow_p] for row in digits])


def naive_sum_index_table(p, e, encodings):
    """T[i, j] = index of g_i + g_j, digit by digit, one row at a time."""
    import numpy as np

    digits, pow_p, index_of = _digit_tables(p, e, encodings)
    return np.stack([index_of[((digits + row) % p) @ pow_p] for row in digits])


def naive_neg_perm(p, e, encodings):
    """Index of -g_i for every i, digit by digit."""
    digits, pow_p, index_of = _digit_tables(p, e, encodings)
    return index_of[((-digits) % p) @ pow_p]


def field_index_neg(p, e, encodings):
    """Index negation for a field-additive group with the given element
    order, digit by digit (see :func:`naive_neg_perm`)."""
    table = naive_neg_perm(p, e, encodings)
    return lambda x: int(table[x])


def naive_profile(p, e, encodings, members):
    """Autocorrelation at every shift from the digit differences of all
    ordered member pairs: P(w) = v - 4|D| + 4 #{(x, y) in D^2 : x - y = w}."""
    import numpy as np

    digits, pow_p, index_of = _digit_tables(p, e, encodings)
    v, members = len(index_of), np.asarray(members, dtype=np.int64)
    counts = np.zeros(v, dtype=np.int64)
    for x in members:
        diffs = index_of[((digits[x] - digits[members]) % p) @ pow_p]
        counts += np.bincount(diffs, minlength=v)
    return v - 4 * members.size + 4 * counts


def naive_autocorrelation(v, add, members, w):
    """Literal sum of s(x) * s(x + w) with s = -1 on members, +1 off."""
    mem = set(members)
    total = 0
    for x in range(v):
        sx = -1 if x in mem else 1
        sy = -1 if add(x, w) in mem else 1
        total += sx * sy
    return total


def naive_gram(signs):
    """All pairwise row inner products by direct integer dot product."""
    n = len(signs)
    rows = [[int(e) for e in row] for row in signs]
    return [[sum(rows[i][t] * rows[j][t] for t in range(n)) for j in range(n)]
            for i in range(n)]


_GRAM_EXTREMES = {}  # digest of f -> (min, max) on the diagonal of f f^T and off it


def naive_gram_deviation(f, s, t):
    """max |f f^T - s I - t J| over the dense Gram of every row pair, as int64
    dot products (numpy's integer loop, no BLAS, no panels, no orbits).

    The int64 Gram of each matrix (by its bytes, dtype and shape) is formed
    once, and the least and greatest entries on and off its diagonal are
    kept: the deviation for any (s, t) follows from them, as max |x - c|
    over a set is max(max - c, c - min).  So tests that ask again about the
    same matrix (an order-1252 product takes seconds) pay for it once.
    """
    import hashlib

    import numpy as np

    f = np.ascontiguousarray(f)
    key = (hashlib.sha256(f.tobytes()).digest(), f.dtype.str, f.shape)
    if key not in _GRAM_EXTREMES:
        x = f.astype(np.int64)
        gram = x @ x.T
        parts = (gram.diagonal(), gram[~np.eye(len(gram), dtype=bool)])
        _GRAM_EXTREMES[key] = [(int(v.min()), int(v.max())) for v in parts if v.size]
    # the diagonal, when there is one, comes first and is measured from s + t
    return max((max(hi - c, c - lo) for (lo, hi), c in zip(_GRAM_EXTREMES[key], (s + t, t))),
               default=0)


def naive_parse_matrix_text(data):
    """The matrix text format checked one row at a time, in file order.

    Each row is checked for its length and then for its characters before
    the next row is looked at; the header is checked digit by digit.
    """
    import numpy as np

    from skewhad.hadamard import MatrixFormatError, PmMatrix

    if not data.endswith(b"\n"):
        nlines = data.count(b"\n") + 1
        raise MatrixFormatError("missing trailing newline", line=max(nlines, 1))
    body = data[:-1].split(b"\n")
    header = body[0]
    if not header or header[0] == ord("0") or any(c not in b"0123456789" for c in header):
        raise MatrixFormatError("header is not a positive decimal order", line=1)
    n = int(header)
    if len(body) != n + 1:
        raise MatrixFormatError(
            f"expected {n} matrix rows, found {len(body) - 1}", line=len(body))
    rows = np.empty((n, n), dtype=np.int8)
    for i, raw in enumerate(body[1:], start=2):
        if len(raw) != n:
            raise MatrixFormatError(
                f"row has {len(raw)} characters, expected {n}", line=i,
                column=min(len(raw), n) + 1)
        arr = np.frombuffer(raw, dtype=np.uint8)
        bad = np.flatnonzero((arr != ord("+")) & (arr != ord("-")))
        if bad.size:
            col = int(bad[0]) + 1
            raise MatrixFormatError(
                f"invalid character {chr(arr[bad[0]])!r}", line=i, column=col)
        rows[i - 2] = np.where(arr == ord("+"), 1, -1)
    return PmMatrix.from_signs(rows)


def naive_to_matrix_text(signs):
    """The matrix text format written one row at a time, one character per
    entry."""
    lines = [str(len(signs))]
    lines.extend("".join("+" if int(e) > 0 else "-" for e in row) for row in signs)
    return ("\n".join(lines) + "\n").encode("ascii")


def naive_rank_gf2(matrix):
    """Gaussian elimination over GF(2) on lists of 0/1 ints."""
    rows = [[int(e) & 1 for e in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_rank_gfp(matrix, p):
    """Gaussian elimination over GF(p) on lists of ints."""
    rows = [[int(e) % p for e in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(a * inv) % p for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_developed(v, add, neg, members, kind):
    """Type-1 (difference) or type-2 (sum) developed +-1 matrix, elementwise."""
    mem = set(members)

    def s(idx):
        return -1 if idx in mem else 1

    out = []
    for i in range(v):
        row = []
        for j in range(v):
            if kind == "type1":
                row.append(s(add(j, neg(i))))
            else:
                row.append(s(add(i, j)))
        out.append(row)
    return out


def naive_reversed_type2(v, add, neg, members):
    """The type-2 (sum) development with its columns reversed by x <-> -x.

    Entry [i, j] is s_D(g_i + (-g_j)) = s_D(g_i - g_j): the C block of the
    bordered assembly, built the long way round.
    """
    sum_developed = naive_developed(v, add, neg, members, "type2")
    return [[row[neg(j)] for j in range(v)] for row in sum_developed]


def naive_bordered(v, add, neg, members0, members1):
    """The bordered array of order 2(v + 1), row by row: the two border
    rows, then [-1, -1, A, C] and [-1, +1, -C^T, A^T], with A the type-1
    development of D0 and C the reversed type-2 development of D1."""
    a = naive_developed(v, add, neg, members0, "type1")
    c = naive_reversed_type2(v, add, neg, members1)
    rows = [[1] * (2 * v + 2), [-1, 1] + [1] * v + [-1] * v]
    rows += [[-1, -1] + a[i] + c[i] for i in range(v)]
    rows += [[-1, 1] + [-c[j][i] for j in range(v)] + [a[j][i] for j in range(v)]
             for i in range(v)]
    return rows


def naive_prime_factors(n):
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod(a, b, modulus, p):
    """Schoolbook product of two coefficient lists (low first), reduced by
    the monic modulus."""
    e = len(modulus) - 1
    res = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    for d in range(2 * e - 2, e - 1, -1):
        c, res[d] = res[d], 0
        for i in range(e):
            res[d - e + i] = (res[d - e + i] - c * modulus[i]) % p
    return res[:e]


def naive_is_primitive(enc, p, e, modulus):
    """Whether the encoding has multiplicative order q - 1: x^(q-1) == 1 and
    x^((q-1)/r) != 1 for every prime r dividing q - 1, by polynomial powering."""
    q = p**e
    x = [(enc // p**i) % p for i in range(e)]
    one = [1] + [0] * (e - 1)

    def power(k):
        acc, b = one, x
        while k:
            if k & 1:
                acc = _poly_mulmod(acc, b, modulus, p)
            b = _poly_mulmod(b, b, modulus, p)
            k >>= 1
        return acc

    return (enc != 0 and power(q - 1) == one
            and all(power((q - 1) // r) != one for r in naive_prime_factors(q - 1)))


def naive_encode_coeffs(coeffs, p):
    """The encoding sum(c_i * p^i) of a coefficient list, low first."""
    return sum(int(c) * p**i for i, c in enumerate(coeffs))


def naive_antilog_walk(p, e, modulus):
    """(generator, antilog) by walking candidates in encoding order.

    Each candidate's powers are taken one multiplication at a time until
    they return to 1; the first walk that lasts q - 1 steps is the smallest
    primitive element, and its powers (as encodings) are the antilog table.
    The cost is the order of every candidate tried, so keep q small.
    """
    q = p**e
    one = [1] + [0] * (e - 1)
    for g in range(1, q):
        x = [(g // p**i) % p for i in range(e)]
        antilog, cur = [], one
        for k in range(q - 1):
            if k and cur == one:
                break
            antilog.append(naive_encode_coeffs(cur, p))
            cur = _poly_mulmod(cur, x, modulus, p)
        else:
            return g, antilog
    raise ValueError("no primitive element")


def naive_enc_add(p, e, x, y):
    """Field addition of two encodings, coefficient by coefficient."""
    out, pw = 0, 1
    for _ in range(e):
        out += ((x + y) % p) * pw
        x //= p
        y //= p
        pw *= p
    return out


def naive_field_mul(tables):
    """Multiplication of encodings in the field of ``tables``: schoolbook
    polynomial product reduced by its modulus, with no log table."""
    p, e = tables.p, tables.e

    def mul(x, y):
        a = [(x // p**i) % p for i in range(e)]
        b = [(y // p**i) % p for i in range(e)]
        return naive_encode_coeffs(_poly_mulmod(a, b, tables.modulus, p), p)

    return mul


def naive_affine_maps(tables):
    """``(enc, action)`` for the affine maps x -> u*x + a of the field.

    ``enc`` lists the encodings at block indices 0, 1, ..., q - 1: zero,
    then g^0, g^1, ... as schoolbook products by the generator.
    ``action(u, a)`` is the block action of x -> u*x + a for encodings u and
    a: index j goes to the index of u*enc[j] + a, the product by
    :func:`naive_field_mul` and the sum digit by digit, so no table of the
    library is read.
    """
    import numpy as np

    p, e, q = tables.p, tables.e, tables.q
    mul = naive_field_mul(tables)
    enc = [0, 1]
    while len(enc) < q:
        enc.append(mul(enc[-1], tables.generator))
    _, pow_p, index_of = _digit_tables(p, e, enc)
    scaled = {}  # u -> base-p digits of u*enc[j], one row per j

    def action(u, a):
        if u not in scaled:
            scaled[u] = (np.array([mul(u, x) for x in enc])[:, None] // pow_p) % p
        return index_of[((scaled[u] + (a // pow_p) % p) % p) @ pow_p]

    return enc, action


def naive_compose_affine(tables, m1, m2):
    """m1 after m2 for maps (u, a): x -> u1*(u2*x + a2) + a1."""
    mul = naive_field_mul(tables)
    (u1, a1), (u2, a2) = m1, m2
    return mul(u1, u2), naive_enc_add(tables.p, tables.e, mul(u1, a2), a1)


def naive_is_automorphism(signs, sigma):
    """Whether signs[sigma(i), sigma(j)] == signs[i, j] for all i, j: both
    gathers of the whole matrix, then one compare."""
    import numpy as np

    return bool(np.array_equal(signs[np.ix_(sigma, sigma)], signs))


def _is_automorphism(signs, pi):
    """Whether the bordered permutation that fixes both borders and acts as
    ``pi`` on each block keeps every entry of ``signs``."""
    import numpy as np

    q = len(pi)
    return naive_is_automorphism(signs, np.concatenate([[0, 1], 2 + pi, q + 2 + pi]))


def naive_exhaustive_audit(h, partition):
    """Dense check of every map x -> u*x + a, u in class 0, one at a time,
    each built by :func:`naive_affine_maps`.

    Returns ``(automorphisms, maps checked)``.
    """
    tables, signs = partition.tables, h.signs()
    q, f, n_cls = tables.q, partition.f, partition.N
    enc, action = naive_affine_maps(tables)
    ok = sum(_is_automorphism(signs, action(enc[1 + n_cls * k % (q - 1)], a))
             for k in range(f) for a in range(q))
    return ok, f * q


def naive_rarest_key_class_size(signs, q):
    """The size of the rarest class of block indices x < q by their key: the
    -1 counts, inside the borders, the first block and the second block, of
    the row and the column of x in each block, one line at a time."""
    from collections import Counter

    ranges = [(0, 2), (2, q + 2), (q + 2, 2 * q + 2)]

    def counts(line):
        return tuple(int((line[lo:hi] < 0).sum()) for lo, hi in ranges)

    keys = Counter(sum((counts(signs[b + x]) + counts(signs[:, b + x]) for b in (2, q + 2)), ())
                   for x in range(q))
    return min(keys.values())


def naive_generator_verdicts(h, partition):
    """Dense checks of the audit's generators, in the order of its lines:
    x -> g^N x, then x -> x + p^i for each basis coefficient i, each built
    by :func:`naive_affine_maps`."""
    tables, signs = partition.tables, h.signs()
    p, q = tables.p, tables.q
    enc, action = naive_affine_maps(tables)
    return [_is_automorphism(signs, action(enc[1 + partition.N % (q - 1)], 0)),
            *(_is_automorphism(signs, action(1, p**i)) for i in range(tables.e))]


def naive_closure_samples(h, partition, samples, seed=0):
    """How many closure samples pass a dense check, drawn as the audit draws them.

    Each sample is the product pi1[pi2] of the block actions of two maps
    drawn from ``numpy.random.default_rng(seed)`` (a multiplier power, then
    a translation encoding, for pi1 and then for pi2) and built by
    :func:`naive_affine_maps`; it passes when H[sigma(i), sigma(j)] ==
    H[i, j] for all i, j.
    """
    import numpy as np

    tables, signs = partition.tables, h.signs()
    q, f, n_cls = tables.q, partition.f, partition.N
    enc, action = naive_affine_maps(tables)
    rng = np.random.default_rng(seed)

    def draw():
        u = enc[1 + n_cls * int(rng.integers(f)) % (q - 1)]
        return action(u, int(rng.integers(q)))

    ok = 0
    for _ in range(samples):
        pi1 = draw()
        ok += _is_automorphism(signs, pi1[draw()])
    return ok


def naive_top_k_indices(y, k):
    """Indices of the k largest |y_i|, ties toward the smaller index, in
    ascending order: a stable sort of -|y| cut after k entries."""
    import numpy as np

    order = np.argsort(-np.abs(y), kind="stable")[:k]
    return np.sort(order)


def naive_h_transpose_q(signs, indices, qvalues):
    """H^T q for q = qvalues at indices, 0 elsewhere, as exact int64: the
    sum of qvalue times row ``index`` of the signs, record by record."""
    import numpy as np

    z = np.zeros(len(signs), dtype=np.int64)
    for i, q in zip(np.asarray(indices).tolist(), np.asarray(qvalues).tolist()):
        z += q * signs[i].astype(np.int64)
    return z


def naive_fixed_point_product(x, v):
    """(T, s, X): X = round(v_i 2^s) for each entry by its own Fraction
    (half to even), s = 46 - E for max|v| < 2^E, and T = x X summed in
    Python ints (numpy's object loop: no BLAS, no digits, no orbits)."""
    import math
    from fractions import Fraction

    import numpy as np

    s = 46 - math.frexp(max(abs(float(e)) for e in v))[1]
    xs = np.array([round(Fraction(float(e)) * Fraction(2) ** s) for e in v], dtype=object)
    return np.asarray(x).astype(object) @ xs, s, xs


def naive_power_matrix(f, p, z):
    """W[a, j] = z^(a j) mod p for a, j < f, each entry by its own modular
    power, as float64."""
    import numpy as np

    return np.array([[pow(z, a * j, p) for j in range(f)] for a in range(f)], dtype=np.float64)
