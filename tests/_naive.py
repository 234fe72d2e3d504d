"""Brute-force reference implementations, independent of the library paths.

Everything here is deliberately slow and literal: autocorrelation as the
written-out indicator sum, Gram matrices as integer dot products, ranks by
textbook elimination on Python lists.  Tests freeze expected values computed
by these oracles and compare the production implementations against them.
"""

from __future__ import annotations


def cyclic_add(n):
    """Index addition for the cyclic group of order n."""
    return lambda x, y: (x + y) % n


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


def naive_enc_add(p, e, x, y):
    """Field addition of two encodings, coefficient by coefficient."""
    out, pw = 0, 1
    for _ in range(e):
        out += ((x + y) % p) * pw
        x //= p
        y //= p
        pw *= p
    return out


def naive_compose_affine(tables, m1, m2):
    """m1 after m2: x -> u1*(u2*x + a2) + a1."""
    from skewhad.autgroup import AffineMap

    return AffineMap(u=tables.mul(m1.u, m2.u),
                     a=naive_enc_add(tables.p, tables.e, tables.mul(m1.u, m2.a), m1.a))


def naive_exhaustive_audit(h, partition):
    """Dense check of every map x -> u*x + a, u in class 0, one at a time.

    Returns ``(automorphisms, maps checked)``.
    """
    from skewhad.autgroup import AffineMap, induced_permutation, verify_automorphism

    tables = partition.tables
    ok = total = 0
    for k in range(partition.f):
        u = tables.pow_g(partition.N * k)
        for a in range(tables.q):
            total += 1
            ok += verify_automorphism(h, induced_permutation(tables, AffineMap(u=u, a=a)))
    return ok, total


def naive_closure_samples(h, partition, samples, seed=0, induced=None):
    """How many closure samples pass a dense check, drawn as the audit draws them.

    Each sample is the product s1[s2] of two maps drawn from
    ``numpy.random.default_rng(seed)`` (a multiplier power, then a
    translation, for s1 and then for s2), induced by ``induced`` (default
    :func:`skewhad.autgroup.induced_permutation`); it passes when
    H[sigma(i), sigma(j)] == H[i, j] for all i, j.
    """
    import numpy as np

    from skewhad.autgroup import AffineMap, induced_permutation

    induced = induced or induced_permutation
    tables, signs = partition.tables, h.signs()
    rng = np.random.default_rng(seed)

    def draw():
        u = tables.pow_g(partition.N * int(rng.integers(partition.f)))
        return induced(tables, AffineMap(u=u, a=int(rng.integers(tables.q))))

    ok = 0
    for _ in range(samples):
        s1 = draw()
        sigma = s1[draw()]
        ok += bool(np.array_equal(signs[np.ix_(sigma, sigma)], signs))
    return ok
