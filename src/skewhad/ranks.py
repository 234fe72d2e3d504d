"""Exact matrix rank over small prime fields.

A square matrix is first offered to a Gram certificate, which proves full
rank with no elimination.  Elimination runs only when the certificate
cannot decide, which for the matrices of this package means that p
divides the determinant.

**The certificate.**  Let c be the centered residues of x mod p (entries
already in [-p//2, p//2], such as +-1 and 0/1 matrices, are used as they
are).  If the integer Gram matrix c c^T equals s I + t J, then

    det(x)^2 = det(c)^2 = det(c c^T) = s^(m-1) (s + m t)   (mod p),

so when p divides neither s nor s + m t the rank is m.  A skew-Hadamard H
has H H^T = n I, so it is certified over every prime not dividing n.  Its
0/1 tournament core M of order m = n - 1 is doubly regular,
M M^T = (n/4) I + (n/4 - 1) J, so det(M)^2 = (n/4)^(n-2) ((n-2)/2)^2: at
n = 1252 that is 313^1250 * 625^2, certified over GF(2) and GF(3).  The
first two entries of Gram row 0, two dot products, give s and t, so a
matrix whose determinant p divides costs one pass for max|c| and no
matrix product.  Only when they promise a unit determinant is the rest of
row 0 checked, and then the full Gram formed, by one float32 BLAS product
that is exact when m max|c|^2 < 2^24, the integer-bound rule of
``hadamard.gram_matrix``; outside that bound the certificate declines.

**Elimination.**  GF(2) elimination runs on rows packed into Python
integers (XOR row reduction).  ``rank_gfp`` takes any supported prime, 2
included, through blocked, right-looking elimination with delayed modular
reduction, after Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages" (ACM TOMS, 2008).
Each step takes a panel of b columns:

* the panel is eliminated pivot by pivot (the pivot is the first nonzero
  entry in column order, so results are deterministic), recording the row
  swaps, the pivot inverses and the multipliers L;
* the swaps are applied to the trailing block, and the k pivot rows of it
  become U12 by forward substitution with L and the pivot scaling;
* the remaining rows are updated once by the float64 (BLAS) product
  ``T -= L21 @ U12`` and reduced once, by ``T -= p * floor(T / p)``.

The 2^53 rule keeps this exact: every entry is in [0, p) before a product,
so each partial sum of a b-term dot product is an integer of size at most
b (p - 1)^2 + p, which float64 holds exactly whatever order BLAS adds in.
The panel width is therefore derived from p as
``min(64, (2^53 - p) // (p - 1)^2)``, and the primes supported are those
for which even b = 1 holds the bound: p <= 94 906 249.  A larger p raises
ValueError before the primality test.

Both ranks take integer or boolean arrays only; any other dtype raises
ValueError rather than being truncated to integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import is_prime
from .hadamard import _FLOAT32_EXACT


@dataclass(frozen=True)
class RankReport:
    """Rank of one object over one prime field."""

    object: str
    field_char: int
    size: int
    rank: int

    def line(self) -> str:
        return f"{self.object} {self.field_char} {self.size} {self.rank}"


def _integer_matrix(x) -> np.ndarray:
    """``x`` as an array, refused with ValueError unless its dtype is integer or bool."""
    a = np.asarray(x)
    if a.dtype.kind not in "biu":
        raise ValueError(f"expected an integer or boolean matrix, got dtype {a.dtype}")
    return a


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p as int64, reduced in x's own dtype first when it is unsigned,
    so uint64 entries of 2^63 and above do not wrap."""
    if x.dtype.kind == "u":
        x = x % np.uint64(p)
    return x.astype(np.int64) % p


def _gram_certifies_full_rank(x: np.ndarray, p: int) -> bool:
    """True when the exact Gram identity of x proves full rank over GF(p).

    It declines (False) unless x is square and non-empty, its centered
    residues c satisfy m max|c|^2 < 2^24, and c c^T = s I + t J with p
    dividing neither s nor s + m t (see the module docstring).  The first
    two entries of Gram row 0 give s and t; the rest of row 0 is checked
    next, and the full Gram (:func:`_gram_is`) is formed only after both.
    """
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] == 0:
        return False
    m = x.shape[0]
    big = max(int(x.max()), -int(x.min()))
    if big > p // 2:
        x = _residues(x, p)
        x[x > p // 2] -= p
        big = max(int(x.max()), -int(x.min()))
    if m * big * big >= _FLOAT32_EXACT:
        return False
    head = x[:2].astype(np.int64)
    t = int(head[0] @ head[1]) if m > 1 else 0
    s = int(head[0] @ head[0]) - t
    if s % p == 0 or (s + m * t) % p == 0:
        return False
    f = x.astype(np.float32)
    row0 = f @ f[0]
    row0[0] -= s
    if np.any(row0 != t):
        return False
    return _gram_is(f, s, t)


def _gram_is(f: np.ndarray, s: int, t: int) -> bool:
    """Whether f f^T == s I + t J entry for entry, by one float32 product.

    The caller guarantees the product is exact (m max|f|^2 < 2^24).
    """
    gram = f @ f.T
    gram -= t
    gram.flat[::f.shape[0] + 1] -= s
    return not gram.any()


def _rows_as_ints(m01: np.ndarray) -> list[int]:
    packed = np.packbits(m01 & 1, axis=1, bitorder="little")
    w, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * w:(i + 1) * w], "little") for i in range(len(packed))]


def _eliminate_gf2(m01: np.ndarray) -> int:
    """Rank over GF(2) by bit-packed elimination.

    Each row is reduced against the pivot held at its lowest set column
    until it either vanishes or claims a new pivot column.
    """
    pivots: dict[int, int] = {}
    for row in _rows_as_ints(m01):
        while row:
            col = (row & -row).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            row ^= piv
    return len(pivots)


def rank_gf2(m01: np.ndarray, label: str = "matrix") -> RankReport:
    """Rank of a square integer matrix over GF(2), entries taken mod 2.

    The Gram certificate decides full rank first; otherwise the rank comes
    from bit-packed elimination.
    """
    m01 = _integer_matrix(m01)
    if m01.ndim != 2 or m01.shape[0] != m01.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m01.shape}")
    n = m01.shape[0]
    rank = n if _gram_certifies_full_rank(m01, 2) else _eliminate_gf2(m01)
    return RankReport(object=label, field_char=2, size=n, rank=rank)


_EXACT = 2**53  # float64 holds every integer of absolute value up to 2^53
_MAX_PRIME = 94_906_249  # the largest prime p with (p - 1)^2 + p <= 2^53


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce float64 integers of magnitude at most 2^53 - p into [0, p), in place.

    Below 2^53 the rounded quotient x / p never crosses an integer, so its
    floor is exact, and so are p * floor and the difference.
    """
    t = x / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _eliminate_panel(panel: np.ndarray, p: int):
    """Per-pivot elimination of one panel of at most b columns, in place.

    Reduction is delayed here too: a column is reduced only when the pivot
    search reaches it, and the pivot row only before it is scaled, so each
    entry takes fewer than b unreduced updates of size at most (p - 1)^2.

    Returns ``(swaps, inverses, mult)``: pivot t was swapped into row t from
    row ``swaps[t]``, scaled by ``inverses[t]``, and ``mult[i, t]`` times it
    was subtracted from row i > t.  Rows of ``mult`` move with their rows.
    """
    m, w = panel.shape
    mult = np.zeros((m, min(m, w)))
    swaps: list[int] = []
    inverses: list[int] = []
    for j in range(w):
        t = len(swaps)
        if t == m:
            break
        column = _reduce(panel[t:, j], p)
        nz = np.flatnonzero(column)
        if nz.size == 0:
            continue
        piv = t + int(nz[0])
        if piv != t:
            panel[[t, piv]] = panel[[piv, t]]
            mult[[t, piv]] = mult[[piv, t]]
        inv = pow(int(panel[t, j]), -1, p)
        swaps.append(piv)
        inverses.append(inv)
        pivot_row = _reduce(_reduce(panel[t, j + 1:], p) * inv, p)
        factors = panel[t + 1:, j]
        mult[t + 1:, t] = factors
        panel[t + 1:, j + 1:] -= factors[:, None] * pivot_row
    return swaps, inverses, mult[:, :len(swaps)]


def _check_field(p: int) -> None:
    """Raise ValueError unless p is a prime that :func:`rank_gfp` supports.

    The bound comes first, so a huge p never reaches the primality test.
    """
    if p > _MAX_PRIME:
        raise ValueError(f"p = {p} exceeds {_MAX_PRIME}, the largest prime for which "
                         f"exact float64 elimination holds")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _eliminate(x: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p) by blocked modular elimination."""
    a = _residues(x, p).astype(np.float64)
    nrows, ncols = a.shape
    b = min(64, (_EXACT - p) // (p - 1) ** 2)
    r = 0
    for c0 in range(0, ncols, b):
        if r == nrows:
            break
        c1 = min(c0 + b, ncols)
        swaps, inverses, mult = _eliminate_panel(a[r:, c0:c1].copy(), p)
        k = len(swaps)
        if k and c1 < ncols:
            for t, piv in enumerate(swaps):
                if piv != t:
                    a[[r + t, r + piv], c1:] = a[[r + piv, r + t], c1:]
            u12 = a[r:r + k, c1:]
            for t, inv in enumerate(inverses):
                if t:
                    u12[t] -= mult[t, :t] @ u12[:t]
                    _reduce(u12[t], p)
                u12[t] *= inv
                _reduce(u12[t], p)
            trailing = a[r + k:, c1:]
            trailing -= mult[k:] @ u12
            _reduce(trailing, p)
        r += k
    return r


def rank_gfp(x: np.ndarray, p: int, label: str = "matrix") -> RankReport:
    """Rank of an integer matrix over GF(p).

    Entries are taken mod p (so a +-1 matrix maps to its residues).  The
    Gram certificate decides full rank of a square matrix first; otherwise
    the rank comes from blocked modular elimination.  p must be a prime no
    larger than 94 906 249, the largest for which the elimination stays
    exact in float64 (see the module docstring); a larger p raises
    ValueError before any primality test, as does a composite p.
    """
    _check_field(p)
    x = _integer_matrix(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    rank = x.shape[0] if _gram_certifies_full_rank(x, p) else _eliminate(x, p)
    return RankReport(object=label, field_char=p, size=x.shape[0], rank=rank)
