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
M M^T = (n/4) I + (n/4 - 1) J, so s + m t = ((n - 2)/2)^2 and
det(M)^2 = (n/4)^(n-2) ((n-2)/2)^2: at n = 1252 that is 313^1250 * 625^2,
certified over GF(2) and GF(3).  Every rank of the core of a matrix that
passed Gate0, full or not, follows from n and p instead
(:meth:`~skewhad.hadamard.Gate0Report.core_rank`).

The first two entries of Gram row 0, two dot products, give s and t, so a
matrix whose determinant p divides costs one pass for max|c| and no matrix
product.  Only when they promise a unit determinant is the identity
decided, by Gate0's check (``hadamard.gram_deviation``) on c itself, exact
when m max|c|^2 < 2^24 whatever t is; outside that bound the certificate
declines.  Like Gate0, it forms only the Gram rows at the orbit rows of a
block shift by d that keeps c, verified on c itself (``hadamard._block_shift``),
and forms them from those rows alone, as cyclic correlations taken exactly
by a transform mod a prime: the certificates of H over GF(3) and GF(5) at
order 1252 correlate its 36 orbit rows, row 0 among them, and multiply no
panel of H.  Without such a shift (d = 0) every row is its own orbit, and
row 0 is checked alone first, on float32 panels, so a matrix that fails
there costs one Gram row, not m.

**Elimination.**  Over GF(2) the rows are packed into Python integers and
reduced by XOR, which beats the float panels below for that one prime.
Every other prime goes through blocked, right-looking elimination with delayed modular
reduction, after Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages" (ACM TOMS, 2008).
Each step takes a panel of b columns:

* the panel is eliminated pivot by pivot (the pivot is the first nonzero
  entry in column order, so results are deterministic), recording the row
  swaps, the pivot inverses and the multipliers L;
* the swaps are applied to the trailing block, and the k pivot rows of it
  become U12 by forward substitution with L and the pivot scaling;
* the remaining rows are updated once by the float64 (BLAS) product
  ``T -= L21 @ U12`` and reduced once, by ``T -= p * floor(T / p)``, both
  in blocks of 128 rows, so that their temporaries stay small beside the
  one float64 array of residues that the elimination works in.

The 2^53 rule keeps this exact: every entry is in [0, p) before a product,
so each partial sum of a b-term dot product is an integer of size at most
b (p - 1)^2 + p, which float64 holds exactly whatever order BLAS adds in.
The panel width is therefore derived from p as
``min(64, (2^53 - p) // (p - 1)^2)``, and the primes supported are those
for which even b = 1 holds the bound: p <= 94 906 249.  A larger p raises
ValueError before the primality test.

:func:`rank_gfp` takes integer or boolean arrays only; any other dtype
raises ValueError rather than being truncated to integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import is_prime
from .hadamard import (_EXACT, _FLOAT32_EXACT, _block_shift, _deviation, _panel_deviation,
                       _reduce)


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


def _residues(x: np.ndarray, p: int, dtype=np.int64) -> np.ndarray:
    """x mod p, in [0, p), as one new array of ``dtype``.  The remainder is
    taken in int64, or in uint64 when x is unsigned, so uint64 entries of
    2^63 and above do not wrap; the ufunc casts x and the result chunk by
    chunk, so no other array of x's size is made."""
    divisor = np.uint64(p) if x.dtype.kind == "u" else np.int64(p)
    return np.remainder(x, divisor, out=np.empty(x.shape, dtype=dtype))


def _gram_certifies_full_rank(x: np.ndarray, p: int) -> bool:
    """True when the exact Gram identity of x proves full rank over GF(p).

    It declines (False) unless x is square and non-empty, its centered
    residues c satisfy m max|c|^2 < 2^24, and c c^T = s I + t J with p
    dividing neither s nor s + m t (see the module docstring).  The first
    two entries of Gram row 0 give s and t; the Gram deviation of x
    (:func:`~skewhad.hadamard.gram_deviation`) then decides it on the orbit
    rows of x's verified block shift d, or, when d = 0, on row 0 first.
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
        return False  # p divides the determinant s^(m-1) (s + m t)
    d = _block_shift(x)
    if not d and _panel_deviation(x, s, t, np.array([0])) != 0:
        return False  # every row is its own orbit: row 0 alone first, before m rows
    return _deviation(x, s, t, d) == 0


def _rows_as_ints(m01: np.ndarray) -> list[int]:
    """Each row mod 2 as a Python int, column j at bit j (0 with no columns)."""
    digits = (m01[:, ::-1] & 1).astype(np.uint8) + ord("0")
    return [int(row.tobytes() or b"0", 2) for row in digits]


def _eliminate_gf2(m01: np.ndarray) -> int:
    """Rank over GF(2) by elimination on rows held as Python ints.

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


_MAX_PRIME = 94_906_249  # the largest prime p with (p - 1)^2 + p <= 2^53
_UPDATE_ROWS = 128  # trailing rows per update: its product and reduction hold this many rows


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
    a = _residues(x, p, np.float64)
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
            for i in range(r + k, nrows, _UPDATE_ROWS):
                block = a[i: i + _UPDATE_ROWS, c1:]
                block -= mult[i - r: i - r + _UPDATE_ROWS] @ u12
                _reduce(block, p)
        r += k
    return r


def rank_gfp(x: np.ndarray, p: int, label: str = "matrix") -> RankReport:
    """Rank of an integer matrix over GF(p).

    Entries are taken mod p (so a +-1 matrix maps to its residues).  The
    Gram certificate decides full rank of a square matrix first; otherwise
    the rank comes from elimination, XOR row reduction when
    p = 2 and blocked modular elimination for any other p.  p must be a
    prime no larger than 94 906 249, the largest for which the elimination
    stays exact in float64 (see the module docstring); a larger p raises
    ValueError before any primality test, as does a composite p.
    """
    _check_field(p)
    x = _integer_matrix(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    if _gram_certifies_full_rank(x, p):
        rank = x.shape[0]
    else:
        rank = _eliminate_gf2(x) if p == 2 else _eliminate(x, p)
    return RankReport(object=label, field_char=p, size=x.shape[0], rank=rank)
