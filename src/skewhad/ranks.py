"""Exact matrix rank over small prime fields.

GF(2) elimination runs on rows packed into Python integers (XOR row
reduction).  ``rank_gfp`` takes any supported prime, 2 included, through
blocked, right-looking elimination with delayed modular reduction, after
Dumas, Giorgi and Pernet, "Dense linear algebra over word-size prime fields:
the FFLAS and FFPACK packages" (ACM TOMS, 2008).  Each step takes a panel
of b columns:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import is_prime


@dataclass(frozen=True)
class RankReport:
    """Rank of one object over one prime field."""

    object: str
    field_char: int
    size: int
    rank: int

    def line(self) -> str:
        return f"{self.object} {self.field_char} {self.size} {self.rank}"


def _rows_as_ints(m01: np.ndarray) -> list[int]:
    bits = (np.asarray(m01) & 1).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def rank_gf2(m01: np.ndarray, label: str = "matrix") -> RankReport:
    """Rank of a square 0/1 matrix over GF(2) via bit-packed elimination.

    Each row is reduced against the pivot held at its lowest set column
    until it either vanishes or claims a new pivot column.
    """
    m01 = np.asarray(m01)
    if m01.ndim != 2 or m01.shape[0] != m01.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m01.shape}")
    n = m01.shape[0]
    pivots: dict[int, int] = {}
    for row in _rows_as_ints(m01):
        while row:
            col = (row & -row).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            row ^= piv
    return RankReport(object=label, field_char=2, size=n, rank=len(pivots))


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


def rank_gfp(x: np.ndarray, p: int, label: str = "matrix") -> RankReport:
    """Rank of an integer matrix over GF(p) by blocked modular elimination.

    Entries are reduced mod p first (so a +-1 matrix maps to its residues).
    p must be a prime no larger than 94 906 249, the largest for which the
    elimination stays exact in float64 (see the module docstring); a larger
    p raises ValueError before any primality test, as does a composite p.
    """
    _check_field(p)
    a = np.asarray(x, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    a = a.astype(np.float64)
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
    return RankReport(object=label, field_char=p, size=nrows, rank=r)
