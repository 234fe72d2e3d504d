"""Group-developed +-1 matrices, the bordered assembly, and exact verification.

Matrices live in :class:`PmMatrix`, a bit-packed +-1 matrix (set bit means
-1) with rows padded to whole 64-bit words.  All verification is exact
integer arithmetic; the Gram computation runs on packed words via XOR and
popcount, so certifying the order-1252 matrix takes well under a second.

The text interchange format is: first line the decimal order n, then n lines
of n characters, '+' for +1 and '-' for -1, LF endings, nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, indicator_signs

_WORD = 64
_ORDER_HEADER = re.compile(rb"[1-9][0-9]*")

if hasattr(np, "bitwise_count"):
    def _popcount(a: np.ndarray) -> np.ndarray:
        return np.bitwise_count(a)
else:  # pragma: no cover - numpy >= 2.0 always has bitwise_count
    _PC8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(a: np.ndarray) -> np.ndarray:
        return _PC8[a.view(np.uint8)].reshape(a.shape + (8,)).sum(axis=-1, dtype=np.uint8)


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        loc = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class PmMatrix:
    """Square +-1 matrix, one bit per entry (bit set = entry is -1).

    Storage is row-major: ``words[i, j]`` covers columns 64*j .. 64*j + 63 of
    row i, least significant bit first, zero padded.  Immutable.
    """

    def __init__(self, n: int, words: np.ndarray):
        expected = (n, (n + _WORD - 1) // _WORD)
        if words.shape != expected or words.dtype != np.uint64:
            raise ValueError(f"packed storage must be uint64 of shape {expected}")
        self.n = n
        self.words = words
        self.words.setflags(write=False)
        self._signs: np.ndarray | None = None
        self._float_signs: np.ndarray | None = None

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "PmMatrix":
        """Pack a dense matrix whose entries are +1/-1."""
        signs = np.asarray(signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {signs.shape}")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("entries must be +1 or -1")
        n = signs.shape[0]
        neg = signs < 0
        pad = (-n) % _WORD
        if pad:
            neg = np.pad(neg, ((0, 0), (0, pad)))
        packed = np.packbits(neg, axis=1, bitorder="little")
        words = np.ascontiguousarray(packed).view("<u8").astype(np.uint64)
        return cls(n, words)

    def signs(self) -> np.ndarray:
        """Dense int8 view of the entries (cached)."""
        if self._signs is None:
            raw = self.words.astype("<u8").view(np.uint8).reshape(self.n, -1)
            bits = np.unpackbits(raw, axis=1, bitorder="little")[:, : self.n]
            s = np.where(bits == 1, -1, 1).astype(np.int8)
            s.setflags(write=False)
            self._signs = s
        return self._signs

    def float_signs(self) -> np.ndarray:
        """Dense float64 copy of the entries (cached), for floating-point
        products; converting on every product would cost more than the
        product itself."""
        if self._float_signs is None:
            f = self.signs().astype(np.float64)
            f.setflags(write=False)
            self._float_signs = f
        return self._float_signs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PmMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:  # content hash of the packed words
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"PmMatrix(n={self.n})"


@dataclass(frozen=True)
class Gate0Report:
    """Outcome of the exact defining-identity checks H H^T = nI, H + H^T = 2I."""

    n: int
    gram_ok: bool
    skew_ok: bool
    max_offdiag_gram: int

    @property
    def passed(self) -> bool:
        return self.gram_ok and self.skew_ok

    def to_log(self) -> str:
        lines = [
            f"n {self.n}",
            f"gram_ok {self.gram_ok}",
            f"skew_ok {self.skew_ok}",
            f"max_offdiag_gram {self.max_offdiag_gram}",
            "PASS" if self.passed else "FAIL",
        ]
        return "\n".join(lines) + "\n"


def type1_matrix(spec: GroupSpec, d: np.ndarray) -> PmMatrix:
    """Difference-developed matrix M[i, j] = s_D(g_j - g_i).

    For a skew-symmetric D this satisfies M + M^T = 2I; every row and column
    sums to v - 2|D|.
    """
    s = indicator_signs(d)
    return PmMatrix.from_signs(s[spec.diff_index_table()])


def assemble_bordered(a: PmMatrix, c: PmMatrix) -> PmMatrix:
    """Bordered array of order 2(v + 1) from two developed blocks of order v.

    Layout (e is the all-ones column):

        [ +1  +1 |  e^T    e^T ]
        [ -1  +1 |  e^T   -e^T ]
        [ -e  -e |   A      C  ]
        [ -e  +e | -C^T    A^T ]

    Requires both blocks to have every row and column sum equal to +1, which
    pins the border signs.  The output always satisfies H + H^T = 2I when A
    comes from a skew-symmetric block; H H^T = nI holds exactly when the
    block pair is certified.
    """
    if a.n != c.n:
        raise ValueError(f"block order mismatch: {a.n} != {c.n}")
    v = a.n
    sa, sc = a.signs().astype(np.int32), c.signs().astype(np.int32)
    for name, s in (("A", sa), ("C", sc)):
        for axis, which in ((1, "row"), (0, "column")):
            sums = s.sum(axis=axis)
            if not np.all(sums == 1):
                bad = int(np.flatnonzero(sums != 1)[0])
                raise ValueError(
                    f"{name} {which} {bad} sums to {int(sums[bad])}, expected +1")

    n = 2 * v + 2
    h = np.ones((n, n), dtype=np.int8)
    h[1, 0] = -1
    h[1, v + 2:] = -1
    h[2:, 0] = -1
    h[2: v + 2, 1] = -1
    h[2: v + 2, 2: v + 2] = sa
    h[2: v + 2, v + 2:] = sc
    h[v + 2:, 2: v + 2] = -sc.T
    h[v + 2:, v + 2:] = sa.T
    return PmMatrix.from_signs(h)


def build_bordered_from_blocks(spec: GroupSpec, d0: np.ndarray, d1: np.ndarray) -> PmMatrix:
    """Full development pipeline: the blocks A[i, j] = s_D0(g_j - g_i) and
    C[i, j] = s_D1(g_i - g_j), both read from the group's difference table,
    then the bordered assembly.

    C is difference-developed too, so it commutes with A; it is the
    transposed type-1 development of D1.
    """
    a = type1_matrix(spec, d0)
    c = PmMatrix.from_signs(indicator_signs(d1)[spec.diff_index_table().T])
    return assemble_bordered(a, c)


def gram_matrix(m: PmMatrix) -> np.ndarray:
    """All pairwise row inner products of the +-1 matrix, exact int32.

    The inner product of rows i and j is n - 2 * popcount(row_i XOR row_j);
    padding bits cancel in the XOR.  Computed blockwise over packed words.
    """
    w = m.words
    n = m.n
    out = np.empty((n, n), dtype=np.int32)
    if n == 0:
        return out
    block = max(1, (16 << 20) // max(1, w.shape[1] * 8 * n))
    for lo in range(0, n, block):
        x = w[lo: lo + block, None, :] ^ w[None, :, :]
        pc = _popcount(x).sum(axis=2, dtype=np.int32)
        out[lo: lo + block] = n - 2 * pc
    return out


def gate0_verify(m: PmMatrix) -> Gate0Report:
    """Exact verification of H H^T = nI and H + H^T = 2I."""
    n = m.n
    gram = gram_matrix(m)
    diag_ok = bool(np.all(np.diagonal(gram) == n))
    off = gram.copy()
    np.fill_diagonal(off, 0)
    max_off = int(np.abs(off).max()) if n > 1 else 0
    gram_ok = diag_ok and max_off == 0
    s = m.signs()
    skew = s.astype(np.int16) + s.T
    skew_ok = bool(np.all(np.diagonal(skew) == 2))
    if skew_ok:
        np.fill_diagonal(skew, 0)
        skew_ok = not bool(np.any(skew))
    return Gate0Report(n=n, gram_ok=gram_ok, skew_ok=skew_ok, max_offdiag_gram=max_off)


def normalize_core_tournament(m: PmMatrix) -> tuple[PmMatrix, PmMatrix, np.ndarray]:
    """Normalize to an all-+1 first row, strip it, and take the 0/1 core.

    Returns ``(Hn, S, M01)`` where Hn = D H D for D = diag of the first row,
    S is Hn with the first row and column deleted, and M01 = (J - S) / 2 is
    the 0/1 tournament adjacency matrix of size n - 1 with zero diagonal.

    Raises ValueError when the input fails Gate0.
    """
    report = gate0_verify(m)
    if not report.passed:
        raise ValueError("matrix fails the defining identities; cannot normalize")
    d = m.signs()[0].astype(np.int16)
    hn = d[:, None] * m.signs() * d[None, :]
    s = hn[1:, 1:]
    m01 = ((1 - s) // 2).astype(np.uint8)
    return PmMatrix.from_signs(hn), PmMatrix.from_signs(s), m01


def to_matrix_text(m: PmMatrix) -> bytes:
    """Serialize to the text interchange format (bit-exact)."""
    s = m.signs()
    chars = np.where(s > 0, np.uint8(ord("+")), np.uint8(ord("-")))
    lines = [str(m.n).encode("ascii")]
    lines.extend(row.tobytes() for row in chars)
    return b"\n".join(lines) + b"\n"


def parse_matrix_text(data: bytes) -> PmMatrix:
    """Parse the text interchange format, rejecting any stray byte.

    Raises MatrixFormatError with a 1-based line (and column, where it
    applies) on any deviation: a header other than the canonical decimal
    order (``[1-9][0-9]*``, as :func:`to_matrix_text` writes it), wrong line
    count or length, or a character other than '+' and '-'.  So every
    accepted input is exactly ``to_matrix_text`` of the parsed matrix.
    """
    if not data.endswith(b"\n"):
        nlines = data.count(b"\n") + 1
        raise MatrixFormatError("missing trailing newline", line=max(nlines, 1))
    body = data[:-1].split(b"\n")
    if not _ORDER_HEADER.fullmatch(body[0]):
        raise MatrixFormatError("header is not a positive decimal order", line=1)
    n = int(body[0])
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
