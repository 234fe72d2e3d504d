"""Group-developed +-1 matrices, the bordered assembly, and exact verification.

Matrices live in :class:`PmMatrix`, one read-only int8 array of the +-1
entries.  All verification is exact.  Every Gram identity f f^T = s I + t J
is decided by :func:`gram_deviation` from float32 BLAS products of row
panels, never the whole Gram: each partial sum is an integer that float32
holds exactly in whatever order BLAS adds (the integer-bound argument of
FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 2008).

The text interchange format is: first line the decimal order n, then n lines
of n characters, '+' for +1 and '-' for -1, LF endings, nothing else.  The
parser and the writer convert between bytes and signs with whole-array
operations, no pass per row: '+' (43) and '-' (45) lie either side of 44, so
sign = 44 - byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, indicator_signs

_ORDER_HEADER = re.compile(rb"[1-9][0-9]*")
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of absolute value up to 2^24
_MID = 44  # '+' = 43 and '-' = 45 lie either side, so sign = 44 - byte
_LF = ord("\n")
_PANEL = 256  # Gram rows per product; BENCH_gram_panels.json compares heights


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        loc = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class PmMatrix:
    """Square +-1 matrix, stored as one read-only int8 array of its entries.

    The constructor takes the array as it is, without a copy or a check, and
    marks it read-only; :meth:`from_signs` checks and copies.  Immutable.
    """

    def __init__(self, signs: np.ndarray):
        self.n = signs.shape[0]
        self._signs = signs
        self._signs.setflags(write=False)
        self._float_signs: np.ndarray | None = None
        self._float32_signs: np.ndarray | None = None

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "PmMatrix":
        """An int8 copy of a square matrix whose entries are +1/-1."""
        signs = np.asarray(signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {signs.shape}")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("entries must be +1 or -1")
        return cls(signs.astype(np.int8))

    def signs(self) -> np.ndarray:
        """The entries as a read-only int8 array."""
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

    def float32_signs(self) -> np.ndarray:
        """Dense float32 copy of the entries (cached), for the exact integer
        products: the Gram and the sketch decode's H^T q."""
        if self._float32_signs is None:
            f = self.signs().astype(np.float32)
            f.setflags(write=False)
            self._float32_signs = f
        return self._float32_signs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PmMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._signs, other._signs))

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

    def core_gram(self) -> tuple[int, int] | None:
        """(s, t) with M M^T = s I + t J for the 0/1 tournament core M that
        :func:`normalize_core_tournament` takes from the matrix this report
        passed, or None when it failed or 4 does not divide n.

        Derived, not formed: the normalized core S has row sums 1 and
        S S^T = nI - J (rows of Hn Hn^T = nI), so M = (J - S)/2 has
        M M^T = (n/4) I + (n/4 - 1) J.
        """
        if not self.passed or self.n < 4 or self.n % 4:
            return None
        return self.n // 4, self.n // 4 - 1

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
    return PmMatrix(indicator_signs(d)[spec.diff_index_table()])


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
    sa, sc = a.signs(), c.signs()
    for name, s in (("A", sa), ("C", sc)):
        for axis, which in ((1, "row"), (0, "column")):
            sums = s.sum(axis=axis, dtype=np.int64)
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
    return PmMatrix(h)


def build_bordered_from_blocks(spec: GroupSpec, d0: np.ndarray, d1: np.ndarray) -> PmMatrix:
    """Full development pipeline: the blocks A[i, j] = s_D0(g_j - g_i) and
    C[i, j] = s_D1(g_i - g_j), both read from the group's difference table,
    then the bordered assembly.

    C is difference-developed too, so it commutes with A; it is the
    transposed type-1 development of D1.
    """
    a = type1_matrix(spec, d0)
    c = PmMatrix(indicator_signs(d1)[spec.diff_index_table().T])
    return assemble_bordered(a, c)


def gram_deviation(f: np.ndarray, s: int, t: int) -> int:
    """max |f f^T - s I - t J| over all entries: 0 exactly when f f^T = s I + t J.

    The caller guarantees exact integers: g = max|f|^2 times the number of
    columns of f is below 2^24, and so are |t| and |s + t|.  The Gram is
    symmetric, so only its upper block-triangle is formed, ``f[i:i+b] @
    f[i:].T`` for b rows at a time.  The diagonal loses s + t in one exact
    subtraction and the rest t, so an entry is 0 only where the identity
    holds; a deviation above 2^24 comes back rounded.  When t = 0 and
    e (B + 1) < 2^24, with e = max(g, |s|, g - s) bounding every deviation
    and B the power of two above 2e, column 2c + 1 rides in column 2c times
    B (Kronecker substitution; Dumas, Fousse and Salvy, J. Symb. Comput.
    2011): a panel entry d + B d' is then exact, 0 only when d = d' = 0, and
    unpacks, and the panels take half the products.
    """
    m = f.shape[0]
    g = f.shape[1] * max(float(f.max(initial=0)), -float(f.min(initial=0))) ** 2
    e = max(g, abs(s), g - s)
    base = 1 << int(2 * e).bit_length()
    k = 2 if t == 0 and e * (base + 1) < _FLOAT32_EXACT else 1
    cols = f
    if k == 2:  # in place, so that no array of f's size is allocated
        cols = np.zeros_like(f[::2])
        cols[: m // 2] = f[1::2]
        cols *= base
        cols += f[::2]
    worst = 0
    for i in range(0, m, _PANEL):  # _PANEL is even, so column i is packed column i // k
        panel = f[i: i + _PANEL] @ cols[i // k:].T
        r = np.arange(panel.shape[0])
        dev = panel[r, r // k] - (s + t) * base ** (r % k)
        panel -= t
        panel[r, r // k] = dev
        if panel.any():  # only a failing panel is unpacked and searched
            hi = np.round(panel / base) if k == 2 else 0
            worst = max(worst, int(np.abs(hi).max()), int(np.abs(panel - base * hi).max()))
    return worst


def gate0_verify(m: PmMatrix) -> Gate0Report:
    """Exact verification of H H^T = nI and H + H^T = 2I."""
    n = m.n
    if n >= _FLOAT32_EXACT:
        raise ValueError(f"order {n} is not below 2^24, the bound for an exact "
                         f"float32 Gram")
    max_off = gram_deviation(m.float32_signs(), n, 0)  # each row's norm is n: 0 on the diagonal
    s = m.signs()
    skew = s + s.T  # int8 holds -2 .. 2; H + H^T - 2I is formed in place
    np.einsum("ii->i", skew)[:] -= 2
    skew_ok = not skew.any()
    return Gate0Report(n=n, gram_ok=max_off == 0, skew_ok=skew_ok, max_offdiag_gram=max_off)


def normalize_core_tournament(m: PmMatrix, report: Gate0Report | None = None) -> np.ndarray:
    """The 0/1 tournament core of a skew Hadamard matrix.

    Normalizing to an all-+1 first row gives Hn = D H D for D = diag of the
    first row; S is Hn with the first row and column deleted, and the core
    M01 = (J - S) / 2 is the 0/1 tournament adjacency matrix of size n - 1
    with zero diagonal.

    ``report`` is the Gate0Report of m when the caller has run Gate0 on it
    already; otherwise Gate0 runs here.  Raises ValueError when the input
    fails Gate0.
    """
    if report is None:
        report = gate0_verify(m)
    if report.n != m.n or not report.passed:
        raise ValueError("matrix fails the defining identities; cannot normalize")
    d = m.signs()[0]
    s = d[1:, None] * m.signs()[1:, 1:] * d[None, 1:]
    return ((1 - s) // 2).astype(np.uint8)


def to_matrix_text(m: PmMatrix) -> bytes:
    """Serialize to the text interchange format (bit-exact), the mirror of
    :func:`parse_matrix_text`: byte = 44 - sign, then LF, in one array."""
    chars = np.full((m.n, m.n + 1), _LF, dtype=np.uint8)
    chars[:, : m.n] = _MID - m.signs()
    return b"%d\n" % m.n + chars.tobytes()


def parse_matrix_text(data: bytes) -> PmMatrix:
    """Parse the text interchange format, rejecting any stray byte.

    Raises MatrixFormatError with a 1-based line (and column, where it
    applies) on any deviation: a header other than the canonical decimal
    order (``[1-9][0-9]*``, as :func:`to_matrix_text` writes it), wrong line
    count or length, or a character other than '+' and '-'.  The first
    offending row wins, and a row's wrong length is reported before its
    characters.  So every accepted input is exactly ``to_matrix_text`` of
    the parsed matrix.
    """
    if not data.endswith(b"\n"):
        nlines = data.count(b"\n") + 1
        raise MatrixFormatError("missing trailing newline", line=max(nlines, 1))
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _LF)  # ends[0] closes the header, ends[i] row i
    header = data[: ends[0]]
    if not _ORDER_HEADER.fullmatch(header):
        raise MatrixFormatError("header is not a positive decimal order", line=1)
    n = ends.size - 1
    if header != str(n).encode("ascii"):  # compared as text: no int() of a long header
        raise MatrixFormatError(
            f"expected {header.decode('ascii')} matrix rows, found {n}", line=n + 1)
    lengths = np.diff(ends) - 1
    wrong = np.flatnonzero(lengths != n)
    good = int(wrong[0]) if wrong.size else n  # rows before the first wrong length
    start = int(ends[0]) + 1
    chars = buf[start: start + good * (n + 1)].reshape(good, n + 1)[:, :n]
    signs = (_MID - chars).view(np.int8)  # only '+' and '-' give +1 and -1
    bad = np.flatnonzero(np.abs(signs) != 1)
    if bad.size:
        row, col = divmod(int(bad[0]), n)
        raise MatrixFormatError(
            f"invalid character {chr(chars[row, col])!r}", line=row + 2, column=col + 1)
    if good < n:
        length = int(lengths[good])
        raise MatrixFormatError(
            f"row has {length} characters, expected {n}", line=good + 2,
            column=min(length, n) + 1)
    return PmMatrix(signs)
