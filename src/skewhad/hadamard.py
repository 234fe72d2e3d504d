"""The bordered development of two blocks, +-1 matrices, and exact verification.

Matrices live in :class:`PmMatrix`, one read-only int8 array of the +-1
entries.  :func:`build_bordered_from_blocks` develops its four quadrants from
the rows of one period straight into that array.  All verification is exact.
Every Gram identity x x^T = s I + t J is decided by :func:`gram_deviation`
on the integer matrix, by BLAS products that rest on the integer-bound
argument of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008): each
partial sum is an integer that the float type holds exactly in whatever
order BLAS adds.

Which rows are formed rests on a lemma.  If a permutation matrix P keeps
the matrix, P H P^T = H, then P^T P = I and P fixes I and J, so
D = H H^T - s I - t J has P D P^T = D as well, and so has H + H^T - 2I: each
is constant on the orbits of the permutation on pairs, and its rows at one
representative per orbit hold its every value.  :func:`_block_shift` proposes
the permutation from row 2, the zero element of the first block, which
every multiplier fixes: in the order [0, g^0, g^1, ...] of each block the
multiplier x -> g^d x shifts indices 3 .. v+1 and v+3 .. n-1 cyclically by d
and fixes 0, 1, 2 and v+2, and d is taken as the least common multiple of
the cyclic periods of the two block segments of row 2 (the periods from
which :meth:`GroupSpec.develop` built the blocks).  The invariance is
then checked on every entry of the integer matrix by
:func:`_keeps_block_shift`, the check the automorphism audit makes of its
multiplier x -> g^N x, so d is exact whatever the proposal was.  When the
proposal or the check fails, d is 0 and the lemma is applied to the
identity, which keeps every matrix: each row is its own orbit, and every
row is formed.  At order 1252, d = 16 (the verified permutation is the
paper's multiplier x -> g^16 x, of order 39), so Gate0 and the rank
certificates of H form 36 Gram rows (:func:`_orbit_rows`), not 1252.  A
:class:`PmMatrix` keeps its d (:meth:`PmMatrix.block_shift`), so Gate0 and
the sketch share one check of the shift.

Those rows, and the sketch's exact products H^T q and H q (:func:`_product`),
are cyclic correlations over Z_f, which one :class:`_OrbitCorrelation` takes
for an integer matrix x that the verified shift pi keeps.  Let f = (v - 1)/d
be its order: the indices that pi moves fall into 2d orbits of length f
(:func:`_moving`), and the m = 4 + 2d representatives c are one moving index
r per orbit, then 0, 1, 2 and v + 2, which pi fixes.  For y = x or x^T, which
pi keeps alike, y[pi^j r, pi^a c] = y[pi^(j - a) r, c], so

    (y^T q)[pi^a c] = sum over r and j of y[pi^(j - a) r, c] q[pi^j r],

plus y's four fixed rows times q's, the same at every a.  The Gram x x^T is
y^T y for y = x^T: q = y at the m columns c gives its rows at the c.
Such sums are taken by a discrete Fourier transform over GF(P) (Pollard, "The
fast Fourier transform in a finite field", Math. Comp. 1971): P is the least
prime = 1 (mod f) above twice a bound on the result, and z has order exactly
f mod P (:func:`_orbit_field`).  The transform is W = [z^(omega j) mod P],
formed ``_PANEL`` rows at a time (:func:`_power_panels`); its inverse is W at
-omega, times 1/f.  A float64 product of inner dimension K with operands at
most P - 1 in magnitude is exact while K (P - 1)^2 + P <= 2^53, the rule by
which P is chosen; a result is reduced into [0, P) before a product needs it,
unless a smaller bound keeps that product exact, and h = (P - 1)/2, added at
omega = 0, centres it, so that it reads back as the integer of least magnitude.
Both start from A[omega] = sum over j of z^(omega j) y[pi^j r, c], (2d x m),
for y at the c as the caller gathers it: no kernel takes indices into x.
The Gram (bound n max|x|^2 + |s| + |t|, max|x| read off the representatives,
the rows it transforms, which Gate0 then reuses for its skew check)
multiplies A[omega]^T by A[-omega] on the pairs r <= s, which hold every value
as D[s, pi^-a r] = D[r, pi^a s], adds the fixed columns, h, -t and, on a
fixed representative's diagonal, -s at omega = 0, inverts, and subtracts s
at a = 0 on a moving one's; A is reduced first when 2d (f max|x| (P - 1))^2
+ P > 2^53.  It multiplies W's panels and keeps nothing: at order 1252,
m = 36, f = 39, P = 5227, and it takes 4.4 M multiplies, where H's take 56 M.
The products (bound 127 n, |q| <= 127) form W on the first call and keep it,
and, per axis from its first use, A at -omega times 1/f, centred, and y's
fixed rows.  A call, given q at every index, multiplies that at each omega,
(m x 2d)(2d x c), by the transform of q's orbit sequences, reduced first when
2d f 127 (P - 1) h + 2P > 2^53, adds the fixed rows and h at omega = 0, and
applies W at -omega.  W is f^2 floats, at most n^2/2 bytes when d >= 2, as
for any matrix above order 8 that passes Gate0 (with d = 1, row 2 is
constant on each moving segment and cannot be orthogonal to both rows 0 and
1).  Every-row input, and a bound no such P keeps exact, take the one
float32 kernel, :func:`_panel_product`, which :func:`_panel_deviation` calls
per row panel: exact while every partial sum, at most n max|x| max|q|, is below 2^24.

The text interchange format is: first line the decimal order n, then n lines
of n characters, '+' for +1 and '-' for -1, LF endings, nothing else.  The
parser and the writer convert between bytes and signs with whole-array
operations, no pass per row: '+' (43) and '-' (45) lie either side of 44, so
sign = 44 - byte.  Every valid input is the canonical layout, so the parser
accepts by checks of the whole array alone: a header of at most 31 bytes, an
exact length n(n + 1) after it, an LF in column n of every row, and signs
44 - byte with min >= -1, max <= 1 and no zero (44 is ',').  Only text those
checks refuse is scanned row by row, to report its first error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .gf import _prime_factors, is_prime
from .groups import GroupSpec, _period, indicator_signs, subset_size

_ORDER_HEADER = re.compile(rb"[1-9][0-9]*")
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of absolute value up to 2^24
_EXACT = 1 << 53  # float64 holds every integer of absolute value up to 2^53
_QMAX = 127  # the bound on |q| in an exact product: every partial sum is at most 127 n < 2^24
_MID = 44  # '+' = 43 and '-' = 45 lie either side, so sign = 44 - byte
_LF = ord("\n")
_PANEL = 256  # rows per panel: of x in _panel_product, of Gate0's skew check, and of W
_SHIFT_ENTRIES = 1 << 20  # entries one slice compare of _keeps_block_shift reads at most


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
    marks it read-only; :meth:`from_signs` checks and copies.  Immutable, so
    what is derived from the entries is kept: the verified block shift that
    Gate0 and the sketch read, and the one exact product that serves H q and
    H^T q, with one W, built on its first use (:func:`_product`).
    """

    def __init__(self, signs: np.ndarray):
        self.n = signs.shape[0]
        self._signs = signs
        self._signs.setflags(write=False)
        self._shift: int | None = None
        self._product = None  # what _product multiplies by, for both axes

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "PmMatrix":
        """An int8 copy of a square matrix whose entries are +1/-1."""
        signs = np.asarray(signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1] or not signs.size:
            raise ValueError(f"expected a square matrix of order 1 or more, got {signs.shape}")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("entries must be +1 or -1")
        return cls(signs.astype(np.int8))

    def signs(self) -> np.ndarray:
        """The entries as a read-only int8 array."""
        return self._signs

    def block_shift(self) -> int:
        """:func:`_block_shift` of the entries (cached): the d of a block
        shift verified to keep the matrix, else 0."""
        if self._shift is None:
            self._shift = _block_shift(self._signs)
        return self._shift

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

    def core_rank(self, p: int) -> int | None:
        """Rank over GF(p), p prime, of the 0/1 tournament core M that
        :func:`normalize_core_tournament` takes from the matrix this report
        passed (None when it failed), from n and p alone: 0 when n < 4,
        n/2 when p | n/4, n - 2 when p | n/2 - 1 and n - 1 otherwise.

        Proof.  The normalized core S has row sums 1, S S^T = nI - J (rows
        of Hn Hn^T = nI) and S + S^T = 2I, so M = (J - S)/2, of order
        m = n - 1, has M + M^T = J - I, M J = (n/2 - 1) J and
        G = M M^T = (n/4) I + (n/4 - 1) J.  Over GF(p), rank(sI + tJ) is
        m - [p | s + m t] when p does not divide s, else [p does not divide
        t]; here s + m t = (n/2 - 1)^2.  The rank r of M has
        rank G <= r <= (m + rank G)/2 (Sylvester: rank G >= 2r - m) and
        r >= rank(J - I)/2.  When p divides neither n/4 nor n/2 - 1, G is
        invertible and r = m; when p | n/2 - 1 (coprime to n/4), r = rank G = m - 1.
        When p | n/4, G = -J has rank 1, so r <= n/2; for odd p,
        rank(J - I) = m, so r >= n/2.  And M^2 + M = M J - G = (n/4)(J - I)
        = 0, so -M is idempotent and r = trace(-M) = 0 (mod p), which at
        p = 2 rules out n/2 - 1, the one other value the bounds allow.
        """
        n = self.n
        if not self.passed or (n > 2 and n % 4):  # H H^T = nI: n is 1, 2 or a multiple of 4
            return None
        if n < 4:
            return 0
        if (n // 4) % p == 0:
            return n // 2
        if (n // 2 - 1) % p == 0:
            return n - 2
        return n - 1

    def to_log(self) -> str:
        lines = [
            f"n {self.n}",
            f"gram_ok {self.gram_ok}",
            f"skew_ok {self.skew_ok}",
            f"max_offdiag_gram {self.max_offdiag_gram}",
            "PASS" if self.passed else "FAIL",
        ]
        return "\n".join(lines) + "\n"


def build_bordered_from_blocks(spec: GroupSpec, d0: np.ndarray, d1: np.ndarray) -> PmMatrix:
    """The bordered array of order 2(v + 1) from the blocks
    A[i, j] = s_D0(g_j - g_i) and C[i, j] = s_D1(g_i - g_j), with e the
    all-ones column:

        [ +1  +1 |  e^T    e^T ]
        [ -1  +1 |  e^T   -e^T ]
        [ -e  -e |   A      C  ]
        [ -e  +e | -C^T    A^T ]

    The borders need every row and column of A and C to sum to +1, and a
    developed block's sums are all v - 2|D|: a block of another size than
    (v - 1)/2 raises ValueError.  Each quadrant is developed in place, none
    transposed (:meth:`GroupSpec.develop`, M[i, j] = f(g_j - g_i)): A from
    s_D0, -C^T from -s_D1, and A^T and C from s_D0 and s_D1 at -x.  When D0
    is skew, H + H^T = 2I; when the pair is certified, H H^T = nI.
    """
    v = spec.order
    d0, d1 = spec._dense_values(d0), spec._dense_values(d1)
    for name, d in (("D0", d0), ("D1", d1)):
        if 2 * subset_size(d) != v - 1:
            raise ValueError(f"|{name}| = {subset_size(d)}: the block sums to +1 on every "
                             f"row and column only when |{name}| = (v - 1)/2 = {(v - 1) / 2:g}")
    n = 2 * v + 2
    h = np.empty((n, n), dtype=np.int8)
    h[:2], h[2:, :2] = 1, -1
    h[1, 0] = h[1, v + 2:] = -1
    h[v + 2:, 1] = 1
    s0, s1, neg = indicator_signs(d0), indicator_signs(d1), spec.neg_perm()
    spec._develop_into(s0, h[2: v + 2, 2: v + 2])
    spec._develop_into(s1[neg], h[2: v + 2, v + 2:])
    spec._develop_into(-s1, h[v + 2:, 2: v + 2])
    spec._develop_into(s0[neg], h[v + 2:, v + 2:])
    return PmMatrix(h)


def _keeps_block_shift(x: np.ndarray, d: int) -> bool:
    """Whether x[pi(i), pi(j)] == x[i, j] on every entry of the bordered
    matrix x of order 2(v + 1), pi the block shift by d, 0 < d < v (see the
    module docstring).  The shift is six runs of indices, each moved by one
    offset, so each pair of runs is one slice compare, of at most
    ``_SHIFT_ENTRIES`` entries a panel of rows; the pairs of the two fixed
    runs, 0 .. 2 and v + 2, compare a slice with itself and are skipped,
    and the first compare that differs decides."""
    v = x.shape[0] // 2 - 1
    length = v - 1  # the elements g^0 .. g^(v-2) of each block
    step = max(1, _SHIFT_ENTRIES // length)  # rows per panel; a run is at most length wide
    runs = [(0, 0, 3), (v + 2, v + 2, 1)]  # (from, to, size): i moves to i + to - from
    for lo in (3, v + 3):
        runs += [(lo, lo + d, length - d), (lo + length - d, lo, d)]
    for a, a2, k in runs:
        for i in range(0, k, step):
            rows, moved = x[a + i: a + min(k, i + step)], x[a2 + i: a2 + min(k, i + step)]
            for b, b2, m in runs[2:] if a == a2 else runs:  # runs[:2] are the fixed runs
                if not (rows[:, b: b + m] == moved[:, b2: b2 + m]).all():
                    return False
    return True


def _block_shift(x: np.ndarray) -> int:
    """The d proposed from row 2 once :func:`_keeps_block_shift` holds (see the
    module docstring); 0, the identity, when x is not square, n is odd or
    below 8, d is the segment length (the shift is the identity) or an entry moves."""
    n = x.shape[0]
    v = n // 2 - 1  # each block holds 0, g^0 .. g^(v-2)
    if n % 2 or v < 3 or x.shape[1] != n:
        return 0
    d = math.lcm(_period(x[2, 3: v + 2]), _period(x[2, v + 3:]))
    return 0 if d == v - 1 or not _keeps_block_shift(x, d) else d


def _orbit_rows(n: int, d: int) -> np.ndarray:
    """One row per orbit of the block shift by d on order n, every row at d = 0."""
    v = n // 2 - 1  # the moving 3 + k and v + 3 + k, k < d, then the fixed 0, 1, 2 and v + 2
    return np.array([*range(3, 3 + d), *range(v + 3, v + 3 + d), 0, 1, 2, v + 2]) if d \
        else np.arange(n)


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


def _orbit_field(n: int, d: int, bound: int) -> tuple[int, int, int, int] | None:
    """(d, f, P, z) for a verified block shift by d > 0 (:func:`_block_shift`),
    of order f, when :func:`_transform_field` finds (P, z) for ``bound``; else None."""
    f = (n // 2 - 2) // d
    field = _transform_field(f, bound, max(f, 2 * d))
    return None if field is None else (d, f, *field)


def _transform_field(f: int, bound: int, k: int) -> tuple[int, int] | None:
    """(P, z): the least prime P = 1 (mod f) above 2 bound, and z of
    multiplicative order exactly f mod P, or None when that P breaks the
    rule k (P - 1)^2 + P <= 2^53 for products of inner dimension k."""
    p = ((2 * bound - 1) // f + 1) * f + 1
    while k * (p - 1) ** 2 + p <= _EXACT:
        if is_prime(p):
            break
        p += f
    else:
        return None
    factors = _prime_factors(f)
    for g in range(1, p):  # some g generates GF(P)*, and its z has order f
        z = pow(g, (p - 1) // f, p)
        if all(pow(z, f // q, p) != 1 for q in factors):
            return p, z


def _moving(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two segments 3 .. v + 1 and v + 3 .. 2v + 1 of axis 0 of a that
    the block shift pi by d moves, as (f, d, ...) views: [j, k] is pi^j of
    the segment's k-th representative, 3 + k or v + 3 + k."""
    v = a.shape[0] // 2 - 1
    shape = ((v - 1) // d, d) + a.shape[1:]
    return a[3: v + 2].reshape(shape), a[v + 3:].reshape(shape)


def _powers(z: int, p: int, f: int) -> np.ndarray:
    """z^e mod p for e in [0, f), as float64."""
    out = [1]
    for _ in range(f - 1):
        out.append(out[-1] * z % p)
    return np.array(out, dtype=np.float64)


def _inverse_powers(powers: np.ndarray, p: int) -> np.ndarray:
    """(1/f) z^(-e) mod p from the f powers z^e: W at -omega, times 1/f."""
    f = powers.size
    return powers[-np.arange(f) % f] * pow(f, -1, p) % p


def _exponents(f: int, b: int) -> np.ndarray:
    """i j mod f, i < min(b, f), j < f: the exponents of W's first panel."""
    index = np.multiply.outer(np.arange(min(b, f)), np.arange(f))
    index %= f
    return index


def _power_panels(powers: np.ndarray, index: np.ndarray, w: np.ndarray):
    """Yield (lo, panel), the rows lo .. lo + b of W[a, j] = powers[a j mod f],
    f = len(powers), b = len(index) (:func:`_exponents`), taken from one tiled
    table into w: into their own rows when w has f rows, so that the sketch's
    product keeps W, else into the first b, which the Gram multiplies and the next
    panel overwrites.  The index moves on by b j mod f per panel by an addition
    and is moved back at the end, so one index serves each transform."""
    f, b = powers.size, index.shape[0]
    table = np.concatenate([powers] * -(-f // b))  # every exponent the index reaches
    step = b * np.arange(f) % f if f > b else None
    for lo in range(0, f, b):
        k = min(b, f - lo)
        at = lo if w.shape[0] == f else 0
        yield lo, np.take(table, index[:k], out=w[at: at + k], mode="clip")
        if lo + b < f:
            index += step
    if f > b:
        index -= (f - 1) // b * step


def _transform(powers: np.ndarray, y: np.ndarray, out: np.ndarray, index: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """out = W y, W[a, j] = powers[a j mod f], a :func:`_power_panels` panel at a time."""
    for lo, panel in _power_panels(powers, index, w):
        np.matmul(panel, y, out=out[lo: lo + panel.shape[0]])
    return out


def _integer_matrix(x) -> np.ndarray:
    """``x`` as an array, refused with ValueError unless 2-D with an integer or bool dtype."""
    a = np.asarray(x)
    if a.dtype.kind not in "biu":
        raise ValueError(f"expected an integer or boolean matrix, got dtype {a.dtype}")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


def gram_deviation(x: np.ndarray, s: int, t: int) -> int:
    """max |x x^T - s I - t J|: 0 exactly when x x^T = s I + t J.

    x is 2-D, of an integer or bool dtype, with max|x|^2 times its columns
    below 2^24, and so are |t| and |s + t| (else ValueError).  The diagonal
    loses s + t in one exact subtraction and the rest t, so an entry is 0
    only where the identity holds; a deviation above 2^24 comes back rounded.

    Only the Gram rows at the orbit rows of the block shift that
    :func:`_block_shift` verifies on x itself are formed (see the module
    docstring): from those rows alone, by :meth:`_OrbitCorrelation.deviation`,
    when some P keeps the transform exact, else by :func:`_panel_deviation`.
    """
    x = _integer_matrix(x)
    return _deviation(x, s, t, _block_shift(x))


def _deviation(x: np.ndarray, s: int, t: int, d: int, reps: np.ndarray | None = None) -> int:
    """:func:`gram_deviation` for the verified block shift d of x, from its
    orbit rows ``reps`` = x[_orbit_rows(n, d)], gathered here when None (with
    d = 0 every row is formed from x in panels, and reps is not read)."""
    n = x.shape[0]
    if d:
        reps = x[_orbit_rows(n, d)] if reps is None else reps
        big = max(int(reps.max()), -int(reps.min()))  # the bound is read off the orbit rows
        field = _orbit_field(n, d, n * big ** 2 + abs(s) + abs(t))
        if field:
            return _OrbitCorrelation(x, *field).deviation(reps, s, t)
    return _panel_deviation(x, s, t, _orbit_rows(n, d))


def _panel_deviation(x: np.ndarray, s: int, t: int, rows: np.ndarray) -> int:
    """:func:`gram_deviation` over ``rows`` from products of all of x.

    The rows are formed ``_PANEL`` at a time, each panel's Gram block by
    :func:`_panel_product` of x with the panel's rows, which the deviation
    then overwrites, and one maximum is taken per row panel.  For every row
    only the columns on and above the diagonal are formed (the deviation is
    symmetric).
    """
    if max(abs(t), abs(s + t)) >= _FLOAT32_EXACT:
        raise ValueError("|t| and |s + t| must be below 2^24 for an exact float32 Gram")
    every = np.array_equal(rows, np.arange(x.shape[0]))
    dev = 0
    for i in range(0, rows.size, _PANEL):
        r = rows[i: i + _PANEL]
        first = i if every else 0  # every row: the block starts at the diagonal
        block = _panel_product(x[first:], x[r].T, 1)  # block[c, k] is entry (r[k], first + c)
        at = (r - first, np.arange(r.size))
        diag = block[at] - (s + t)
        block -= t
        block[at] = diag
        dev = max(dev, int(np.abs(block, out=block).max()))
    return dev


def _product(h: PmMatrix, q: np.ndarray, axis: int) -> np.ndarray:
    """H^T q (axis 0) or H q (axis 1), exactly, as (n, c) float64 integers,
    for q, (n, c), of integers in [-127, 127] at every index.  By the one
    product h keeps for both axes, built on first use: an
    :class:`_OrbitCorrelation`, else :func:`_panel_product`, cast to float64."""
    if h._product is None:
        d = h.block_shift()
        field = _orbit_field(h.n, d, _QMAX * h.n) if d else None
        h._product = (partial(_panel_product, h.signs()) if field is None
                      else _OrbitCorrelation(h.signs(), *field))
    return h._product(q, axis).astype(np.float64, copy=False)


def _panel_product(x: np.ndarray, q: np.ndarray, axis: int) -> np.ndarray:
    """x^T q (axis 0) or x q (axis 1), in float32, from float32 panels of
    ``_PANEL`` of x's rows converted into one reused buffer: x q takes each
    panel of every row times q, and x^T q sums each panel's rows times q's over
    the rows where q is nonzero, so a sparse q converts few (exact: see the module docstring)."""
    rows = np.arange(x.shape[0]) if axis else np.nonzero(q.any(axis=1))[0]
    q = (q if axis else q[rows]).astype(np.float32)
    out = np.zeros((x.shape[1 - axis], q.shape[1]), dtype=np.float32)
    buffer = np.empty((min(_PANEL, rows.size), x.shape[1]), dtype=np.float32)
    for lo in range(0, rows.size, _PANEL):
        panel = buffer[: min(_PANEL, rows.size - lo)]
        np.copyto(panel, x[lo: lo + _PANEL] if axis else x[rows[lo: lo + _PANEL]])
        if axis:
            np.matmul(panel, q, out=out[lo: lo + panel.shape[0]])
        else:
            out += panel.T @ q[lo: lo + _PANEL]
    return out


class _OrbitCorrelation:
    """Correlations over Z_f of an integer matrix x that the block shift by
    d, of order f, keeps, by the transform mod p of the module docstring:
    x's Gram deviation (:meth:`deviation`) from its rep rows, in W's panels,
    and x^T q (axis 0) or x q (axis 1) for q at every index, by a W formed
    on the first product and kept, and each axis's table from that axis's
    first use, from x's rep columns (axis 0) or rows (axis 1)."""

    def __init__(self, x: np.ndarray, d: int, f: int, p: int, z: int):
        self.x, self.n, self.d, self.p, self.cols = x, x.shape[0], d, p, _orbit_rows(len(x), d)
        self.fixed = self.cols[2 * d:]  # of the m reps, after the 2d moving ones
        self.back = -np.arange(f) % f  # omega -> -omega
        self.powers = _powers(z, p, f)
        self.w = None  # W, formed in full by the first product
        self.tables = [None, None]  # axis -> (A at -omega times 1/f, centred; F)

    def _forward(self, y: np.ndarray, work: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(A, F) of y, (n, m), x or x^T at the m rep columns c: A[omega, k, c]
        = sum over j of z^(omega j) y[pi^j r_k, c], (f, 2d, m), over the moving
        reps r, by the kept W or, given ``work`` (buffers for the sequences and
        for A, W's exponents and panel), by W's panels; and F = y at the fixed
        rows, (m, 4)."""
        f, d = self.back.size, self.d
        seq = np.empty((f, 2 * d * y.shape[1])) if work is None else work[0]
        grid = seq.reshape(f, 2, d, -1)
        grid[:, 0], grid[:, 1] = _moving(y, d)
        a = self.w @ seq if work is None else _transform(self.powers, seq, *work[1:])
        return a.reshape(f, 2 * d, -1), y[self.fixed].T.astype(np.float64, order="C")

    def deviation(self, reps: np.ndarray, s: int, t: int) -> int:
        """max |x x^T - s I - t J|, from the Gram of x's m rep rows ``reps``,
        (m, n), p above twice its bound."""
        p, h, d, f, m = self.p, self.p // 2, self.d, self.back.size, self.cols.size
        c, pairs, b = 2 * d * m, m * (m + 1) // 2, min(_PANEL, f)
        # every float64 array is carved from one buffer: a single allocation
        # that the allocator hands back call after call, where several fresh
        # ones of this size are mapped, and page-faulted, anew on each call
        sizes = (f * c, f * c, f * m * m, f * pairs, f * pairs, b * f)
        work = np.empty(sum(sizes))
        seq, fwd, chat, tri, dev, w = (work[end - k: end]
                                       for k, end in zip(sizes, accumulate(sizes)))
        panels = _exponents(f, b), w.reshape(b, f)
        a, fixed = self._forward(reps.T, (seq.reshape(f, c), fwd.reshape(f, c), *panels))
        big = math.isqrt((p - 1) // (2 * self.n))  # p > 2 n max|x|^2, so max|x| <= big
        if 2 * d * (f * big * (p - 1)) ** 2 + p > _EXACT:
            _reduce(a, p)  # else each pointwise product is exact as it is
        back = np.take(a, self.back, axis=0, out=seq.reshape(a.shape), mode="clip")  # a[-omega]
        np.matmul(a.transpose(0, 2, 1), back, out=chat.reshape(f, m, m))
        # D[s, pi^-a r] = D[r, pi^a s]: the pairs r <= s hold every value
        r = np.arange(m)
        upper = np.flatnonzero(r[:, None] <= r)
        tri = _reduce(np.take(chat.reshape(f, m * m), upper, axis=1, out=tri.reshape(f, pairs),
                              mode="clip"), p)
        # the fixed columns, t, and h, which centres the result, are the
        # same at every a: f times them at omega = 0; so is s on the
        # diagonal of a fixed rep, which is its own orbit
        const = fixed @ fixed.T
        const += h - t
        const[r[2 * d:], r[2 * d:]] -= s
        tri[0] = (tri[0] + f * const.reshape(-1)[upper]) % p
        dev = _reduce(_transform(_inverse_powers(self.powers, p), tri, dev.reshape(f, pairs),
                                 *panels), p)
        # dev + h, now in [0, p); a moving rep meets its own row at a = 0 only
        k = r[: 2 * d]
        moving = k * m - k * (k - 1) // 2  # (k, k) among the pairs
        dev[0, moving] = (dev[0, moving] - s) % p
        return max(int(dev.max()) - h, h - int(dev.min()))

    def __call__(self, q: np.ndarray, axis: int) -> np.ndarray:
        p, h, d, f = self.p, self.p // 2, self.d, self.back.size
        if self.w is None:
            self.w = np.empty((f, f))
            for _ in _power_panels(self.powers, _exponents(f, _PANEL), self.w):
                pass  # each panel lands in its own rows of W
        if self.tables[axis] is None:
            a, fixed = self._forward(self.x[self.cols].T if axis else self.x[:, self.cols])
            table = np.empty((f, self.cols.size, 2 * d))
            # |A| (p - 1)/2 <= f (p - 1)^2 / 2: exact, and reduced, centred
            np.multiply(a[self.back].transpose(0, 2, 1), (pow(f, -1, p) + h) % p - h, out=table)
            table += h
            self.tables[axis] = _reduce(table, p) - h, fixed
        transform, fixed_rows = self.tables[axis]
        c = q.shape[1]
        sequences = np.empty((f, 2, d, c))
        sequences[:, 0], sequences[:, 1] = _moving(q, d)
        qhat = (self.w @ sequences.reshape(f, -1)).reshape(f, 2 * d, c)
        if 2 * d * (f * _QMAX * (p - 1)) * h + 2 * p > _EXACT:
            _reduce(qhat, p)
        zhat = np.matmul(transform, qhat)
        zhat[0] += fixed_rows @ q[self.fixed] + h
        z = _reduce(self.w @ _reduce(zhat, p)[self.back].reshape(f, -1), p).reshape(f, -1, c)
        z -= h  # z[a, j] = x^T q at pi^a of representative column j
        out = np.empty((self.n, c))
        first, second = _moving(out, d)
        first[...], second[...] = z[:, :d], z[:, d: 2 * d]
        out[self.fixed] = z[0, 2 * d:]
        return out


def gate0_verify(m: PmMatrix) -> Gate0Report:
    """Exact verification of H H^T = nI and H + H^T = 2I, both on the orbit
    rows of :meth:`PmMatrix.block_shift`, from the int8 signs alone, gathered
    once: the Gram reads them (d > 0), then the skew check adds H's orbit columns,
    ``_PANEL`` rows at a time (with d = 0, H's own rows: no n x n gather)."""
    n = m.n
    if n >= _FLOAT32_EXACT:
        raise ValueError(f"order {n} is not below 2^24, the bound for an exact "
                         f"float32 Gram")
    s, d = m.signs(), m.block_shift()
    rows = _orbit_rows(n, d)
    reps = s[rows] if d else None  # with d = 0 the Gram reads every row of s in panels
    max_off = _deviation(s, n, 0, d, reps)  # each row's norm is n: 0 on the diagonal
    head = s if reps is None else reps  # the rows of s at rows: every row when d = 0
    skew_ok, lo = True, 0
    while skew_ok and lo < rows.size:
        r = rows[lo: lo + _PANEL]
        skew = head[lo: lo + _PANEL] + s[:, r].T  # int8 holds -2 .. 2: H + H^T - 2I
        skew[np.arange(r.size), r] -= 2
        skew_ok, lo = not skew.any(), lo + _PANEL
    return Gate0Report(n=n, gram_ok=max_off == 0, skew_ok=skew_ok, max_offdiag_gram=max_off)


def normalize_core_tournament(m: PmMatrix) -> np.ndarray:
    """The 0/1 tournament core of a skew Hadamard matrix.

    Normalizing to an all-+1 first row gives Hn = D H D for D = diag of the
    first row; S is Hn with the first row and column deleted, and the core
    M01 = (J - S) / 2 is the 0/1 tournament adjacency matrix of size n - 1
    with zero diagonal, whose rank over GF(p) is :meth:`Gate0Report.core_rank`
    of m's report.  Raises ValueError when m fails Gate0, which runs here.
    """
    if not gate0_verify(m).passed:
        raise ValueError("matrix fails the defining identities; cannot normalize")
    # an entry of the core is 1 where d_i h_ij d_j = -1, an odd count of
    # negative factors: both sign vectors are XORed into one bool array in place
    neg = m.signs()[0, 1:] < 0
    core = m.signs()[1:, 1:] < 0
    core ^= neg[:, None]
    core ^= neg
    return core.view(np.uint8)


def to_matrix_text(m: PmMatrix) -> bytearray:
    """Serialize to the text interchange format (bit-exact), the mirror of
    :func:`parse_matrix_text`: the header, then byte = 44 - sign and an LF
    per row, written in place into the one bytearray returned, with no
    copy.  It compares equal to the same bytes, and ``hashlib``,
    ``Path.write_bytes`` and the parser all take it."""
    header = b"%d\n" % m.n
    text = bytearray(len(header) + m.n * (m.n + 1))
    text[: len(header)] = header
    chars = np.frombuffer(text, dtype=np.uint8, offset=len(header)).reshape(m.n, m.n + 1)
    np.subtract(_MID, m.signs(), out=chars[:, : m.n].view(np.int8))
    chars[:, m.n] = _LF
    return text


def parse_matrix_text(data: bytes) -> PmMatrix:
    """Parse the text interchange format, rejecting any stray byte.

    Raises MatrixFormatError with a 1-based line (and column, where it
    applies) on any deviation: a header other than the canonical decimal
    order (``[1-9][0-9]*``, as :func:`to_matrix_text` writes it), wrong line
    count or length, or a character other than '+' and '-'.  The first
    offending row wins, and a row's wrong length is reported before its
    characters.  So every accepted input is exactly ``to_matrix_text`` of
    the parsed matrix.

    Acceptance is decided by whole-array checks of that canonical layout
    (see the module docstring); only refused text is scanned row by row, by
    :func:`_first_format_error`, to place the error.
    """
    end = data.find(b"\n", 0, 32)  # the order of any text that fits in memory has < 32 digits
    if end > 0 and _ORDER_HEADER.fullmatch(data, 0, end):
        n = int(data[:end])
        if len(data) == end + 1 + n * (n + 1):
            chars = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(n, n + 1)
            if (chars[:, n] == _LF).all():
                signs = (_MID - chars[:, :n]).view(np.int8)  # '+' -> 1, ',' -> 0, '-' -> -1
                if (signs.min() >= -1 and signs.max() <= 1
                        and signs.view(np.uint8).min() >= 1):  # -1 is 255, so no 0
                    return PmMatrix(signs)
    raise _first_format_error(data)


def _first_format_error(data: bytes) -> MatrixFormatError:
    """The first error of text that :func:`parse_matrix_text` refused, in
    the order its docstring gives."""
    if not data.endswith(b"\n"):
        nlines = data.count(b"\n") + 1
        return MatrixFormatError("missing trailing newline", line=max(nlines, 1))
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _LF)  # ends[0] closes the header, ends[i] row i
    header = data[: ends[0]]
    if not _ORDER_HEADER.fullmatch(header):
        return MatrixFormatError("header is not a positive decimal order", line=1)
    n = ends.size - 1
    if header != str(n).encode("ascii"):  # compared as text: no int() of a long header
        return MatrixFormatError(
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
        return MatrixFormatError(
            f"invalid character {chr(chars[row, col])!r}", line=row + 2, column=col + 1)
    # the text is not canonical, so some row has the wrong length
    length = int(lengths[good])
    return MatrixFormatError(
        f"row has {length} characters, expected {n}", line=good + 2,
        column=min(length, n) + 1)
