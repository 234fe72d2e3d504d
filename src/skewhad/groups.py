"""The additive group of GF(p^e) with a fixed element ordering, plus subset
autocorrelation.

A group element is identified with its 0-based index in the discrete-log
ordering ``[0, g^0, g^1, ..., g^(q-2)]`` for a primitive element g (see
:mod:`skewhad.gf` for how the ordering is produced).

Field sums are lookups: index 1 + k holds g^k, so g^a + g^b is g^a times
1 + g^(b-a), one read of the Zech table Z(k) = log(1 + g^k) and a shift of
the log by a.  Negation adds h = log(-1) to the log (h = 0 when p = 2).
The log of 0 is stored as 2(q - 1), which the log-to-index table maps to 0.

Subsets are represented as boolean membership masks of length ``order``,
indexed by element index.

A development M[i, j] = values[index of g_j - g_i] is read through one
method, :meth:`GroupSpec._rows`: row 1 + r holds at g^j the value at
g^j - g^r, of log r + zm[j - r] for the table zm[c] = log(g^c - 1) derived
once, and column 0 is row 0 at -x.  :meth:`GroupSpec.develop` forms no index
table: if ``values[1:]`` has cyclic period P (16 for the paper's blocks,
q - 1 at worst), x -> g^P x keeps it, so row g^(r + Pt) is row g^r shifted
cyclically by Pt, and only P rows are read.

:func:`autocorrelation_profile` reads the same rows: D g^P = D gives
P_D(g^P w) = P_D(w), and P_D(g^r) = P_D(-g^r) = (M M^T)[0, 1 + r] for M the
development of s, so the profile is P dot products with rows 1 .. P of M.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The largest order whose q x q development is formed.
_MAX_DENSE_ORDER = 8192
# Row entries autocorrelation_profile gathers at once (a mask of period q - 1 has q - 1 rows).
_PERIOD_ROW_ENTRIES = 1 << 20
# Encodings whose digits the power-sequence check holds at once.
_SHIFT_CHECK_ROWS = 1 << 16


def _check_power_sequence(enc: np.ndarray, p: int, e: int) -> None:
    """Raise ValueError unless ``enc[1:]`` are the powers of one element g.

    The Zech sums are right exactly when the log shift T, which takes
    enc[1 + k] to enc[1 + (k + 1) mod (q - 1)] and 0 to 0, is GF(p)-linear
    on digit vectors: then T^a(1 + g^k) = g^a + g^(a+k).  So T(x) is
    compared with sum_i x_i T(p^i) mod p for every encoding x: the q e
    digits times the (e, e) digits of the T(p^i), in blocks of
    :data:`_SHIFT_CHECK_ROWS` encodings (0.3 ms at q = 625).
    """
    q = p**e
    shift = np.zeros(q, dtype=np.int64)
    shift[enc[1:]] = np.roll(enc[1:], -1)
    place = p ** np.arange(e, dtype=np.int64)
    basis = shift[place][:, None] // place % p  # row i: the digits of T(p^i)
    for start in range(0, q, _SHIFT_CHECK_ROWS):
        x = np.arange(start, min(start + _SHIFT_CHECK_ROWS, q), dtype=np.int64)
        if not np.array_equal(x[:, None] // place % p @ basis % p @ place, shift[x]):
            raise ValueError("element encodings are not the powers of one primitive element")


def _period(seg: np.ndarray) -> int:
    """The cyclic period of a sequence: its least shift p, a divisor of its
    length, with seg[p:] == seg[:-p]."""
    size = seg.size
    return next(p for p in range(1, size + 1)
                if size % p == 0 and np.array_equal(seg[p:], seg[: size - p]))


class GroupSpec:
    """The additive group of GF(p^e), its elements in discrete-log order.

    Immutable after construction and safe to share between threads.  All
    arithmetic is on element indices in ``[0, order)``.
    """

    def __init__(self, p: int, e: int, elem_enc):
        q = p**e
        self.order, self.p, self.e = q, p, e
        enc = np.asarray(elem_enc, dtype=np.int64)
        if enc.shape != (q,) or enc[0] != 0 or enc[1] != 1:
            raise ValueError(f"element encodings must list the {q} field elements, "
                             f"0 and then g^0 = 1 first")
        idx = np.argsort(enc)  # the inverse permutation, if enc is one
        if not np.array_equal(enc[idx], np.arange(q)):
            raise ValueError("element encodings do not enumerate the field")
        _check_power_sequence(enc, p, e)
        m = q - 1
        c0 = enc[1:] % p
        zech = idx[enc[1:] - c0 + (c0 + 1) % p] - 1
        zech[zech < 0] = 2 * m
        self._index_of_log = np.concatenate([1 + np.arange(2 * m) % m, np.zeros(m, np.int64)])
        h, c = int(idx[p - 1]) - 1, np.tile(np.arange(m), 2)  # c < q - 1, twice over
        zm = np.where(c, (h + zech[(c + h) % m]) % m, 2 * m)  # log(g^c - 1) = h + Z(c + h)
        self._idx_of_enc, self._h, self._zech, self._zm = idx, h, zech, zm
        for a in (idx, zech, zm, self._index_of_log):
            a.setflags(write=False)

    @classmethod
    def field_additive(cls, p: int, e: int, elem_enc) -> "GroupSpec":
        """Additive group of GF(p^e) in discrete-log order.

        ``elem_enc[i]`` is the encoding (sum of c_i * p^i) of the i-th element:
        0, then the powers g^0 = 1, g^1, ... of one primitive g, the order the
        Zech table rests on (``elem_enc[1] != 1`` is refused, and so is an
        order that is not a power sequence; see :func:`_check_power_sequence`).
        Adding 1 alters only the constant digit, and -1 is encoded p - 1,
        which gives h.
        """
        return cls(p, e, elem_enc)

    def __repr__(self) -> str:
        return f"GroupSpec.field_additive({self.p}, {self.e})"

    def _check_index(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range for group of order {self.order}")
        return x

    def indices_of_encodings(self, encs: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given encodings; ValueError
        outside [0, order)."""
        encs = np.array(encs, dtype=np.int64)
        if encs.size and not (0 <= encs.min() and encs.max() < self.order):
            raise ValueError(f"encoding out of range for group of order {self.order}")
        return self._idx_of_enc[encs]

    def add_shift(self, xs: np.ndarray, w: int) -> np.ndarray:
        """Vectorized ``x + w`` for an array of element indices."""
        w = self._check_index(w)
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and not (0 <= xs.min() and xs.max() < self.order):
            raise ValueError(f"element index out of range for group of order {self.order}")
        if w == 0:
            return xs.copy()
        # g^k + g^a = g^a (1 + g^(k - a)), and 0 + g^a = g^a.
        a = w - 1
        sums = self._index_of_log[a + self._zech[(xs - 1 - a) % (self.order - 1)]]
        return np.where(xs == 0, w, sums)

    def neg_perm(self) -> np.ndarray:
        """The negation map as a permutation of indices (an involution)."""
        idx = np.arange(self.order, dtype=np.int64)
        # -g^k = g^(k + h)
        return np.where(idx == 0, 0, 1 + (idx - 1 + self._h) % (self.order - 1))

    def _dense_values(self, values) -> np.ndarray:
        """``values`` as an array of one value per element; ValueError for
        another shape or an order above ``_MAX_DENSE_ORDER``."""
        values, q = np.asarray(values), self.order
        if values.shape != (q,):
            raise ValueError(f"expected {q} values, one per element, got shape {values.shape}")
        if q > _MAX_DENSE_ORDER:
            raise ValueError(f"group of order {q} is too large for a dense table")
        return values

    def _rows(self, values: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Rows 1 + r of the development of ``values``, (q,) or a stack (k, q),
        less column 0: (..., r.size, q - 1), entry [..., i, j] the value at
        g^j - g^r[i] = g^r[i] (g^(j - r[i]) - 1), gathered once from the values
        in log order (see the module docstring)."""
        m = self.order - 1
        logs = sliding_window_view(self._zm, m)[m - r]
        logs += r[:, None]
        return np.take(np.take(values, self._index_of_log, axis=-1), logs, axis=-1)

    def _develop_into(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, a (q, q) array or a view of one, holding the development
        of checked ``values``."""
        m = self.order - 1
        period = _period(values[1:])
        rows = self._rows(values, np.arange(period))
        out[0], out[:, 0] = values, values[self.neg_perm()]  # column 0 is row 0 at -x
        # row 1 + r + Pt, r < P, is row 1 + r shifted cyclically by Pt: a window of its entries
        # from P on and then all of it; splitting out's row axis makes a view, never a copy
        wide = rows if period == m else np.concatenate([rows[:, period:], rows], axis=1)
        out[1:, 1:].reshape(m // period, period, m)[:] = \
            sliding_window_view(wide, m, axis=1)[:, ::-period].swapaxes(0, 1)
        return out

    def develop(self, values: np.ndarray) -> np.ndarray:
        """M[i, j] = values[index of g_j - g_i], in the dtype of ``values``,
        from the rows of one period (see the module docstring)."""
        values = self._dense_values(values)
        return self._develop_into(values, np.empty((self.order,) * 2, dtype=values.dtype))

    def diff_index_table(self) -> np.ndarray:
        """Table T with T[i, j] = index of g_j - g_i."""
        return self.develop(np.arange(self.order))

    def sum_index_table(self) -> np.ndarray:
        """Table T with T[i, j] = index of g_i + g_j: since g_i + g_j is
        g_j - (-g_i), the difference table with its rows permuted by negation."""
        return self.diff_index_table()[self.neg_perm()]


def subset_from_indices(spec: GroupSpec, members) -> np.ndarray:
    """Boolean membership mask for the given element indices."""
    mask = np.zeros(spec.order, dtype=bool)
    mask[[spec._check_index(m) for m in members]] = True
    return mask


def subset_size(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def indicator_signs(mask: np.ndarray) -> np.ndarray:
    """The +-1 indicator: -1 on members, +1 elsewhere, as int8."""
    return np.where(mask, -1, 1).astype(np.int8)


def autocorrelation_profile(spec: GroupSpec, mask: np.ndarray) -> np.ndarray:
    """Periodic autocorrelation P_D(w) = sum_x s(x) s(x + w) of the subset at
    every shift, as an int64 array indexed by shift, with s = -1 on members
    and +1 elsewhere.

    Entry 0 is always the group order.  The P values P_D(g^r), r < P the
    period of ``mask[1:]``, are dot products with rows 1 + r of the
    development of s, from :meth:`GroupSpec._rows` ``_PERIOD_ROW_ENTRIES``
    entries at a time, and the profile repeats them (see the module docstring).
    """
    v, m = spec.order, spec.order - 1
    if np.shape(mask) != (v,):
        raise ValueError(f"expected a mask of {v} entries, got shape {np.shape(mask)}")
    s = indicator_signs(mask).astype(np.int64)
    period = _period(s[1:])
    step, column = max(1, _PERIOD_ROW_ENTRIES // m), s[spec.neg_perm()]  # row 0 at -x
    # s(0) s(0 - g^r) + the rest of row 1 + r of the development of s, times s
    at = [s[0] * column[1 + r] + spec._rows(s, r) @ s[1:]
          for r in np.array_split(np.arange(period), -(-period // step))]
    return np.concatenate([[v], np.tile(np.concatenate(at), m // period)])
