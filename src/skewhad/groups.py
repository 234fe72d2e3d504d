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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Dense v x v development tables are only sensible for small orders.
_MAX_DENSE_ORDER = 8192
# Ordered member pairs counted at once by autocorrelation_profile.
_PROFILE_BLOCK_PAIRS = 1 << 20
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
        index_of_log = np.concatenate([1 + np.arange(2 * m) % m, np.zeros(m, np.int64)])
        self._idx_of_enc, self._h = idx, int(idx[p - 1]) - 1
        self._zech, self._index_of_log = zech, index_of_log
        for a in (idx, zech, index_of_log):
            a.setflags(write=False)
        self._diff_table: np.ndarray | None = None

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

    def _minus_one_logs(self) -> np.ndarray:
        """zm[c] = log(g^c - 1) = h + Z(c + h), periodic in q - 1, for
        0 <= c < 2(q - 1); the index of g^(a + c) - g^a = g^a (g^c - 1) is
        ``_index_of_log[a + zm[c]]``, which is 0 at c = 0."""
        m = self.order - 1
        zm = (self._h + self._zech[(np.arange(m) + self._h) % m]) % m
        zm[0] = 2 * m
        return np.concatenate([zm, zm])

    def diff_index_table(self) -> np.ndarray:
        """Table T with T[i, j] = index of g_j - g_i.  Cached."""
        if self._diff_table is None:
            if self.order > _MAX_DENSE_ORDER:
                raise ValueError(f"group of order {self.order} is too large for a dense table")
            idx = np.arange(self.order, dtype=np.int64)
            m = self.order - 1
            t = np.empty((self.order, self.order), dtype=np.int64)
            t[0] = idx
            t[:, 0] = self.neg_perm()
            # T[1 + a, 1 + b] reads zm at b - a + m, then adds a.
            rows = sliding_window_view(self._minus_one_logs(), m)[m:0:-1]
            t[1:, 1:] = self._index_of_log[rows + idx[:m, None]]
            t.setflags(write=False)
            self._diff_table = t
        return self._diff_table

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

    Entry 0 is always the group order.  Ordered member pairs are counted by
    difference, at most ``_PROFILE_BLOCK_PAIRS`` pairs at a time to bound
    the memory.
    """
    v = spec.order
    members = np.flatnonzero(mask)
    counts = np.zeros(v, dtype=np.int64)
    step = max(1, _PROFILE_BLOCK_PAIRS // max(1, members.size))
    # g^b - g^a = g^a (g^(b - a) - 1) for nonzero members; the zero member,
    # when present, adds 0 - 0, g^b - 0 and 0 - g^b.
    zm, logs = spec._minus_one_logs(), members[members > 0] - 1
    for start in range(0, logs.size, step):
        a = logs[start:start + step, None]
        diffs = spec._index_of_log[a + zm[logs + (v - 1 - a)]]
        counts += np.bincount(diffs.ravel(), minlength=v)
    if mask[0]:
        counts += np.bincount([0, *(1 + logs), *spec.neg_perm()[1 + logs]], minlength=v)
    return v - 4 * members.size + 4 * counts
