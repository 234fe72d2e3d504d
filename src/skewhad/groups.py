"""Finite abelian groups with a fixed element ordering, plus subset autocorrelation.

A group element is identified with its 0-based index in the canonical
ordering.  Two kinds of groups are supported:

* ``cyclic(n)`` -- integers mod n, ordered 0, 1, ..., n-1;
* ``field_additive(p, e)`` -- the additive group of GF(p^e), ordered
  ``[0, g^0, g^1, ..., g^(v-2)]`` for a primitive element g (discrete-log
  order; see :mod:`skewhad.gf` for how the ordering is produced).

Subsets are represented as boolean membership masks of length ``order``,
indexed by element index.
"""

from __future__ import annotations

import numpy as np

GroupElem = int

CYCLIC = "cyclic"
FIELD_ADDITIVE = "field_additive"

# Dense v x v development tables are only sensible for small orders.
_MAX_DENSE_ORDER = 8192


class GroupSpec:
    """A finite abelian group with a canonical total ordering of its elements.

    Instances are immutable after construction and safe to share between
    threads.  All arithmetic is index arithmetic: inputs and outputs are
    element indices in ``[0, order)``.
    """

    def __init__(self, kind: str, order: int, *, p: int = 0, e: int = 0,
                 elem_enc: np.ndarray | None = None):
        if order <= 0:
            raise ValueError(f"group order must be positive, got {order}")
        self.kind = kind
        self.order = order
        self.p = p
        self.e = e
        if kind == FIELD_ADDITIVE:
            if elem_enc is None:
                raise ValueError("field_additive groups need element encodings")
            enc = np.asarray(elem_enc, dtype=np.int64)
            if enc.shape != (order,) or enc[0] != 0:
                raise ValueError("element encodings must list the zero element first")
            q = p**e
            if order != q:
                raise ValueError(f"order {order} != p^e = {q}")
            self._enc = enc
            idx = -np.ones(q, dtype=np.int64)
            idx[enc] = np.arange(q)
            if (idx < 0).any():
                raise ValueError("element encodings do not enumerate the field")
            self._idx_of_enc = idx
            digits = np.empty((q, e), dtype=np.int64)
            vals = enc.copy()
            for i in range(e):
                digits[:, i] = vals % p
                vals //= p
            self._digits = digits
            self._pow_p = p ** np.arange(e, dtype=np.int64)
            for a in (self._enc, self._idx_of_enc, self._digits, self._pow_p):
                a.setflags(write=False)
        elif kind != CYCLIC:
            raise ValueError(f"unknown group kind {kind!r}")
        self._diff_table: np.ndarray | None = None

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        """Integers mod n under addition."""
        return cls(CYCLIC, n)

    @classmethod
    def field_additive(cls, p: int, e: int, elem_enc) -> "GroupSpec":
        """Additive group of GF(p^e) ordered by the supplied encodings.

        ``elem_enc[i]`` is the canonical encoding (sum of c_i * p^i over the
        coefficient vector) of the i-th element; entry 0 must be the zero
        element and entries 1.. follow the powers of the chosen primitive
        element.
        """
        return cls(FIELD_ADDITIVE, p**e, p=p, e=e, elem_enc=elem_enc)

    def __repr__(self) -> str:
        if self.kind == CYCLIC:
            return f"GroupSpec.cyclic({self.order})"
        return f"GroupSpec.field_additive({self.p}, {self.e})"

    def _check_index(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range for group of order {self.order}")
        return x

    def encoding_of(self, x: GroupElem) -> int:
        """Canonical encoding of the element at index x (fields only)."""
        x = self._check_index(x)
        if self.kind == CYCLIC:
            return x
        return int(self._enc[x])

    def index_of_encoding(self, enc: int) -> GroupElem:
        if self.kind == CYCLIC:
            return self._check_index(enc)
        i = int(self._idx_of_enc[enc])
        return i

    def indices_of_encodings(self, encs: np.ndarray) -> np.ndarray:
        """Vectorized encoding-to-index lookup."""
        encs = np.asarray(encs, dtype=np.int64)
        if self.kind == CYCLIC:
            return encs % self.order
        return self._idx_of_enc[encs]

    def add(self, x: GroupElem, y: GroupElem) -> GroupElem:
        """Group sum of the elements at indices x and y."""
        x = self._check_index(x)
        y = self._check_index(y)
        if self.kind == CYCLIC:
            return (x + y) % self.order
        d = (self._digits[x] + self._digits[y]) % self.p
        return int(self._idx_of_enc[d @ self._pow_p])

    def neg(self, x: GroupElem) -> GroupElem:
        """Additive inverse of the element at index x."""
        x = self._check_index(x)
        if self.kind == CYCLIC:
            return (-x) % self.order
        d = (-self._digits[x]) % self.p
        return int(self._idx_of_enc[d @ self._pow_p])

    def add_shift(self, xs: np.ndarray, w: GroupElem) -> np.ndarray:
        """Vectorized ``x + w`` for an array of element indices."""
        w = self._check_index(w)
        xs = np.asarray(xs, dtype=np.int64)
        if self.kind == CYCLIC:
            return (xs + w) % self.order
        d = (self._digits[xs] + self._digits[w]) % self.p
        return self._idx_of_enc[d @ self._pow_p]

    def neg_perm(self) -> np.ndarray:
        """The negation map as a permutation of indices (an involution)."""
        idx = np.arange(self.order, dtype=np.int64)
        if self.kind == CYCLIC:
            return (-idx) % self.order
        d = (-self._digits) % self.p
        return self._idx_of_enc[d @ self._pow_p]

    def _dense_guard(self) -> None:
        if self.order > _MAX_DENSE_ORDER:
            raise ValueError(
                f"group of order {self.order} is too large for dense development tables")

    def diff_index_table(self) -> np.ndarray:
        """Table T with T[i, j] = index of g_j - g_i.  Cached."""
        if self._diff_table is None:
            self._dense_guard()
            if self.kind == CYCLIC:
                idx = np.arange(self.order, dtype=np.int64)
                t = (idx[None, :] - idx[:, None]) % self.order
            else:
                d = (self._digits[None, :, :] - self._digits[:, None, :]) % self.p
                t = self._idx_of_enc[d @ self._pow_p]
            t.setflags(write=False)
            self._diff_table = t
        return self._diff_table

    def sum_index_table(self) -> np.ndarray:
        """Table T with T[i, j] = index of g_i + g_j.

        Read off the difference table, since g_i + g_j = g_j - (-g_i):
        T is the difference table with its rows permuted by negation.
        """
        return self.diff_index_table()[self.neg_perm()]


def subset_from_indices(spec: GroupSpec, members) -> np.ndarray:
    """Boolean membership mask for the given element indices."""
    mask = np.zeros(spec.order, dtype=bool)
    for m in members:
        spec._check_index(m)
        mask[int(m)] = True
    return mask


def subset_size(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def indicator_signs(mask: np.ndarray) -> np.ndarray:
    """The +-1 indicator: -1 on members, +1 elsewhere, as int8."""
    return np.where(mask, -1, 1).astype(np.int8)


def autocorrelation(spec: GroupSpec, mask: np.ndarray, w: GroupElem) -> int:
    """Periodic autocorrelation of the subset at shift w.

    Computed through the intersection identity
    ``P_D(w) = v - 4 * (|D| - |D & (D - w)|)``, which agrees with the literal
    sum of indicator products over the whole group.  ``P_D(0) == v`` always.
    """
    w = spec._check_index(w)
    members = np.flatnonzero(mask)
    size = members.size
    if size == 0:
        return spec.order
    shifted = spec.add_shift(members, w)
    kept = int(np.count_nonzero(mask[shifted]))
    return spec.order - 4 * (size - kept)


def autocorrelation_profile(spec: GroupSpec, mask: np.ndarray) -> np.ndarray:
    """Autocorrelation at every shift, as an int64 array indexed by shift.

    Entry ``w`` equals ``autocorrelation(spec, mask, w)``; entry 0 is always
    the group order.  All shifts are computed in one pass by counting ordered
    member pairs with a given difference.
    """
    v = spec.order
    members = np.flatnonzero(mask)
    size = members.size
    profile = np.full(v, v - 4 * size, dtype=np.int64)
    if size == 0:
        return profile
    if spec.kind == CYCLIC:
        diffs = (members[:, None] - members[None, :]) % v
        counts = np.bincount(diffs.ravel(), minlength=v)
    else:
        d = (spec._digits[members][:, None, :] - spec._digits[members][None, :, :]) % spec.p
        enc = d @ spec._pow_p
        counts = np.bincount(spec._idx_of_enc[enc.ravel()], minlength=v)
    profile += 4 * counts
    return profile
