"""Orthogonal +-1 sketch codec: transform, top-k selection, 8-bit quantization.

The forward transform is y = H x / sqrt(n) for a verified +-1 matrix H of
order n; since H H^T = nI the transform is orthogonal and energy-preserving,
and the inverse is x = H^T y / sqrt(n).  A sketch keeps the k largest |y_i|
(ties broken toward the smaller index) and quantizes them symmetrically to
signed bytes.

Every product with H is exact, and each transform rounds once.  With E the
exponent of max|v| (max|v| < 2^E), the input is taken as the integers
X = rint(v 2^s), s = 46 - E, so |X| <= 2^46, and X is split in one
vectorized pass into 6 balanced base-255 digit columns D_j, entries in
[-127, 127].  Each product H D_j (H^T D_j for the inverse) is an integer of
magnitude at most 127 n < 2^24 (n < 2^16 by the wire tag), formed exactly,
and T = sum of 255^j H D_j is summed in int64: |T| <= n 2^46 < 2^62.  Then
y = float64(T) 2^-s / sqrt(n), so y is a function of v alone, whatever
order BLAS adds in and however the work is split into panels.  The decode
forms H^T q for the packet's quantized q (one digit column) and multiplies
by the float32 scale: q * scale has at most 31 significant bits, so its
X is exact and :func:`inverse_transform` of the dense y = q * scale gives
the same bits.

H^T q and H q come from one of two exact products, chosen by the matrix
alone and kept on it as its plan for that axis (:func:`_plan`), built on
first use.  When a block shift pi by d is verified to keep H
(:meth:`PmMatrix.orbit_rows`, the rows Gate0 reads), it keeps H^T too, and
for x = H (or H^T), H[pi^b i, pi^a c] = H[pi^(b - a) i, c], so at the column
pi^a c of a representative c, a in Z_f, f = (v - 1)/d,

    (x^T q)[pi^a c] = sum over b of q[pi^b r] x[pi^(b - a) r, c]

summed over the 2d moving representative rows r: a cyclic correlation of
length f for each, plus the 4 fixed rows, which add the same amount at
every a.  It is taken by the transform over Z_f of :mod:`skewhad.hadamard`
(field, power matrix W, inverse, exactness rule) for the bound 127 n.  The
plan keeps W and the inverse transform of x's moving rows at the
m = 4 + 2d representative columns, centred to |.| <= h = (P - 1)/2.  A
product multiplies that at each omega, (c x 2d)(2d x m), by the transform
of the 2d orbit sequences of q's c columns, adds the fixed rows and h at
omega = 0, and applies W at -omega: reduced into [0, P), that is x^T q + h.
The pointwise sums are exact while 2d f 127 (P - 1) h + 2P <= 2^53; when
that fails, q's transform is first reduced mod P.  At order 1252 (d = 16,
f = 39, m = 36, P = 318 319) the plan is a 39 x 39 W and a 39 x 32 x 36
transform, and a column takes about 0.15 M multiplies, where a product with
all of H takes n^2 = 1.6 M.  W is f^2 floats, at most n^2/2 bytes when
d >= 2, as for every matrix above order 8 that passes Gate0 (with d = 1,
row 2 is constant on each moving segment and cannot be orthogonal to both
rows 0 and 1).  A matrix with no verified shift, or with no such P
(q = 8191), takes float32 panels of ``_PANEL`` of H's rows, converted into
one reused buffer (:func:`_panel_product`): H q is each panel times q, and
H^T q the sum over the panels of the rows where q is given, for a packet its
k rows alone.  Every partial sum is an integer of magnitude at most
127 n < 2^24, exact in float32 whatever order BLAS adds in.

Each packet is checked once, when it is made: the constructor runs the
record check on whatever it is given and keeps read-only int64 copies, so a
packet from :meth:`SketchPacket.from_bytes`, from :func:`encode`, from code
or from ``dataclasses.replace`` is valid, and :meth:`to_bytes` and
:func:`decode` read its fields as they are.

Wire format (little-endian, 8 + 3k bytes exactly):

    header   scale: float32 | k: uint16 | n_tag: uint16
    payload  k records of (index: uint16, qvalue: int8), indices ascending
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hadamard import (_EXACT, _PANEL, PmMatrix, _exponents, _moving, _orbit_field, _powers,
                       _reduce, _transform)

_HEADER = struct.Struct("<fHH")
_RECORD_DTYPE = np.dtype([("index", "<u2"), ("qvalue", "i1")])
QMAX = 127
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_RADIX = 2 * QMAX + 1  # balanced digits in [-127, 127]
_PLACES = _RADIX ** np.arange(6)  # 6 digits: |X| <= 2^46 < (255^6 - 1)/2


class PacketFormatError(ValueError):
    """Malformed sketch packet bytes."""


@dataclass(frozen=True)
class SketchConfig:
    """Transform order n and number of retained components k."""

    n: int = 1252
    k: int = 300

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k = {self.k} must be in [1, {self.n}]")
        if self.n > 0xFFFF:
            raise ValueError(f"order {self.n} does not fit the 2-byte wire tag")


@dataclass(frozen=True, eq=False)
class SketchPacket:
    """Quantized top-k sketch with exact byte accounting.

    ``indices`` and ``qvalues`` are read-only int64 arrays, copies of what
    the constructor is given after they pass :func:`_checked_records`; the
    constructor (and so ``dataclasses.replace``) raises PacketFormatError
    wherever :meth:`from_bytes` would refuse the packet's bytes.  Equality
    and hashing compare the wire bytes.
    """

    scale: float
    k: int
    n_tag: int
    indices: np.ndarray
    qvalues: np.ndarray

    def __post_init__(self) -> None:
        indices, qvalues = _checked_records(self.scale, self.k, self.n_tag,
                                            self.indices, self.qvalues)
        indices.setflags(write=False)
        qvalues.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "qvalues", qvalues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SketchPacket):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        records = np.empty(self.k, dtype=_RECORD_DTYPE)
        records["index"] = self.indices
        records["qvalue"] = self.qvalues
        return _HEADER.pack(self.scale, self.k, self.n_tag) + records.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchPacket":
        if len(data) < _HEADER.size:
            raise PacketFormatError(f"packet of {len(data)} bytes is shorter than the header")
        scale, k, n_tag = _HEADER.unpack_from(data)
        expected = _HEADER.size + 3 * k
        if len(data) != expected:
            raise PacketFormatError(f"packet is {len(data)} bytes, expected {expected} for k={k}")
        records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=k, offset=_HEADER.size)
        return cls(scale, k, n_tag, records["index"], records["qvalue"])


def _checked_records(scale: float, k: int, n_tag: int, indices, qvalues
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The records as new int64 arrays, after every check a packet must pass.

    The scale is a finite float32 value, the order tag fits its two bytes,
    there are exactly k integer records, the indices increase strictly and
    lie in [0, n_tag), and every quantized value lies in [-127, 127].
    Raises PacketFormatError otherwise.
    """
    if not math.isfinite(scale):
        raise PacketFormatError(f"scale {scale} is not finite")
    if abs(scale) > _FLOAT32_MAX or float(np.float32(scale)) != scale:
        raise PacketFormatError(f"scale {scale!r} is not a float32 value")
    if not 0 <= n_tag <= 0xFFFF:
        raise PacketFormatError(f"order tag {n_tag} does not fit the 2-byte wire tag")
    indices, qvalues = _int64_field(indices), _int64_field(qvalues)
    if indices.shape != (k,) or qvalues.shape != (k,):
        raise PacketFormatError(f"{indices.size} indices and {qvalues.size} quantized "
                                f"values, expected k={k} of each")
    if k and (np.diff(indices) <= 0).any():
        raise PacketFormatError("record indices are not strictly increasing")
    if k and not 0 <= indices[0] <= indices[-1] < n_tag:
        bad = int(indices[0] if indices[0] < 0 else indices[-1])
        raise PacketFormatError(f"record index {bad} is outside [0, {n_tag})")
    if (np.abs(qvalues) > QMAX).any():
        raise PacketFormatError(f"quantized value outside [-{QMAX}, {QMAX}]")
    return indices, qvalues


def _int64_field(values) -> np.ndarray:
    """A new int64 copy of a numeric, non-boolean field, if the cast keeps every value."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged: an object array, refused below
        array = np.asarray(None)
    with np.errstate(invalid="ignore"):
        field = array.astype(np.int64) if array.dtype.kind in "iuf" else None
    if field is None or not (np.can_cast(array.dtype, np.int64) or np.array_equal(field, array)):
        raise PacketFormatError("record fields are not 64-bit integers")
    return field


def transform(x: np.ndarray, h: PmMatrix) -> np.ndarray:
    """y = H x / sqrt(n); orthogonal for a verified H.  Exact up to one
    rounding, so y is a function of x alone (see the module docstring).
    Raises ValueError for non-finite input."""
    return _exact_product(x, h, 1)


def inverse_transform(y: np.ndarray, h: PmMatrix) -> np.ndarray:
    """x = H^T y / sqrt(n), the inverse of :func:`transform`, taken the same way."""
    return _exact_product(y, h, 0)


def _exact_product(v: np.ndarray, h: PmMatrix, axis: int) -> np.ndarray:
    """H^T v (axis 0) or H v (axis 1), divided by sqrt(n): the digit columns
    of v's 46-bit integers through :func:`_plan`, summed in int64 and
    rounded once (see the module docstring)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (h.n,):
        raise ValueError(f"vector shape {v.shape} does not match order {h.n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector has non-finite entries")
    s = 46 - np.frexp(np.max(np.abs(v)))[1]
    x = np.rint(np.ldexp(v, s)).astype(np.int64)
    x += _PLACES.sum() * QMAX  # the digits of x + offset are the balanced digits + 127
    digits = x[:, None] // _PLACES % _RADIX - QMAX
    t = _plan(h, axis)(digits).astype(np.int64) @ _PLACES
    return np.ldexp(t.astype(np.float64), -s) / np.sqrt(h.n)


def top_k_indices(y: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest magnitudes of a finite y, 1 <= k <= y.size,
    ties toward the smaller index; returned in ascending index order.

    One partition finds the k-th largest magnitude t: every index above t is
    kept, and the smallest indices at t fill the rest.
    """
    mag = np.abs(y)
    t = np.partition(mag, mag.size - k)[mag.size - k]
    keep = mag > t
    keep[np.flatnonzero(mag == t)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def encode(x: np.ndarray, h: PmMatrix, cfg: SketchConfig) -> SketchPacket:
    """Sketch a real vector: transform, keep top k, quantize to signed bytes.

    The scale is max |selected| / 127, stored as float32 (1.0 when all
    selected coefficients are zero); quantized values are round(y / scale)
    clamped to [-127, 127].  y = H x is exact up to one rounding, so the
    packet bytes are a function of the input bytes alone, whatever BLAS
    build or thread count.  The matrix is trusted to satisfy the defining
    identities.  Raises ValueError when the input is not finite, the
    transform overflows or the peak has no finite, nonzero float32 scale.
    """
    if cfg.n != h.n:
        raise ValueError(f"config order {cfg.n} does not match matrix order {h.n}")
    with np.errstate(over="ignore"):
        y = transform(x, h)
    if not np.all(np.isfinite(y)):
        raise ValueError("the transform of the input vector overflows")
    idx = top_k_indices(y, cfg.k)
    sel = y[idx]
    peak = float(np.max(np.abs(sel)))
    with np.errstate(over="ignore"):
        scale = np.float32(peak / QMAX) if peak > 0.0 else np.float32(1.0)
    # A scale that overflows or underflows float32 would write a packet that
    # from_bytes refuses or that decodes to zeros.
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError(f"peak coefficient {peak:g} has no finite nonzero float32 scale")
    np.divide(sel, float(scale), out=sel)
    np.rint(sel, out=sel)
    np.clip(sel, -QMAX, QMAX, out=sel)
    return SketchPacket(float(scale), cfg.k, h.n, idx, sel.astype(np.int64))


def decode(packet: SketchPacket, h: PmMatrix) -> np.ndarray:
    """Reconstruct x = H^T y / sqrt(n) from a sketch packet, y = q * scale.

    Exact up to the final division (see the module docstring), by the plan
    for H^T kept on the matrix, and so bit-identical to
    :func:`inverse_transform` of the dense y.  Raises ValueError when the
    packet's order tag is not the matrix order.
    """
    if packet.n_tag != h.n:
        raise ValueError(f"packet order tag {packet.n_tag} does not match matrix order {h.n}")
    z = _plan(h, 0)(packet.qvalues[:, None], packet.indices)
    return (z[:, 0] * packet.scale) / np.sqrt(h.n)


def _plan(h: PmMatrix, axis: int):
    """The exact product over ``axis`` of H that h keeps, built on first
    use: plan(q, rows=None) is H^T q (axis 0) or H q (axis 1) for the c
    columns of q, entries in [-127, 127], as (n, c) float64 integers; q is
    given at every index, or, for axis 0, at ``rows`` alone.  An
    :class:`_OrbitCorrelation` of H (axis 0) or H^T (axis 1) when the orbit
    transform is exact for h, else :func:`_panel_product` of h's signs."""
    if axis not in h._plans:
        field = _orbit_field(h.n, h.orbit_rows(), lambda: QMAX * h.n)
        x = h.signs().T if axis else h.signs()
        h._plans[axis] = (partial(_panel_product, h.signs(), axis) if field is None
                          else _OrbitCorrelation(x, *field))
    return h._plans[axis]


def _panel_product(x: np.ndarray, axis: int, q: np.ndarray, rows: np.ndarray | None = None
                   ) -> np.ndarray:
    """x^T q (axis 0) or x q (axis 1), from float32 panels of ``_PANEL`` of
    x's rows (for axis 0 those at ``rows``, where q is given) converted into
    one reused buffer: x^T q sums each panel's rows times q's, and x q takes
    each panel times q (exact: see the module docstring)."""
    rows = np.arange(x.shape[0]) if rows is None else rows
    q = q.astype(np.float32)
    out = np.zeros((x.shape[1], q.shape[1]), dtype=np.float32)
    buffer = np.empty((min(_PANEL, rows.size), x.shape[1]), dtype=np.float32)
    for lo in range(0, rows.size, _PANEL):
        panel = buffer[: min(_PANEL, rows.size - lo)]
        np.copyto(panel, x[rows[lo: lo + _PANEL]])
        if axis:
            np.matmul(panel, q, out=out[lo: lo + panel.shape[0]])
        else:
            out += panel.T @ q[lo: lo + _PANEL]
    return out.astype(np.float64)


class _OrbitCorrelation:
    """x^T q at the orbit columns of the block shift by d, of order f, that
    keeps x, by the transform over Z_f mod p (see the module docstring)."""

    def __init__(self, x: np.ndarray, d: int, f: int, p: int, z: int):
        self.n, self.d, self.p = x.shape[0], d, p
        every = np.arange(self.n)
        self.fixed = np.array([0, 1, 2, self.n // 2 + 1])
        cols = np.concatenate([moved[0] for moved in _moving(every, d)] + [self.fixed])
        self.back = -np.arange(f) % f  # omega -> -omega
        # the inverse transform of x[pi^e r, c] over e is W at -omega times
        # 1/f: with 1/f taken centred each term is at most (p - 1) h, and the
        # sum is centred to |.| <= h, h = (p - 1)/2.  The product keeps W.
        h, inverse = p // 2, pow(f, -1, p)
        inverse -= p if inverse > h else 0
        moving = np.empty((f, cols.size, 2, d))
        moving[..., 0, :], moving[..., 1, :] = (rows[..., cols].transpose(0, 2, 1)
                                                for rows in _moving(x, d))
        self.w = np.empty((f, f))
        t = _transform(_powers(z, p, f), moving.reshape(f, -1)[self.back] * inverse,
                       np.empty((f, moving[0].size)), _exponents(f, _PANEL), self.w)
        t += h
        self.transform = (_reduce(t, p) - h).reshape(f, cols.size, 2 * d)
        self.fixed_rows = x[self.fixed, cols[:, None]].astype(np.float64)  # (m, 4)
        self.reduce = 2 * d * (f * QMAX * (p - 1)) * h + 2 * p > _EXACT

    def __call__(self, q: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        p, h, d, f = self.p, self.p // 2, self.d, self.back.size
        if rows is not None:  # q's entries at rows, zero elsewhere
            q, given = np.zeros((self.n, q.shape[1])), q
            q[rows] = given
        c = q.shape[1]
        sequences = np.empty((f, 2, d, c))
        sequences[:, 0], sequences[:, 1] = _moving(q, d)
        qhat = (self.w @ sequences.reshape(f, -1)).reshape(f, 2 * d, c)
        if self.reduce:
            _reduce(qhat, p)
        zhat = np.matmul(self.transform, qhat)
        zhat[0] += self.fixed_rows @ q[self.fixed] + h
        z = _reduce(self.w @ _reduce(zhat, p)[self.back].reshape(f, -1), p).reshape(f, -1, c)
        z -= h  # z[a, j] = x^T q at pi^a of representative column j
        out = np.empty((self.n, c))
        first, second = _moving(out, d)
        first[...], second[...] = z[:, :d], z[:, d: 2 * d]
        out[self.fixed] = z[0, 2 * d:]
        return out


def byte_accounting(cfg: SketchConfig) -> tuple[int, int, float]:
    """(raw_bytes, sketch_bytes, compression ratio) for float32 vectors."""
    raw = 4 * cfg.n
    sketch = _HEADER.size + 3 * cfg.k
    return raw, sketch, raw / sketch
