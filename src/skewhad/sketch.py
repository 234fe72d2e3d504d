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
magnitude at most 127 n < 2^24 (n < 2^16 by the wire tag), formed exactly
by the product the matrix keeps (:mod:`skewhad.hadamard`), and
T = sum of 255^j H D_j is summed in int64: |T| <= n 2^46 < 2^62.  Then
y = float64(T) 2^-s / sqrt(n), a function of v alone, whatever order BLAS
adds in and however the work is split into panels; it overflows only when
y does not fit float64.  The decode
forms H^T q for the packet's quantized q (one digit column) and multiplies
by the float32 scale: q * scale has at most 31 significant bits, so its
X is exact and :func:`inverse_transform` of the dense y = q * scale gives
the same bits.

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

import numpy as np

from .hadamard import _QMAX, PmMatrix, _product

_HEADER = struct.Struct("<fHH")
_RECORD_DTYPE = np.dtype([("index", "<u2"), ("qvalue", "i1")])
QMAX = _QMAX
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
    Raises ValueError for complex or non-finite input, or when y overflows."""
    return _exact_product(x, h, 1)


def inverse_transform(y: np.ndarray, h: PmMatrix) -> np.ndarray:
    """x = H^T y / sqrt(n), the inverse of :func:`transform`, taken the same way."""
    return _exact_product(y, h, 0)


def _exact_product(v: np.ndarray, h: PmMatrix, axis: int) -> np.ndarray:
    """H^T v (axis 0) or H v (axis 1), divided by sqrt(n): the digit columns
    of v's 46-bit integers through the matrix's exact product, summed in
    int64 and rounded once (see the module docstring)."""
    if np.iscomplexobj(v):  # the float64 cast would drop the imaginary part
        raise ValueError("input vector is complex")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (h.n,):
        raise ValueError(f"vector shape {v.shape} does not match order {h.n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector has non-finite entries")
    s = 46 - np.frexp(np.max(np.abs(v)))[1]
    x = np.rint(np.ldexp(v, s)).astype(np.int64)
    x += _PLACES.sum() * QMAX  # the digits of x + offset are the balanced digits + 127
    digits = x[:, None] // _PLACES % _RADIX - QMAX
    t = _product(h, digits, axis).astype(np.int64) @ _PLACES
    # 2^-s before the division where it shrinks y (a subnormal y is rounded
    # once), after it where it grows y (y overflows only if out of range)
    with np.errstate(over="ignore"):
        y = np.ldexp(np.ldexp(t.astype(np.float64), -max(s, 0)) / np.sqrt(h.n), -min(s, 0))
    if not np.all(np.isfinite(y)):
        raise ValueError("the transform of the input vector overflows")
    return y


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
    identities.  Raises ValueError when the input is complex or not finite,
    y overflows or the peak has no finite, nonzero float32 scale.
    """
    if cfg.n != h.n:
        raise ValueError(f"config order {cfg.n} does not match matrix order {h.n}")
    y = transform(x, h)
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

    H^T q, for the packet's k values scattered into one column, is exact up
    to the final division (see the module docstring), by the product the
    matrix keeps, and so bit-identical to :func:`inverse_transform` of the
    dense y.  Raises ValueError when the packet's order tag is not the matrix order.
    """
    if packet.n_tag != h.n:
        raise ValueError(f"packet order tag {packet.n_tag} does not match matrix order {h.n}")
    q = np.zeros((h.n, 1))
    q[packet.indices, 0] = packet.qvalues
    return (_product(h, q, 0)[:, 0] * packet.scale) / np.sqrt(h.n)


def byte_accounting(cfg: SketchConfig) -> tuple[int, int, float]:
    """(raw_bytes, sketch_bytes, compression ratio) for float32 vectors."""
    raw = 4 * cfg.n
    sketch = _HEADER.size + 3 * cfg.k
    return raw, sketch, raw / sketch
