"""Orthogonal +-1 sketch codec: transform, top-k selection, 8-bit quantization.

The forward transform is y = H x / sqrt(n) for a verified +-1 matrix H of
order n; since H H^T = nI the transform is orthogonal and energy-preserving,
and the inverse is x = H^T y / sqrt(n).  A sketch keeps the k largest |y_i|
(ties broken toward the smaller index) and quantizes them symmetrically to
signed bytes.

The decode rounds once.  H^T q for the quantized vector q has integer
entries of magnitude at most n * 127 < 2^24 (n < 2^16 by the wire tag), so
one float32 product over the matrix's cached float32 signs gives it
exactly, in any summation order.  The scale is a float32 (a 24-bit
mantissa), so scale * H^T q has at most 48 significant bits and is exact in
float64; only the division by sqrt(n) rounds.  That is bit for bit what
:func:`inverse_transform` gives for the dense y = q * scale, whose float64
partial sums are all exact integer multiples of the scale's last bit.

Each packet is checked once, by its maker: :meth:`SketchPacket.from_bytes`
checks the records it reads, and :func:`encode` writes only valid ones.
Both keep the checked int64 arrays with the packet, so :meth:`to_bytes` and
:func:`decode` use them as they are.  A packet built in code, or by
``dataclasses.replace``, carries none and is checked where it is used.

Wire format (little-endian, 8 + 3k bytes exactly):

    header   scale: float32 | k: uint16 | n_tag: uint16
    payload  k records of (index: uint16, qvalue: int8), indices ascending
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .hadamard import PmMatrix

_HEADER = struct.Struct("<fHH")
_RECORD_DTYPE = np.dtype([("index", "<u2"), ("qvalue", "i1")])
QMAX = 127
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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


@dataclass(frozen=True)
class SketchPacket:
    """Quantized top-k sketch with exact byte accounting.

    ``indices`` and ``qvalues`` are tuples of Python ints.  A packet is
    checked once, by its maker: :meth:`from_bytes` and :func:`encode` keep
    the checked int64 records in a private slot that takes no part in
    equality, repr or the wire bytes.  A packet built directly (or by
    ``dataclasses.replace``) has no checked records, so it is checked like
    one read from bytes: :meth:`to_bytes` and :func:`decode` refuse it with
    PacketFormatError when :meth:`from_bytes` would refuse its bytes.
    """

    scale: float
    k: int
    n_tag: int
    indices: tuple[int, ...]
    qvalues: tuple[int, ...]
    _records: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    @classmethod
    def _checked_by_maker(cls, scale: float, k: int, n_tag: int, indices: np.ndarray,
                          qvalues: np.ndarray) -> "SketchPacket":
        """The packet of records that have passed every check of
        :func:`_checked_records`, int64 arrays kept read-only in the slot."""
        packet = cls(scale=scale, k=k, n_tag=n_tag,
                     indices=tuple(indices.tolist()), qvalues=tuple(qvalues.tolist()))
        indices.setflags(write=False)
        qvalues.setflags(write=False)
        object.__setattr__(packet, "_records", (indices, qvalues))
        return packet

    def _checked(self) -> tuple[np.ndarray, np.ndarray]:
        """The int64 records: its maker's, or checked here when it has none."""
        if self._records is not None:
            return self._records
        return _checked_records(self.scale, self.k, self.n_tag, self.indices, self.qvalues)

    def to_bytes(self) -> bytes:
        indices, qvalues = self._checked()
        records = np.empty(self.k, dtype=_RECORD_DTYPE)
        records["index"] = indices
        records["qvalue"] = qvalues
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
        indices, qvalues = _checked_records(scale, k, n_tag, records["index"], records["qvalue"])
        return cls._checked_by_maker(scale, k, n_tag, indices, qvalues)


def _checked_records(scale: float, k: int, n_tag: int, indices, qvalues
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The records as int64 arrays, after every check a packet must pass.

    The scale is a finite float32 value, the order tag fits its two bytes,
    there are exactly k records, the indices increase strictly and lie in
    [0, n_tag), and every quantized value lies in [-127, 127].  Raises
    PacketFormatError otherwise.
    """
    if not math.isfinite(scale):
        raise PacketFormatError(f"scale {scale} is not finite")
    if abs(scale) > _FLOAT32_MAX or float(np.float32(scale)) != scale:
        raise PacketFormatError(f"scale {scale!r} is not a float32 value")
    if not 0 <= n_tag <= 0xFFFF:
        raise PacketFormatError(f"order tag {n_tag} does not fit the 2-byte wire tag")
    try:
        indices = np.asarray(indices, dtype=np.int64)
        qvalues = np.asarray(qvalues, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise PacketFormatError("record fields are not 64-bit integers") from None
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


def transform(x: np.ndarray, h: PmMatrix) -> np.ndarray:
    """y = H x / sqrt(n); orthogonal for a verified H."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise ValueError(f"vector shape {x.shape} does not match order {h.n}")
    return (h.float_signs() @ x) / np.sqrt(h.n)


def inverse_transform(y: np.ndarray, h: PmMatrix) -> np.ndarray:
    """x = H^T y / sqrt(n), the exact inverse of :func:`transform`."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (h.n,):
        raise ValueError(f"vector shape {y.shape} does not match order {h.n}")
    return (h.float_signs().T @ y) / np.sqrt(h.n)


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
    clamped to [-127, 127].  Deterministic: equal input bytes give equal
    packet bytes.  The matrix is trusted to satisfy the defining identities.
    Raises ValueError when the transform overflows or the peak has no
    finite, nonzero float32 scale.

    The packet is valid by construction, so its records are not checked
    again: k distinct ascending indices from ``flatnonzero``, values
    clipped to [-127, 127], a finite positive float32 scale, and
    n_tag = h.n <= 0xFFFF by :class:`SketchConfig`.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.n != h.n:
        raise ValueError(f"config order {cfg.n} does not match matrix order {h.n}")
    if x.shape != (h.n,):
        raise ValueError(f"vector shape {x.shape} does not match order {h.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
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
    return SketchPacket._checked_by_maker(float(scale), cfg.k, h.n, idx, sel.astype(np.int64))


def decode(packet: SketchPacket, h: PmMatrix) -> np.ndarray:
    """Reconstruct x = H^T y / sqrt(n) from a sketch packet, y = q * scale.

    Exact up to the final division: H^T q is an integer vector with entries
    of magnitude at most n * 127 < 2^24, so the float32 product over the
    matrix's cached float32 signs holds it exactly, and the float32 scale (a
    24-bit mantissa) times such an integer is exact in float64.  The result
    is bit-identical to :func:`inverse_transform` of the dense y.
    Raises PacketFormatError for a packet that fails the wire checks and
    ValueError when its order tag is not the matrix order.
    """
    indices, qvalues = packet._checked()
    if packet.n_tag != h.n:
        raise ValueError(f"packet order tag {packet.n_tag} does not match matrix order {h.n}")
    q = np.zeros(h.n, dtype=np.float32)
    q[indices] = qvalues
    z = h.float32_signs().T @ q
    return (z.astype(np.float64) * packet.scale) / np.sqrt(h.n)


def byte_accounting(cfg: SketchConfig) -> tuple[int, int, float]:
    """(raw_bytes, sketch_bytes, compression ratio) for float32 vectors."""
    raw = 4 * cfg.n
    sketch = _HEADER.size + 3 * cfg.k
    return raw, sketch, raw / sketch
