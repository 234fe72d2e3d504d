"""Orthogonal +-1 sketch codec: transform, top-k selection, 8-bit quantization.

The forward transform is y = H x / sqrt(n) for a verified +-1 matrix H of
order n; since H H^T = nI the transform is orthogonal and energy-preserving,
and the inverse is x = H^T y / sqrt(n).  A sketch keeps the k largest |y_i|
(ties broken toward the smaller index) and quantizes them symmetrically to
signed bytes.

Wire format (little-endian, 8 + 3k bytes exactly):

    header   scale: float32 | k: uint16 | n_tag: uint16
    payload  k records of (index: uint16, qvalue: int8), indices ascending
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .hadamard import PmMatrix

_HEADER = struct.Struct("<fHH")
_RECORD_DTYPE = np.dtype([("index", "<u2"), ("qvalue", "i1")])
QMAX = 127


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
    """Quantized top-k sketch with exact byte accounting."""

    scale: float
    k: int
    n_tag: int
    indices: tuple[int, ...]
    qvalues: tuple[int, ...]

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
        if not math.isfinite(scale):
            raise PacketFormatError(f"scale {scale} is not finite")
        expected = _HEADER.size + 3 * k
        if len(data) != expected:
            raise PacketFormatError(f"packet is {len(data)} bytes, expected {expected} for k={k}")
        records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=k, offset=_HEADER.size)
        indices = records["index"].astype(np.int64)
        qvalues = records["qvalue"].astype(np.int64)
        if k and (np.diff(indices) <= 0).any():
            raise PacketFormatError("record indices are not strictly increasing")
        if k and indices[-1] >= n_tag:
            raise PacketFormatError(f"record index {int(indices[-1])} >= n = {n_tag}")
        if (np.abs(qvalues) > QMAX).any():
            raise PacketFormatError(f"quantized value outside [-{QMAX}, {QMAX}]")
        return cls(scale=float(scale), k=int(k), n_tag=int(n_tag),
                   indices=tuple(int(i) for i in indices),
                   qvalues=tuple(int(v) for v in qvalues))


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
    """Indices of the k largest magnitudes, ties toward the smaller index;
    returned in ascending index order."""
    order = np.argsort(-np.abs(y), kind="stable")[:k]
    return np.sort(order)


def encode(x: np.ndarray, h: PmMatrix, cfg: SketchConfig) -> SketchPacket:
    """Sketch a real vector: transform, keep top k, quantize to signed bytes.

    The scale is max |selected| / 127, stored as float32 (1.0 when all
    selected coefficients are zero); quantized values are round(y / scale)
    clamped to [-127, 127].  Deterministic: equal input bytes give equal
    packet bytes.  The matrix is trusted to satisfy the defining identities.
    Raises ValueError when the transform overflows or the peak has no
    finite, nonzero float32 scale.
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
    q = np.clip(np.rint(sel / float(scale)), -QMAX, QMAX).astype(np.int64)
    return SketchPacket(scale=float(scale), k=cfg.k, n_tag=h.n,
                        indices=tuple(int(i) for i in idx),
                        qvalues=tuple(int(v) for v in q))


def decode(packet: SketchPacket, h: PmMatrix) -> np.ndarray:
    """Reconstruct a vector from a sketch packet via the inverse transform."""
    if packet.n_tag != h.n:
        raise ValueError(f"packet order tag {packet.n_tag} does not match matrix order {h.n}")
    y = np.zeros(h.n, dtype=np.float64)
    y[list(packet.indices)] = np.asarray(packet.qvalues, dtype=np.float64) * packet.scale
    return inverse_transform(y, h)


def byte_accounting(cfg: SketchConfig) -> tuple[int, int, float]:
    """(raw_bytes, sketch_bytes, compression ratio) for float32 vectors."""
    raw = 4 * cfg.n
    sketch = _HEADER.size + 3 * cfg.k
    return raw, sketch, raw / sketch
