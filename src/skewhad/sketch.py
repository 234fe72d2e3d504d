"""Orthogonal +-1 sketch codec: transform, top-k selection, 8-bit quantization.

The forward transform is y = H x / sqrt(n) for a verified +-1 matrix H of
order n; since H H^T = nI the transform is orthogonal and energy-preserving,
and the inverse is x = H^T y / sqrt(n).  A sketch keeps the k largest |y_i|
(ties broken toward the smaller index) and quantizes them symmetrically to
signed bytes.

The decode rounds once.  H^T q for the quantized vector q has integer
entries of magnitude at most 127 n < 2^24 (n < 2^16 by the wire tag), which
the decode forms exactly, as float64 integers.  The scale is a float32 (a
24-bit mantissa), so scale * H^T q has at most 48 significant bits and is
exact in float64; only the division by sqrt(n) rounds.  That is bit for bit
what :func:`inverse_transform` gives for the dense y = q * scale, whose
float64 partial sums are all exact integer multiples of the scale's last
bit.

H^T q comes from one of two exact products, chosen by the matrix alone and
kept on it as its decode plan, built on the first decode.  When a block
shift pi by d is verified to keep H (:meth:`PmMatrix.orbit_rows`, the rows
Gate0 reads), H[pi^b i, pi^a c] = H[pi^(b - a) i, c], so at the column
pi^a c of a representative c, a in Z_f, f = (v - 1)/d,

    (H^T q)[pi^a c] = sum over b of q[pi^b r] H[pi^(b - a) r, c]

summed over the 2d moving representative rows r: a cyclic correlation of
length f for each, plus the 4 fixed rows, which add the same amount at
every a.  It is taken by the transform over Z_f of :mod:`skewhad.hadamard`
(field, power matrix W, inverse, exactness rule) for the bound 127 n.  The
plan keeps W and the inverse transform of H's moving rows at the
m = 4 + 2d representative columns, centred to |.| <= h = (P - 1)/2.  A
decode multiplies that at each omega, (1 x 2d)(2d x m), by the transform
of q's 2d orbit sequences, adds the fixed rows and h at omega = 0, and
applies W at -omega: reduced into [0, P), that is H^T q + h.  The
pointwise sums are exact while 2d f 127 (P - 1) h + 2P <= 2^53; when that
fails, q's transform is first reduced mod P.  At order 1252 (d = 16,
f = 39, m = 36, P = 318 319) the plan is a 39 x 39 W and a 39 x 32 x 36
transform, and a decode takes about 0.15 M multiplies, where H^T q over all
of H takes n^2 = 1.6 M.  W is f^2 floats, at most n^2/2 bytes when d >= 2,
as for every matrix above order 8 that passes Gate0 (with d = 1, row 2 is
constant on each moving segment and cannot be orthogonal to both rows 0
and 1).  A matrix with no verified shift, or with no such P (q = 8191),
decodes the packet's k rows instead, ``_PANEL`` at a time converted into
one reused float32 buffer: every partial sum is an integer of magnitude at
most 127 k < 2^24, exact in float32 whatever order BLAS adds in.

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
    clamped to [-127, 127].  Deterministic for one BLAS build and thread
    count: equal input bytes then give equal packet bytes.  y = H x is
    BLAS's float64 product, whose last bits change with the thread count,
    and a changed bit can move a quantized value or a tie in the selection.
    The matrix is trusted to satisfy the defining identities.
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
    np.divide(sel, float(scale), out=sel)
    np.rint(sel, out=sel)
    np.clip(sel, -QMAX, QMAX, out=sel)
    return SketchPacket(float(scale), cfg.k, h.n, idx, sel.astype(np.int64))


def decode(packet: SketchPacket, h: PmMatrix) -> np.ndarray:
    """Reconstruct x = H^T y / sqrt(n) from a sketch packet, y = q * scale.

    Exact up to the final division (see the module docstring), by the plan
    kept on the matrix, and so bit-identical to :func:`inverse_transform` of
    the dense y.  Raises ValueError when the packet's order tag is not the
    matrix order.
    """
    if packet.n_tag != h.n:
        raise ValueError(f"packet order tag {packet.n_tag} does not match matrix order {h.n}")
    if h._decode_plan is None:
        h._decode_plan = _decode_plan(h)
    z = h._decode_plan(packet.indices, packet.qvalues)
    return (z * packet.scale) / np.sqrt(h.n)


def _decode_plan(h: PmMatrix):
    """The function (indices, qvalues) -> H^T q, float64 integers, that
    :func:`decode` keeps on h: an :class:`_OrbitCorrelation` when the orbit
    transform is exact for h, else :func:`_panel_product` of h's signs."""
    field = _orbit_field(h.n, h.orbit_rows(), lambda: QMAX * h.n)
    if field is None:
        return partial(_panel_product, h.signs())
    return _OrbitCorrelation(h.signs(), *field)


def _panel_product(x: np.ndarray, indices: np.ndarray, qvalues: np.ndarray) -> np.ndarray:
    """H^T q, the sum of qvalue times row ``index`` of x over the records,
    from float32 panels of ``_PANEL`` of those rows converted into one
    reused buffer (exact: see the module docstring)."""
    k = indices.size
    z = np.zeros(x.shape[1], dtype=np.float32)
    buffer = np.empty((min(_PANEL, k), x.shape[1]), dtype=np.float32)
    q = qvalues.astype(np.float32)
    for lo in range(0, k, _PANEL):
        rows = buffer[: min(_PANEL, k - lo)]
        np.copyto(rows, x[indices[lo: lo + _PANEL]])
        z += q[lo: lo + _PANEL] @ rows
    return z.astype(np.float64)


class _OrbitCorrelation:
    """H^T q at the orbit columns of the block shift by d, of order f, that
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
        moving = np.empty((f, 2, d, cols.size))
        moving[:, 0], moving[:, 1] = (rows[..., cols] for rows in _moving(x, d))
        self.w = np.empty((f, f))
        t = _transform(_powers(z, p, f), moving.reshape(f, -1)[self.back] * inverse,
                       np.empty((f, moving[0].size)), _exponents(f, _PANEL), self.w)
        t += h
        self.transform = (_reduce(t, p) - h).reshape(f, 2 * d, cols.size)
        self.fixed_rows = x[self.fixed.reshape(-1, 1), cols].astype(np.float64)
        self.reduce = 2 * d * (f * QMAX * (p - 1)) * h + 2 * p > _EXACT

    def __call__(self, indices: np.ndarray, qvalues: np.ndarray) -> np.ndarray:
        p, h, d, f = self.p, self.p // 2, self.d, self.back.size
        q = np.zeros(self.n)
        q[indices] = qvalues
        sequences = np.empty((f, 2, d))
        sequences[:, 0], sequences[:, 1] = _moving(q, d)
        qhat = self.w @ sequences.reshape(f, 2 * d)
        if self.reduce:
            _reduce(qhat, p)
        zhat = np.matmul(qhat[:, None], self.transform)[:, 0]
        zhat[0] += q[self.fixed] @ self.fixed_rows + h
        z = _reduce(self.w @ _reduce(zhat, p)[self.back], p)
        z -= h  # z[a, j] = H^T q at pi^a of representative column j
        out = np.empty(self.n)
        first, second = _moving(out, d)
        first[...], second[...] = z[:, :d], z[:, d: 2 * d]
        out[self.fixed] = z[0, 2 * d:]
        return out


def byte_accounting(cfg: SketchConfig) -> tuple[int, int, float]:
    """(raw_bytes, sketch_bytes, compression ratio) for float32 vectors."""
    raw = 4 * cfg.n
    sketch = _HEADER.size + 3 * cfg.k
    return raw, sketch, raw / sketch
