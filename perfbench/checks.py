"""Output checks that do not go through the code they check.

Matrix text and sketch packets are parsed here with plain numpy and
``struct``, and the sketch reference is computed from the parsed signs, so a
defect in ``skewhad.hadamard`` or ``skewhad.sketch`` cannot hide itself.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<fHH")
RECORD = np.dtype([("index", "<u2"), ("qvalue", "i1")])
QMAX = 127
# Float tolerance for comparing transforms computed in a different summation
# order: entries of H x / sqrt(n) are sums of n terms of size |x_i|.
REL_TOL = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_signs(data: bytes) -> np.ndarray:
    """+-1 int8 matrix from the text format: order, then n rows of '+'/'-'."""
    lines = data.split(b"\n")
    n = int(lines[0])
    if len(lines) != n + 2 or lines[-1] != b"":
        raise ValueError(f"expected {n} rows and a trailing newline")
    rows = np.frombuffer(b"".join(lines[1:-1]), dtype=np.uint8)
    if rows.size != n * n or not np.all((rows == ord("+")) | (rows == ord("-"))):
        raise ValueError("rows must hold exactly n '+' or '-' characters")
    return np.where(rows == ord("+"), 1, -1).astype(np.int8).reshape(n, n)


def skew_hadamard_problems(signs: np.ndarray) -> list[str]:
    """H H^T = nI and H + H^T = 2I, checked with float64 products, which are
    exact here since every partial sum is an integer below 2^53."""
    n = signs.shape[0]
    s = signs.astype(np.float64)
    problems = []
    if not np.array_equal(s @ s.T, n * np.eye(n)):
        problems.append("H H^T != nI")
    if not np.array_equal(s + s.T, 2 * np.eye(n)):
        problems.append("H + H^T != 2I")
    return problems


def artifact_problems(out_dir: Path, expected: dict[str, str]) -> list[str]:
    """Each named artifact exists and has the pinned sha256."""
    problems = []
    for name, digest in sorted(expected.items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256_file(path) != digest:
            problems.append(f"{name}: sha256 differs from the pinned digest")
    return problems


def transform(signs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x / sqrt(n); pass ``signs`` as float64 to avoid a copy per call."""
    return np.asarray(signs, dtype=np.float64) @ x / math.sqrt(signs.shape[0])


def read_packet(data: bytes):
    """(scale, k, n_tag, indices, qvalues) or raise ValueError."""
    if len(data) < HEADER.size:
        raise ValueError(f"packet of {len(data)} bytes has no header")
    scale, k, n_tag = HEADER.unpack_from(data)
    if len(data) != HEADER.size + 3 * k:
        raise ValueError(f"packet is {len(data)} bytes, expected 8 + 3k = {HEADER.size + 3 * k}")
    rec = np.frombuffer(data, dtype=RECORD, count=k, offset=HEADER.size)
    return scale, k, n_tag, rec["index"].astype(np.int64), rec["qvalue"].astype(np.int64)


def packet_problems(data: bytes, x: np.ndarray, signs: np.ndarray, k: int) -> list[str]:
    """The packet is a valid top-k, 8-bit sketch of x under H.

    Allows ties in the top-k choice and a rounding flip in quantization,
    both within float tolerance of the reference transform.
    """
    n = signs.shape[0]
    try:
        scale, k_tag, n_tag, idx, q = read_packet(data)
    except ValueError as exc:
        return [str(exc)]
    if k_tag != k or n_tag != n:
        return [f"header k={k_tag} n={n_tag}, expected k={k} n={n}"]
    if np.any(np.diff(idx) <= 0) or idx[-1] >= n:
        return ["record indices are not strictly increasing below n"]
    y = transform(signs, x)
    mag = np.abs(y)
    tol = REL_TOL * (float(np.linalg.norm(x)) + 1.0)
    threshold = np.partition(mag, n - k)[n - k]
    problems = []
    rest = np.ones(n, dtype=bool)
    rest[idx] = False
    if mag[idx].min() < threshold - tol or (rest.any() and mag[rest].max() > threshold + tol):
        problems.append("retained indices are not the k largest transform magnitudes")
    peak = float(mag[idx].max())
    want_scale = float(np.float32(peak / QMAX)) if peak > tol else 1.0
    if not math.isclose(scale, want_scale, rel_tol=1e-6, abs_tol=tol):
        problems.append(f"scale {scale!r} != max|y|/127 = {want_scale!r}")
    elif np.any(np.abs(q) > QMAX) or np.any(np.abs(q - y[idx] / scale) > 0.5 + 1e-6):
        problems.append("quantized values do not round y / scale")
    return problems


def reference_decode(data: bytes, signs: np.ndarray) -> np.ndarray:
    scale, _, _, idx, q = read_packet(data)
    y = np.zeros(signs.shape[0])
    y[idx] = q * float(scale)
    return np.asarray(signs, dtype=np.float64).T @ y / math.sqrt(signs.shape[0])


def decoded_problems(xhat: np.ndarray, data: bytes, signs: np.ndarray) -> list[str]:
    """The decoder output equals H^T y / sqrt(n) for the packet's y."""
    if xhat.shape != (signs.shape[0],):
        return [f"decoded {xhat.shape[0]} values, expected {signs.shape[0]}"]
    if not np.all(np.isfinite(xhat)):
        return ["decoded output has non-finite values"]
    ref = reference_decode(data, signs)
    if not np.allclose(xhat, ref, rtol=0.0, atol=REL_TOL * (float(np.linalg.norm(ref)) + 1.0)):
        return ["decoded output differs from H^T y / sqrt(n)"]
    return []


def rel_err(xhat: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(xhat - x) / np.linalg.norm(x))


def read_vector(path: Path) -> np.ndarray:
    """One float per line, as ``skewhad sketch decode`` writes it."""
    return np.array([float(v) for v in path.read_text("ascii").split()], dtype=np.float64)


def write_vector(path: Path, x: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{float(v)!r}\n" for v in x))
