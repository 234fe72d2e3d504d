from __future__ import annotations

import dataclasses
import functools
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewhad as sh
from skewhad import hadamard, sketch
from skewhad.sketch import PacketFormatError, QMAX

from _naive import naive_fixed_point_product, naive_h_transpose_q, naive_top_k_indices
from conftest import mutate_one_byte, orbit_flip


def test_byte_accounting_primary():
    raw, size, ratio = sh.byte_accounting(sh.SketchConfig(n=1252, k=300))
    assert raw == 5008
    assert size == 908
    assert abs(ratio - 5.52) <= 0.005


def test_byte_accounting_full_k():
    raw, size, ratio = sh.byte_accounting(sh.SketchConfig(n=1252, k=1252))
    assert size == 3764 and size < raw
    assert round(ratio, 2) == 1.33


def test_granularity_gain():
    # a sketch of order 1252 carries 22.27% more coordinates than one of the
    # power of two below; the next Sylvester order, 2048, would double them
    def raw(n):
        return sh.byte_accounting(sh.SketchConfig(n=n, k=1))[0]

    assert abs((raw(1252) / raw(1024) - 1.0) * 100.0 - 22.27) <= 0.01
    assert (raw(2048) / raw(1024) - 1.0) * 100.0 == 100.0


def test_config_validation():
    with pytest.raises(ValueError):
        sh.SketchConfig(n=8, k=0)
    with pytest.raises(ValueError):
        sh.SketchConfig(n=8, k=9)
    with pytest.raises(ValueError):
        sh.SketchConfig(n=70000, k=3)


def test_transform_preserves_energy(matrix8, matrix12):
    rng = np.random.default_rng(0)
    for m in (matrix8, matrix12):
        for _ in range(5):
            x = rng.normal(size=m.n)
            y = sh.transform(x, m)
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-9 * np.linalg.norm(x)


def test_transform_inverse_round_trip(matrix8, matrix12):
    rng = np.random.default_rng(1)
    for m in (matrix8, matrix12):
        x = rng.normal(size=m.n)
        xr = sh.inverse_transform(sh.transform(x, m), m)
        assert np.max(np.abs(x - xr)) <= 1e-9 * np.max(np.abs(x))


# max|x| just below a power of two, whose integers reach 2^46, the top of
# the digit range; at a power of two; subnormal; where y straddles the
# subnormal range (2^-s applied after the division would round some entries
# twice); and near the float64 limit
MAGNITUDES = [float(np.nextafter(8.0, 0.0)), 8.0, 3e-320, 2.0 ** -1020, 1e300]


@pytest.mark.parametrize("path", ["orbit", "panels", "panels after a flip"])
def test_transforms_are_the_exact_integer_product_rounded_once(matrix12, matrix1252, path):
    # y = float64(T) 2^-s / sqrt(n) for T = H X, X the 46-bit integers of x,
    # here each rounded by its own Fraction and T summed in Python ints; at
    # order 1252 on the orbit correlation, at order 12 (no verified shift)
    # and after a flip of an orbit of the shift by 2d on the panel product
    signs = {"orbit": matrix1252.signs(), "panels": matrix12.signs(),
             "panels after a flip": orbit_flip(matrix1252.signs(), 32, 5)}[path]
    m = sh.PmMatrix.from_signs(signs)
    rng = np.random.default_rng(14)
    for peak in MAGNITUDES:
        x = rng.normal(size=m.n)
        x *= peak / np.max(np.abs(x))
        x[np.argmax(np.abs(x))] = -peak
        for fn, h in ((sh.transform, signs), (sh.inverse_transform, signs.T)):
            t, s, xs = naive_fixed_point_product(h, x)
            if peak == MAGNITUDES[0]:
                assert max(abs(v) for v in xs) == 2 ** 46
            want = np.ldexp(np.array([float(v) for v in t]), -s) / np.sqrt(m.n)
            assert np.array_equal(fn(x, m).view(np.int64), want.view(np.int64)), (peak, fn)
    assert isinstance(m._product,
                      hadamard._OrbitCorrelation if path == "orbit" else functools.partial)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transforms_refuse_non_finite_input(matrix12, bad):
    x = np.ones(12)
    x[5] = bad
    for fn in (sh.transform, sh.inverse_transform):
        with pytest.raises(ValueError, match="input vector has non-finite entries"):
            fn(x, matrix12)


# y and the packet bytes of 30 seeded vectors at order 1252, on the orbit
# correlation and on the panel product, as one digest
_DIGEST = """
import hashlib, sys
from pathlib import Path
import numpy as np
from skewhad import hadamard, sketch
hadamard._PANEL = int(sys.argv[1])
digest = hashlib.sha256()
for path in sys.argv[2:]:
    h = hadamard.parse_matrix_text(Path(path).read_bytes())
    for seed in range(30):
        x = np.random.default_rng(seed).normal(size=h.n)
        digest.update(sketch.transform(x, h).tobytes())
        digest.update(sketch.encode(x, h, sketch.SketchConfig(n=h.n, k=300)).to_bytes())
print(digest.hexdigest())
"""


def test_transforms_and_packets_repeat_across_blas_threads_and_panel_heights(
        tmp_path, matrix1252):
    paths = [tmp_path / "orbit.txt", tmp_path / "panels.txt"]
    paths[0].write_bytes(sh.to_matrix_text(matrix1252))
    paths[1].write_bytes(sh.to_matrix_text(sh.PmMatrix(orbit_flip(matrix1252.signs(), 32, 5))))
    env = {**os.environ, "PYTHONPATH": str(Path(sh.__file__).parents[1])}
    digests = {subprocess.run([sys.executable, "-c", _DIGEST, panel, *map(str, paths)],
                              env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                              stdout=subprocess.PIPE, text=True).stdout
               for threads, panel in (("1", "256"), ("2", "256"), ("2", "7"))}
    assert len(digests) == 1, digests


def test_the_matrix_keeps_one_product_for_both_axes(matrix12, matrix1252):
    # Gate0 builds no product; the first decode builds the one product the
    # matrix keeps, with the table for H^T q alone, and the first transform
    # adds the table for H x to it; a later call reads neither the signs
    # nor the orbit rows again.  At order 1252 the product is an orbit
    # correlation, whose largest array is its one 39 x 39 power matrix; at
    # order 12 no shift is verified, and it is the panel product of the signs.
    for signs, path in ((matrix12.signs(), "panels"), (matrix1252.signs(), "orbit")):
        m = sh.PmMatrix.from_signs(signs)
        assert sh.gate0_verify(m).passed and m._product is None
        packet = sh.SketchPacket(scale=1.0, k=1, n_tag=m.n, indices=(4,), qvalues=(12,))
        first = sh.decode(packet, m)
        product = m._product
        if path == "orbit":
            assert isinstance(product, hadamard._OrbitCorrelation) and product.w.shape == (39, 39)
            assert product.tables[0] is not None and product.tables[1] is None
        else:
            assert product.func is hadamard._panel_product and product.args[0] is m.signs()
            assert len(product.args) == 1 and not product.keywords
        x = np.random.default_rng(2).normal(size=m.n)
        y = sh.transform(x, m)
        assert m._product is product
        tables = list(getattr(product, "tables", []))  # the panel product keeps none
        shapes = [(t.shape, rows.shape) for t, rows in tables]
        assert shapes == ([((39, 36, 32), (36, 4))] * 2 if path == "orbit" else [])
        assert np.array_equal(first, signs[4].astype(np.float64) * 12 / np.sqrt(m.n))
        m.signs = lambda: pytest.fail("the signs were read again")
        m.block_shift = lambda: pytest.fail("the block shift was read again")
        assert np.array_equal(sh.decode(packet, m), first)
        assert np.array_equal(sh.transform(x, m), y) and m._product is product
        assert all(a is b for a, b in zip(getattr(product, "tables", []), tables))


def test_gate0_and_two_decodes_verify_the_block_shift_once(monkeypatch, matrix1252):
    # Gate0 and the sketch read the orbit rows the matrix keeps, so the
    # block shift is verified once; Gate0's Gram builds one correlation of
    # its own, which the matrix does not keep, and the sketch one product,
    # on H's signs, with each axis's table built once, by the first encode
    # and decode
    shifts, products, tables = [], [], []
    keeps, product = hadamard._keeps_block_shift, hadamard._OrbitCorrelation
    monkeypatch.setattr(hadamard, "_keeps_block_shift",
                        lambda x, d: shifts.append(d) or keeps(x, d))
    monkeypatch.setattr(hadamard, "_OrbitCorrelation",
                        lambda *a: products.append(product(*a)) or products[-1])
    m = sh.PmMatrix.from_signs(matrix1252.signs())
    assert sh.gate0_verify(m).passed
    assert shifts == [16] and len(products) == 1 and m._product is None
    x = np.random.default_rng(12).normal(size=1252)
    for k in (32, 300):
        packet = sh.encode(x, m, sh.SketchConfig(n=1252, k=k))
        assert np.all(np.isfinite(sh.decode(packet, m)))
        tables.append(list(m._product.tables))
    assert shifts == [16] and len(products) == 2 and m._product is products[1]
    assert all(p.x is m.signs() for p in products)
    assert all(a is b for a, b in zip(*tables)) and None not in tables[0]


@pytest.mark.parametrize("case", ["1252", "4080", "panels", "panels after a flip"])
def test_one_field_and_one_w_serve_both_axes(monkeypatch, matrix12, matrix1252, instance4080,
                                             case):
    # transform, inverse_transform and two decodes find the field once and
    # build one W (Gate0, run first, finds its own for the Gram); the panel
    # product, with no verified shift (order 12) or after a flip of an orbit
    # of the shift by 2d, which breaks the shift by d, seeks no field and
    # builds no W.  At order 4080 W is 1019^2 floats, n^2/2 bytes: what the
    # matrix keeps after a transform and a decode, and the peak while it is
    # built, stay near it
    signs = {"1252": matrix1252.signs(), "4080": instance4080[1], "panels": matrix12.signs(),
             "panels after a flip": orbit_flip(matrix1252.signs(), 32, 5)}[case]
    m = sh.PmMatrix(signs)
    n, orbit = m.n, not case.startswith("panels")
    assert sh.gate0_verify(m).passed or case == "panels after a flip"
    fields, ws = [], []
    field, panels = hadamard._transform_field, hadamard._power_panels
    monkeypatch.setattr(hadamard, "_transform_field", lambda *a: fields.append(a) or field(*a))
    monkeypatch.setattr(hadamard, "_power_panels", lambda *a: ws.append(a[2]) or panels(*a))
    x = np.random.default_rng(15).normal(size=n)
    packet = sh.SketchPacket(scale=0.5, k=3, n_tag=n, indices=(0, 7, n - 1),
                             qvalues=(-127, 1, 127))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = sh.transform(x, m)
        first = sh.decode(packet, m)
        kept, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert np.array_equal(sh.decode(packet, m), first)
    assert np.all(np.isfinite(sh.inverse_transform(y, m)))
    assert len(fields) == len(ws) == orbit
    assert ws[0] is m._product.w if orbit else isinstance(m._product, functools.partial)
    if case == "4080":
        assert kept <= 0.6 * n * n and peak <= 0.75 * n * n, (kept / n / n, peak / n / n)


def test_transforms_overflow_only_where_y_does(matrix1252):
    # 1252 entries of 1e306 have an exact H x of 1.25e309, beyond float64,
    # but y = H x / sqrt(n), 3.54e307 at index 0, fits: y equals the digit
    # oracle, and encode refuses it for its peak alone; at 1e308 y itself
    # overflows, and every path says so
    n, signs = matrix1252.n, matrix1252.signs()
    x = np.full(n, 1e306)
    for fn, h in ((sh.transform, signs), (sh.inverse_transform, signs.T)):
        t, s, _ = naive_fixed_point_product(h, x)
        want = np.ldexp(np.array([float(v) for v in t]) / np.sqrt(n), -s)
        assert np.all(np.isfinite(want))
        assert np.array_equal(fn(x, matrix1252).view(np.int64), want.view(np.int64)), fn
    assert abs(sh.transform(x, matrix1252)[0] / 3.54e307 - 1) < 1e-3
    cfg = sh.SketchConfig(n=n, k=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no finite nonzero float32 scale"):
            sh.encode(x, matrix1252, cfg)
        x = np.full(n, 1e308)
        for fn in (sh.transform, sh.inverse_transform, lambda x, h: sh.encode(x, h, cfg)):
            with pytest.raises(ValueError, match="the transform of the input vector overflows"):
                fn(x, matrix1252)


@pytest.mark.parametrize("fn", [sh.transform, sh.inverse_transform])
def test_transforms_refuse_complex_input(matrix12, fn):
    # refused before the float64 cast, which would warn and drop the imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="input vector is complex"):
            fn(np.ones(12) + 1j, matrix12)


def test_topk_ties_take_smaller_index():
    y = np.array([1.0, -2.0, 2.0, 0.5])
    assert sh.top_k_indices(y, 1).tolist() == [1]
    assert sh.top_k_indices(y, 2).tolist() == [1, 2]
    assert sh.top_k_indices(y, 3).tolist() == [0, 1, 2]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1252])
def test_topk_matches_the_stable_sort_on_tied_inputs(n):
    rng = np.random.default_rng(n)
    inputs = {
        "quantized": rng.integers(-3, 4, size=n) * 0.25,
        "all equal": np.where(rng.random(n) < 0.5, -1.5, 1.5),
        "zeros": np.zeros(n),
        "normal": rng.normal(size=n),
    }
    ks = sorted({1, 2, n // 3, n // 2, n - 1, n} - {0})
    for name, y in inputs.items():
        for k in ks:
            got = sh.top_k_indices(y, k)
            assert np.array_equal(got, naive_top_k_indices(y, k)), (name, k)


def test_packet_fields_are_read_only_int64_copies(matrix12):
    x = np.random.default_rng(6).normal(size=12)
    for k in (1, 6, 12):
        packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=k))
        indices = packet.indices.copy()
        qvalues = packet.qvalues.copy()
        built = sh.SketchPacket(packet.scale, k, 12, indices, qvalues)
        for p in (packet, sh.SketchPacket.from_bytes(packet.to_bytes()), built):
            for field in (p.indices, p.qvalues):
                assert type(field) is np.ndarray and field.dtype == np.int64
                assert field.shape == (k,) and not field.flags.writeable
            assert type(p.scale) is float
            assert type(p.k) is int and type(p.n_tag) is int
        # the caller's arrays are copied, not taken over: they stay writeable
        # and writing to them leaves the packet as it was
        assert indices.flags.writeable and qvalues.flags.writeable
        assert not np.shares_memory(built.indices, indices)
        assert not np.shares_memory(built.qvalues, qvalues)
        qvalues[0] = 1000
        assert built == packet and built.qvalues[0] == packet.qvalues[0]


def test_encode_zero_vector(matrix8):
    packet = sh.encode(np.zeros(8), matrix8, sh.SketchConfig(n=8, k=3))
    assert packet.scale == 1.0
    assert packet.qvalues.tolist() == [0, 0, 0]
    assert np.array_equal(sh.decode(packet, matrix8), np.zeros(8))


def test_encode_rejects_bad_input(matrix8):
    cfg = sh.SketchConfig(n=8, k=2)
    with pytest.raises(ValueError):
        sh.encode(np.zeros(7), matrix8, cfg)
    with pytest.raises(ValueError):
        sh.encode(np.full(8, np.nan), matrix8, cfg)
    with pytest.raises(ValueError):
        sh.encode(np.zeros(12), matrix8, sh.SketchConfig(n=12, k=2))


@pytest.mark.parametrize("peak", [1e45, 1e308, 1e-44])
def test_encode_refuses_a_peak_without_a_float32_scale(matrix8, peak):
    # peak / sqrt(8) / 127 overflows float32 (1e45, 1e308) or rounds to 0.0 (1e-44)
    x = np.zeros(8)
    x[0] = peak
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no finite nonzero float32 scale"):
            sh.encode(x, matrix8, sh.SketchConfig(n=8, k=8))


def test_encode_refuses_a_transform_that_overflows(matrix8):
    # partial sums of +-1e308 overflow to inf, and inf - inf is nan
    x = np.array([1e308, 1e308, -1e308, -1e308, 1e308, -1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 8):
            with pytest.raises(ValueError, match="overflows"):
                sh.encode(x, matrix8, sh.SketchConfig(n=8, k=k))


def test_encode_keeps_extreme_scales_that_fit_float32(matrix8):
    cfg = sh.SketchConfig(n=8, k=8)
    for peak in (1e38, 1e-40):
        x = np.zeros(8)
        x[0] = peak
        packet = sh.encode(x, matrix8, cfg)
        assert 0.0 < packet.scale < math.inf
        assert sh.SketchPacket.from_bytes(packet.to_bytes()) == packet
        assert abs(sh.decode(packet, matrix8)[0] - peak) <= 1e-2 * peak


def test_row_of_h_concentrates_and_recovers_exactly(matrix8):
    # x equal to a row of H turns the transform into sqrt(n) * e_j, so a
    # k=1 sketch captures all the energy; recovery is exact up to the
    # float32 rounding of the wire scale (relative error ~6e-8)
    for j in (0, 3, 7):
        x = matrix8.signs()[j].astype(np.float64)
        y = sh.transform(x, matrix8)
        assert abs(np.abs(y[j]) - np.sqrt(8)) <= 1e-12
        assert np.max(np.abs(np.delete(y, j))) <= 1e-12
        packet = sh.encode(x, matrix8, sh.SketchConfig(n=8, k=1))
        assert packet.indices.tolist() == [j]
        assert abs(packet.qvalues[0]) == QMAX
        xr = sh.decode(packet, matrix8)
        assert np.max(np.abs(x - xr)) <= 1e-6


def test_wire_format_golden():
    packet = sh.SketchPacket(scale=1.0, k=2, n_tag=8, indices=(1, 5), qvalues=(-3, 127))
    data = packet.to_bytes()
    assert len(data) == 8 + 3 * 2
    assert data[:8] == struct.pack("<fHH", 1.0, 2, 8)
    assert data[8:11] == struct.pack("<Hb", 1, -3)
    assert data[11:14] == struct.pack("<Hb", 5, 127)
    assert sh.SketchPacket.from_bytes(data) == packet


def test_packet_length_formula(matrix12):
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    for k in (1, 5, 12):
        packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=k))
        assert len(packet.to_bytes()) == 8 + 3 * k


def _packet_bytes(scale, k, n_tag, records):
    """Wire bytes written field by field, so that they can break the rules
    that :meth:`SketchPacket.to_bytes` enforces."""
    return struct.pack("<fHH", scale, k, n_tag) + b"".join(
        struct.pack("<Hb", i, q) for i, q in records)


def test_packet_parse_errors():
    with pytest.raises(PacketFormatError):
        sh.SketchPacket.from_bytes(b"\x00" * 4)                 # short header
    good = sh.SketchPacket(scale=1.0, k=2, n_tag=8, indices=(1, 5),
                           qvalues=(1, 2)).to_bytes()
    with pytest.raises(PacketFormatError):
        sh.SketchPacket.from_bytes(good + b"\x00")              # length mismatch
    bad_order = _packet_bytes(1.0, 2, 8, [(5, 1), (1, 2)])
    with pytest.raises(PacketFormatError):
        sh.SketchPacket.from_bytes(bad_order)                   # not increasing
    bad_range = _packet_bytes(1.0, 1, 8, [(9, 1)])
    with pytest.raises(PacketFormatError):
        sh.SketchPacket.from_bytes(bad_range)                   # index >= n
    bad_q = _packet_bytes(1.0, 1, 8, [(0, -128)])
    with pytest.raises(PacketFormatError):
        sh.SketchPacket.from_bytes(bad_q)                       # -128 reserved


# Packets built directly, each breaking one wire rule at n = 8: the
# constructor refuses them as the reader refuses their bytes, so no packet
# can wrap an index, let the last of two writes win, or decode to NaN.
BAD_PACKETS = {
    "negative index": dict(indices=(-1,), qvalues=(1,)),
    "index = n": dict(indices=(8,), qvalues=(1,)),
    "index past 64 bits": dict(indices=(2**70,), qvalues=(1,)),
    "fractional fields": dict(indices=(2.7,), qvalues=(1.5,)),
    "index past int64": dict(indices=np.array([2**63], dtype=np.uint64)),
    "boolean indices": dict(indices=np.array([True])),
    "boolean qvalues": dict(qvalues=np.array([True])),
    "text index": dict(indices=("2",)),
    "duplicate index": dict(k=2, indices=(3, 3), qvalues=(1, 2)),
    "decreasing index": dict(k=2, indices=(5, 1), qvalues=(1, 2)),
    "k above the records": dict(k=5),
    "k below the records": dict(k=0),
    "qvalue 1000": dict(qvalues=(1000,)),
    "qvalue -128": dict(qvalues=(-128,)),
    "nan scale": dict(scale=math.nan),
    "infinite scale": dict(scale=math.inf),
    "scale beyond float32": dict(scale=1e300),
    "scale not a float32 value": dict(scale=0.1),
    "order tag past two bytes": dict(n_tag=70000),
}


@pytest.mark.parametrize("fields", BAD_PACKETS.values(), ids=BAD_PACKETS.keys())
def test_directly_built_bad_packet_is_refused(fields):
    with pytest.raises(PacketFormatError):
        sh.SketchPacket(**{**dict(scale=1.0, k=1, n_tag=8, indices=(2,), qvalues=(1,)),
                           **fields})


@pytest.mark.parametrize("indices, qvalues", [
    ((), ()), ((1, 5), (-3, 127)), (np.array([1, 5], dtype=np.uint16), np.array([-3, 127], "i1")),
    (np.array([1, 5], dtype=np.uint64), np.array([-3, 127], dtype=np.int32)),
    ((1.0, 5.0), (-3.0, 127.0))], ids=["k=0", "ints", "wire dtypes", "wide dtypes", "whole floats"])
def test_integer_record_fields_are_accepted(indices, qvalues):
    # a field is taken when the int64 cast keeps every value
    packet = sh.SketchPacket(1.0, len(indices), 12, indices, qvalues)
    assert packet.indices.tolist() == [int(i) for i in indices]
    assert packet.qvalues.tolist() == [int(v) for v in qvalues]


@pytest.fixture
def check_count(monkeypatch):
    """A list that counts the calls of the record check, one entry each."""
    calls, check = [], sketch._checked_records

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(sketch, "_checked_records", counting)
    return calls


def test_each_packet_is_checked_once_by_its_maker(matrix12, check_count):
    x = np.random.default_rng(9).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=5))
    assert len(check_count) == 1  # encode builds its packet through the constructor
    data = packet.to_bytes()
    parsed = sh.SketchPacket.from_bytes(data)
    assert len(check_count) == 2
    got = sh.decode(parsed, matrix12)
    assert parsed.to_bytes() == data
    assert np.array_equal(got, sh.decode(packet, matrix12))
    assert packet == parsed and hash(packet) == hash(parsed)
    assert len(check_count) == 2  # nor to_bytes, decode, equality or hashing


def test_directly_built_packet_is_checked_where_it_is_used(matrix12, check_count):
    # the constructor checks the records, so every packet that reaches
    # to_bytes or decode has been checked, and once only
    built = sh.SketchPacket(scale=1.0, k=2, n_tag=12, indices=(1, 5), qvalues=(-3, 127))
    assert len(check_count) == 1
    built.to_bytes()
    sh.decode(built, matrix12)
    assert len(check_count) == 1
    replaced = dataclasses.replace(built, scale=2.0)
    assert len(check_count) == 2  # replace builds a new packet through the constructor
    replaced.to_bytes()
    sh.decode(replaced, matrix12)
    assert len(check_count) == 2


def test_packets_are_equal_and_hash_by_wire_bytes(matrix12):
    x = np.random.default_rng(10).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=4))
    data = packet.to_bytes()
    plain = sh.SketchPacket(scale=packet.scale, k=4, n_tag=12,
                            indices=tuple(packet.indices.tolist()),
                            qvalues=tuple(packet.qvalues.tolist()))
    parsed = sh.SketchPacket.from_bytes(data)
    for p in (plain, parsed):
        assert p == packet and hash(p) == hash(packet) and repr(p) == repr(packet)
        assert p.to_bytes() == data
    other = dataclasses.replace(packet, qvalues=-packet.qvalues)
    assert other != packet and other.to_bytes() != data
    assert packet != data and packet != packet.indices.tolist()


@pytest.mark.parametrize("change", [lambda p: dict(scale=math.nan),
                                    lambda p: dict(indices=(-1, *p.indices[1:]))],
                         ids=["nan scale", "index -1"])
def test_replaced_packet_is_checked_again(matrix12, change):
    # dataclasses.replace builds a new packet through the constructor
    x = np.random.default_rng(11).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=3))
    for made in (packet, sh.SketchPacket.from_bytes(packet.to_bytes())):
        with pytest.raises(PacketFormatError):
            dataclasses.replace(made, **change(made))


# Every packet encode makes passes the record check its constructor runs,
# and reads back from its own bytes as an equal packet.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from([1e-40, 1e-3, 1.0, 1e30, 1e37]), st.integers(0, 3))
def test_encoded_packet_passes_the_record_check(matrix12, seed, k, magnitude, ties):
    rng = np.random.default_rng(seed)
    x = magnitude * rng.normal(size=12)
    if ties:  # repeated magnitudes at the top-k boundary
        x = magnitude * rng.integers(-ties, ties + 1, size=12)
    try:
        packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=k))
    except ValueError as exc:  # PacketFormatError is a ValueError too
        assert "no finite nonzero float32 scale" in str(exc), exc
        return
    assert sh.SketchPacket.from_bytes(packet.to_bytes()) == packet


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_packet_non_finite_scale_rejected(scale):
    good = sh.SketchPacket(scale=1.0, k=2, n_tag=8, indices=(1, 5),
                           qvalues=(1, 2)).to_bytes()
    with pytest.raises(PacketFormatError, match="not finite"):
        sh.SketchPacket.from_bytes(struct.pack("<f", scale) + good[4:])


# Deterministic examples and no example database, so every run checks the
# same inputs.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
def test_packet_byte_mutation_is_rejected_or_round_trips(matrix12, seed, k, data):
    x = np.random.default_rng(seed).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=k)).to_bytes()
    if data.draw(st.booleans()):
        mutated = mutate_one_byte(packet, data.draw)
    else:  # any float32 in the scale field, NaN and the infinities included
        scale = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(width=32))
        mutated = struct.pack("<f", scale) + packet[4:]
    try:
        parsed = sh.SketchPacket.from_bytes(mutated)
    except PacketFormatError:
        return
    assert parsed.to_bytes() == mutated
    assert np.isfinite(parsed.scale)
    if parsed.n_tag == matrix12.n:
        assert np.all(np.isfinite(sh.decode(parsed, matrix12)))


# the smallest float32 subnormal, a larger subnormal, one, the float32 maximum
DECODE_SCALES = [float(np.float32(1.4e-45)), float(np.float32(1e-44)), 1.0,
                 float(np.finfo(np.float32).max)]


def test_decode_is_bit_identical_to_the_dense_inverse(small_matrices, matrix1252):
    # the exact integer H^T q times the scale reproduces, bit for bit, the
    # float64 inverse transform of the dense y = q * scale.  The orders 24,
    # 56 and 1252 take the orbit correlation (8 and 12 have no verified
    # shift); so does an orbit flip of each, which the shift keeps, while a
    # flip of an orbit of the shift by 2d breaks the shift by d and takes
    # the panel product
    matrices, paths = [], []
    for signs in [signs for _, signs, _ in small_matrices] + [matrix1252.signs()]:
        matrices.append(signs)
        n = len(signs)
        d = hadamard._block_shift(signs)
        if d:
            matrices += [orbit_flip(signs, d, 5), orbit_flip(signs, 2 * d, 5)]
    rng = np.random.default_rng(8)
    for signs in matrices:
        m = sh.PmMatrix.from_signs(signs)
        for k in (1, m.n // 2, m.n):
            idx = np.sort(rng.choice(m.n, size=k, replace=False))
            qs = {"zeros": np.zeros(k, dtype=np.int64), "+127": np.full(k, QMAX),
                  "-127": np.full(k, -QMAX),
                  "+-127": np.where(rng.random(k) < 0.5, -QMAX, QMAX),
                  "random": rng.integers(-QMAX, QMAX + 1, size=k)}
            for name, q in qs.items():
                for scale in DECODE_SCALES:
                    packet = sh.SketchPacket(scale=scale, k=k, n_tag=m.n,
                                             indices=tuple(idx.tolist()),
                                             qvalues=tuple(q.tolist()))
                    y = np.zeros(m.n)
                    y[idx] = q * scale
                    got = sh.decode(packet, m)
                    want = sh.inverse_transform(y, m)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                        (m.n, k, name, scale)
        paths.append((m.n, "orbit" if isinstance(m._product, hadamard._OrbitCorrelation)
                      else "panels"))
    assert paths == [(8, "panels"), (12, "panels")] + [
        (n, path) for n in (24, 56, 1252) for path in ("orbit", "orbit", "panels")]


def test_decode_at_order_4080_matches_the_int64_oracle(monkeypatch, matrix1252, instance4080):
    # f = 1019 and P = 1 047 533: q's transform reaches f 127 (P - 1), and
    # the pointwise sums would pass 2^53, so it is reduced mod P first (at
    # order 1252 it is not).  The panel product is checked on the same
    # packets, and both, over each axis, on dense digit columns.
    m = sh.PmMatrix(instance4080[1])
    n, signs = m.n, m.signs()
    m1252 = sh.PmMatrix(matrix1252.signs())
    reduce, reduced = hadamard._reduce, []
    for h in (m, m1252):
        hadamard._product(h, np.zeros((h.n, 1)), 0)  # W and the table
        monkeypatch.setattr(hadamard, "_reduce",
                            lambda x, p: reduced.append(x.shape) or reduce(x, p))
        hadamard._product(h, np.zeros((h.n, 1)), 0)
        monkeypatch.undo()
    # q's transform, (f, 2d, 1), then the pointwise products and the result
    assert reduced == [(1019, 4, 1), (1019, 8, 1), (1019, 8), (39, 36, 1), (39, 36)]
    product = m._product
    assert isinstance(product, hadamard._OrbitCorrelation) and product.p == 1047533
    # the product keeps the W whose panels the Gram multiplies and drops
    d, f, p, z = hadamard._orbit_field(n, m.block_shift(), QMAX * n)
    assert (d, f, p) == (2, 1019, 1047533) and product.w.shape == (f, f)
    b = hadamard._PANEL
    gram = hadamard._power_panels(hadamard._powers(z, p, f), hadamard._exponents(f, b),
                                  np.empty((b, f)))
    assert np.array_equal(product.w, np.vstack([panel.copy() for _, panel in gram]))
    rng = np.random.default_rng(13)
    for k in (1, 300, n):
        idx = np.sort(rng.choice(n, size=k, replace=False))
        for q in (np.full(k, QMAX), np.full(k, -QMAX), rng.integers(-QMAX, QMAX + 1, size=k)):
            want = naive_h_transpose_q(signs, idx, q)
            assert np.array_equal(hadamard._product(m, q[:, None], 0, idx)[:, 0], want), k
            assert np.array_equal(hadamard._panel_product(signs, q[:, None], 0, idx)[:, 0],
                                  want), k
            packet = sh.SketchPacket(scale=0.5, k=k, n_tag=n, indices=idx, qvalues=q)
            got = sh.decode(packet, m)
            assert np.array_equal(got.view(np.int64), (want * 0.5 / np.sqrt(n)).view(np.int64))
    digits = np.stack([np.full(n, QMAX), np.full(n, -QMAX), rng.integers(-QMAX, QMAX + 1, n)], 1)
    for axis, x in ((0, signs.T), (1, signs)):
        want = np.vstack([x[lo: lo + b].astype(np.int64) @ digits for lo in range(0, n, b)])
        assert np.array_equal(hadamard._product(m, digits, axis), want), axis
        assert np.array_equal(hadamard._panel_product(signs, digits, axis), want), axis
    assert m._product is product


def test_decode_order_mismatch(matrix8, matrix12):
    packet = sh.encode(np.ones(8), matrix8, sh.SketchConfig(n=8, k=2))
    with pytest.raises(ValueError):
        sh.decode(packet, matrix12)


def test_encode_deterministic(matrix12):
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    cfg = sh.SketchConfig(n=12, k=7)
    assert sh.encode(x, matrix12, cfg).to_bytes() == sh.encode(x.copy(), matrix12, cfg).to_bytes()


def test_quantization_sup_bound_full_k(matrix12):
    # with k = n the only loss is quantization: per-coordinate error in the
    # transform domain is at most scale/2, so sup error <= scale * sqrt(n)/2
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=12)
        packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=12))
        xr = sh.decode(packet, matrix12)
        assert np.max(np.abs(x - xr)) <= packet.scale * np.sqrt(12) / 2 + 1e-12


def test_reconstruction_energy_bound(matrix8, matrix12):
    # || x - xr ||^2 <= (energy of dropped coefficients) + k * (scale/2)^2
    rng = np.random.default_rng(5)
    for m in (matrix8, matrix12):
        for k in (1, m.n // 2, m.n):
            x = rng.normal(size=m.n)
            packet = sh.encode(x, m, sh.SketchConfig(n=m.n, k=k))
            xr = sh.decode(packet, m)
            y = sh.transform(x, m)
            kept = np.array(packet.indices)
            dropped = np.setdiff1d(np.arange(m.n), kept)
            tail = float(np.sum(y[dropped] ** 2))
            bound = tail + k * (packet.scale / 2) ** 2
            assert float(np.sum((x - xr) ** 2)) <= bound + 1e-9
