from __future__ import annotations

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewhad as sh
from skewhad import sketch
from skewhad.sketch import PacketFormatError, QMAX

from _naive import naive_top_k_indices
from conftest import mutate_one_byte


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


def test_transforms_use_the_cached_float_signs(matrix1252):
    f = matrix1252.float_signs()
    assert f is matrix1252.float_signs()
    assert f.dtype == np.float64 and np.array_equal(f, matrix1252.signs())
    x = np.random.default_rng(2).normal(size=matrix1252.n)
    root = np.sqrt(matrix1252.n)
    # the forward product is bit-equal to the int8 one; the inverse adds in
    # another order, so it is held to a tolerance of a few float64 ulps
    assert np.array_equal(sh.transform(x, matrix1252), (matrix1252.signs() @ x) / root)
    ref = (matrix1252.signs().T @ x) / root
    assert np.max(np.abs(sh.inverse_transform(x, matrix1252) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gram_and_decode_share_one_cached_float32_copy(matrix12, monkeypatch):
    m = sh.PmMatrix.from_signs(matrix12.signs())
    f = m.float32_signs()
    assert f is m.float32_signs()
    assert f.dtype == np.float32 and not f.flags.writeable
    assert np.array_equal(f, m.signs())
    # Gate0's Gram is decided on the cached copy
    seen = []
    gram_deviation = sh.hadamard.gram_deviation
    monkeypatch.setattr(sh.hadamard, "gram_deviation",
                        lambda g, s, t: seen.append(g) or gram_deviation(g, s, t))
    assert sh.gate0_verify(m).passed
    assert len(seen) == 1 and seen[0] is f
    # the decode does not convert the int8 signs again
    m.signs = lambda: pytest.fail("the int8 signs were converted again")
    packet = sh.SketchPacket(scale=1.0, k=1, n_tag=12, indices=(4,), qvalues=(12,))
    assert np.array_equal(sh.decode(packet, m), f[4] * 12 / np.sqrt(12))


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


def test_packet_fields_are_tuples_of_python_ints(matrix12):
    x = np.random.default_rng(6).normal(size=12)
    for k in (1, 6, 12):
        packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=k))
        for p in (packet, sh.SketchPacket.from_bytes(packet.to_bytes())):
            assert type(p.indices) is tuple and type(p.qvalues) is tuple
            assert all(type(v) is int for v in p.indices + p.qvalues)
            assert type(p.scale) is float
            assert type(p.k) is int and type(p.n_tag) is int


def test_encode_zero_vector(matrix8):
    packet = sh.encode(np.zeros(8), matrix8, sh.SketchConfig(n=8, k=3))
    assert packet.scale == 1.0
    assert packet.qvalues == (0, 0, 0)
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
        assert packet.indices == (j,)
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


# Packets built directly, each breaking one wire rule at n = 8: the decode
# and the writer refuse them as the reader refuses their bytes, so none can
# wrap an index, let the last of two writes win, or decode to NaN.
BAD_PACKETS = {
    "negative index": dict(indices=(-1,), qvalues=(1,)),
    "index = n": dict(indices=(8,), qvalues=(1,)),
    "index past 64 bits": dict(indices=(2**70,), qvalues=(1,)),
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
def test_directly_built_bad_packet_is_refused(matrix8, fields):
    packet = sh.SketchPacket(**{**dict(scale=1.0, k=1, n_tag=8, indices=(2,),
                                       qvalues=(1,)), **fields})
    with pytest.raises(PacketFormatError):
        sh.decode(packet, matrix8)
    with pytest.raises(PacketFormatError):
        packet.to_bytes()


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
    data = packet.to_bytes()
    assert not check_count  # encode makes valid packets; to_bytes trusts them
    parsed = sh.SketchPacket.from_bytes(data)
    got = sh.decode(parsed, matrix12)
    assert len(check_count) == 1 and parsed.to_bytes() == data
    assert np.array_equal(got, sh.decode(packet, matrix12))
    assert len(check_count) == 1


def test_directly_built_packet_is_checked_where_it_is_used(matrix12, check_count):
    packet = sh.SketchPacket(scale=1.0, k=2, n_tag=12, indices=(1, 5), qvalues=(-3, 127))
    packet.to_bytes()
    assert len(check_count) == 1
    sh.decode(packet, matrix12)
    assert len(check_count) == 2


def test_checked_records_take_no_part_in_equality_or_repr(matrix12):
    x = np.random.default_rng(10).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=4))
    plain = sh.SketchPacket(scale=packet.scale, k=4, n_tag=12, indices=packet.indices,
                            qvalues=packet.qvalues)
    assert packet == plain and hash(packet) == hash(plain) and repr(packet) == repr(plain)
    assert packet.to_bytes() == plain.to_bytes()


@pytest.mark.parametrize("change", [lambda p: dict(scale=math.nan),
                                    lambda p: dict(indices=(-1, *p.indices[1:]))],
                         ids=["nan scale", "index -1"])
def test_replaced_packet_is_checked_again(matrix12, change):
    # dataclasses.replace builds a new packet without the maker's records
    x = np.random.default_rng(11).normal(size=12)
    packet = sh.encode(x, matrix12, sh.SketchConfig(n=12, k=3))
    for made in (packet, sh.SketchPacket.from_bytes(packet.to_bytes())):
        bad = dataclasses.replace(made, **change(made))
        with pytest.raises(PacketFormatError):
            bad.to_bytes()
        with pytest.raises(PacketFormatError):
            sh.decode(bad, matrix12)


# Every packet encode makes must pass the check it skips: this is what lets
# to_bytes and decode trust its records.
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
    except ValueError:  # no finite nonzero float32 scale
        return
    indices, qvalues = sketch._checked_records(packet.scale, packet.k, packet.n_tag,
                                               packet.indices, packet.qvalues)
    slot_indices, slot_qvalues = packet._records
    assert slot_indices.dtype == slot_qvalues.dtype == np.int64
    assert np.array_equal(slot_indices, indices) and np.array_equal(slot_qvalues, qvalues)
    assert not slot_indices.flags.writeable and not slot_qvalues.flags.writeable


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
    # the float32 integer product H^T q times the scale reproduces, bit for
    # bit, the float64 inverse transform of the dense y = q * scale
    matrices = [sh.PmMatrix.from_signs(signs) for _, signs, _ in small_matrices]
    matrices.append(matrix1252)
    assert [m.n for m in matrices] == [8, 12, 24, 56, 1252]
    rng = np.random.default_rng(8)
    for m in matrices:
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
