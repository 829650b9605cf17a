import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamloc.activations import ActivationKind
from beamloc.fxp import dequantize, quantize
from beamloc.weights import (
    SCENARIOS,
    ModelBundle,
    load_bundle,
    random_bundle,
    save_bundle,
)


def test_random_bundle_shapes(full_bundle):
    b = full_bundle
    assert b.slp_w.shape == (3, 128)
    assert b.slp_b.shape == (3,)
    assert [len(b.segments[sc]) for sc in SCENARIOS] == [1, 2, 2]
    seg = b.segments["S2"][1]
    assert seg.w_q.shape == (46, 46)
    assert seg.ffn_w1.shape == (46, 64)
    assert seg.ffn_b1.shape == (64,)
    assert seg.ffn_w2.shape == (64, 46)
    head = b.fcnn["S3"]
    assert head.w1.shape == (128 * 48 // 4, 64) == (1536, 64)
    assert head.w2.shape == (64, 2)
    assert b.d_k == 23


def test_random_bundle_deterministic_and_bounded():
    a = random_bundle(seed=5, scale=0.25)
    b = random_bundle(seed=5, scale=0.25)
    assert np.array_equal(a.slp_w, b.slp_w)
    assert np.array_equal(a.segments["S1"][0].w_q, b.segments["S1"][0].w_q)
    assert np.max(np.abs(a.fcnn["S1"].w1)) <= 0.25
    c = random_bundle(seed=6, scale=0.25)
    assert not np.array_equal(a.slp_w, c.slp_w)


def test_quantized_view(full_bundle):
    q = full_bundle.quantized()
    assert q.dtype == "int16"
    assert q.slp_w.dtype == np.int16
    seg_f = full_bundle.segments["S1"][0]
    seg_q = q.segments["S1"][0]
    assert seg_q.w_q[0, 0] == quantize(seg_f.w_q[0, 0])
    # gamma snaps onto the Q8.8 grid
    assert seg_q.gamma == dequantize(quantize(seg_f.gamma))
    # already-int bundles pass through
    assert q.quantized() is q


def test_dequantized_view(full_bundle):
    q = full_bundle.quantized()
    f = q.dequantized()
    assert f.dtype == "float32"
    assert f.slp_w.dtype == np.float64
    assert np.max(np.abs(f.slp_w - full_bundle.slp_w)) <= 2**-9


def test_file_roundtrip_float(tmp_path, toy_bundle):
    path = tmp_path / "toy.axlw"
    save_bundle(path, toy_bundle)
    back = load_bundle(path)
    assert back.dtype == "float32"
    assert back.n == toy_bundle.n and back.d == toy_bundle.d
    assert back.activation == toy_bundle.activation
    assert back.router_window == toy_bundle.router_window
    assert np.array_equal(back.slp_w, toy_bundle.slp_w)
    for sc in SCENARIOS:
        for sa, sb in zip(back.segments[sc], toy_bundle.segments[sc]):
            for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
            assert sa.gamma == pytest.approx(sb.gamma)
        assert np.array_equal(back.fcnn[sc].w1, toy_bundle.fcnn[sc].w1)
    # The four projections of every segment are stored transposed.
    data = path.read_bytes()
    flags = [data[offset + 8] for offset in _matrix_headers(data)]
    assert flags == [0, 0] + [1, 1, 1, 1, 0, 0, 0, 0, 0] * 5 + [0] * 12


def test_file_roundtrip_int(tmp_path, toy_bundle):
    path = tmp_path / "toy_int.axlw"
    q = toy_bundle.quantized()
    save_bundle(path, q)
    back = load_bundle(path)
    assert back.dtype == "int16"
    assert np.array_equal(back.slp_w, q.slp_w)
    assert back.segments["S2"][0].gamma == q.segments["S2"][0].gamma
    assert np.array_equal(back.fcnn["S1"].b2, q.fcnn["S1"].b2)


def test_file_rewrite_is_byte_identical(tmp_path, toy_bundle):
    p1, p2 = tmp_path / "a.axlw", tmp_path / "b.axlw"
    save_bundle(p1, toy_bundle)
    save_bundle(p2, toy_bundle)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == b"AXLW"


# save_bundle(random_bundle(seed=7)) and its quantized() view: (bytes, SHA-256).
SEED7_FILES = {
    False: (1473341, "12d38f20643cdc052c6fc00ae5478db3d21b611e76809331e20bb98030c5583d"),
    True: (736949, "0e8f76d2ccd2b4d46db96c0a9c89289917bd11f6422e7b1713da37a44fb19f78"),
}


@pytest.mark.parametrize("quantized", [False, True])
def test_seed7_bundle_bytes_are_pinned(tmp_path, full_bundle, quantized):
    path, again = tmp_path / "b.axlw", tmp_path / "again.axlw"
    save_bundle(path, full_bundle.quantized() if quantized else full_bundle)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == SEED7_FILES[quantized]
    save_bundle(again, load_bundle(path))
    assert again.read_bytes() == data


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.axlw"
    path.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_bundle(path)
    path.write_bytes(b"AX")
    with pytest.raises(OSError):  # a short file is truncated, whatever its magic
        load_bundle(path)


def test_bundle_validation(full_bundle):
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(full_bundle, segments={**full_bundle.segments, "S2": full_bundle.segments["S1"]})
    with pytest.raises(ValueError):
        dataclasses.replace(full_bundle, delay_bin=99)
    with pytest.raises(ValueError):
        dataclasses.replace(full_bundle, pool_k=5)
    with pytest.raises(ValueError):
        dataclasses.replace(full_bundle, dtype="int8")


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory, toy_bundle):
    """The toy bundle's file bytes, float (False) and quantized (True)."""
    root = tmp_path_factory.mktemp("toy")
    files = {}
    for quantized in (False, True):
        save_bundle(root / "toy.axlw", toy_bundle.quantized() if quantized else toy_bundle)
        files[quantized] = (root / "toy.axlw").read_bytes()
    return files


def _fuzz_load(path, data):
    """load_bundle on ``data``: a bundle, ValueError or OSError, nothing else."""
    path.write_bytes(data)
    try:
        load_bundle(path)
    except (ValueError, OSError):
        pass


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=200), keep_header=st.booleans())
def test_load_fuzz_arbitrary_bytes(tmp_path, toy_files, data, keep_header):
    # With keep_header the bytes follow a valid file header, so the matrix
    # reader sees them.
    head = toy_files[False][:26] if keep_header else b""
    _fuzz_load(tmp_path / "fuzz.axlw", head + data)


def _matrix_headers(data):
    """Offsets of the (rows, cols, transposed) headers of a well-formed bundle."""
    offsets, pos = [], 26
    item = 4 if data[6] == 0 else 2
    while pos < len(data):
        offsets.append(pos)
        rows, cols, _ = struct.unpack_from("<IIB", data, pos)
        pos += 9 + rows * cols * item
    return offsets


DIM = st.one_of(st.integers(0, 70), st.integers(0, 2**32 - 1))


@FUZZ
@given(quantized=st.booleans(), cut=st.none() | st.floats(0.0, 1.0),
       edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3),
       header=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 3) | st.integers(0, 65535)),
                       max_size=2),
       shapes=st.lists(st.tuples(st.integers(0, 58), DIM, DIM), max_size=2))
def test_load_fuzz_damaged_file(tmp_path, toy_files, quantized, cut, edits, header, shapes):
    # Forged matrix shapes, forged header fields (dtype and activation
    # bytes, then the nine u16 sizes) and byte edits anywhere.
    data = bytearray(toy_files[quantized])
    offsets = _matrix_headers(data)
    assert len(offsets) == 2 + 5 * 9 + 3 * 4  # router, five segments, three heads
    for index, rows, cols in shapes:
        struct.pack_into("<II", data, offsets[index], rows, cols)
    for field, value in header:
        if field < 2:
            data[6 + field] = value & 0xFF
        else:
            struct.pack_into("<H", data, 8 + 2 * (field - 2), value)
    for where, value in edits:
        data[where % len(data)] = value
    if cut is not None:
        data = data[:round(cut * len(data))]
    _fuzz_load(tmp_path / "fuzz.axlw", bytes(data))


@pytest.mark.parametrize("offset, value, error", [
    (0, b"AXLX", ValueError),         # magic
    (4, b"\x02\x00", ValueError),     # version
    (6, b"\x05", ValueError),         # dtype code
    (12, b"\x00\x00", ValueError),    # heads
    (18, b"\x00\x00", ValueError),    # pool_k
    ("gamma", struct.pack("<II", 0, 0), OSError),
    ("gamma", struct.pack("<II", 1, 0), OSError),
    (7, b"\x09", ValueError),         # activation code
])
def test_load_rejects_forged_header_values(tmp_path, toy_files, offset, value, error):
    data = bytearray(toy_files[False])
    if offset == "gamma":  # S1.gamma follows slp_w, slp_b, w_q, w_k, w_v and w_o
        offset = _matrix_headers(data)[6]
        assert struct.unpack_from("<II", data, offset) == (1, 1)
    data[offset:offset + len(value)] = value
    path = tmp_path / "forged.axlw"
    path.write_bytes(bytes(data))
    with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
        load_bundle(path)


def test_load_reads_activation_code_zero_as_softmax(tmp_path, toy_files):
    # Code 0 named a second softmax kind, which files written before it was
    # retired may hold; an unknown code names the file and the code.
    data = bytearray(toy_files[False])
    path = tmp_path / "code.axlw"
    data[7] = 0
    path.write_bytes(bytes(data))
    assert load_bundle(path).activation == ActivationKind.SOFTMAX_INT
    data[7] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as e:
        load_bundle(path)
    assert str(e.value) == f"{path}: unknown activation code 9"


@pytest.mark.parametrize("matrix", [2, 6])  # S1's w_q and gamma
@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFF800000])  # NaN, signalling NaN, -inf
def test_load_rejects_a_non_finite_float_weight(tmp_path, toy_files, matrix, bits):
    data = bytearray(toy_files[False])
    struct.pack_into("<I", data, _matrix_headers(data)[matrix] + 9, bits)
    path = tmp_path / "non_finite.axlw"
    path.write_bytes(bytes(data))
    with pytest.raises(OSError, match="holds a non-finite value"):
        load_bundle(path)


SIZE_OFFSETS = {name: 8 + 2 * i for i, name in enumerate(
    ("n", "d", "heads", "d_ff", "d_h", "pool_k", "pool_p", "delay_bin", "router_window"))}


@pytest.mark.parametrize("size, value, matrix", [
    ("n", 9, "slp_w"),              # the toy bundle: n 8, d 4, d_ff 6, d_h 5, pool 2 + 0
    ("d", 6, "S1.w_q"),
    ("d_ff", 7, "S1.ffn_w1"),
    ("d_h", 4, "FCNN_S1.w1"),
    ("pool_k", 4, "FCNN_S1.w1"),
    ("pool_p", 2, "FCNN_S1.w1"),
])
@pytest.mark.parametrize("quantized", [False, True])
def test_load_checks_shapes_against_header_sizes(tmp_path, toy_files, size, value, matrix, quantized):
    data = bytearray(toy_files[quantized])
    struct.pack_into("<H", data, SIZE_OFFSETS[size], value)
    path = tmp_path / "forged.axlw"
    path.write_bytes(bytes(data))
    with pytest.raises(OSError, match=f"{matrix} is a .* where the header's sizes give"):
        load_bundle(path)


@pytest.mark.parametrize("quantized", [False, True])
def test_load_honours_a_stored_transpose_flag(tmp_path, toy_bundle, toy_files, quantized):
    # Rewrite S1.ffn_w1 (the eighth matrix) transposed, with its flag set.
    data = toy_files[quantized]
    offset = _matrix_headers(data)[7]
    rows, cols, flag = struct.unpack_from("<IIB", data, offset)
    assert (rows, cols, flag) == (toy_bundle.d, toy_bundle.d_ff, 0)
    item = "<f4" if not quantized else "<i2"
    end = offset + 9 + rows * cols * np.dtype(item).itemsize
    payload = np.frombuffer(data[offset + 9:end], dtype=item).reshape(rows, cols)
    path = tmp_path / "t.axlw"
    path.write_bytes(data[:offset] + struct.pack("<IIB", cols, rows, 1)
                     + np.ascontiguousarray(payload.T).tobytes() + data[end:])
    (tmp_path / "plain.axlw").write_bytes(data)
    plain, back = load_bundle(tmp_path / "plain.axlw"), load_bundle(path)
    for sc in SCENARIOS:
        for sa, sb in zip(back.segments[sc], plain.segments[sc]):
            for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
                assert getattr(sa, name).dtype == getattr(sb, name).dtype
            assert sa.gamma == sb.gamma
    assert back.segments["S1"][0].ffn_w1.shape == (toy_bundle.d, toy_bundle.d_ff)
