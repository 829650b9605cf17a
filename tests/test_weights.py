import numpy as np
import pytest

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
    assert head.w1.shape == (b.flattened_len, 64)
    assert head.w2.shape == (64, 2)
    assert b.d_k == 23
    assert b.flattened_len == 128 * 48 // 4 == 1536


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
    assert back.transposed["S1.w_q"] is True
    assert back.transposed["S1.ffn_w1"] is False


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
