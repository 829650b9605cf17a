import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamloc import fxp
from oracles import (
    matmul_checked,
    naive_matmul_q,
    qmac,
    quantize_scalars,
    rational_requantize,
    requantize,
    requantize_int64,
)


def test_quantize_anchors():
    assert fxp.quantize(0.0) == 0
    assert fxp.quantize(1.0) == 256
    # minimum representable step with 8 fractional bits
    assert fxp.quantize(0.00390625) == 1
    assert fxp.quantize(300.0) == 32767
    assert fxp.quantize(-300.0) == -32768


def test_quantize_saturates_huge_finite_values():
    # 1e307 * 256 overflows float64; the value is clamped before it is scaled.
    assert fxp.quantize(1e307) == 32767
    assert fxp.quantize(-sys.float_info.max) == -32768
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        codes = fxp.quantize_array(np.array([1e307, -sys.float_info.max, sys.float_info.max]))
    assert codes.tolist() == [32767, -32768, 32767]


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        fxp.quantize(float("nan"))
    with pytest.raises(ValueError):
        fxp.quantize(float("inf"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            fxp.quantize_array(np.array([[0.5, bad], [1.0, 2.0]]))


def test_quantize_array_gives_the_scalar_codes_as_float64():
    # Every code's value and the half-code ties beside it, which round to the
    # even code, and inputs in [-1/512, 0], which np.rint alone maps to -0.0.
    codes = np.arange(fxp.CODE_MIN, fxp.CODE_MAX + 1, dtype=np.float64)
    tiny = np.array([-1 / 512, np.nextafter(-1 / 512, 0), -1 / 1024, -1e-300, -5e-324, -0.0])
    x = np.concatenate([codes / 256, (codes - 0.5) / 256, (codes + 0.5) / 256, tiny])
    got = fxp.quantize_array(x)
    expect = quantize_scalars(x).astype(np.float64)
    assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()
    assert not np.signbit(got[got == 0]).any()


def test_dequantize_anchors():
    assert fxp.dequantize(256) == 1.0
    assert fxp.dequantize(-32768) == -128.0
    assert fxp.dequantize(1) == 0.00390625


def test_roundtrip_exhaustive():
    codes = np.arange(fxp.CODE_MIN, fxp.CODE_MAX + 1, dtype=np.int64)
    back = fxp.quantize_array(fxp.dequantize_array(codes))
    assert np.array_equal(back.astype(np.int64), codes)


def test_qmac_anchors():
    assert qmac(0, 256, 256) == 65536
    assert qmac(0, 0, 32767) == 0
    acc = 0
    for _ in range(46):
        acc = qmac(acc, 256, 256)
    assert acc == 46 * 65536


def test_qmac_overflow_raises():
    with pytest.raises(fxp.AccumulatorOverflow):
        qmac(fxp.ACC_MAX, 32767, 32767)


def test_requantize_anchors():
    assert requantize(65536) == 256
    # exactly half an output step: ties to even
    assert requantize(128) == 0
    assert rational_requantize(128) == 0
    assert requantize(384) == 2
    assert requantize(-128) == 0
    assert requantize(-384) == -2
    assert requantize(2**30) == 32767


@given(st.integers(min_value=fxp.ACC_MIN, max_value=fxp.ACC_MAX))
def test_requantize_matches_rational_rounding(acc):
    assert requantize(acc) == rational_requantize(acc)


@given(
    st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
    st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
)
def test_quantize_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert fxp.quantize(lo) <= fxp.quantize(hi)


@given(st.floats(min_value=fxp.VALUE_MIN, max_value=fxp.VALUE_MAX, allow_nan=False))
def test_quantize_error_within_half_ulp(x):
    assert abs(fxp.dequantize(fxp.quantize(x)) - x) <= 2**-9


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-32768, max_value=32767),
            st.integers(min_value=-32768, max_value=32767),
        ),
        max_size=32,
    ),
    st.randoms(),
)
@settings(max_examples=50)
def test_qmac_permutation_invariant(pairs, rand):
    def total(seq):
        acc = 0
        for a, b in seq:
            acc = qmac(acc, a, b)
        return acc

    shuffled = list(pairs)
    rand.shuffle(shuffled)
    assert total(pairs) == total(shuffled)


def test_zero_preserved_bit_exact():
    assert fxp.quantize(0.0) == 0
    assert fxp.dequantize(0) == 0.0
    mat = np.array([[0.0, 0.5], [-0.5, 0.0]])
    codes = fxp.quantize_array(mat)
    assert np.array_equal(codes == 0, mat == 0.0)


def test_requantize_array_matches_scalar(rng):
    acc = rng.integers(-(2**39), 2**39 - 1, size=4096, dtype=np.int64)
    vec = fxp.requantize_array(acc)
    for a, v in zip(acc[:512].tolist(), vec[:512].tolist()):
        assert requantize(a) == v


def test_qmatmul_matches_triple_loop(rng):
    for _ in range(20):
        m, k, n = rng.integers(1, 6, size=3)
        a = rng.integers(-2048, 2048, size=(m, k)).astype(np.float64)
        b = rng.integers(-2048, 2048, size=(k, n)).astype(np.float64)
        bias = rng.integers(-2048, 2048, size=n).astype(np.float64)
        assert np.array_equal(fxp.qmatmul(a, b, bias), naive_matmul_q(a, b, bias))


def test_requantize_array_ties_and_rails():
    # acc = 256 q + r: exact ties (r = +-128) at odd and even q of both
    # signs, their neighbours, and q past both saturation rails.
    q = np.arange(-40000, 40000, dtype=np.int64)
    for r in (-129, -128, -127, 0, 127, 128, 129):
        acc = 256 * q + r
        expect = requantize_int64(acc)
        assert np.array_equal(fxp.requantize_array(acc.astype(np.float64)), expect)
        for a, v in zip(acc[::997].tolist(), expect[::997].tolist()):
            assert rational_requantize(a) == v


# Full-range codes, plus small ones whose products land on exact ties.
_CODES = st.one_of(
    st.integers(-32768, 32767),
    st.sampled_from([-32768, -384, -128, -1, 0, 1, 3, 128, 384, 32767]),
)


def _float_codes(draw, shape):
    return draw(arrays(np.int16, shape, elements=_CODES)).astype(np.float64)


@st.composite
def _qmatmul_operands(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    bias = _float_codes(draw, n) if draw(st.booleans()) else None
    return _float_codes(draw, (m, k)), _float_codes(draw, (k, n)), bias


@given(_qmatmul_operands())
@settings(max_examples=300, deadline=None)
def test_qmatmul_matches_triple_loop_everywhere(operands):
    got = fxp.qmatmul(*operands)
    assert got.dtype == np.float64 and np.array_equal(got, naive_matmul_q(*operands))


@given(_qmatmul_operands())
@settings(max_examples=300, deadline=None)
def test_qproduct_is_the_accumulator_over_256(operands):
    # unrounded and exact; rounded half to even and saturated, it is qmatmul
    a, b, _ = operands
    got = fxp.qproduct(a, b)
    assert np.array_equal(got * 256, a.astype(np.int64) @ b.astype(np.int64))
    assert np.array_equal(fxp.requantize_array(got * 256), fxp.qmatmul(a, b))


@st.composite
def _code_pairs(draw):
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return _float_codes(draw, shape), _float_codes(draw, shape)


@given(_code_pairs())
@settings(max_examples=300, deadline=None)
def test_float64_codes_give_the_int16_bits(operands):
    # the saturating sum of the codes as integers, narrowed to int16
    a, c = operands
    got = fxp.sat_add(a, c)
    expect = np.clip(a.astype(np.int64) + c.astype(np.int64), -32768, 32767).astype(np.int16)
    assert got.dtype == np.float64 and np.array_equal(got, expect)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.float32])
def test_kernels_reject_other_code_dtypes(dtype):
    # Codes are float64; any other dtype, integer codes included, raises,
    # in every operand alone and in all of them.
    a = np.ones((2, 3), dtype=dtype)
    b = np.ones((3, 2), dtype=dtype)
    bias = np.ones(2, dtype=dtype)
    a64, b64, bias64 = (x.astype(np.float64) for x in (a, b, bias))
    for args in ((a, b, bias), (a, b), (a, b64, bias64), (a64, b, bias64), (a64, b64, bias)):
        with pytest.raises(TypeError):
            fxp.qmatmul(*args)
    for args in ((a, a), (a, a64), (a64, a)):
        with pytest.raises(TypeError):
            fxp.sat_add(*args)
    for args in ((a, b), (a, b64), (a64, b)):
        with pytest.raises(TypeError):
            fxp.qproduct(*args)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_qmatmul_requires_int16_codes(dtype):
    # Codes are int16 values held as float64: the same values in a wider
    # integer array raise, in each operand alone.
    a = fxp.quantize_array(np.array([[1.0, -128.0, 127.99], [0.5, -0.5, 0.0]]))
    b = a.T.copy()
    bias = fxp.quantize_array(np.array([-128.0, 127.99]))
    for args in ((a.astype(dtype), b, bias), (a, b.astype(dtype), bias), (a, b, bias.astype(dtype))):
        with pytest.raises(TypeError):
            fxp.qmatmul(*args)


def test_qmatmul_headroom_check():
    # 1536 is the coordinate head's flattened length: overflow is its contract
    for k in (600, 1536):
        a = np.full((1, k), 32767.0)
        b = np.full((k, 1), 32767.0)
        with pytest.raises(fxp.AccumulatorOverflow):
            fxp.qmatmul(a, b)


def _filled(k, a, b, bias):
    return np.full((1, k), float(a)), np.full((k, 1), float(b)), np.full(1, float(bias))


def test_headroom_bound_is_tight():
    # 511 terms of the largest product plus the largest bias stay inside 40 bits,
    # unchecked, and so does the most negative 511-term sum: both equal the oracle.
    for a, b, bias in ((-32768, -32768, 32767), (-32768, 32767, -32768)):
        operands = _filled(511, a, b, bias)
        assert np.array_equal(fxp.qmatmul(*operands), matmul_checked(*operands))
    # 512 such products reach 2**39, one past ACC_MAX
    operands = _filled(512, -32768, -32768, 0)
    for kernel in (fxp.qmatmul, matmul_checked):
        with pytest.raises(fxp.AccumulatorOverflow):
            kernel(*operands)
    with pytest.raises(fxp.AccumulatorOverflow):
        fxp.qproduct(*operands[:2])
    # 512 products of 32767 * 32767 plus the largest bias fit: 2**39 - 2**25 + 2**23 + 256
    operands = _filled(512, 32767, 32767, 32767)
    assert np.array_equal(fxp.qmatmul(*operands), matmul_checked(*operands))


def test_sat_add_saturates():
    a = np.array([32000.0, -32000.0, 100.0])
    b = np.array([32000.0, -32000.0, -50.0])
    assert fxp.sat_add(a, b).tolist() == [32767, -32768, 50]

