import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from beamloc import activations as act
from beamloc.fxp import dequantize_array
from oracles import softmax_highprec


def test_sigmoid_lut_anchors():
    assert oracles.sigmoid_lut_eval(0) == 128          # sigma(0) = 0.5, a grid point
    assert oracles.sigmoid_lut_eval(16 * 256) == 256   # sigma(16) rounds to 1.0
    assert oracles.sigmoid_lut_eval(-16 * 256) == 0
    # out-of-range inputs clamp to the boundary grid points
    assert oracles.sigmoid_lut_eval(-20 * 256) == oracles.sigmoid_lut_eval(-16 * 256)
    assert oracles.sigmoid_lut_eval(32767) == 256


def test_sigmoid_lut_matches_int64_oracle():
    # every int16 code and the biased scores below it, every rounding tie
    codes = np.arange(-40000, 40000)
    assert np.array_equal(act.sigmoid_lut(codes), oracles.sigmoid_lut(codes))
    assert np.array_equal(act.sigmoid_lut(codes.astype(np.int32)), oracles.sigmoid_lut(codes))


def test_code_indexed_luts_follow_the_index_rule():
    # Every int16 code, and every max-subtracted difference of int16 codes.
    codes = np.arange(-32768, 32768)
    sig_by_code = act.scaled_sigmoid_table(256, 0)
    assert np.array_equal(sig_by_code[codes + 32768], act.SIG_TABLE[oracles.sigmoid_lut_index(codes)])
    assert np.array_equal(act.sigmoid_lut(codes), act.SIG_TABLE[oracles.sigmoid_lut_index(codes)])
    dists = np.arange(65536)
    assert np.array_equal(act.EXP_BY_DISTANCE[dists], act.EXP_TABLE[oracles.exp_lut_index(-dists)])
    assert sig_by_code.shape == act.EXP_BY_DISTANCE.shape == (65536,)


def test_sigmoid_lut_bias_shifts_the_input():
    codes = np.arange(-40000, 40000)
    for bias in (-1242, -1, 0, 7, 4096):
        assert np.array_equal(act.sigmoid_lut(codes, bias), oracles.sigmoid_lut(codes + bias))
        assert np.array_equal(act.sigmoid_lut(codes.astype(np.float64), bias),
                              oracles.sigmoid_lut(codes + bias))


def test_scaled_sigmoid_lut_matches_the_oracle_on_every_code():
    # Every int16 score code times scale codes that drive the product past
    # both rails, then the bias: one gather from the (m, bias) table.
    codes = np.arange(-32768, 32768)
    for m in (-32768, -427, -10, -3, -1, 0, 1, 77, 256, 427, 32767):
        scaled = oracles.requantize_int64(codes * m).astype(np.int64)
        for bias in (-1242, 0, 7):
            expect = oracles.sigmoid_lut(scaled + bias)
            assert np.array_equal(act.sigmoid_lut(codes.astype(np.float64), bias, m), expect)
            assert np.array_equal(act.sigmoid_lut(codes.astype(np.int16), bias, m), expect)
    # 33 distinct pairs built, at most 8 tables (4 MiB) kept
    info = act.scaled_sigmoid_table.cache_info()
    assert info.maxsize == 8 and info.currsize <= info.maxsize


def test_scaled_softmax_int_matches_the_oracle_on_every_code():
    # Every int16 score code in rows of 128, in order (row maxima across the
    # whole range) and shuffled (distances past the exp clamp), plus rows at
    # both rails, times scale codes that drive the product past both rails.
    codes = np.arange(-32768, 32768)
    rails = np.array([[-32768] * 128, [32767] * 128, [-32768, 32767] * 64])
    rows = np.concatenate([codes.reshape(-1, 128),
                           np.random.default_rng(5).permutation(codes).reshape(-1, 128), rails])
    for m in (-32768, -427, -10, -3, -1, 0, 1, 77, 256, 427, 32767):
        expect = oracles.softmax_int(oracles.requantize_int64(rows * m))
        assert np.array_equal(act.softmax_int(rows.astype(np.float64), m), expect)
        assert np.array_equal(act.softmax_int(rows.astype(np.int16), m), expect)


def test_scaled_kernels_on_codes_past_the_int16_range():
    # The scaled kernels take unrounded scores: half-code ties of both signs,
    # other multiples of 2**-8, and values past both rails.  Each is rounded
    # half to even and saturated, as requantizing the score product would,
    # then scaled and requantized; the kernels leave their input as it was.
    ties = [s * (c + 0.5) for c in (0, 1, 2, 127, 32766, 32767) for s in (1, -1)] + [-32768.5]
    steps = [s * c / 256 for c in (1, 127, 128, 129, 383, 384, 385) for s in (1, -1)]
    rails = [-32769, 32768, 40000, -40000, 2**30, -2**30, 32767, -32768]
    values = np.array(ties + steps + rails, dtype=np.float64)
    before = values.copy()
    codes = oracles.round_half_even_and_saturate(values)
    for m in (-32768, -427, 1, 77, 256, 32767):
        scaled = oracles.requantize_int64(codes * m).astype(np.int64)
        for bias in (-1242, 0):
            assert np.array_equal(act.sigmoid_lut(values, bias, m), oracles.sigmoid_lut(scaled + bias))
        rows = values.reshape(-1, 5)
        assert np.array_equal(act.softmax_int(rows, m),
                              oracles.softmax_int(scaled.reshape(rows.shape)))
    assert np.array_equal(values, before)


def test_float_reciprocal_is_rne_div():
    # softmax_int's reciprocal of a row sum S, for every S below 2**23
    sums = np.arange(1, 1 << 23)
    assert np.array_equal(np.rint((1 << 30) / sums), oracles.rne_div(1 << 30, sums))


@pytest.mark.parametrize("k", [0, 5])
def test_softmax_of_no_rows(k):
    for out in (act.softmax_int(np.zeros((0, k), dtype=np.int16)), act.softmax_rows(np.zeros((0, k)))):
        assert out.shape == (0, k) and out.dtype == np.float64


def test_sigmoid_lut_table_shape():
    assert act.SIG_TABLE.shape == (1025,)
    assert act.SIG_TABLE[512] == 128
    assert np.all(np.diff(act.SIG_TABLE.astype(np.int64)) >= 0)


def test_sigmoid_lut_max_error_exhaustive():
    codes = np.arange(-32768, 32768, dtype=np.int64)
    approx = dequantize_array(act.sigmoid_lut(codes))
    exact = 1.0 / (1.0 + np.exp(-codes / 256.0))
    assert np.max(np.abs(approx - exact)) <= 2**-7


def test_exp_lut_endpoints():
    assert act.EXP_TABLE[-1] == act.EXP_ONE  # exp(0) exactly 1.0 in Q1.15
    assert act.EXP_TABLE[0] == 0             # exp(-16) underflows Q1.15


def test_softmax_int_constant_row():
    row = np.full((1, 4), 123, dtype=np.int16)
    out = act.softmax_int(row)
    assert np.all(np.abs(out.astype(int) - 64) <= 1)
    assert out.sum() == 256


def test_softmax_int_dominant_logit():
    row = np.zeros((1, 8), dtype=np.int16)
    row[0, 3] = 16 * 256
    out = act.softmax_int(row)
    assert out[0, 3] == 256
    assert np.all(out[0, np.arange(8) != 3] == 0)


def test_softmax_int_shift_invariant():
    rng = np.random.default_rng(0)
    rows = rng.integers(-2000, 2000, size=(50, 17), dtype=np.int64)
    base = act.softmax_int(rows)
    for shift in (-3000, -1, 1, 500):
        assert np.array_equal(act.softmax_int(rows + shift), base)


@given(st.lists(st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=128))
@settings(max_examples=200)
def test_softmax_int_rows_sum_to_one(codes):
    # Exact for rows of at most 128 entries; longer rows may drift.
    out = act.softmax_int(np.array([codes], dtype=np.int64))
    assert int(out.sum()) == 256
    assert np.all(out >= 0)


def test_integer_row_kernels_match_int64_oracles():
    # Softmax: every max-subtracted difference down past the LUT clamp
    # (ties in the exp index included), all-equal and single-nonzero rows.
    diffs = np.arange(-4224, 0).reshape(-1, 128)
    scores = np.concatenate([np.zeros((len(diffs), 1), dtype=np.int64), diffs], axis=1)
    special = np.zeros((4, 129), dtype=np.int64)
    special[1] = -32768
    special[2, 60] = 32767
    special[3, 0] = -5
    for rows in (scores, -scores[:, ::-1], special):
        assert np.array_equal(act.softmax_int(rows), oracles.softmax_int(rows))


_ROWS = st.tuples(st.integers(1, 40), st.integers(1, 130))


@given(arrays(np.int16, _ROWS, elements=st.integers(-32768, 32767) | st.integers(-16, 16)))
@settings(max_examples=200, deadline=None)
def test_softmax_int_matches_int64_oracle(scores):
    assert np.array_equal(act.softmax_int(scores), oracles.softmax_int(scores))


@pytest.mark.parametrize("dtype", [np.int16, np.float64])
def test_softmax_int_edge_shapes_match_int64_oracle(dtype):
    # Single rows and columns, rows at the bottom rail, and a max of -28673,
    # where max - 4096 wraps in int16.
    rng = np.random.default_rng(11)
    for rows in (rng.integers(-32768, 32768, (1, 130)), rng.integers(-32768, 32768, (130, 1)),
                 np.full((3, 7), -32768), np.full((1, 1), -32768), np.array([[-28673]]),
                 np.array([[-28673, -32768, -28672]])):
        assert np.array_equal(act.softmax_int(rows.astype(dtype)), oracles.softmax_int(rows))


def test_softmax_int_every_width_matches_int64_oracle():
    # Every width 1..130: each residue mod the kernel's 16-column block, the
    # padded widths and the unpadded ones, at the default scale and dense's -10.
    # The last row's entries are all row maxima: at width 128 its exp sum is
    # 128 * 2**15 = 2**22, the largest a 128-entry row reaches.
    rng = np.random.default_rng(38)
    for width in range(1, 131):
        rows = np.concatenate([rng.integers(-32768, 32768, (3, width)),
                               rng.integers(-600, 600, (3, width)), np.full((1, width), 9)])
        for m in (256, -10):
            scores = rows.astype(np.float64)
            out = act.softmax_int(scores, m)
            assert out.dtype == np.float64 and out.shape == rows.shape
            assert np.array_equal(scores, rows)
            assert np.array_equal(out, oracles.softmax_int(oracles.requantize_int64(rows * m)))
            assert width > 128 or out[-1].sum() == 256
            assert width != 128 or np.all(out[-1] == 2)


def test_softmax_int_long_rows_drift_as_documented():
    # softmax_int's docstring: rows of at most 128 entries sum to 256, longer ones can drift.
    sums = [act.softmax_int(np.zeros((1, width))).sum() for width in (128, 129, 384, 1000)]
    assert sums == [256, 256, 255, 258]


def test_softmax_float_matches_highprec(rng):
    for _ in range(30):
        n = int(rng.integers(2, 40))
        row = rng.uniform(-30, 30, size=n)
        ours = act.softmax_rows(row.reshape(1, -1))[0]
        ref = softmax_highprec(row)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_sigmoid_bias_code():
    assert act.sigmoid_bias_code(128) == -1242  # round(-ln(128) * 256)
    assert act.sigmoid_bias_code(1) == 0


def test_biased_sigmoid_row_mass_stays_near_constant():
    # Zero scores with the length bias: each entry ~ 1/(n+1), so the row
    # mass stays ~1 instead of growing with n.  Per-entry error is bounded
    # by the LUT tolerance; the tight 1% row check lives in acceptance at
    # the deployed n = 128.
    for n in (8, 64, 128, 512):
        scores = np.zeros((1, n), dtype=np.int32) + act.sigmoid_bias_code(n)
        vals = dequantize_array(act.sigmoid_lut(scores))
        assert np.max(np.abs(vals - 1.0 / (n + 1))) <= 2**-7
        assert vals.sum() < 1.0 + n * 2**-7


def test_activation_names_roundtrip():
    # every kind has exactly one name
    assert sorted(act.ACTIVATIONS.values()) == list(act.ActivationKind)
