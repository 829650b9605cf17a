import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamloc.engine import IntEngine
from beamloc.fxp import quantize, quantize_array
from beamloc.sparsity import (
    RowMask,
    SparsityConfig,
    build_row_mask,
    output_deviation,
    sparsity_stats,
    threshold_elements,
)


def test_threshold_basics():
    mat = np.array([[0.05, 0.2], [0.0, 0.3]])
    out = threshold_elements(mat, 0.1)
    assert out.tolist() == [[0.0, 0.2], [0.0, 0.3]]
    # t = 0 keeps non-negative amplitudes untouched
    assert np.array_equal(threshold_elements(mat, 0.0), mat)
    assert np.all(threshold_elements(mat, 99.0) == 0)
    # NaN fails every comparison, so a `t_elem < 0` test would let it threshold nothing
    for bad in (-0.1, -1, math.nan):
        with pytest.raises(ValueError, match="t_elem must be >= 0"):
            threshold_elements(mat, bad)


def test_threshold_boundary_is_strict():
    mat = np.array([[0.1, 0.0999999]])
    out = threshold_elements(mat, 0.1)
    assert out[0, 0] == 0.1       # equal survives
    assert out[0, 1] == 0.0


def test_threshold_qtensor_uses_quantized_cutoff(toy_bundle):
    # the integer engine compares codes against the quantized threshold
    codes = np.array([[9.0, 10.0, 11.0]])
    out = IntEngine(toy_bundle).threshold(codes, 0.039)  # quantize(0.039) = 10
    assert quantize(0.039) == 10
    assert out.dtype == np.float64
    assert out.tolist() == [[0, 10, 11]]
    # the same numbers as reals use the real-valued cutoff
    assert threshold_elements(codes, 0.039).tolist() == [[9.0, 10.0, 11.0]]


def test_quantization_coherence(rng, toy_bundle):
    # detection on codes == detection on dequantized-then-compared floats
    mat = np.abs(rng.standard_normal((64, 46)))
    t_elem = 0.02
    codes = quantize_array(mat)
    int_path = IntEngine(toy_bundle).threshold(codes, t_elem) == 0
    float_path = (codes / 256.0) < (quantize(t_elem) / 256.0)
    assert np.array_equal(int_path, float_path)


@given(
    hnp.arrays(np.float64, (8, 12), elements=st.floats(min_value=0, max_value=4)),
    st.floats(min_value=0, max_value=2),
)
@settings(max_examples=100)
def test_threshold_idempotent(mat, t):
    once = threshold_elements(mat, t)
    assert np.array_equal(threshold_elements(once, t), once)


def test_row_mask_counts():
    mat = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
    mask = build_row_mask(mat, SparsityConfig(0.0, 1))
    assert mask.zero_counts.tolist() == [2, 0]
    assert mask.skip.tolist() == [True, False]
    assert mask.n_kept == 1 and mask.n_skipped == 1
    assert mask.skip_fraction == 0.5


def test_row_mask_boundary():
    # exactly t_rowcount zeros keeps the row; one more skips it
    row_28 = np.concatenate([np.zeros(28), np.ones(18)]).reshape(1, -1)
    row_29 = np.concatenate([np.zeros(29), np.ones(17)]).reshape(1, -1)
    cfg = SparsityConfig(0.0, 28)
    assert not build_row_mask(row_28, cfg).skip[0]
    assert build_row_mask(row_29, cfg).skip[0]


def test_all_zero_row_skipped_at_45():
    mat = np.zeros((1, 46))
    assert build_row_mask(mat, SparsityConfig(0.0, 45)).skip[0]
    assert not build_row_mask(np.ones((1, 46)), SparsityConfig(0.0, 0)).skip[0]


@given(
    hnp.arrays(np.float64, (16, 20), elements=st.floats(min_value=0, max_value=1)),
    st.floats(min_value=0, max_value=0.5),
    st.floats(min_value=0, max_value=0.5),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=100)
def test_monotone_in_thresholds(mat, t_small, t_big, t_row):
    lo, hi = sorted((t_small, t_big))
    thr_lo = threshold_elements(mat, lo)
    thr_hi = threshold_elements(mat, hi)
    zc_lo = build_row_mask(thr_lo, SparsityConfig(0.0, t_row)).zero_counts
    zc_hi = build_row_mask(thr_hi, SparsityConfig(0.0, t_row)).zero_counts
    # raising the element threshold can only increase every zero count
    assert np.all(zc_hi >= zc_lo)
    # lowering the row threshold can only add skipped rows
    if t_row > 0:
        skip_high_t = build_row_mask(thr_lo, SparsityConfig(0.0, t_row)).skip
        skip_low_t = build_row_mask(thr_lo, SparsityConfig(0.0, t_row - 1)).skip
        assert np.all(skip_low_t | ~skip_high_t)


def _masks(snapshots, cfg):
    return [build_row_mask(threshold_elements(s, cfg.t_elem), cfg) for s in snapshots]


def _stats(masks, width=46):
    """``sparsity_stats`` of what the masks counted: their zero total and skip fractions."""
    return sparsity_stats(sum(int(m.zero_counts.sum()) for m in masks),
                          [m.skip_fraction for m in masks], masks[0].n_rows, width)


def test_stats_half_zero_rows():
    snap = np.concatenate([np.zeros((64, 46)), np.ones((64, 46))])
    stats = _stats(_masks([snap], SparsityConfig(0.0, 0)))
    assert stats["row_sparsity"] == 0.5
    assert stats["element_sparsity"] == 0.5
    assert stats["max_row_sparsity"] == 0.5


def test_stats_zero_matrix():
    stats = _stats(_masks([np.zeros((128, 46))], SparsityConfig(0.0, 0)))
    assert stats["element_sparsity"] == 1.0
    assert stats["row_sparsity"] == 1.0


def test_stats_against_recount(rng):
    snaps = [np.abs(rng.standard_normal((128, 46))) for _ in range(4)]
    cfg = SparsityConfig(0.5, 20)
    stats = _stats(_masks(snaps, cfg))
    zeros = sum(int((s < 0.5).sum()) for s in snaps)
    assert stats["element_sparsity"] == pytest.approx(zeros / (4 * 128 * 46))
    fractions = []
    for s in snaps:
        t = np.where(s < 0.5, 0.0, s)
        fractions.append(np.mean((t == 0).sum(axis=1) > 20))
    assert stats["row_sparsity"] == pytest.approx(np.mean(fractions))
    assert stats["max_row_sparsity"] == pytest.approx(max(fractions))


def test_stats_empty_input_rejected():
    with pytest.raises(ValueError):
        sparsity_stats(0, [], 128, 46)


def test_config_validation():
    with pytest.raises(ValueError):
        SparsityConfig(-0.1, 0)
    with pytest.raises(ValueError):
        SparsityConfig(0.1, -1)
    for t_elem in (float("nan"), float("inf"), True, "0.1", 10**400):
        with pytest.raises(ValueError, match="t_elem"):
            SparsityConfig(t_elem, 0)
    for t_rowcount in (2.5, True):
        with pytest.raises(ValueError, match="t_rowcount"):
            SparsityConfig(0.1, t_rowcount)
    # An integer threshold is stored, and so embedded in artifacts, as a float.
    assert repr(SparsityConfig(1, 0).t_elem) == "1.0"


def test_keep_all_mask():
    mask = RowMask.keep_all(128)
    assert mask.n_kept == 128 and mask.skip_fraction == 0.0


def test_output_deviation_normalization():
    base = np.array([[3.0, 4.0]])
    assert output_deviation(base, base) == 0.0
    dev = output_deviation(np.array([[3.0, 4.5]]), base)
    assert dev == pytest.approx(np.sqrt(0.25 / 2) / np.sqrt(12.5))


def _unscaled_deviation(coords, baseline):
    dev = np.sqrt(np.mean(np.square(coords - baseline)))
    ref = np.sqrt(np.mean(np.square(baseline)))
    return float(dev / ref if ref > 0 else dev)


# Magnitudes in [2**-200, 2**200], or 0: every square and every difference's
# square, scaled or not, is a normal float, so scaling rounds nothing.
_elements = st.one_of(st.just(0.0), st.floats(2.0**-200, 2.0**200),
                      st.floats(-(2.0**200), -(2.0**-200)))
_coords = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)), elements=_elements)


@given(_coords, st.data())
def test_output_deviation_keeps_the_unscaled_bits(coords, data):
    baseline = data.draw(hnp.arrays(np.float64, coords.shape, elements=_elements))
    assert output_deviation(coords, baseline) == _unscaled_deviation(coords, baseline)


@given(_coords.filter(lambda c: np.abs(c).max() >= 1.0), st.data())
def test_output_deviation_does_not_overflow(coords, data):
    # Times 2**600, the largest coordinate is past 1e180, whose square overflows.
    baseline = data.draw(hnp.arrays(np.float64, coords.shape, elements=_elements))
    big, base = np.ldexp(coords, 600), np.ldexp(baseline, 600)
    dev = output_deviation(big, base)
    assert np.isfinite(dev)
    # The deviation is relative, or absolute when the baseline is all zero.
    small = output_deviation(coords, baseline)
    assert dev == (small if baseline.any() else math.ldexp(small, 600))


def test_output_deviation_at_1e200():
    base = np.array([[1e200, -3e200]])
    dev = output_deviation(base * 1.5, base)
    assert dev == output_deviation(np.ldexp(base * 1.5, -600), np.ldexp(base, -600))
    assert dev == pytest.approx(0.5)
