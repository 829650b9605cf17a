"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written in the most obvious way possible
(explicit loops, scalar fixed-point steps, dense matrices with explicit
zeroing) so that agreement with the vectorized engine code means
something.
"""

import cmath
from fractions import Fraction

import numpy as np

from beamloc import activations
from beamloc.activations import (
    _EXP_CODE_LIMIT,
    _RECIP_BITS,
    _SIG_CODE_LIMIT,
    EXP_SIZE,
    SIG_SIZE,
    SIG_TABLE,
    ActivationKind,
)
from beamloc.channel import _BEAM_GAIN_SIGMA, _DELAY_SPREAD, N_BEAMS, N_SUBCARRIERS
from beamloc.fxp import ACC_BITS, ACC_MAX, ACC_MIN, AccumulatorOverflow, rne_div, sat_add
from beamloc.sparsity import RowMask

EXP_TABLE = activations.EXP_TABLE.astype(np.int64)


def naive_idft_row(row):
    """O(N^2) inverse DFT with 1/N normalization, scalar cmath arithmetic."""
    n = len(row)
    out = []
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += complex(row[k]) * cmath.exp(2j * cmath.pi * k * t / n)
        out.append(acc / n)
    return out


def generate_channel_loop(profile):
    """``channel.generate_channel`` as one scalar draw and one row update per tap."""
    rng = np.random.default_rng(profile.seed)
    beam_gain = rng.lognormal(0.0, _BEAM_GAIN_SIGMA[profile.scenario], size=(N_BEAMS, 1))
    h = profile.diffuse_floor * beam_gain * (
        rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
        + 1j * rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
    ) / np.sqrt(2.0)

    spread = _DELAY_SPREAD[profile.scenario]
    beams = rng.choice(N_BEAMS, size=profile.dominant_beams, replace=False)
    k = np.arange(N_SUBCARRIERS)
    for b in beams:
        row_gain = rng.uniform(0.6, 1.4)
        taus = rng.choice(spread, size=min(profile.dominant_delays, spread), replace=False)
        for tau in taus:
            amp = row_gain * rng.uniform(0.4, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            h[b] += amp * np.exp(1j * (phase - 2.0 * np.pi * k * tau / N_SUBCARRIERS))
    return h


def qmac(acc: int, a: int, b: int) -> int:
    """One exact multiply-accumulate step at Q16.16 scale."""
    acc = acc + a * b
    if not ACC_MIN <= acc <= ACC_MAX:
        raise AccumulatorOverflow(f"accumulator {acc} exceeds {ACC_BITS} bits")
    return acc


def requantize(acc: int) -> int:
    """Q16.16 accumulator -> Q8.8 code: shift right 8, RNE, saturate."""
    q, r = divmod(acc, 256)  # floor semantics, 0 <= r < 256
    if r > 128 or (r == 128 and q & 1):
        q += 1
    return min(max(q, -32768), 32767)


def sigmoid_lut_eval(code: int) -> int:
    """Scalar LUT lookup of the package kernel, for single Q8.8 values."""
    return int(activations.sigmoid_lut(np.array([code]))[0])


def rational_requantize(acc: int) -> int:
    """Exact rational round-half-even of acc / 256, as a cross-check."""
    value = Fraction(acc, 256)
    floor = value.numerator // value.denominator
    frac = value - floor
    if frac > Fraction(1, 2):
        floor += 1
    elif frac == Fraction(1, 2) and floor % 2:
        floor += 1
    return max(min(floor, 32767), -32768)


def naive_matmul_float(a, b, bias=None):
    rows, inner = len(a), len(a[0])
    cols = len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for k in range(inner):
                s += a[i][k] * b[k][j]
            if bias is not None:
                s += bias[j]
            out[i][j] = s
    return np.array(out)


def naive_matmul_q(a, b, bias=None):
    """Triple-loop integer matmul using the scalar qmac/requantize ops."""
    rows, inner = len(a), len(a[0])
    cols = len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc = qmac(acc, int(a[i][k]), int(b[k][j]))
            if bias is not None:
                acc += int(bias[j]) << 8
            out[i][j] = requantize(acc)
    return np.array(out, dtype=np.int16)


def rne_shift(v: np.ndarray, bits: int) -> np.ndarray:
    """Arithmetic right shift with round-to-nearest-even, exact on int64."""
    v = np.asarray(v)
    q = v >> bits
    r = v & ((1 << bits) - 1)
    half = 1 << (bits - 1)
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


def requantize_int64(acc):
    """Vectorized requantize on int64 accumulators: shift, round, saturate."""
    return np.clip(rne_shift(np.asarray(acc, dtype=np.int64), 8), -32768, 32767).astype(np.int16)


# The int64 integer activations, as they stood before the float64 kernels.


def sigmoid_lut(codes: np.ndarray) -> np.ndarray:
    """Elementwise LUT sigmoid on Q8.8 codes (any integer dtype)."""
    x = np.clip(np.asarray(codes, dtype=np.int64), -_SIG_CODE_LIMIT, _SIG_CODE_LIMIT)
    idx = rne_shift(x, 3) + (SIG_SIZE // 2)
    return SIG_TABLE[idx]


def _normalize_rows(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Emit Q8.8 codes for numer/denom per row, one reciprocal per row.

    Error-feedback rounding: entry i is the difference of the running
    rounded cumulative sum at i and i-1, so row totals never drift.  Rows
    with a zero denominator emit zeros.
    """
    safe = np.maximum(denom, 1)
    recip = np.where(denom > 0, rne_div(np.int64(1) << _RECIP_BITS, safe), 0)
    cum = np.cumsum(numer * recip, axis=1)
    steps = rne_shift(cum, _RECIP_BITS - 8)
    out = np.diff(steps, axis=1, prepend=0)
    return out.astype(np.int16)


def softmax_int(scores: np.ndarray) -> np.ndarray:
    """Integer-only stable softmax over each row of Q8.8 codes.

    Max subtraction happens on the raw codes, so a constant shift of a row
    changes nothing; the exp LUT then sees only non-positive inputs.
    """
    x = np.asarray(scores, dtype=np.int64)
    if x.size == 0:
        return np.zeros_like(x, dtype=np.int16)
    diff = x - x.max(axis=1, keepdims=True)
    idx = rne_shift(np.maximum(diff, -_EXP_CODE_LIMIT), 2) + (EXP_SIZE - 1)
    e = EXP_TABLE[idx]
    return _normalize_rows(e, e.sum(axis=1, keepdims=True))


def softmax_highprec(row, dps=50):
    """Row softmax at high working precision (mpmath)."""
    import mpmath

    with mpmath.workdps(dps):
        m = max(mpmath.mpf(float(v)) for v in row)
        exps = [mpmath.e ** (mpmath.mpf(float(v)) - m) for v in row]
        total = sum(exps)
        return np.array([float(e / total) for e in exps])


def masked_dense_layer_int(x, seg, mask: RowMask, *, kind, bias_code, m_code,
                           heads):
    """Mask-aware dense reference for one integer encoder layer.

    Computes every product over all rows, then zeroes the skipped rows'
    query/key/value contributions: attention is restricted to kept-by-kept
    score entries before the activation, skipped rows copy their input via
    the residual path, and the FFN touches kept rows only.
    """
    n, d = x.shape
    d_k = d // heads
    kept = np.flatnonzero(~mask.skip)
    out = x.copy()
    if kept.size == 0:
        return out

    def mm(a, b, bias=None):
        acc = a.astype(np.int64) @ b.astype(np.int64)
        if bias is not None:
            acc = acc + (bias.astype(np.int64) << 8)
        return requantize_int64(acc)

    # Dense projections over all rows, skipped rows included.
    q = mm(x, seg.w_q)
    k = mm(x, seg.w_k)
    v = mm(x, seg.w_v)
    head_outs = []
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        raw = mm(q[:, cols], k[:, cols].T)
        scores = requantize_int64(raw.astype(np.int64) * m_code)
        sub = scores[np.ix_(kept, kept)]
        if kind == ActivationKind.SOFTMAX_INT:
            act_sub = softmax_int(sub)
        else:
            act_sub = sigmoid_lut(sub.astype(np.int32) + bias_code)
        a_full = np.zeros((n, n), dtype=np.int16)
        a_full[np.ix_(kept, kept)] = act_sub
        v_gated = v.copy()
        v_gated[mask.skip] = 0  # skipped rows contribute nothing as values
        head_outs.append(mm(a_full, v_gated[:, cols]))
    proj = mm(np.concatenate(head_outs, axis=1), seg.w_o)
    mha = x.copy()
    mha[kept] = sat_add(x[kept], proj[kept])

    h1 = np.maximum(mm(mha, seg.ffn_w1, seg.ffn_b1), 0)
    ffn = mm(h1, seg.ffn_w2, seg.ffn_b2)
    out = mha.copy()
    out[kept] = ffn[kept]
    return out
