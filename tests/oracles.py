"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written in the most obvious way possible
(explicit loops, scalar fixed-point steps, dense matrices with explicit
zeroing) so that agreement with the vectorized engine code means
something.
"""

import cmath
import functools
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

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
from beamloc.channel import _PROFILES, N_BEAMS, N_SUBCARRIERS
from beamloc.fxp import ACC_BITS, ACC_MAX, ACC_MIN, AccumulatorOverflow, quantize
from beamloc.sparsity import RowMask
from beamloc.weights import SCENARIOS, EncoderSegment, HeadParams, random_bundle

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
    n_beams, taps_per_beam, floor, spread, sigma = _PROFILES[profile.scenario]
    rng = np.random.default_rng(profile.seed)
    beam_gain = rng.lognormal(0.0, sigma, size=(N_BEAMS, 1))
    h = floor * beam_gain * (
        rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
        + 1j * rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
    ) / np.sqrt(2.0)

    beams = rng.choice(N_BEAMS, size=n_beams, replace=False)
    k = np.arange(N_SUBCARRIERS)
    for b in beams:
        row_gain = rng.uniform(0.6, 1.4)
        taus = rng.choice(spread, size=taps_per_beam, replace=False)
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


def rne_div(a, b):
    """Integer division with round-to-nearest-even; b must be positive."""
    q = a // b
    r = a - q * b
    twice = 2 * r
    return q + ((twice > b) | ((twice == b) & ((q & 1) == 1)))


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


def round_half_even_and_saturate(values) -> np.ndarray:
    """Q8.8 codes of unrounded scores, one value at a time, as int64.

    Python's round() rounds half to even; the code then saturates to the
    int16 range, as requantizing the product the scores are would.
    """
    v = np.asarray(values, dtype=np.float64)
    codes = [min(max(round(x), -32768), 32767) for x in v.reshape(-1).tolist()]
    return np.array(codes, dtype=np.int64).reshape(v.shape)


# The LUT index rules, as the kernels computed them before the code-indexed
# tables: a clamped code snaps to its grid point, rounded half to even.


def sigmoid_lut_index(codes) -> np.ndarray:
    """SIG_TABLE index of each Q8.8 input code: clamp to +-16, then code/8 + 512."""
    x = np.clip(np.asarray(codes, dtype=np.float64), -_SIG_CODE_LIMIT, _SIG_CODE_LIMIT)
    return np.rint(x / 8 + SIG_SIZE // 2).astype(np.intp)


def exp_lut_index(diffs) -> np.ndarray:
    """EXP_TABLE index of each max-subtracted difference: clamp to -16, then diff/4 + 1024."""
    x = np.maximum(np.asarray(diffs, dtype=np.float64), -_EXP_CODE_LIMIT)
    return np.rint(x / 4 + (EXP_SIZE - 1)).astype(np.intp)


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
    the residual path, and the FFN touches kept rows only.  Every
    accumulator obeys qmac's 40-bit rule, or AccumulatorOverflow is raised.
    """
    n, d = x.shape
    d_k = d // heads
    kept = np.flatnonzero(~mask.skip)
    out = x.copy()
    if kept.size == 0:
        return out
    mm = matmul_checked

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
    mha[kept] = np.clip(x[kept].astype(np.int64) + proj[kept], -32768, 32767)

    h1 = np.maximum(mm(mha, seg.ffn_w1, seg.ffn_b1), 0)
    ffn = mm(h1, seg.ffn_w2, seg.ffn_b2)
    out = mha.copy()
    out[kept] = ffn[kept]
    return out


def masked_dense_layer_float(x, seg, mask: RowMask, *, kind, heads):
    """``masked_dense_layer_int`` in float64: exact activations, no rounding."""
    n, d = x.shape
    d_k = d // heads
    kept = np.flatnonzero(~mask.skip)
    out = x.copy()
    if kept.size == 0:
        return out
    q, k, v = x @ seg.w_q, x @ seg.w_k, x @ seg.w_v
    head_outs = []
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = (q[:, cols] @ k[:, cols].T) * (seg.gamma / math.sqrt(d_k))
        sub = scores[np.ix_(kept, kept)]
        if kind == ActivationKind.SOFTMAX_INT:
            e = np.exp(sub - sub.max(axis=1, keepdims=True))
            act_sub = e / e.sum(axis=1, keepdims=True)
        else:
            with np.errstate(over="ignore"):  # exp(-s) = inf for very negative s gives 0
                act_sub = 1.0 / (1.0 + np.exp(-(sub - math.log(n))))
        a_full = np.zeros((n, n))
        a_full[np.ix_(kept, kept)] = act_sub
        v_gated = v.copy()
        v_gated[mask.skip] = 0.0
        head_outs.append(a_full @ v_gated[:, cols])
    mha = x.copy()
    mha[kept] = x[kept] + (np.concatenate(head_outs, axis=1) @ seg.w_o)[kept]
    ffn = np.maximum(mha @ seg.ffn_w1 + seg.ffn_b1, 0.0) @ seg.ffn_w2 + seg.ffn_b2
    out[kept] = ffn[kept]
    return out


# --------------------------------------------------------------------------
# Whole-run oracles: routing, thresholding, row masks, the folded encoder,
# max-pool and the coordinate head, built from the scalar and layer oracles
# above and no engine code.  Each returns (scenario, row skip mask, coords)
# per snapshot, in order.


def quantize_scalars(x) -> np.ndarray:
    """``fxp.quantize`` applied to one element at a time, as int64 codes."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([quantize(v) for v in x.reshape(-1).tolist()], dtype=np.int64).reshape(x.shape)


def matmul_checked(a, b, bias=None):
    """Exact int64 product plus aligned bias; every accumulator obeys qmac's 40-bit rule."""
    acc = np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)
    if bias is not None:
        acc = acc + (np.asarray(bias, dtype=np.int64) << 8)
    for value in acc.reshape(-1).tolist():
        if not ACC_MIN <= value <= ACC_MAX:
            raise AccumulatorOverflow(f"accumulator {value} exceeds {ACC_BITS} bits")
    return requantize_int64(acc).astype(np.int64)


def vote(history: list, window: int, current: int, label: int) -> int:
    """Plurality of the last ``window`` labels; a tied vote keeps ``current``."""
    history.append(label)
    recent = history[-window:]
    counts = [recent.count(c) for c in range(len(SCENARIOS))]
    top = max(counts)
    winners = [c for c in range(len(SCENARIOS)) if counts[c] == top]
    return winners[0] if len(winners) == 1 else current


def first_argmax(values) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def maxpool_loop(x, k: int, p: int) -> list:
    """Per row: pad with p zeros, max over each width-k window, concatenate."""
    out = []
    for row in np.asarray(x).tolist():
        padded = row + [0] * p
        out.extend(max(padded[j:j + k]) for j in range(0, len(padded), k))
    return out


def _threshold_and_mask(x, scfg, t):
    """Zero every element below ``t``; skip rows with more than t_rowcount zeros."""
    x = np.array([[0 if v < t else v for v in row] for row in x.tolist()], dtype=x.dtype)
    zeros = [sum(1 for v in row if v == 0) for row in x.tolist()]
    return x, np.array([z > scfg.t_rowcount for z in zeros], dtype=bool)


def _run(bundle, fps, sparsity, window, scenario, snapshot):
    """The shared flow; ``snapshot(x)`` -> (input, router logits, threshold fn, locate fn)."""
    window = bundle.router_window if window is None else window
    history, current, results = [], 0, []
    for fp in fps:
        x, logits, threshold, locate = snapshot(fp)
        if scenario is None:
            current = vote(history, window, current, first_argmax(logits))
            sc = SCENARIOS[current]
        else:
            sc = scenario
        scfg = (sparsity or {}).get(sc)
        if scfg is None:
            skip = np.zeros(bundle.n, dtype=bool)
        else:
            x, skip = _threshold_and_mask(x, scfg, threshold(scfg.t_elem))
        results.append((sc, skip, locate(x, skip, sc)))
    return results


def run_int(bundle, fps, sparsity=None, window=None, activation=None, scenario=None):
    """The integer engine's one-map ``sweep`` over a float bundle, from scalar and int64 oracles.

    ``sparsity`` maps scenarios to ``SparsityConfig``; ``window``,
    ``activation`` and ``scenario`` override the bundle's router window and
    activation and bypass the router, as ``EngineConfig`` does.  Raises
    ``AccumulatorOverflow`` when any accumulator leaves 40 bits.
    """
    kind = bundle.activation if activation is None else ActivationKind(activation)
    d_k = bundle.d // bundle.heads

    def codes(obj, names):
        return {name: quantize_scalars(getattr(obj, name)) for name in names}

    enc_names = ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")

    @functools.cache
    def scenario_codes(sc):
        """A scenario's (segment codes, gamma) pairs and head codes, quantized on first use."""
        segments = [(codes(seg, enc_names), quantize(seg.gamma) / 256) for seg in bundle.segments[sc]]
        return segments, codes(bundle.fcnn[sc], ("w1", "b1", "w2", "b2"))

    slp_w, slp_b = quantize_scalars(bundle.slp_w), quantize_scalars(bundle.slp_b)
    bias_code = quantize(-float(np.log(bundle.n)))

    def locate(x, skip, sc):
        mask = RowMask(skip=skip.copy(), zero_counts=np.zeros(bundle.n, dtype=np.int64))
        segments, head = scenario_codes(sc)
        for i, (seg, gamma) in enumerate(segments):
            layer_mask = mask if i == 0 else RowMask.keep_all(bundle.n)
            x = masked_dense_layer_int(
                x.astype(np.int16), SimpleNamespace(**seg), layer_mask, kind=kind,
                bias_code=bias_code, m_code=quantize(gamma / math.sqrt(d_k)), heads=bundle.heads,
            ).astype(np.int64)
        v = [maxpool_loop(x, bundle.pool_k, bundle.pool_p)]
        h = matmul_checked(v, head["w1"], head["b1"])
        h = [[c if c >= 0 else requantize(c * 77) for c in h[0].tolist()]]
        return matmul_checked(h, head["w2"], head["b2"])[0] / 256

    def snapshot(fp):
        x = quantize_scalars(fp)
        logits = matmul_checked(x[:, bundle.delay_bin].reshape(1, -1), slp_w.T, slp_b)[0]
        return x, logits.tolist(), quantize, locate

    return _run(bundle, fps, sparsity, window, scenario, snapshot)


def run_float(bundle, fps, sparsity=None, window=None, activation=None, scenario=None):
    """``run_int``'s composition in float64: the float engine's reference."""
    kind = bundle.activation if activation is None else ActivationKind(activation)

    def locate(x, skip, sc):
        mask = RowMask(skip=skip.copy(), zero_counts=np.zeros(bundle.n, dtype=np.int64))
        for i, seg in enumerate(bundle.segments[sc]):
            x = masked_dense_layer_float(x, seg, mask if i == 0 else RowMask.keep_all(bundle.n),
                                         kind=kind, heads=bundle.heads)
        head = bundle.fcnn[sc]
        h = np.array(maxpool_loop(x, bundle.pool_k, bundle.pool_p)) @ head.w1 + head.b1
        h = np.array([c if c >= 0 else c * 0.3 for c in h.tolist()])
        return h @ head.w2 + head.b2

    def snapshot(fp):
        x = np.array(fp, dtype=np.float64)
        logits = bundle.slp_w @ x[:, bundle.delay_bin] + bundle.slp_b
        return x, logits.tolist(), float, locate

    return _run(bundle, fps, sparsity, window, scenario, snapshot)


def fcnn_edge_bundle(acc: int):
    """A 128x46 bundle whose S1 run reaches exactly ``acc`` in its first head accumulator.

    The S1 encoder has zero weights and an FFN output bias of 32767 codes, so
    every row leaves it as 32767 codes whatever the input, and so does every
    pooled entry.  Column 0 of the head's first layer then sums to
    32767 * sum(w1 codes) + 256 * b1 code, which the codes below set to ``acc``.
    """
    base = random_bundle(seed=7, d_ff=1, d_h=1, activation=ActivationKind.SOFTMAX_INT)
    zero = EncoderSegment(**{name: np.zeros_like(getattr(base.segments["S1"][0], name))
                             for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2")},
                          gamma=0.0, ffn_b2=np.full(base.d, 32767 / 256))
    b1 = acc * pow(256, -1, 32767) % 32767          # 256 * b1 = acc (mod 32767)
    total, length = (acc - 256 * b1) // 32767, base.fcnn["S1"].w1.shape[0]
    w1 = np.full(length, total // length) + (np.arange(length) < total % length)
    head = HeadParams(w1=(w1 / 256).reshape(-1, 1), b1=np.array([b1 / 256]),
                      w2=base.fcnn["S1"].w2, b2=base.fcnn["S1"].b2)
    return replace(base, segments={**base.segments, "S1": (zero,)},
                   fcnn={**base.fcnn, "S1": head})
