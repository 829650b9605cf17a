"""Q8.8 symmetric fixed-point arithmetic with widened accumulation.

Activations and weights are 16-bit signed codes interpreted as
``value = code / 256``.  Multiply-accumulate runs on exact integers at the
Q16.16 product scale; :func:`requantize_array` folds accumulators back to
Q8.8 with round-to-nearest-even and saturation.  Real zero maps to code zero,
which is what makes bit-exact zero detection (and therefore row skipping)
possible downstream.

Model parameters fixed here, and documented only in this docstring:

* accumulator width: 40-bit signed, checked, never silently wrapped;
* rounding: round-to-nearest, ties to even, on every requantization;
* overflow policy: saturation to the Q8.8 code range, not wraparound.

A k-term dot of int16 codes reaches magnitude k * 2**30 (plus an aligned
bias below 2**23).  The projections, FFN and attention products have at
most 128 terms, at most 2**37, well inside the 40-bit range of +-2**39.
The coordinate head's first layer dots over 1536 terms, up to about
2**40.6, so extreme weights and inputs can overflow there: that raises
:class:`AccumulatorOverflow` (CLI exit 4), which is the contract, rather
than a wider modeled accumulator.

The vectorized kernels compute these exact integers in float64, which
BLAS multiplies.  Every integer of magnitude below 2**53 is a float64, so
each product (at most 2**30) and every partial sum of fewer than 2**23
such terms is exact in any summation order, and scaling by 1/256 is
exact.  Integer results therefore do not depend on the datatype that
computes them.
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 8
SCALE = 1 << FRAC_BITS          # 256
CODE_MIN = -(1 << 15)           # -32768
CODE_MAX = (1 << 15) - 1        # +32767
VALUE_MIN = CODE_MIN / SCALE    # -128.0
VALUE_MAX = CODE_MAX / SCALE    # +127.99609375
ULP = 1.0 / SCALE               # 0.00390625, the minimum representable step

ACC_BITS = 40
ACC_MAX = (1 << (ACC_BITS - 1)) - 1
ACC_MIN = -(1 << (ACC_BITS - 1))


class AccumulatorOverflow(ArithmeticError):
    """A MAC chain left the 40-bit accumulator range (contract violation)."""


def quantize(x: float) -> int:
    """Round-to-nearest-even of ``x * 256``, ``x`` first clamped to [VALUE_MIN, VALUE_MAX]."""
    if not np.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    return round(min(max(x, VALUE_MIN), VALUE_MAX) * SCALE)  # round() is round-half-even


def dequantize(code: int) -> float:
    return code / SCALE


def quantize_array(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`quantize` (np.rint rounds half to even).  Rejects NaN and inf."""
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    codes = np.maximum(np.asarray(x, dtype=np.float64), VALUE_MIN)
    np.minimum(codes, VALUE_MAX, out=codes)  # two ufuncs cost less than np.clip on small arrays
    codes *= SCALE
    np.rint(codes, out=codes)
    return codes.astype(np.int16)


def dequantize_array(codes: np.ndarray) -> np.ndarray:
    return np.asarray(codes, dtype=np.float64) / SCALE


def rne_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer division with round-to-nearest-even; b must be positive."""
    q = a // b
    r = a - q * b
    twice = 2 * r
    return q + ((twice > b) | ((twice == b) & ((q & 1) == 1)))


def check_headroom(acc: np.ndarray) -> np.ndarray:
    if acc.size and (acc.max() > ACC_MAX or acc.min() < ACC_MIN):
        raise AccumulatorOverflow(f"accumulator [{acc.min():.0f}, {acc.max():.0f}] exceeds {ACC_BITS} bits")
    return acc


def requantize_array(acc: np.ndarray) -> np.ndarray:
    """Q16.16 accumulators -> Q8.8 codes: acc / 256 rounded half to even, saturated.

    ``acc`` holds integers of magnitude below 2**53, in any numeric dtype;
    the scaling is exact and np.rint rounds ties to even.
    """
    q = np.rint(acc * ULP)
    np.clip(q, CODE_MIN, CODE_MAX, out=q)
    return q.astype(np.int16)


def qmatmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Integer matmul of Q8.8 codes, requantized back to Q8.8.

    Operands and bias must be int16 codes, which keeps the float64 (BLAS)
    accumulation exact; the bias is aligned to the Q16.16 accumulator
    scale before the single requantization.
    """
    if any(x is not None and x.dtype != np.int16 for x in (a, b, bias)):
        raise TypeError(f"qmatmul takes int16 codes, got {a.dtype}, {b.dtype}, {getattr(bias, 'dtype', None)}")
    acc = a.astype(np.float64) @ b.astype(np.float64)
    if bias is not None:
        acc += bias * float(SCALE)
    check_headroom(acc)
    return requantize_array(acc)


def sat_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Saturating Q8.8 addition (residual connections)."""
    s = a.astype(np.int32) + b.astype(np.int32)
    return np.clip(s, CODE_MIN, CODE_MAX).astype(np.int16)
