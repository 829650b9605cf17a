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

Headroom: a code lies in [-2**15, 2**15), so a product of two codes has
magnitude at most 2**30, and an aligned bias (code * 256) at most 2**23.
A k-term dot plus bias therefore stays within k * 2**30 + 2**23, which is
at most ACC_MAX for every k up to 511 (511 * 2**30 + 2**23 < 2**39 - 1).
:func:`qmatmul` and :func:`qproduct` skip the check on such products,
which cannot overflow, and run :func:`check_headroom` on products of 512
terms or more.  The projections, FFN and attention products of a 128x46
bundle have at most 128 terms.  The coordinate head's first layer dots
over 1536 terms, up to about 2**40.6, so extreme weights and inputs can
overflow there, as can any layer whose ``d_ff`` or ``d_h`` reaches 512:
that raises :class:`AccumulatorOverflow` (CLI exit 4), which is the
contract, rather than a wider modeled accumulator.

The vectorized kernels compute these exact integers in float64, which
BLAS multiplies.  Every integer of magnitude below 2**53 is a float64, so
each product (at most 2**30) and every partial sum of fewer than 2**23
such terms is exact in any summation order, and scaling by 1/256 is
exact.  Integer results therefore do not depend on the datatype that
computes them, and codes are float64 integers from :func:`quantize_array`
to the coordinates.  Folding the 1/256 into an operand, as :func:`qproduct`
does, is exact too: every term and partial sum is then a multiple of 2**-8
below 2**45, so ``qproduct(a, b)`` is the accumulator / 256, and rounding
it half to even and saturating it gives ``qmatmul(a, b)``.
:func:`qmatmul`, :func:`qproduct` and :func:`sat_add` raise TypeError on
an operand of any other dtype, integer codes included, so no second
dtype enters the engine; they trust float64 operands to hold integers in
the code range, which the headroom bound above also rests on.
"""

from __future__ import annotations

import math

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
    if not math.isfinite(x):  # on a scalar, np.isfinite costs twice the rest of quantize
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    return round(min(max(x, VALUE_MIN), VALUE_MAX) * SCALE)  # round() is round-half-even


def dequantize(code: int) -> float:
    return code / SCALE


def quantize_array(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`quantize` as float64 codes (np.rint rounds half to even).

    Takes float32 or float64 values; float32 to float64 is exact.  Rejects
    NaN and inf before the float64 copy, whose cast a signalling NaN trips.
    A zero code is +0.0, also for inputs in [-1/512, 0].
    """
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    codes = np.array(x, dtype=np.float64)
    np.maximum(codes, VALUE_MIN, out=codes)
    np.minimum(codes, VALUE_MAX, out=codes)  # two ufuncs cost less than np.clip on small arrays
    codes *= SCALE
    np.rint(codes, out=codes)
    codes += 0.0  # rint keeps the sign of a zero; -0.0 + 0.0 is +0.0
    return codes


def dequantize_array(codes: np.ndarray) -> np.ndarray:
    return np.asarray(codes, dtype=np.float64) / SCALE


def check_headroom(acc: np.ndarray) -> np.ndarray:
    """Raise AccumulatorOverflow if any accumulator leaves the 40-bit range.

    :func:`qmatmul` calls it only on products of 512 terms or more; shorter
    products stay within 511 * 2**30 + 2**23 < ACC_MAX (see the module docstring).
    """
    if acc.size and (acc.max() > ACC_MAX or acc.min() < ACC_MIN):
        raise AccumulatorOverflow(f"accumulator [{acc.min():.0f}, {acc.max():.0f}] exceeds {ACC_BITS} bits")
    return acc


def requantize_array(acc: np.ndarray) -> np.ndarray:
    """Q16.16 accumulators -> Q8.8 codes as float64: acc / 256 rounded half to even, saturated.

    ``acc`` holds integers of magnitude below 2**53, in any numeric dtype;
    the scaling is exact and np.rint rounds ties to even.
    """
    q = acc * ULP
    np.rint(q, out=q)
    return q.clip(CODE_MIN, CODE_MAX, out=q)


def qmatmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Integer matmul of float64 Q8.8 codes, requantized back to Q8.8 codes.

    Float64 (BLAS) accumulation is exact (see the module docstring); the
    bias is aligned to the Q16.16 accumulator scale before the single
    requantization, which runs in place on the fresh accumulator.
    """
    if a.dtype != np.float64 or b.dtype != np.float64 or (bias is not None and bias.dtype != np.float64):
        raise TypeError(f"qmatmul takes float64 codes, got {a.dtype}, {b.dtype}, {getattr(bias, 'dtype', None)}")
    acc = a @ b
    if bias is not None:
        acc += bias * float(SCALE)
    if a.shape[-1] * 2**30 + 2**23 > ACC_MAX:
        check_headroom(acc)
    acc *= ULP
    np.rint(acc, out=acc)
    return acc.clip(float(CODE_MIN), float(CODE_MAX), out=acc)  # float bounds clip faster


def qproduct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact, unrounded ``a @ b / 256`` of float64 Q8.8 codes: :func:`qmatmul` before rounding.

    The 1/256 is folded into ``a`` (see the module docstring).  Products of
    512 terms or more are headroom-checked as :func:`qmatmul` checks them.
    """
    if a.dtype != np.float64 or b.dtype != np.float64:
        raise TypeError(f"qproduct takes float64 codes, got {a.dtype}, {b.dtype}")
    p = (a * ULP) @ b
    if a.shape[-1] * 2**30 > ACC_MAX:
        check_headroom(p * SCALE)
    return p


def sat_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Saturating Q8.8 addition of float64 codes (residual connections)."""
    if a.dtype != np.float64 or b.dtype != np.float64:
        raise TypeError(f"sat_add takes float64 codes, got {a.dtype}, {b.dtype}")
    s = a + b
    return s.clip(CODE_MIN, CODE_MAX, out=s)
