"""Attention activations: exact float forms and their integer LUT forms.

An :class:`ActivationKind` names the attention function and the engine
decides the arithmetic: the float engine runs the exact form, the integer
engine the LUT form.  ``ACTIVATIONS`` maps config names to kinds; softmax
keeps the name ``softmax-int`` that saved configs and workloads pass.
The two kinds are softmax and sigmoid with the length-compensating bias
-ln(n) (Ramapuram et al., arXiv:2409.04431).

The sigmoid LUT holds 1025 uniformly spaced samples of sigma over
[-16, +16] (grid step 1/32) with Q8.8 outputs; inputs are clamped to the
covered interval and snapped to the nearest grid point.  The exp LUT used
by the integer softmax holds 1025 samples of exp over [-16, 0] (grid step
1/64) with Q1.15 outputs, so exp(0) is exactly 32768.

The integer softmax normalizes with a single reciprocal per row plus
error-feedback rounding: each individual entry stays within one code of
its exact value, and the emitted Q8.8 codes of a row sum to 256, i.e.
exactly 1.0, for rows of at most 128 entries (see :func:`softmax_int`).

The kernels take Q8.8 codes as float64 integers, the one code dtype of
:mod:`beamloc.fxp`, and return them so; an integer array of the same
codes gives the same result.  Both LUTs are indexed
by code: a :func:`scaled_sigmoid_table` holds the sigmoid LUT entry of
every Q8.8 code for one (scale, bias) pair, and ``EXP_BY_DISTANCE`` the
exp LUT entry of every distance d in [0, 65535] of a code below its row
max, which is exp(-16) = 0, the clamped entry, for every d past 4096.
They are built from the 1025-entry tables and the grid-snapping rule,
the sigmoid's on first use and the exp's at import, so a LUT lookup is
one gather with no division or rounding per element.

The softmax's row prefix sums are two float64 GEMMs: one with an
upper-triangular 16x16 matrix of ones sums within each block of 16
columns, and one of the block sums with a strictly upper-triangular matrix
adds the earlier blocks' sums.  Rows are padded to a multiple of 16 with
distance 65535, whose exp entry is 0.  An exp entry is an integer of at
most 2**15, so a row of up to 256 entries sums to at most 2**23, far below
2**53: every product and partial sum is an exact float64 integer in any
BLAS summation order, FMA use or thread count, as in ``fxp.qmatmul``.

The softmax's one division per row is a float64 one: its reciprocal is
``rint(2**30 / S)`` of the row sum S, which the prefix sum already holds
in its last column.  This equals the round-half-even integer quotient:
2**30 / S is a half-integer only for S = 2**31, and otherwise lies at
least 1 / (2S) from one, while the correctly rounded float64 quotient is
within 2**-53 * 2**30 / S = 2**-23 / S of it.  A row of n entries sums
to at most n * 2**15, and the tests check every sum below 2**23.

Scaled scores: the integer engine's attention scores are the product
q·kᵀ / 256 of :func:`~beamloc.fxp.qproduct`, not yet rounded.  They still
owe the requantize that makes them Q8.8 codes (round half to even,
saturate), a multiply by the score scale's code ``m``
(``gamma / sqrt(d_k)``) and a second requantize, so both kernels take
``m`` and do all three as part of their own index computation.
``softmax_int(scores, m)`` rounds, saturates and requantizes the scaled
codes itself, so the engine runs no separate scale op, and every distance
of two scaled codes has an entry in ``EXP_BY_DISTANCE``.  A score code
takes one of 65536 values, so ``sigmoid_lut(scores, bias, m)`` gathers
from a table of the finished weight of every code, built on first use by
:func:`scaled_sigmoid_table` from :func:`~beamloc.fxp.requantize_array`
and ``SIG_TABLE``; the gather's ``mode="clip"`` is the score's
saturation.  So a sigmoid head reads its score matrix in four passes: a
rint, an offset, a cast to indices and the gather.  A table is 65536
float64 entries (512 KiB); at most 8 (m, bias) pairs are cached, 4 MiB
in all, and the least recently used is dropped first.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .fxp import CODE_MIN, CODE_MAX, SCALE, quantize, quantize_array, requantize_array


class ActivationKind(enum.IntEnum):
    SOFTMAX_INT = 1
    SIGMOID_BIAS_LUT = 3


ACTIVATIONS = {
    "softmax-int": ActivationKind.SOFTMAX_INT,
    "sigmoid-bias": ActivationKind.SIGMOID_BIAS_LUT,
}


# --------------------------------------------------------------------------
# Sigmoid LUT: 1025 samples over [-16, +16], step 1/32, Q8.8 outputs.

SIG_RANGE = 16.0
SIG_STEPS_PER_UNIT = 32
SIG_SIZE = 2 * int(SIG_RANGE) * SIG_STEPS_PER_UNIT + 1  # 1025
_SIG_GRID = -SIG_RANGE + np.arange(SIG_SIZE) / SIG_STEPS_PER_UNIT
SIG_TABLE = quantize_array(1.0 / (1.0 + np.exp(-_SIG_GRID)))

_SIG_CODE_LIMIT = int(SIG_RANGE) * SCALE  # 4096


def sigmoid_lut(codes: np.ndarray, bias: int = 0, scale: int = SCALE) -> np.ndarray:
    """Elementwise LUT sigmoid of ``requantize(code * scale) + bias``, float64 codes out.

    ``codes`` may be any values of magnitude below 2**53, such as
    unrounded scores: each is rounded half to even and saturated to the
    Q8.8 code range, then multiplied by the ``scale`` code and
    requantized, through one gather from :func:`scaled_sigmoid_table`;
    the default 256, 1.0, leaves every code as it is.
    """
    idx = np.rint(codes, dtype=np.float64)
    idx -= CODE_MIN
    # clipping the index to the table saturates the rounded code
    return scaled_sigmoid_table(scale, bias).take(idx.astype(np.intp), mode="clip")


@functools.lru_cache(maxsize=8)
def scaled_sigmoid_table(scale: int, bias: int) -> np.ndarray:
    """Entry ``s + 32768``: the sigmoid LUT entry of ``requantize_array(s * scale) + bias``.

    The biased code c clamps to [-4096, 4096] and snaps to the 8-code grid:
    c/8 + 512 rounds to even like c/8 does, because 512 is even.
    """
    codes = np.arange(CODE_MIN, CODE_MAX + 1, dtype=np.float64)
    x = requantize_array(codes * scale) + bias
    x.clip(-_SIG_CODE_LIMIT, _SIG_CODE_LIMIT, out=x)
    table = SIG_TABLE[np.rint(x / 8 + SIG_SIZE // 2).astype(np.intp)]
    table.setflags(write=False)
    return table


# --------------------------------------------------------------------------
# Exp LUT for the integer softmax: 1025 samples over [-16, 0], step 1/64,
# Q1.15 outputs (exp(0) -> 32768 exactly).

EXP_ONE = 1 << 15
EXP_STEPS_PER_UNIT = 64
EXP_SIZE = int(SIG_RANGE) * EXP_STEPS_PER_UNIT + 1  # 1025
_EXP_GRID = -SIG_RANGE + np.arange(EXP_SIZE) / EXP_STEPS_PER_UNIT
EXP_TABLE = np.rint(np.exp(_EXP_GRID) * EXP_ONE)

_EXP_CODE_LIMIT = int(SIG_RANGE) * SCALE  # 4096
# Entry d serves a code d below its row max, for every distance of two Q8.8
# codes: the difference -d clamps at -4096, to exp(-16), and snaps to the
# 4-code grid, where -d/4 + 1024 rounds to even like -d/4 does.
EXP_BY_DISTANCE = np.full(CODE_MAX - CODE_MIN + 1, EXP_TABLE[0])
EXP_BY_DISTANCE[:_EXP_CODE_LIMIT + 1] = EXP_TABLE[
    np.rint(np.arange(0, -_EXP_CODE_LIMIT - 1, -1) / 4 + (EXP_SIZE - 1)).astype(np.intp)]
_RECIP_BITS = 30
_BLOCK = 16  # softmax_int's prefix-sum block width, in columns
_IN_BLOCK = np.triu(np.ones((_BLOCK, _BLOCK)))
_PAD_DISTANCE = CODE_MAX - CODE_MIN  # 65535


@functools.cache
def _earlier_blocks(nb: int) -> np.ndarray:
    """Entry (i, j) is 1 for i < j: a row of block sums times it gives each block's offset."""
    ones = np.triu(np.ones((nb, nb)), 1)
    ones.setflags(write=False)
    return ones


def softmax_int(scores: np.ndarray, scale: int = SCALE) -> np.ndarray:
    """Integer-only stable softmax over each row of Q8.8 codes, as float64 codes.

    ``scores`` may be any values of magnitude below 2**53, such as
    unrounded scores: each is rounded half to even and saturated to the
    Q8.8 code range, then multiplied by the ``scale`` code and requantized,
    saturating again, as the engine's scale op does; the default 256, 1.0,
    leaves every code as it is.  So a scaled code's distance below its row
    max lies in [0, 65535], the range of ``EXP_BY_DISTANCE``.

    Max subtraction happens on the scaled codes, so a constant shift of
    them changes nothing; the exp LUT then sees only non-positive inputs.
    Each row's maximum maps to exp(0) = 32768, so every row sum is positive.

    Error-feedback rounding: entry i is the difference of the running
    rounded cumulative sum at i and i-1, so a row's codes sum to 256 while
    its exp sum is at most 2**22, as in every row of at most 128 entries.
    Longer rows can drift: all-zero rows of 384 and 1000 entries sum to 255 and 258.

    The running sums are the module docstring's two GEMMs, on rows padded
    to a multiple of 16 columns with a distance whose exp entry is 0; they
    are exact while a row sum stays below 2**53.
    """
    if scores.size == 0:
        return np.zeros(scores.shape)
    codes = np.rint(scores, dtype=np.float64)
    codes.clip(float(CODE_MIN), float(CODE_MAX), out=codes)
    codes *= scale / SCALE  # exact: |code * scale| <= 2**30, and 1/256 is a power of two
    np.rint(codes, out=codes)
    dist = codes.clip(float(CODE_MIN), float(CODE_MAX), out=codes).astype(np.intp)
    np.subtract(dist.max(axis=1, keepdims=True), dist, out=dist)
    n, m = dist.shape
    nb = -(-m // _BLOCK)
    if m % _BLOCK:
        padded = np.full((n, nb * _BLOCK), _PAD_DISTANCE, dtype=np.intp)
        padded[:, :m] = dist
        dist = padded
    e = EXP_BY_DISTANCE.take(dist)
    steps = e.reshape(-1, _BLOCK) @ _IN_BLOCK
    blocks = steps.reshape(n, nb, _BLOCK)
    blocks += (blocks[:, :, -1] @ _earlier_blocks(nb))[:, :, None]
    steps = steps.reshape(n, -1)
    # the row sum S is the prefix sum's last column; rint(2**30 / S) rounds half to even
    recip = np.rint((1 << _RECIP_BITS) / steps[:, -1:])
    recip *= 2.0 ** (8 - _RECIP_BITS)
    steps *= recip
    np.rint(steps, out=steps)
    # one contiguous difference over the flattened rows; column 0 is then rewritten
    flat = steps.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=e.reshape(-1)[1:])
    e[:, 0] = steps[:, 0]
    return e[:, :m]


@functools.cache
def sigmoid_bias_code(n: int) -> int:
    """Q8.8 code of the length-compensating bias -ln(n)."""
    return quantize(-float(np.log(n)))


# --------------------------------------------------------------------------
# Float reference forms.


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each row."""
    if s.size == 0:
        return s.copy()
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(s: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-s))
