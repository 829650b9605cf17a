"""Element thresholding, row-skip masks and sparsity statistics.

Threshold relations are strict, exactly as the control logic applies them:
an element is zeroed when ``x < t_elem`` and a row is skipped when its
zero count satisfies ``Z > t_rowcount``.  Elements equal to the threshold
survive; a row with exactly ``t_rowcount`` zeros is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fxp import quantize


@dataclass(frozen=True)
class SparsityConfig:
    t_elem: float
    t_rowcount: int

    def __post_init__(self):
        if not (math.isfinite(self.t_elem) and self.t_elem >= 0):
            raise ValueError(f"t_elem must be finite and >= 0, got {self.t_elem}")
        if self.t_rowcount < 0:
            raise ValueError("t_rowcount must be >= 0")


@dataclass(frozen=True)
class RowMask:
    skip: np.ndarray        # bool, True = row bypasses all computation
    zero_counts: np.ndarray

    def __post_init__(self):
        self.skip.setflags(write=False)
        self.zero_counts.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.skip.shape[0]

    @property
    def n_kept(self) -> int:
        return int((~self.skip).sum())

    @property
    def n_skipped(self) -> int:
        return int(self.skip.sum())

    @property
    def skip_fraction(self) -> float:
        return self.n_skipped / self.n_rows

    @classmethod
    def keep_all(cls, n_rows: int) -> "RowMask":
        return cls(np.zeros(n_rows, dtype=bool), np.zeros(n_rows, dtype=np.int64))


def threshold_elements(x: np.ndarray, t_elem: float) -> np.ndarray:
    """Replace every element below the threshold with an exact zero.

    int16 Q8.8 codes compare against quantize(t_elem), so the integer path
    detects entirely in the quantized domain; other arrays compare as reals.
    """
    if t_elem < 0:
        raise ValueError("t_elem must be >= 0")
    x = np.asarray(x)
    if x.dtype == np.int16:
        return np.where(x < quantize(t_elem), np.int16(0), x)
    return np.where(x < t_elem, 0.0, x)


def build_row_mask(x: np.ndarray, cfg: SparsityConfig) -> RowMask:
    """Count exact zeros per row of an already-thresholded matrix."""
    zero_counts = (np.asarray(x) == 0).sum(axis=1).astype(np.int64)
    return RowMask(skip=zero_counts > cfg.t_rowcount, zero_counts=zero_counts)


def sparsity_stats(masks: Sequence[RowMask], width: int) -> dict:
    """Element and row sparsity of a batch, read from the row masks it ran with.

    A mask's zero counts are the exact zeros of its thresholded rows, each
    ``width`` long, in the domain the engine thresholded: codes or reals.
    """
    if len(masks) == 0:
        raise ValueError("need at least one mask")
    zeros = sum(int(m.zero_counts.sum()) for m in masks)
    skip_fractions = [m.skip_fraction for m in masks]
    return {
        "element_sparsity": zeros / (sum(m.n_rows for m in masks) * width),
        "row_sparsity": float(np.mean(skip_fractions)),
        "max_row_sparsity": float(np.max(skip_fractions)),
    }


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) if x.size else 0.0


def output_deviation(coords: np.ndarray, baseline: np.ndarray) -> float:
    """RMS Euclidean deviation of predictions, normalized by baseline RMS."""
    dev = _rms(coords - baseline)
    ref = _rms(baseline)
    return dev / ref if ref > 0 else dev
