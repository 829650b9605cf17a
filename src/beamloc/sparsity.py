"""Element thresholding, row-skip masks and sparsity statistics.

Threshold relations are strict, exactly as the control logic applies them:
an element is zeroed when ``x < t_elem`` and a row is skipped when its
zero count satisfies ``Z > t_rowcount``.  Elements equal to the threshold
survive; a row with exactly ``t_rowcount`` zeros is kept.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an int (not a bool) no larger than the largest float."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class SparsityConfig:
    """One scenario's thresholds; config files, flags and sweep grids check them here."""
    t_elem: float
    t_rowcount: int

    def __post_init__(self):
        if not (_is_number(self.t_elem) and math.isfinite(self.t_elem) and self.t_elem >= 0):
            raise ValueError(f"t_elem must be a finite number >= 0, got {self.t_elem!r}")
        if not (_is_int(self.t_rowcount) and self.t_rowcount >= 0):
            raise ValueError(f"t_rowcount must be an integer >= 0, got {self.t_rowcount!r}")
        object.__setattr__(self, "t_elem", float(self.t_elem))


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

    ``x`` and ``t_elem`` share one domain: the integer engine passes Q8.8
    codes and the threshold's code, so it detects entirely on codes; the
    float engine passes reals.  A threshold that is not ``>= 0``, NaN
    included, raises ValueError.
    """
    if not t_elem >= 0:
        raise ValueError(f"t_elem must be >= 0, got {t_elem!r}")
    return np.where(np.asarray(x) < t_elem, 0.0, x)


def build_row_mask(x: np.ndarray, cfg: SparsityConfig,
                   zero_counts: np.ndarray | None = None) -> RowMask:
    """Skip the rows of an already-thresholded matrix with more than ``cfg.t_rowcount`` zeros.

    ``zero_counts``, if given, are ``x``'s exact zeros per row, as an earlier
    mask of ``x`` counted them; otherwise they are counted here.
    """
    if zero_counts is None:
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
    """RMS Euclidean deviation of predictions, normalized by baseline RMS.

    Both are first scaled by one power of two, so no square overflows; the
    scaling is exact, so wherever the squares are normal the bits are kept.
    """
    top = max(np.abs(coords).max(initial=0.0), np.abs(baseline).max(initial=0.0))
    exp = -int(np.frexp(top)[1])
    coords, baseline = np.ldexp(coords, exp), np.ldexp(baseline, exp)
    dev, ref = _rms(coords - baseline), _rms(baseline)
    return dev / ref if ref > 0 else math.ldexp(dev, -exp)
