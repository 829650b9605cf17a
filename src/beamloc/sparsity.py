"""Element thresholding, row-skip masks, sparsity statistics, and sweeps.

Threshold relations are strict, exactly as the control logic applies them:
an element is zeroed when ``x < t_elem`` and a row is skipped when its
zero count satisfies ``Z > t_rowcount``.  Elements equal to the threshold
survive; a row with exactly ``t_rowcount`` zeros is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class SparsityStats:
    element_sparsity: float
    row_sparsity: float
    max_row_sparsity: float


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


def sparsity_stats(snapshots: Sequence[np.ndarray], cfg: SparsityConfig) -> SparsityStats:
    """Element and row sparsity over a batch, after thresholding.

    Pass int16 codes to measure what the integer engine skips.
    """
    if len(snapshots) == 0:
        raise ValueError("need at least one snapshot")
    zeros = total = 0
    skip_fractions = []
    for snap in snapshots:
        t = threshold_elements(snap, cfg.t_elem)
        zeros += int((t == 0).sum())
        total += t.size
        skip_fractions.append(build_row_mask(t, cfg).skip_fraction)
    return SparsityStats(
        element_sparsity=zeros / total,
        row_sparsity=float(np.mean(skip_fractions)),
        max_row_sparsity=float(np.max(skip_fractions)),
    )


@dataclass(frozen=True)
class SweepRow:
    t_elem: float
    t_rowcount: int
    element_sparsity: float
    row_sparsity: float
    max_row_sparsity: float
    output_deviation: float


SWEEP_COLUMNS = (
    "t_elem", "t_rowcount", "element_sparsity", "row_sparsity",
    "max_row_sparsity", "output_deviation",
)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) if x.size else 0.0


def output_deviation(coords: np.ndarray, baseline: np.ndarray) -> float:
    """RMS Euclidean deviation of predictions, normalized by baseline RMS."""
    dev = _rms(coords - baseline)
    ref = _rms(baseline)
    return dev / ref if ref > 0 else dev


def sweep(
    snapshots: Sequence[np.ndarray],
    t_elem_grid: Sequence[float],
    t_rowcount_grid: Sequence[int],
    run_engine: Callable[[SparsityConfig | None], np.ndarray],
) -> list[SweepRow]:
    """Grid sweep of (t_elem, t_rowcount) against an unmasked baseline.

    ``run_engine(cfg)`` must return predicted (x, y) coordinates of shape
    (len(snapshots), 2); cfg=None means no thresholding and no masking.
    """
    if len(t_elem_grid) == 0 or len(t_rowcount_grid) == 0:
        raise ValueError("sweep grids must be non-empty")
    baseline = np.asarray(run_engine(None))
    rows = []
    for t_elem in t_elem_grid:
        for t_rowcount in t_rowcount_grid:
            cfg = SparsityConfig(t_elem=float(t_elem), t_rowcount=int(t_rowcount))
            stats = sparsity_stats(snapshots, cfg)
            coords = np.asarray(run_engine(cfg))
            rows.append(SweepRow(
                t_elem=float(t_elem),
                t_rowcount=int(t_rowcount),
                element_sparsity=stats.element_sparsity,
                row_sparsity=stats.row_sparsity,
                max_row_sparsity=stats.max_row_sparsity,
                output_deviation=output_deviation(coords, baseline),
            ))
    return rows
