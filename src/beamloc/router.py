"""Scenario router: argmax over SLP logits, smoothed by windowed voting.

Each snapshot's predicted label enters a fixed-length ring buffer; the
selected model is the plurality class of the buffer.  A tied vote keeps
the previous selection, so switching between specialized models needs a
strict majority of recent snapshots and transient misclassifications
cannot flap the selection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .weights import SCENARIOS

N_CLASSES = len(SCENARIOS)


@dataclass
class RouterState:
    window: deque
    current: int = 0  # index into SCENARIOS

    @classmethod
    def create(cls, window_len: int = 15, initial: int = 0) -> "RouterState":
        if window_len < 1:
            raise ValueError("router window must hold at least one label")
        return cls(window=deque(maxlen=window_len), current=initial)

    @property
    def scenario(self) -> str:
        return SCENARIOS[self.current]


def route(state: RouterState, logits: np.ndarray) -> str:
    """Push argmax(logits) and return the majority-vote scenario.

    Logit ties resolve to the lowest class index (np.argmax order); a tied
    vote retains the current selection.
    """
    state.window.append(int(np.argmax(logits)))
    counts = np.bincount(np.fromiter(state.window, dtype=np.int64), minlength=N_CLASSES)
    winners = np.flatnonzero(counts == counts.max())
    if winners.size == 1:
        state.current = int(winners[0])
    return SCENARIOS[state.current]
