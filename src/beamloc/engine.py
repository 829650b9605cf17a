"""Float-oracle and integer-only Q8.8 inference engines.

Both engines share one structural flow and differ only in seven numeric
primitives: ``prepare_input``, ``product``, ``matmul``, ``residual_add``,
``scale``, ``activation_op`` and ``coords_of``.  The float engine runs on
the float bundle as given, the integer engine on its Q8.8 view.  The
masked-execution contract lives in ``encoder_layer``: a skipped row
contributes nothing as query, key, or value; its layer-1 output is its
(thresholded) input row, carried through the residual path.  A layer that skips no row, such as the
second encoder layer when a scenario has one, runs on its input as it is,
with no gather or scatter.

Attention: ``attention_scores`` is the product q·kᵀ alone, not
requantized (``product``; in the integer engine the exact q·kᵀ / 256 of
:func:`beamloc.fxp.qproduct`), and ``activation_op`` applies the score
scale ``gamma / sqrt(d_k)`` and then the attention function.  The integer
kernels round and saturate the scores and take the scale's code:
:func:`beamloc.activations.sigmoid_lut` folds both requantizes and the
multiply into one gather per head, and
:func:`~beamloc.activations.softmax_int` requantizes the scaled scores itself.

Reuse: a snapshot's coordinates depend only on its scenario, thresholded
input and layer-1 row mask.  ``sweep`` runs the same snapshots, on one
engine, from a fresh router state, once per cell, so it passes ``run`` a
store of one ``SnapshotMemo`` per snapshot position.  A memo keeps the
snapshot's prepared input and scenario (routing precedes thresholding, so a
routed scenario is the same in every run), and its input thresholded at the
last ``t_elem`` asked for, with that input's zero counts and digest: the
store holds the prepared codes plus one thresholded copy per snapshot.  So
a sweep prepares and routes each snapshot once, and thresholds, counts and
hashes it once per ``t_elem`` (again if the grid returns to one).  Each
cell's ``infer`` still builds and returns its own ``RowMask``, and runs the
encoder and head once per distinct (scenario, thresholded input, row mask).

The integer engine requantizes once per matrix product (round-to-nearest-
even, saturating), the score product inside the activation kernels, and
evaluates both activations through Q8.8 LUTs, whose kernels apply the
score scale's multiply and requantize.
``scale`` serves only the leaky ReLU: one multiply by the
slope's Q8.8 code and a requantize.  The engine holds Q8.8 codes in one
dtype, float64 integers (see :mod:`beamloc.fxp`), from ``prepare_input``
and the quantized bundle to the coordinates: the router, thresholding
(against the threshold's code), the row mask, the encoder and the head
convert nothing.  Only the reuse key narrows the thresholded codes to
int16, whose bytes hash faster.  The float engine saturates nothing, so
a snapshot whose coordinates overflow to inf or NaN raises ValueError
instead of returning them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import activations as act
from .activations import ActivationKind
from .fxp import dequantize_array, quantize, quantize_array, qmatmul, qproduct, requantize_array, sat_add
from .router import RouterState, route
from .sparsity import RowMask, build_row_mask, threshold_elements
from .weights import ModelBundle, SCENARIOS


@dataclass(frozen=True)
class EngineConfig:
    activation: ActivationKind | None = None     # None: use the bundle's
    scenario_override: str | None = None
    router_window: int | None = None


@dataclass
class InferResult:
    scenario: str
    coords: np.ndarray  # (2,) float
    mask: RowMask


@dataclass
class SnapshotMemo:
    """What ``infer`` did for one snapshot before its row mask (see "Reuse" above)."""
    seen: dict | None = None        # reuse key -> coordinates, shared by a store's memos
    mat: np.ndarray | None = None   # the prepared input
    scenario: str = ""              # routed, or the override
    t_elem: float | None = None     # x's threshold; None: x is mat
    x: np.ndarray | None = None
    zero_counts: np.ndarray | None = None  # x's exact zeros per row
    digest: bytes = b""             # x's hash, made only in a store


class _EngineBase:
    """Structural flow shared by both engines.

    Subclasses provide the seven numeric primitives: ``prepare_input``,
    ``product`` (``x @ w``, not requantized: the attention scores),
    ``matmul`` (``product`` plus a bias, requantized), ``residual_add``,
    ``scale`` (``x`` times a real constant), ``coords_of`` and
    ``activation_op`` (the attention weights of unscaled scores and the
    score scale).  Scores reach ``activation_op`` unscaled and, in the
    integer engine, unrounded, so its activation kernels apply the
    requantize and the scale themselves.  A layer whose mask skips no row
    runs without a gather or scatter.  An integer engine quantizes the
    float bundle it is given, once.  A float engine given a quantized
    view, or an activation that is neither an ``ActivationKind`` nor an
    int (not a bool) naming one, raises ValueError.
    """

    is_integer = False

    def __init__(self, bundle: ModelBundle, cfg: EngineConfig | None = None):
        self.cfg = cfg = cfg or EngineConfig()
        if self.is_integer:
            bundle = bundle.quantized()
        elif bundle.dtype == "q8.8":
            raise ValueError("the float engine runs on a float bundle, not its quantized view")
        self.bundle = bundle
        kind = cfg.activation
        if isinstance(kind, bool) or not isinstance(kind, int | None):
            raise ValueError(f"{kind!r} is not a valid ActivationKind")
        self.activation = bundle.activation if kind is None else ActivationKind(kind)
        self.router_window = bundle.router_window if cfg.router_window is None else cfg.router_window

    def slp_logits(self, x):
        """Class logits from one delay-bin column: W x + b."""
        return self.matmul(x.reshape(1, -1), self.bundle.slp_w.T, self.bundle.slp_b)[0]

    def qkv_project(self, x, seg):
        return (
            self.matmul(x, seg.w_q),
            self.matmul(x, seg.w_k),
            self.matmul(x, seg.w_v),
        )

    def attention_scores(self, qh, kh):
        return self.product(qh, kh.T)

    def head_output(self, a, vh):
        return self.matmul(a, vh)

    def mha(self, x, seg):
        """Multi-head attention over every row of ``x``: x + concat(heads) @ w_o."""
        q, k, v = self.qkv_project(x, seg)
        d_k = self.bundle.d_k
        c = seg.gamma / math.sqrt(d_k)
        heads = []
        for h in range(self.bundle.heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            scores = self.attention_scores(q[:, cols], k[:, cols])
            weights = self.activation_op(scores, c)
            heads.append(self.head_output(weights, v[:, cols]))
        proj = self.matmul(np.concatenate(heads, axis=1), seg.w_o)
        return self.residual_add(x, proj)

    def ffn(self, x, seg):
        h1 = np.maximum(self.matmul(x, seg.ffn_w1, seg.ffn_b1), 0)
        return self.matmul(h1, seg.ffn_w2, seg.ffn_b2)

    def encoder_layer(self, x, seg, mask: RowMask | None = None):
        """One encoder layer over the rows ``mask`` keeps (every row without one).

        The kept rows are gathered once, run through ``mha`` and ``ffn`` and
        scattered back; skipped rows, and all rows when every one is skipped,
        pass through unchanged.  With no row skipped, ``x`` runs as it is.
        """
        if mask is None or not mask.skip.any():
            return self.ffn(self.mha(x, seg), seg)
        kept = np.flatnonzero(~mask.skip)
        out = x.copy()
        if kept.size:
            out[kept] = self.ffn(self.mha(x[kept], seg), seg)
        return out

    def maxpool_flatten(self, x):
        """Per-row zero-pad to d + p, max over width-k windows, flatten."""
        k, p = self.bundle.pool_k, self.bundle.pool_p
        n, d = x.shape
        if (d + p) % k != 0:
            raise ValueError(f"(d + p) = {d + p} not divisible by pool factor {k}")
        padded = np.zeros((n, d + p), dtype=x.dtype)
        padded[:, :d] = x
        # k - 1 strided maxima; a max over a short last axis runs per window
        pooled = padded[:, ::k].copy()
        for j in range(1, k):
            np.maximum(pooled, padded[:, j::k], out=pooled)
        return pooled.reshape(-1)

    def leaky_relu(self, x):
        return np.where(x >= 0, x, self.scale(x, 0.3))

    def fcnn(self, v, params):
        h = self.leaky_relu(self.matmul(v.reshape(1, -1), params.w1, params.b1))
        return self.matmul(h, params.w2, params.b2)[0]

    def threshold(self, mat, t_elem):
        return threshold_elements(mat, t_elem)

    def locate(self, mat, mask: RowMask, scenario: str):
        """The folded encoder, pooling and coordinate head over a masked input."""
        for i, seg in enumerate(self.bundle.layers(scenario)):
            mat = self.encoder_layer(mat, seg, mask if i == 0 else None)
        return self.coords_of(self.fcnn(self.maxpool_flatten(mat), self.bundle.fcnn[scenario]))

    def infer(self, fingerprint, state: RouterState | None = None,
              sparsity: dict | None = None, memo: SnapshotMemo | None = None) -> InferResult:
        """Route, threshold/mask, run the folded encoder, pool, and regress.

        ``sparsity`` maps scenarios to thresholds; one it omits keeps all rows.
        The row mask gates layer-1 computation only.  With a scenario
        override the router is bypassed: logits are still produced but the
        voting state is untouched.  A ``memo`` of an earlier run of this
        snapshot on this engine gives its prepared input and scenario, and,
        if ``t_elem`` is unchanged, its thresholded input, zero counts and
        digest; ``infer`` fills in the rest.  With a ``seen`` dict, the memo's
        reuse key (scenario, skip mask, digest) gives coordinates once run.
        """
        memo = SnapshotMemo() if memo is None else memo
        if memo.mat is None:
            mat = self.prepare_input(fingerprint)
            logits = self.slp_logits(mat[:, self.bundle.delay_bin])
            scenario = self.cfg.scenario_override
            if scenario is None:
                state = RouterState.create(self.router_window) if state is None else state
                scenario = route(state, logits)
            elif scenario not in SCENARIOS:
                raise ValueError(f"unknown scenario {scenario!r}")
            memo.mat, memo.scenario = mat, scenario

        scfg = (sparsity or {}).get(memo.scenario)
        t_elem = None if scfg is None else scfg.t_elem
        if memo.x is None or memo.t_elem != t_elem:
            x = memo.mat if scfg is None else self.threshold(memo.mat, t_elem)
            memo.t_elem, memo.x, memo.zero_counts = t_elem, x, None
            if memo.seen is not None:
                codes = x.astype(np.int16) if self.is_integer else x  # int16 bytes hash faster
                memo.digest = hashlib.sha256(codes.tobytes()).digest()
        if scfg is None:
            mask = RowMask.keep_all(memo.x.shape[0])
        else:
            mask = build_row_mask(memo.x, scfg, memo.zero_counts)
            memo.zero_counts = mask.zero_counts

        if memo.seen is None:
            coords = self.locate(memo.x, mask, memo.scenario)
        else:
            key = (memo.scenario, mask.skip.tobytes(), memo.digest)
            if key not in memo.seen:
                memo.seen[key] = self.locate(memo.x, mask, memo.scenario)
            coords = memo.seen[key]
        return InferResult(scenario=memo.scenario, coords=coords, mask=mask)

    def run(self, fps, sparsity: dict | None = None,
            store: list[SnapshotMemo] | None = None) -> list[InferResult]:
        """``infer`` over the snapshots in order; routing is stateful across them.

        ``store[i]`` is snapshot i's memo, the memos sharing one ``seen`` dict.
        A store is for runs of the same snapshots on this engine: each starts
        from a fresh router state, so a memoized scenario is the one it routes.
        """
        state = RouterState.create(self.router_window)
        memos = [None] * len(fps) if store is None else store
        return [self.infer(fp, state, sparsity, memo) for fp, memo in zip(fps, memos, strict=True)]


class FloatEngine(_EngineBase):
    """Float64 oracle; exact activations, unquantized constants."""

    def prepare_input(self, fingerprint):
        x = np.array(fingerprint, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ValueError("cannot run the float engine on non-finite values")
        return x

    def locate(self, mat, mask: RowMask, scenario: str):
        with np.errstate(over="ignore", invalid="ignore"):
            coords = super().locate(mat, mask, scenario)
        if not np.isfinite(coords).all():
            raise ValueError(f"the float engine's {scenario} coordinates are non-finite "
                             "(float64 overflow)")
        return coords

    def product(self, x, w):
        return x @ w

    def matmul(self, x, w, bias=None):
        out = self.product(x, w)
        return out + bias if bias is not None else out

    def residual_add(self, a, b):
        return a + b

    def scale(self, x, c):
        return x * c

    def activation_op(self, scores, c):
        if self.activation == ActivationKind.SOFTMAX_INT:
            return act.softmax_rows(scores * c)
        return act.sigmoid(scores * c - math.log(self.bundle.n))

    def coords_of(self, out):
        return np.asarray(out, dtype=np.float64)


class IntEngine(_EngineBase):
    """Integer-only Q8.8 engine; every product requantizes exactly once."""

    is_integer = True

    def prepare_input(self, fingerprint):
        return quantize_array(fingerprint)

    def threshold(self, mat, t_elem):
        # compared in the code domain: detection needs no dequantized copy
        return threshold_elements(mat, quantize(t_elem))

    def product(self, x, w):
        return qproduct(x, w)

    def matmul(self, x, w, bias=None):
        return qmatmul(x, w, bias)

    def residual_add(self, a, b):
        return sat_add(a, b)

    def scale(self, x, c):
        # c's Q8.8 code: leaky-ReLU's 0.3 is 77, an effective 0.30078125
        return requantize_array(x * float(quantize(c)))

    def activation_op(self, scores, c):
        # the kernels are looked up in their module, where a wrapper may sit
        if self.activation == ActivationKind.SOFTMAX_INT:
            return act.softmax_int(scores, quantize(c))
        return act.sigmoid_lut(scores, act.sigmoid_bias_code(self.bundle.n), quantize(c))

    def coords_of(self, out):
        return dequantize_array(out)


def make_engine(kind: str, bundle: ModelBundle, cfg: EngineConfig | None = None):
    if kind == "float":
        return FloatEngine(bundle, cfg)
    if kind == "int":
        return IntEngine(bundle, cfg)
    raise ValueError(f"unknown engine kind {kind!r}")
