"""Float-oracle and integer-only Q8.8 inference engines.

Both engines share one structural flow and differ in seven numeric
primitives, ``prepare_input``, ``product``, ``matmul``, ``residual_add``,
``scale``, ``activation_op`` and ``coords_of``, and in two overrides: the
float engine's ``locate`` (``np.errstate`` and the non-finite check) and
the integer engine's ``threshold`` (the threshold's code).  The float
engine runs on the float bundle as given, the integer engine on its Q8.8
view.  The masked-execution contract lives in ``encoder_layer``: a skipped
row contributes nothing as query, key, or value; its layer-1 output is its
(thresholded) input row, carried through the residual path.  A layer that
skips no row, such as the second encoder layer when a scenario has one,
runs on its input as it is, with no gather or scatter.

Attention: ``attention_scores`` is the product q·kᵀ alone, not
requantized (``product``; in the integer engine the exact q·kᵀ / 256 of
:func:`beamloc.fxp.qproduct`), and ``activation_op`` applies the score
scale ``gamma / sqrt(d_k)`` and then the attention function.  The integer
kernels round and saturate the scores and take the scale's code:
:func:`beamloc.activations.sigmoid_lut` folds both requantizes and the
multiply into one gather per head, and
:func:`~beamloc.activations.softmax_int` requantizes the scaled scores itself.

Reuse: a snapshot's coordinates depend only on its scenario, thresholded
input and layer-1 row mask.  ``sweep`` runs the same snapshots once per
sparsity map.  It reads the snapshots once, in order, and runs each under
every map in map order with one private memo, dropped before the next
snapshot is read.  The memo holds the prepared input and scenario (routing
precedes thresholding, so the first map's run routes the snapshot, with the
sweep's one router state, and every map sees that scenario), the input
thresholded at the last ``t_elem`` asked for, with its zero counts, and
coordinates by (zeros in the thresholded input, skip-mask bytes).  A
snapshot's thresholded inputs nest: a larger threshold zeroes a superset of
what a smaller one zeroes, and the unthresholded input, keyed by its own
zeros, sits below them all.  So the zero total names the input, up to the
sign of a float zero: thresholding makes -0.0 +0.0, and no op after it
divides by a value that may be zero, so equal values in give equal values
out.  A sweep therefore prepares and routes each snapshot once, thresholds
and counts it once per ``t_elem`` (again if the grid returns to one), and
runs the encoder and head once per distinct (thresholded input, row mask)
of that snapshot.  Each ``infer`` still builds and returns its own
``RowMask``.

The integer engine requantizes once per matrix product (round-to-nearest-
even, saturating), the score product inside the activation kernels, and
evaluates both activations through Q8.8 LUTs, whose kernels apply the
score scale's multiply and requantize.
``scale`` serves only the leaky ReLU: one multiply by the
slope's Q8.8 code and a requantize.  The engine holds Q8.8 codes in one
dtype, float64 integers (see :mod:`beamloc.fxp`), from ``prepare_input``
and the quantized bundle to the coordinates: the router, thresholding
(against the threshold's code), the row mask, the encoder and the head
convert nothing.  Fingerprints reach ``prepare_input`` float32, as a
fingerprint file stores them (see :mod:`beamloc.channel`): it converts one
snapshot to float64, reals or codes, and rejects a non-finite value before
the cast.  The float engine saturates nothing, so a snapshot whose
coordinates overflow to inf or NaN raises ValueError instead of returning
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class _Memo:
    """What ``infer`` did for one snapshot in the runs of a sweep (see "Reuse" above)."""
    mat: np.ndarray | None = None   # the prepared input
    scenario: str = ""              # routed, or the override
    t_elem: float | None = None     # x's threshold; None: x is mat
    x: np.ndarray | None = None
    zero_counts: np.ndarray | None = None  # x's exact zeros per row
    coords: dict = field(default_factory=dict)  # (zeros in x, skip-mask bytes) -> coordinates


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
    runs without a gather or scatter.  An integer engine quantizes the float
    bundle it is given, once.  Building a float engine on a quantized view
    raises ValueError, as does an activation that is neither an
    ``ActivationKind`` nor an int (not a bool) naming one, or a scenario
    override that names no scenario.
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
        if cfg.scenario_override not in (None, *SCENARIOS):
            raise ValueError(f"unknown scenario {cfg.scenario_override!r}")
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
        """Per-row zero-pad to d + p, max over width-k windows, flatten (``ModelBundle`` checks k | d + p)."""
        k, p = self.bundle.pool_k, self.bundle.pool_p
        n, d = x.shape
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
              sparsity: dict | None = None, memo: _Memo | None = None) -> InferResult:
        """Route, threshold/mask, run the folded encoder, pool, and regress.

        ``sparsity`` maps scenarios to thresholds; one it omits keeps all rows.
        The row mask gates layer-1 computation only.  With a scenario
        override the router is bypassed: logits are still produced but the
        voting state is untouched.  ``memo`` is ``sweep``'s record of this
        snapshot's earlier runs on this engine: it gives the prepared input
        and scenario, the thresholded input and zero counts if ``t_elem`` is
        unchanged, and coordinates already run; ``infer`` fills in the rest.
        """
        memo = _Memo() if memo is None else memo
        if memo.mat is None:
            mat = self.prepare_input(fingerprint)
            logits = self.slp_logits(mat[:, self.bundle.delay_bin])
            scenario = self.cfg.scenario_override
            if scenario is None:
                state = RouterState.create(self.router_window) if state is None else state
                scenario = route(state, logits)
            memo.mat, memo.scenario = mat, scenario

        scfg = (sparsity or {}).get(memo.scenario)
        t_elem = None if scfg is None else scfg.t_elem
        if memo.x is None or memo.t_elem != t_elem:
            x = memo.mat if scfg is None else self.threshold(memo.mat, t_elem)
            memo.t_elem, memo.x, memo.zero_counts = t_elem, x, None
        if scfg is None:
            mask = RowMask.keep_all(memo.x.shape[0])
            zeros = np.count_nonzero(memo.x == 0)
        else:
            mask = build_row_mask(memo.x, scfg, memo.zero_counts)
            memo.zero_counts = mask.zero_counts
            zeros = mask.zero_counts.sum()

        key = (int(zeros), mask.skip.tobytes())
        if key not in memo.coords:
            memo.coords[key] = self.locate(memo.x, mask, memo.scenario)
        return InferResult(scenario=memo.scenario, coords=memo.coords[key], mask=mask)

    def run(self, fps, sparsity: dict | None = None) -> list[InferResult]:
        """``sweep(fps, [sparsity])[0]``: ``infer`` over ``fps`` in order, routing statefully."""
        return self.sweep(fps, [sparsity])[0]

    def sweep(self, fps, maps) -> list[list[InferResult]]:
        """One run of ``fps`` per map in ``maps``, where ``None`` thresholds nothing.

        ``fps`` may be any iterable, such as ``channel.iter_fingerprints``, and
        is read once, in order; each snapshot runs under the maps in map order
        with one memo (see "Reuse" above), so one memo is alive at a time.
        The first map's run routes the snapshot with the sweep's one router
        state; the other maps take its scenario from the memo.
        """
        state = RouterState.create(self.router_window)
        runs = [[] for _ in maps]
        for fp in fps:
            memo = _Memo()
            for sparsity, results in zip(maps, runs):
                results.append(self.infer(fp, state, sparsity, memo))
            del memo  # not kept while the next snapshot is read
        return runs


class FloatEngine(_EngineBase):
    """Float64 oracle; exact activations, unquantized constants."""

    def prepare_input(self, fingerprint):
        if not np.isfinite(fingerprint).all():  # before the cast, which a signalling NaN trips
            raise ValueError("cannot run the float engine on non-finite values")
        return np.array(fingerprint, dtype=np.float64)

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
