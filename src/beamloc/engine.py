"""Float-oracle and integer-only Q8.8 inference engines.

Both engines share one structural flow and differ only in seven numeric
primitives: ``_prepare_bundle``, ``prepare_input``, ``matmul``,
``residual_add``, ``scale``, ``activation_op`` and ``coords_of``.  The
masked-execution contract lives in ``encoder_layer``: a skipped row
contributes nothing as query, key, or value; its layer-1 output is its
(thresholded) input row, carried through the residual path.  The second
encoder layer, when a scenario has one, always processes all rows.

Reuse: a snapshot's coordinates depend only on its scenario, thresholded
input and layer-1 row mask.  Given a ``seen`` dict, ``infer`` still routes,
thresholds and masks, and returns its own ``RowMask``, but runs the encoder
and head once per distinct triple; ``sweep`` shares one dict across its cells.

The integer engine requantizes once per matrix product (round-to-nearest-
even, saturating), evaluates sigmoid variants through the Q8.8 LUT, and
scales by a constant (``gamma / sqrt(d_k)``, the leaky-ReLU slope) with one
multiply by its Q8.8 code and a requantize.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import activations as act
from .activations import ActivationKind
from .fxp import dequantize_array, quantize, quantize_array, qmatmul, requantize_array, sat_add
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


class _EngineBase:
    """Structural flow shared by both engines.

    Subclasses provide the seven numeric primitives: ``_prepare_bundle``,
    ``prepare_input``, ``matmul``, ``residual_add``, ``scale`` (``x`` times
    a real constant), ``activation_op`` and ``coords_of``.
    """

    is_integer = False

    def __init__(self, bundle: ModelBundle, cfg: EngineConfig | None = None):
        self.cfg = cfg = cfg or EngineConfig()
        self.bundle = self._prepare_bundle(bundle)
        self.activation = bundle.activation if cfg.activation is None else cfg.activation
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

    def attention_scores(self, qh, kh, gamma):
        return self.scale(self.matmul(qh, kh.T), gamma / math.sqrt(qh.shape[1]))

    def head_output(self, a, vh):
        return self.matmul(a, vh)

    def mha(self, x, seg):
        """Multi-head attention over every row of ``x``: x + concat(heads) @ w_o."""
        q, k, v = self.qkv_project(x, seg)
        d_k = self.bundle.d_k
        heads = []
        for h in range(self.bundle.heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            scores = self.attention_scores(q[:, cols], k[:, cols], seg.gamma)
            weights = self.activation_op(scores)
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
        pass through unchanged.
        """
        kept = np.arange(x.shape[0]) if mask is None else np.flatnonzero(~mask.skip)
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
        padded = np.concatenate([x, np.zeros((n, p), dtype=x.dtype)], axis=1)
        pooled = padded.reshape(n, (d + p) // k, k).max(axis=2)
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
              sparsity: dict | None = None, seen: dict | None = None) -> InferResult:
        """Route, threshold/mask, run the folded encoder, pool, and regress.

        ``sparsity`` maps scenarios to thresholds; one it omits keeps all rows.
        The row mask gates layer-1 computation only.  With a scenario
        override the router is bypassed: logits are still produced but the
        voting state is untouched.  ``seen`` maps a digest of (scenario,
        thresholded input, row mask) to the coordinates computed for it.
        """
        mat = self.prepare_input(fingerprint)
        logits = self.slp_logits(mat[:, self.bundle.delay_bin])
        scenario = self.cfg.scenario_override
        if scenario is None:
            state = RouterState.create(self.router_window) if state is None else state
            scenario = route(state, np.asarray(logits, dtype=np.float64))
        elif scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")

        scfg = (sparsity or {}).get(scenario)
        if scfg is not None:
            mat = self.threshold(mat, scfg.t_elem)
            mask = build_row_mask(mat, scfg)
        else:
            mask = RowMask.keep_all(mat.shape[0])

        if seen is None:
            coords = self.locate(mat, mask, scenario)
        else:
            key = hashlib.sha256(scenario.encode() + mask.skip.tobytes() + mat.tobytes()).digest()
            if key not in seen:
                seen[key] = self.locate(mat, mask, scenario)
            coords = seen[key]
        return InferResult(scenario=scenario, coords=coords, mask=mask)

    def run(self, fps, sparsity: dict | None = None, seen: dict | None = None) -> list[InferResult]:
        """``infer`` over the snapshots in order; routing is stateful across them."""
        state = RouterState.create(self.router_window)
        return [self.infer(fp, state, sparsity, seen) for fp in fps]


class FloatEngine(_EngineBase):
    """Float64 oracle; exact activations, unquantized constants."""

    def _prepare_bundle(self, bundle):
        return bundle.dequantized()

    def prepare_input(self, fingerprint):
        x = np.array(fingerprint, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ValueError("cannot run the float engine on non-finite values")
        return x

    def matmul(self, x, w, bias=None):
        out = x @ w
        return out + bias if bias is not None else out

    def residual_add(self, a, b):
        return a + b

    def scale(self, x, c):
        return x * c

    def activation_op(self, scores):
        kind = self.activation
        if kind == ActivationKind.SOFTMAX_INT:
            return act.softmax_rows(scores)
        if kind == ActivationKind.SIGMOID_LUT:
            return act.sigmoid(scores)
        if kind == ActivationKind.SIGMOID_BIAS_LUT:
            return act.sigmoid(scores - math.log(self.bundle.n))
        return act.sigmoid_rows_normalized(scores)

    def coords_of(self, out):
        return np.asarray(out, dtype=np.float64)


class IntEngine(_EngineBase):
    """Integer-only Q8.8 engine; every product requantizes exactly once."""

    is_integer = True

    def _prepare_bundle(self, bundle):
        return bundle.quantized()

    def prepare_input(self, fingerprint):
        return quantize_array(fingerprint)

    def matmul(self, x, w, bias=None):
        return qmatmul(x, w, bias)

    def residual_add(self, a, b):
        return sat_add(a, b)

    def scale(self, x, c):
        # c's Q8.8 code: leaky-ReLU's 0.3 is 77, an effective 0.30078125
        return requantize_array(x * float(quantize(c)))

    def activation_op(self, scores):
        kind = self.activation
        if kind == ActivationKind.SOFTMAX_INT:
            return act.softmax_int(scores)
        if kind == ActivationKind.SIGMOID_LUT:
            return act.sigmoid_lut(scores)
        if kind == ActivationKind.SIGMOID_BIAS_LUT:
            biased = scores.astype(np.int32) + act.sigmoid_bias_code(self.bundle.n)
            return act.sigmoid_lut(biased)
        return act.row_normalize_int(act.sigmoid_lut(scores))

    def coords_of(self, out):
        return dequantize_array(out)


def make_engine(kind: str, bundle: ModelBundle, cfg: EngineConfig | None = None):
    if kind == "float":
        return FloatEngine(bundle, cfg)
    if kind == "int":
        return IntEngine(bundle, cfg)
    raise ValueError(f"unknown engine kind {kind!r}")
