"""Spans around beamloc's public functions, recorded from outside the package.

A traced pass installs wrappers on the attributes that callers actually look
up (``engine`` binds ``qmatmul`` with ``from .fxp import``, so the wrapper
goes on ``beamloc.engine.qmatmul``; engine stages are methods, so they are
wrapped on the class), runs the pass, and restores every original.

A span is ``[name, parent index or -1, start, end]``.  Self time is the
span's duration minus the durations of its direct children.  Every span
under ``engine.infer`` also carries a ``perf.STAGES`` stage: the stage of
the nearest enclosing engine stage span, where the ``matmul`` children of
``mha`` are ``wo`` and the first and second ``matmul`` children of ``ffn``
are ``ffn1`` and ``ffn2``.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from beamloc.perf import STAGES, pipeline_report

# Engine spans that set the stage of everything beneath them.  ``mha`` is
# ``wo`` because once its stage children are taken out, what remains is the
# output projection and the residual add; ``ffn`` is ``ffn1`` because its
# own time is the ReLU on ffn1's output.
ENGINE_STAGE = {
    "engine.infer": "other",
    "engine.slp_logits": "slp",
    "engine.threshold": "sparsity_detect",
    "engine.build_row_mask": "sparsity_detect",
    "engine.qkv_project": "qkv",
    "engine.attention_scores": "scores",
    "engine.activation_op": "activation",
    "engine.head_output": "headmul",
    "engine.mha": "wo",
    "engine.ffn": "ffn1",
    "engine.maxpool_flatten": "pool",
    "engine.fcnn": "fcnn",
}

# Non-engine spans reported as ``<name>_s`` self time.
TIMED = (
    "fxp.qmatmul", "fxp.requantize_array", "fxp.sat_add", "fxp.quantize_array",
    "activations.sigmoid_lut", "activations.softmax_int",
    "sparsity.sparsity_stats", "router.route",
    "channel.generate_channel", "channel.preprocess",
    "channel.write_fingerprints", "channel.read_fingerprints",
    "weights.load_bundle", "weights.quantized", "perf.pipeline_report",
)
# Spans reported as ``<name>_calls``.
CALLED = ("fxp.qmatmul", "router.route", "weights.quantized", "perf.pipeline_report")


class Tracer:
    """Span recorder plus the counters its wrappers update."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        # (span index, scenario, row mask, activation) per integer inference
        self.int_infers: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` inside a span; ``post(index, args, result, pre(args))``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            token = pre(args) if pre else None
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if post:
                post(index, args, result, token)
            return result

        return traced

    def patch(self, owner, attr, name, pre=None, post=None):
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), pre, post))

    def restore(self):
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- counters -------------------------------------------------------------

    def _count_macs(self, index, args, result, _):
        (m, k), n = args[0].shape, args[1].shape[1]
        self.counters["fxp.macs"] += m * k * n

    def _count_route(self, index, args, result, previous):
        state = args[0]
        if state.current != previous:
            self.counters["router.switches"] += 1
        votes = np.bincount(np.fromiter(state.window, dtype=np.int64))
        if np.count_nonzero(votes == votes.max()) > 1:
            self.counters["router.tie_holds"] += 1

    def _count_infer(self, index, args, result, _):
        engine, mask = args[0], result.mask
        self.counters["rows_seen"] += mask.n_rows
        self.counters["rows_skipped"] += mask.n_skipped
        if engine.is_integer:
            self.int_infers.append((index, result.scenario, mask, engine.activation))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced beamloc module."""
    from beamloc import activations, channel, cli, engine, fxp, sparsity, weights

    base = engine._EngineBase
    for attr in ("slp_logits", "qkv_project", "attention_scores", "head_output",
                 "mha", "ffn", "maxpool_flatten", "fcnn"):
        tracer.patch(base, attr, "engine." + attr)
    tracer.patch(base, "infer", "engine.infer", post=tracer._count_infer)
    for cls in (engine.IntEngine, engine.FloatEngine):
        for attr in ("threshold", "activation_op", "matmul"):
            tracer.patch(cls, attr, "engine." + attr)
    tracer.patch(engine, "build_row_mask", "engine.build_row_mask")
    tracer.patch(engine, "route", "router.route",
                 pre=lambda args: args[0].current, post=tracer._count_route)
    tracer.patch(engine, "qmatmul", "fxp.qmatmul", post=tracer._count_macs)
    tracer.patch(engine, "sat_add", "fxp.sat_add")
    # qmatmul finds requantize_array in fxp; the engine calls its own copy.
    for module in (engine, fxp):
        tracer.patch(module, "requantize_array", "fxp.requantize_array")
    for module in (engine, cli, weights):
        tracer.patch(module, "quantize_array", "fxp.quantize_array")
    tracer.patch(activations, "sigmoid_lut", "activations.sigmoid_lut")
    tracer.patch(activations, "softmax_int", "activations.softmax_int")
    tracer.patch(sparsity, "sparsity_stats", "sparsity.sparsity_stats")
    for attr in ("generate_fingerprints", "generate_channel", "preprocess",
                 "write_fingerprints", "read_fingerprints"):
        tracer.patch(channel, attr, "channel." + attr)
    tracer.patch(weights.ModelBundle, "quantized", "weights.quantized")
    tracer.patch(cli, "load_bundle", "weights.load_bundle")
    tracer.patch(cli, "pipeline_report", "perf.pipeline_report")
    tracer.patch(cli, "main", "cli.main")


# -- aggregation --------------------------------------------------------------


def self_times(spans) -> list[float]:
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def stages_of(spans) -> list[str | None]:
    """The perf stage of each span, or None outside ``engine.infer``."""
    stage: list[str | None] = [None] * len(spans)
    ffn_matmuls: Counter = Counter()
    for i, (name, parent, _, _) in enumerate(spans):
        if name in ENGINE_STAGE:
            stage[i] = ENGINE_STAGE[name]
        elif parent < 0:
            continue
        elif name == "engine.matmul" and spans[parent][0] == "engine.ffn":
            ffn_matmuls[parent] += 1
            stage[i] = "ffn1" if ffn_matmuls[parent] == 1 else "ffn2"
        else:
            stage[i] = stage[parent]
    return stage


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times and counts of one traced pass."""
    spans = tracer.spans
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), own, stage in zip(spans, self_times(spans), stages_of(spans)):
        seconds[f"engine.{stage}" if name.startswith("engine.") else name] += own
        calls[name] += 1
    out = {f"engine.{s}_s": seconds[f"engine.{s}"] for s in STAGES + ("other",)}
    out.update({f"{name}_s": seconds[name] for name in TIMED})
    out.update({f"{name}_calls": calls[name] for name in CALLED})
    c = tracer.counters
    out["fxp.macs"] = c["fxp.macs"]
    out["router.switches"] = c["router.switches"]
    out["router.tie_holds"] = c["router.tie_holds"]
    out["sparsity.rows_skipped_frac"] = c["rows_skipped"] / c["rows_seen"] if c["rows_seen"] else 0.0
    out["cli.self_s"] = seconds["cli.main"]
    return out


def stage_shares(tracer: Tracer, perf_cfg) -> dict:
    """Measured vs modeled share of each stage over the integer inferences.

    Measured: time (all layers) under integer ``engine.infer`` spans, per
    stage, over those spans' total duration; ``other`` is the remainder.
    Modeled: ``CycleReport.stages`` for the same scenarios and row masks,
    over the compute cycles.
    """
    spans = tracer.spans
    int_roots = {index for index, *_ in tracer.int_infers}
    total = sum(spans[i][3] - spans[i][2] for i in int_roots)
    root = [-1] * len(spans)
    measured: Counter = Counter()
    for i, ((name, parent, _, _), own, stage) in enumerate(
            zip(spans, self_times(spans), stages_of(spans))):
        root[i] = i if name == "engine.infer" else (root[parent] if parent >= 0 else -1)
        if root[i] in int_roots:
            measured[stage] += own
    modeled: Counter = Counter()
    compute = 0
    for _, scenario, mask, activation in tracer.int_infers:
        report = pipeline_report(mask, scenario, activation, perf_cfg)
        modeled.update(report.stages)
        compute += report.compute_cycles
    return {
        stage: (measured[stage] / total if total else 0.0,
                modeled[stage] / compute if compute else 0.0)
        for stage in STAGES + ("other",)
    }
