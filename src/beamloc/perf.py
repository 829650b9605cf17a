"""Closed-form cycle model of the mixed-dataflow vector-engine pipeline.

Stage costs follow a one-result-per-cycle discipline: the 46-wide
input-stationary engine retires one length-46 dot product per cycle in
the projections and FFN, the 23-wide score engine one length-23 dot per
cycle, and output-stationary stages (head products, SLP, coordinate head)
retire one operand broadcast per cycle across their lanes.  Sigmoid
variants stream through the activation stage and add only pipeline fill;
softmax serializes two full passes per row plus one division per row, and
normalized sigmoid one accumulation pass plus the divisions.

Beyond the per-stage compute, each encoder layer pays a fixed
control/weight-streaming overhead and the whole pipeline a multiplicative
calibration factor.  Both constants are reported with every result so
calibrated runs are self-describing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict

from .activations import ActivationKind
from .sparsity import RowMask
from .weights import SCENARIOS, SEGMENTS_PER_SCENARIO

STAGES = (
    "slp", "sparsity_detect", "qkv", "scores", "activation",
    "headmul", "wo", "ffn1", "ffn2", "pool", "fcnn",
)

LAYER_STAGES = ("qkv", "scores", "activation", "headmul", "wo", "ffn1", "ffn2")

# Output-stationary stages retire one operand broadcast per cycle across
# their lanes: 32 for the router SLP, 64 for the coordinate head.
SLP_WIDTH = 32
HEAD_WIDTH = 64


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class PerfConfig:
    n: int = 128
    d: int = 46
    d_ff: int = 64
    d_h: int = 64
    pool_k: int = 4
    pool_p: int = 2
    div_latency: int = 16          # integer divider latency per row division
    pipeline_fill: int = 6         # multiplier stage + log2(46)-deep adder tree
    clock_hz: float = 1e8
    # Calibration constants; fitted values are echoed into every report.
    c_overhead: float = 1.0
    layer_overhead: int = 25000    # per-layer weight streaming + FSM control

    def __post_init__(self):
        for name in ("div_latency", "pipeline_fill", "layer_overhead"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        for name in ("clock_hz", "c_overhead"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        # No report counts more cycles or takes longer than the densest: a
        # two-layer scenario, all rows kept, under softmax.
        _, layers, densest = max((_pipeline_stages(self.n, sc, ActivationKind.SOFTMAX_INT, self)
                                  for sc in SCENARIOS), key=lambda p: p[2])
        if densest > sys.float_info.max:
            raise ValueError(f"div_latency = {self.div_latency} and pipeline_fill = "
                             f"{self.pipeline_fill} overflow the densest pipeline's cycles")
        if not math.isfinite(densest * self.c_overhead):
            raise ValueError(f"c_overhead = {self.c_overhead} overflows the densest "
                             f"pipeline's {densest} compute cycles")
        total = _total_cycles(densest, len(layers), self)
        if total > sys.float_info.max or not math.isfinite(total / self.clock_hz):
            raise ValueError(f"layer_overhead = {self.layer_overhead} and clock_hz = "
                             f"{self.clock_hz} overflow the densest pipeline's latency")
        # Every report divides by its total.  The smallest is S1 with no rows
        # kept, one layer doing no work.
        _, layers, floor = _pipeline_stages(0, "S1", ActivationKind.SIGMOID_LUT, self)
        total = _total_cycles(floor, len(layers), self)
        if total == 0:
            raise ValueError(f"c_overhead = {self.c_overhead} and layer_overhead = "
                             f"{self.layer_overhead} round the smallest pipeline to 0 cycles")
        if not math.isfinite(1.0 / (total / self.clock_hz)):
            raise ValueError(f"clock_hz = {self.clock_hz} makes the smallest pipeline's "
                             f"throughput infinite")

    @property
    def flattened_len(self) -> int:
        return self.n * (self.d + self.pool_p) // self.pool_k


@dataclass(frozen=True)
class CycleReport:
    scenario: str
    activation: ActivationKind
    n_eff: int
    stages: dict
    layer_totals: tuple
    compute_cycles: int
    overhead_cycles: int
    total_cycles: int
    latency_s: float
    speedup_vs_dense: float
    throughput_pos_per_s: float
    calibration: dict

    def to_dict(self) -> dict:
        out = asdict(self)
        out["activation"] = self.activation.name
        out["layer_totals"] = list(self.layer_totals)
        return out


def _filled(work: int, fill: int) -> int:
    # A stage with no work issues nothing, so it pays no pipeline fill.
    return work + fill if work > 0 else 0


def stage_cycles(stage: str, n_eff: int, cfg: PerfConfig,
                 activation_kind: ActivationKind = ActivationKind.SIGMOID_BIAS_LUT) -> int:
    """Cycles for one stage at the given effective row count."""
    if not 0 <= n_eff <= cfg.n:
        raise ValueError(f"n_eff must be in 0..{cfg.n}")
    fill = cfg.pipeline_fill
    if stage == "slp":
        return (cfg.n * 3) // SLP_WIDTH + fill
    if stage == "sparsity_detect":
        return cfg.n  # one row per cycle
    if stage == "qkv":
        return _filled(3 * n_eff * cfg.d, fill)
    if stage == "scores":
        return _filled(2 * n_eff * n_eff, fill)
    if stage == "activation":
        if n_eff == 0:
            return 0
        if activation_kind.is_softmax:
            # two buffered passes per row plus one division per row
            return 2 * n_eff * n_eff + cfg.div_latency * n_eff + fill
        if activation_kind == ActivationKind.SIGMOID_NORM_LUT:
            return n_eff * n_eff + cfg.div_latency * n_eff + fill
        return fill  # element-wise sigmoid overlaps with streaming
    if stage == "headmul":
        return _filled(2 * n_eff * n_eff, fill)
    if stage == "wo":
        return _filled(n_eff * cfg.d, fill)
    if stage == "ffn1":
        return _filled(n_eff * cfg.d_ff, fill)
    if stage == "ffn2":
        return _filled(n_eff * cfg.d, fill)
    if stage == "pool":
        return 0  # overlapped with the coordinate-head weight streaming
    if stage == "fcnn":
        return (cfg.flattened_len * cfg.d_h) // HEAD_WIDTH + cfg.d_h * 2 + fill
    raise ValueError(f"unknown stage {stage!r}")


def _layer_cycles(n_eff: int, cfg: PerfConfig, kind: ActivationKind) -> dict:
    return {s: stage_cycles(s, n_eff, cfg, kind) for s in LAYER_STAGES}


def _pipeline_stages(first_layer_rows: int, scenario: str, kind: ActivationKind,
                     cfg: PerfConfig) -> tuple[dict, tuple, int]:
    """Cycles per stage, per layer and in all: layer 1 on the kept rows, any second dense."""
    stages = {s: 0 for s in STAGES}
    for s in ("slp", "sparsity_detect", "pool", "fcnn"):
        stages[s] = stage_cycles(s, first_layer_rows, cfg, kind)
    layer_totals = []
    for layer in range(len(SEGMENTS_PER_SCENARIO[scenario])):
        per = _layer_cycles(first_layer_rows if layer == 0 else cfg.n, cfg, kind)
        for s, c in per.items():
            stages[s] += c
        layer_totals.append(sum(per.values()))
    return stages, tuple(layer_totals), sum(stages.values())


def _total_cycles(compute: int, layers: int, cfg: PerfConfig) -> int:
    """Compute cycles times ``c_overhead``, rounded, plus each layer's fixed overhead."""
    return round(compute * cfg.c_overhead) + layers * cfg.layer_overhead


def pipeline_report(mask: RowMask | int, scenario: str,
                    activation_kind: ActivationKind, cfg: PerfConfig | None = None) -> CycleReport:
    """Full-inference cycle count, latency, speedup, and throughput.

    Layer 1 runs at the mask's effective row count; any second layer runs
    dense.  ``mask`` may be a RowMask or a kept-row count directly.
    """
    cfg = cfg or PerfConfig()
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    n_eff = mask if isinstance(mask, int) else mask.n_kept
    if not 0 <= n_eff <= cfg.n:
        raise ValueError(f"effective rows must be in 0..{cfg.n}")
    stages, layer_totals, compute = _pipeline_stages(n_eff, scenario, activation_kind, cfg)
    dense = _pipeline_stages(cfg.n, scenario, activation_kind, cfg)[2]
    total, dense_total = (_total_cycles(c, len(layer_totals), cfg) for c in (compute, dense))
    latency = total / cfg.clock_hz
    return CycleReport(
        scenario=scenario,
        activation=activation_kind,
        n_eff=n_eff,
        stages=stages,
        layer_totals=layer_totals,
        compute_cycles=compute,
        overhead_cycles=total - compute,
        total_cycles=total,
        latency_s=latency,
        speedup_vs_dense=dense_total / total,
        throughput_pos_per_s=1.0 / latency,
        calibration={"c_overhead": cfg.c_overhead, "layer_overhead": cfg.layer_overhead},
    )


def stage_share(report: CycleReport) -> dict:
    """MHA / FFN / FCNN shares of the modeled compute cycles.

    The router and sparsity detection fold into the FCNN bucket; the
    calibration overhead is excluded so the three shares partition the
    compute total exactly.
    """
    s = report.stages
    mha = s["qkv"] + s["scores"] + s["activation"] + s["headmul"] + s["wo"]
    ffn = s["ffn1"] + s["ffn2"]
    fcnn = s["slp"] + s["sparsity_detect"] + s["pool"] + s["fcnn"]
    total = report.compute_cycles
    return {"mha": mha / total, "ffn": ffn / total, "fcnn": fcnn / total}
