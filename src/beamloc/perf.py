"""Closed-form cycle model of the mixed-dataflow vector-engine pipeline.

Stage costs follow a one-result-per-cycle discipline: the 46-wide
input-stationary engine retires one length-46 dot product per cycle in
the projections and FFN, the 23-wide score engine one length-23 dot per
cycle, and output-stationary stages (head products, SLP, coordinate head)
retire one operand broadcast per cycle across their lanes.  The biased
sigmoid streams through the activation stage and adds only pipeline fill;
softmax serializes two full passes per row plus one division per row.
``_layer`` holds one encoder layer's seven stage costs,
``_pipeline_stages`` the SLP, sparsity detection, pool and coordinate
head, and the layer sums.

Beyond the per-stage compute, each encoder layer pays a fixed
control/weight-streaming overhead (``LAYER_OVERHEAD``) and the whole
pipeline a multiplicative calibration factor (``C_OVERHEAD``).  The model
describes one accelerator: its hardware (divider latency, pipeline fill,
clock) and calibration are module constants, and a ``PerfConfig`` is only
the geometry it prices, a bundle's or the defaults.  Every report echoes
the two calibration constants, so runs are self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .activations import ActivationKind
from .sparsity import RowMask
from .weights import SCENARIOS, SEGMENTS_PER_SCENARIO

STAGES = (
    "slp", "sparsity_detect", "qkv", "scores", "activation",
    "headmul", "wo", "ffn1", "ffn2", "pool", "fcnn",
)

# Output-stationary stages retire one operand broadcast per cycle across
# their lanes: 32 for the router SLP, 64 for the coordinate head.
SLP_WIDTH = 32
HEAD_WIDTH = 64
SCORE_WIDTH = 23     # the score engine's dot length
DIV_LATENCY = 16     # integer divider latency per row division
PIPELINE_FILL = 6    # multiplier stage + log2(46)-deep adder tree
CLOCK_HZ = 1e8
# Calibration constants; every report echoes them.
C_OVERHEAD = 1.0
LAYER_OVERHEAD = 25000  # per-layer weight streaming + FSM control


@dataclass(frozen=True)
class PerfConfig:
    """The geometry a report prices: a bundle's sizes; the defaults are the benchmark bundle's."""
    n: int = 128
    d: int = 46
    heads: int = 2
    d_ff: int = 64
    d_h: int = 64
    pool_k: int = 4
    pool_p: int = 2


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


def _filled(work: int) -> int:
    # A stage with no work issues nothing, so it pays no pipeline fill.
    return work + PIPELINE_FILL if work > 0 else 0


def _layer(n: int, kind: ActivationKind, cfg: PerfConfig) -> dict:
    """One encoder layer's stage cycles at ``n`` effective rows."""
    # Softmax makes two buffered passes per row plus one division per row;
    # the element-wise sigmoid overlaps with streaming and pays only the fill.
    serial = 2 * n * n + DIV_LATENCY * n if kind == ActivationKind.SOFTMAX_INT else 0
    # heads * n^2 score dots of length d_k = d / heads, each taking
    # ceil(d_k / SCORE_WIDTH) cycles; the head products are priced alike.
    attention = cfg.heads * n * n * -(-cfg.d // (cfg.heads * SCORE_WIDTH))
    return {
        "qkv": _filled(3 * n * cfg.d),
        "scores": _filled(attention),
        "activation": serial + PIPELINE_FILL if n else 0,
        "headmul": _filled(attention),
        "wo": _filled(n * cfg.d),
        "ffn1": _filled(n * cfg.d_ff),
        "ffn2": _filled(n * cfg.d),
    }


def _pipeline_stages(first_layer_rows: int, scenario: str, kind: ActivationKind,
                     cfg: PerfConfig) -> tuple[dict, tuple, int]:
    """Cycles per stage, per layer and in all: layer 1 on the kept rows, any second dense."""
    if not 0 <= first_layer_rows <= cfg.n:
        raise ValueError(f"effective rows must be in 0..{cfg.n}")
    stages = dict.fromkeys(STAGES, 0)  # pool overlaps the coordinate-head weight streaming
    stages["slp"] = (cfg.n * 3) // SLP_WIDTH + PIPELINE_FILL
    stages["sparsity_detect"] = cfg.n  # one row per cycle
    stages["fcnn"] = (cfg.n * (cfg.d + cfg.pool_p) // cfg.pool_k * cfg.d_h // HEAD_WIDTH
                      + cfg.d_h * 2 + PIPELINE_FILL)
    layers = [_layer(first_layer_rows if i == 0 else cfg.n, kind, cfg)
              for i in range(len(SEGMENTS_PER_SCENARIO[scenario]))]
    for per in layers:
        for s, c in per.items():
            stages[s] += c
    return stages, tuple(sum(per.values()) for per in layers), sum(stages.values())


def _total_cycles(compute: int, layers: int) -> int:
    """Compute cycles times ``C_OVERHEAD``, rounded, plus each layer's fixed overhead."""
    return round(compute * C_OVERHEAD) + layers * LAYER_OVERHEAD


def pipeline_report(mask: RowMask | int, scenario: str,
                    activation_kind: ActivationKind, cfg: PerfConfig) -> CycleReport:
    """Full-inference cycle count, latency, speedup, and throughput.

    Layer 1 runs at the mask's effective row count; any second layer runs
    dense.  ``mask`` may be a RowMask or a kept-row count directly.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    n_eff = mask if isinstance(mask, int) else mask.n_kept
    stages, layer_totals, compute = _pipeline_stages(n_eff, scenario, activation_kind, cfg)
    dense = _pipeline_stages(cfg.n, scenario, activation_kind, cfg)[2]
    total, dense_total = (_total_cycles(c, len(layer_totals)) for c in (compute, dense))
    latency = total / CLOCK_HZ
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
        calibration={"c_overhead": C_OVERHEAD, "layer_overhead": LAYER_OVERHEAD},
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
