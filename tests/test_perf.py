import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beamloc.activations import ActivationKind
from beamloc.config import RunConfig
from beamloc.perf import LAYER_STAGES, PerfConfig, pipeline_report, stage_cycles, stage_share
from beamloc.weights import SCENARIOS


@pytest.fixture(scope="module")
def perf_cfg():
    return RunConfig().perf_config()


@pytest.mark.parametrize("scenario, kind, fraction, cycles, speedup", [
    ("S1", ActivationKind.SIGMOID_BIAS_LUT, 0.0, 130026, 1.0),
    ("S1", ActivationKind.SIGMOID_BIAS_LUT, 0.65, 48188, 2.6983),
    ("S2", ActivationKind.SOFTMAX_INT, 0.0, 327868, 1.0),
    ("S3", ActivationKind.SIGMOID_NORM_LUT, 0.5, 213820, 1.3801),
])
def test_pinned_cycle_counts(perf_cfg, scenario, kind, fraction, cycles, speedup):
    n_kept = perf_cfg.n - int(round(fraction * perf_cfg.n))
    report = pipeline_report(n_kept, scenario, kind, perf_cfg)
    assert report.total_cycles == cycles
    assert report.speedup_vs_dense == pytest.approx(speedup, abs=5e-5)


def test_dense_mask_has_unit_speedup(perf_cfg):
    for scenario in ("S1", "S2", "S3"):
        for kind in ActivationKind:
            report = pipeline_report(perf_cfg.n, scenario, kind, perf_cfg)
            assert report.n_eff == perf_cfg.n
            assert report.speedup_vs_dense == 1.0


def test_stage_without_work_pays_no_fill(perf_cfg):
    for kind in ActivationKind:
        for stage in LAYER_STAGES:
            assert stage_cycles(stage, 0, perf_cfg, kind) == 0
    assert stage_cycles("pool", perf_cfg.n, perf_cfg) == 0
    # one kept row does pay the fill (6 cycles) on top of its work
    assert stage_cycles("wo", 1, perf_cfg) == perf_cfg.d + 6


def test_stage_shares_sum_to_one(perf_cfg):
    for scenario in ("S1", "S2", "S3"):
        for fraction in (0.0, 0.5, 1.0):
            report = pipeline_report(128 - int(round(fraction * 128)), scenario,
                                     ActivationKind.SOFTMAX_INT, perf_cfg)
            assert math.isclose(sum(stage_share(report).values()), 1.0)


def test_invalid_inputs_rejected(perf_cfg):
    with pytest.raises(ValueError, match="unknown stage"):
        stage_cycles("softmax", 10, perf_cfg)
    with pytest.raises(ValueError, match="unknown scenario"):
        pipeline_report(10, "S4", ActivationKind.SIGMOID_LUT, perf_cfg)
    for n_eff in (-1, perf_cfg.n + 1):
        with pytest.raises(ValueError):
            stage_cycles("qkv", n_eff, perf_cfg)
        with pytest.raises(ValueError):
            pipeline_report(n_eff, "S1", ActivationKind.SIGMOID_LUT, perf_cfg)


@pytest.mark.parametrize("kwargs, setting", [
    ({"clock_hz": 0}, "clock_hz"),
    ({"clock_hz": float("inf")}, "clock_hz"),
    ({"c_overhead": -1.0}, "c_overhead"),
    ({"c_overhead": "1"}, "c_overhead"),
    ({"div_latency": -1}, "div_latency"),
    ({"pipeline_fill": 2.5}, "pipeline_fill"),
    ({"layer_overhead": True}, "layer_overhead"),
    ({"c_overhead": 0.5 / 1816, "layer_overhead": 0}, "c_overhead = .* and layer_overhead = 0"),
])
def test_bad_perf_config_rejected(kwargs, setting):
    with pytest.raises(ValueError, match=setting):
        PerfConfig(**kwargs)


def test_smallest_pipeline_may_take_one_cycle():
    # S1 with no rows kept computes 1816 cycles; 0.5 / 1816 rounds to 0
    cfg = PerfConfig(c_overhead=0.51 / 1816, layer_overhead=0)
    assert pipeline_report(0, "S1", ActivationKind.SIGMOID_LUT, cfg).total_cycles == 1


@st.composite
def perf_configs(draw):
    """Any valid PerfConfig; a draw that rounds a pipeline to 0 cycles is invalid."""
    try:
        return PerfConfig(
            div_latency=draw(st.integers(0, 64)),
            pipeline_fill=draw(st.integers(0, 32)),
            clock_hz=draw(st.floats(1e3, 1e10)),
            c_overhead=draw(st.floats(1e-6, 10.0)),
            layer_overhead=draw(st.integers(0, 100_000) | st.just(0)),
        )
    except ValueError:
        reject()


@given(perf_configs(), st.sampled_from(SCENARIOS), st.sampled_from(list(ActivationKind)),
       st.integers(0, 128))
@settings(max_examples=300, deadline=None)
def test_pipeline_report_properties(cfg, scenario, kind, n_eff):
    report = pipeline_report(n_eff, scenario, kind, cfg)
    assert report.compute_cycles == sum(report.stages.values())
    assert report.speedup_vs_dense >= 1.0
    assert abs(sum(stage_share(report).values()) - 1.0) <= 1e-12
    if n_eff > 0:
        fewer = pipeline_report(n_eff - 1, scenario, kind, cfg)
        assert fewer.total_cycles <= report.total_cycles
