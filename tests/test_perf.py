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
    ({"c_overhead": 1e308}, r"c_overhead = 1e\+308 overflows"),
    ({"layer_overhead": 10**400}, "layer_overhead = 1000"),
    ({"div_latency": 10**400}, "div_latency = 1000"),
    ({"pipeline_fill": 10**400}, "pipeline_fill = 1000"),
    ({"clock_hz": 5e-324}, "clock_hz = 5e-324 overflow the densest pipeline's latency"),
    ({"clock_hz": 1.7976931348623157e308, "c_overhead": 0.0003, "layer_overhead": 0},
     "clock_hz = .* makes the smallest pipeline's throughput"),
])
def test_bad_perf_config_rejected(kwargs, setting):
    with pytest.raises(ValueError, match=setting):
        PerfConfig(**kwargs)


def test_paper_operating_points():
    # The abstract's numbers under a fit of the two calibration constants.
    # It does not say which scenario and activation each belongs to; assumed:
    # 0.51 ms and 1961 positions/s are S1 under sigmoid-bias at its 65% row
    # sparsity, 2.11 ms is S2 (two dense layers) under softmax-int, and the
    # "about 2x" speedup is S1 at 65% against S1 dense.
    cfg = PerfConfig(c_overhead=0.471, layer_overhead=40082)
    kept = cfg.n - int(round(0.65 * cfg.n))
    sparse = pipeline_report(kept, "S1", ActivationKind.SIGMOID_BIAS_LUT, cfg)
    assert sparse.latency_s == pytest.approx(0.510e-3, rel=0.01)
    assert sparse.throughput_pos_per_s == pytest.approx(1961, rel=0.01)
    dense = pipeline_report(cfg.n, "S2", ActivationKind.SOFTMAX_INT, cfg)
    assert dense.latency_s == pytest.approx(2.11e-3, rel=0.01)
    for kind in (ActivationKind.SIGMOID_BIAS_LUT, ActivationKind.SOFTMAX_INT):
        assert 1.7 <= pipeline_report(kept, "S1", kind, cfg).speedup_vs_dense <= 2.1


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
