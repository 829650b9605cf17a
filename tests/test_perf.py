import hashlib
import json
import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beamloc.activations import ActivationKind
from beamloc.config import RunConfig
from beamloc.perf import PerfConfig, pipeline_report, stage_share
from beamloc.weights import SCENARIOS


@pytest.fixture(scope="module")
def perf_cfg():
    return RunConfig().perf_config()


@pytest.mark.parametrize("scenario, kind, fraction, cycles, speedup", [
    ("S1", ActivationKind.SIGMOID_BIAS_LUT, 0.0, 130026, 1.0),
    ("S1", ActivationKind.SIGMOID_BIAS_LUT, 0.65, 48188, 2.6983),
    ("S2", ActivationKind.SOFTMAX_INT, 0.0, 327868, 1.0),
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
    layer_stages = ("qkv", "scores", "activation", "headmul", "wo", "ffn1", "ffn2")
    for kind in ActivationKind:
        stages = pipeline_report(0, "S1", kind, perf_cfg).stages
        assert all(stages[s] == 0 for s in layer_stages)
        assert pipeline_report(perf_cfg.n, "S1", kind, perf_cfg).stages["pool"] == 0
    # one kept row does pay the fill (6 cycles) on top of its work
    assert pipeline_report(1, "S1", ActivationKind.SIGMOID_BIAS_LUT, perf_cfg).stages["wo"] \
        == perf_cfg.d + 6


def test_stage_shares_sum_to_one(perf_cfg):
    for scenario in ("S1", "S2", "S3"):
        for fraction in (0.0, 0.5, 1.0):
            report = pipeline_report(128 - int(round(fraction * 128)), scenario,
                                     ActivationKind.SOFTMAX_INT, perf_cfg)
            assert math.isclose(sum(stage_share(report).values()), 1.0)


def test_invalid_inputs_rejected(perf_cfg):
    with pytest.raises(ValueError, match="unknown scenario"):
        pipeline_report(10, "S4", ActivationKind.SIGMOID_BIAS_LUT, perf_cfg)
    for n_eff in (-1, perf_cfg.n + 1):
        for scenario in ("S1", "S2"):
            with pytest.raises(ValueError, match="effective rows"):
                pipeline_report(n_eff, scenario, ActivationKind.SIGMOID_BIAS_LUT, perf_cfg)


# SHA-256 over every report's to_dict() and stage_share, for each scenario,
# activation and n_eff in 0..n: a change to any stage's cost changes the digest.
@pytest.mark.parametrize("make_cfg, digest", [
    (lambda toy: RunConfig().perf_config(),
     "49e55208a2c506710bde2705f73cf28edfcc9fd7ae646741a6fb5c56ccd979a7"),
    (lambda toy: PerfConfig(c_overhead=0.471, layer_overhead=40082),
     "18b195ae92ad191c17cbb23b91e018759ba8ae9cee000d1bbcecf4f3563d2c7f"),
    (lambda toy: RunConfig().perf_config(toy),
     "babd363ba09465e02ca5158f1a5bf22210a90f5bfbfb435f299e33435463237d"),
    (lambda toy: PerfConfig(pipeline_fill=3, div_latency=7),
     "56122dda6abe7ee119bba24f5c573f00240dd9b84e3ba704d1e5aa7175b64f63"),
], ids=["default", "paper_fit", "toy_bundle", "fill3_div7"])
def test_reports_are_pinned_stage_by_stage(toy_bundle, make_cfg, digest):
    cfg = make_cfg(toy_bundle)
    sha = hashlib.sha256()
    for scenario in SCENARIOS:
        for kind in ActivationKind:
            for n_eff in range(cfg.n + 1):
                report = pipeline_report(n_eff, scenario, kind, cfg)
                sha.update(json.dumps([report.to_dict(), stage_share(report)],
                                      sort_keys=True).encode())
    assert sha.hexdigest() == digest


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
    ({"clock_hz": float("nan")}, "clock_hz"),
    ({"c_overhead": float("nan")}, "c_overhead"),
    ({"pipeline_fill": -1000}, "pipeline_fill"),
    ({"layer_overhead": -100000}, "layer_overhead"),
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
    assert pipeline_report(0, "S1", ActivationKind.SIGMOID_BIAS_LUT, cfg).total_cycles == 1


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
