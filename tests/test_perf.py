import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamloc import perf
from beamloc.activations import ActivationKind
from beamloc.config import RunConfig
from beamloc.perf import CLOCK_HZ, LAYER_OVERHEAD, PerfConfig, pipeline_report, stage_share
from beamloc.weights import SCENARIOS, random_bundle


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


# The abstract's numbers under a fit of the two calibration constants.
PAPER_C_OVERHEAD, PAPER_LAYER_OVERHEAD = 0.471, 40082


def _paper_fit(report, cfg):
    """``report`` priced as ``pipeline_report`` prices it, under the paper's calibration."""
    def total(compute):
        return round(compute * PAPER_C_OVERHEAD) + len(report.layer_totals) * PAPER_LAYER_OVERHEAD
    dense = pipeline_report(cfg.n, report.scenario, report.activation, cfg).compute_cycles
    cycles = total(report.compute_cycles)
    latency = cycles / CLOCK_HZ
    return dataclasses.replace(
        report, overhead_cycles=cycles - report.compute_cycles, total_cycles=cycles,
        latency_s=latency, speedup_vs_dense=total(dense) / cycles,
        throughput_pos_per_s=1.0 / latency,
        calibration={"c_overhead": PAPER_C_OVERHEAD, "layer_overhead": PAPER_LAYER_OVERHEAD})


# SHA-256 over every report's to_dict() and stage_share, for each scenario,
# activation and n_eff in 0..n: a change to any stage's cost changes the digest.
# paper_fit re-prices each report under the paper's calibration; fill3_div7
# prices another pipeline fill and divider latency, so each constant is seen
# to enter the stage formulas where it always has.
REPORT_DIGESTS = {
    "default": "49e55208a2c506710bde2705f73cf28edfcc9fd7ae646741a6fb5c56ccd979a7",
    "paper_fit": "18b195ae92ad191c17cbb23b91e018759ba8ae9cee000d1bbcecf4f3563d2c7f",
    "toy_bundle": "babd363ba09465e02ca5158f1a5bf22210a90f5bfbfb435f299e33435463237d",
    "fill3_div7": "56122dda6abe7ee119bba24f5c573f00240dd9b84e3ba704d1e5aa7175b64f63",
}


@pytest.mark.parametrize("case", REPORT_DIGESTS)
def test_reports_are_pinned_stage_by_stage(toy_bundle, monkeypatch, case):
    cfg = RunConfig().perf_config(toy_bundle if case == "toy_bundle" else None)
    if case == "fill3_div7":
        monkeypatch.setattr(perf, "PIPELINE_FILL", 3)
        monkeypatch.setattr(perf, "DIV_LATENCY", 7)
    sha = hashlib.sha256()
    for scenario in SCENARIOS:
        for kind in ActivationKind:
            for n_eff in range(cfg.n + 1):
                report = pipeline_report(n_eff, scenario, kind, cfg)
                if case == "paper_fit":
                    report = _paper_fit(report, cfg)
                sha.update(json.dumps([report.to_dict(), stage_share(report)],
                                      sort_keys=True).encode())
    assert sha.hexdigest() == REPORT_DIGESTS[case]


def test_perf_config_is_the_geometry():
    assert [f.name for f in dataclasses.fields(PerfConfig)] == [
        "n", "d", "heads", "d_ff", "d_h", "pool_k", "pool_p"]
    # perf without --bundle prices the benchmark bundle's geometry
    assert RunConfig().perf_config() == RunConfig().perf_config(random_bundle())


@pytest.mark.parametrize("heads, dots", [(1, 2), (2, 2), (23, 23), (46, 46)])
def test_scores_and_headmul_price_every_head(heads, dots):
    # heads * n^2 dots of length d_k = 46 / heads, each ceil(d_k / 23) cycles:
    # one head's 46-long dots take two cycles, so 1 and 2 heads both cost 2 n^2.
    cfg = RunConfig().perf_config(random_bundle(heads=heads))
    assert cfg.heads == heads
    for n_eff in (1, 37, cfg.n):
        for scenario in SCENARIOS:
            stages = pipeline_report(n_eff, scenario, ActivationKind.SIGMOID_BIAS_LUT, cfg).stages
            layers = [n_eff] + [cfg.n] * (len(perf.SEGMENTS_PER_SCENARIO[scenario]) - 1)
            expected = sum(dots * n * n + perf.PIPELINE_FILL for n in layers)
            assert stages["scores"] == stages["headmul"] == expected, (scenario, n_eff)


# The hardware and calibration values are module constants, not fields:
# setting any of them, to any value, is a TypeError.
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
    # ``setting`` starts with the first field the case passes, the one the error names
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{setting.split()[0]}'"):
        PerfConfig(**kwargs)


def test_paper_operating_points():
    # The abstract's numbers under the paper's calibration.  It does not say
    # which scenario and activation each belongs to; assumed: 0.51 ms and
    # 1961 positions/s are S1 under sigmoid-bias at its 65% row sparsity,
    # 2.11 ms is S2 (two dense layers) under softmax-int, and the "about 2x"
    # speedup is S1 at 65% against S1 dense.
    cfg = PerfConfig()
    kept = cfg.n - int(round(0.65 * cfg.n))

    def fit(n_eff, scenario, kind):
        return _paper_fit(pipeline_report(n_eff, scenario, kind, cfg), cfg)

    sparse = fit(kept, "S1", ActivationKind.SIGMOID_BIAS_LUT)
    assert sparse.latency_s == pytest.approx(0.510e-3, rel=0.01)
    assert sparse.throughput_pos_per_s == pytest.approx(1961, rel=0.01)
    dense = fit(cfg.n, "S2", ActivationKind.SOFTMAX_INT)
    assert dense.latency_s == pytest.approx(2.11e-3, rel=0.01)
    for kind in (ActivationKind.SIGMOID_BIAS_LUT, ActivationKind.SOFTMAX_INT):
        assert 1.7 <= fit(kept, "S1", kind).speedup_vs_dense <= 2.1


@st.composite
def geometries(draw):
    """A bundle's geometry, with pool windows that tile the padded width, and a kept-row count."""
    d = draw(st.integers(1, 64))
    pool_k = draw(st.integers(1, d + 2))
    cfg = PerfConfig(n=draw(st.integers(1, 128)), d=d, d_ff=draw(st.integers(0, 640)),
                     d_h=draw(st.integers(0, 640)), pool_k=pool_k,
                     pool_p=(-d) % pool_k + pool_k * draw(st.integers(0, 1)))
    return cfg, draw(st.integers(0, cfg.n))


@given(geometries(), st.sampled_from(SCENARIOS), st.sampled_from(list(ActivationKind)))
@settings(max_examples=300, deadline=None)
def test_pipeline_report_properties(geometry, scenario, kind):
    cfg, n_eff = geometry
    report = pipeline_report(n_eff, scenario, kind, cfg)
    assert report.compute_cycles == sum(report.stages.values())
    assert report.total_cycles == report.compute_cycles + len(report.layer_totals) * LAYER_OVERHEAD
    assert report.speedup_vs_dense >= 1.0
    assert abs(sum(stage_share(report).values()) - 1.0) <= 1e-12
    if n_eff > 0:
        fewer = pipeline_report(n_eff - 1, scenario, kind, cfg)
        assert fewer.total_cycles <= report.total_cycles
    assert pipeline_report(cfg.n, scenario, kind, cfg).speedup_vs_dense == 1.0
