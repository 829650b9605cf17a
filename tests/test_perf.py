import math

import pytest

from beamloc.activations import ActivationKind
from beamloc.config import RunConfig
from beamloc.perf import LAYER_STAGES, mask_for_fraction, pipeline_report, stage_cycles, stage_share


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
    report = pipeline_report(mask_for_fraction(fraction, perf_cfg.n), scenario, kind, perf_cfg)
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
            report = pipeline_report(mask_for_fraction(fraction), scenario,
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
