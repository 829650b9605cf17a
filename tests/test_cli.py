import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from beamloc import channel, cli
from beamloc.activations import activation_from_name
from beamloc.config import DEFAULT_SPARSITY, RunConfig
from beamloc.engine import EngineConfig, make_engine
from beamloc.fxp import quantize, quantize_array
from beamloc.perf import pipeline_report
from beamloc.weights import ModelBundle, load_bundle, random_bundle, save_bundle


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    bundle = root / "bundle.axlw"
    save_bundle(bundle, random_bundle(seed=7))
    fps = root / "caps.bdfp"
    channel.write_fingerprints(
        fps, channel.generate_fingerprints(channel.default_profile("S1", seed=3), 2))
    return bundle, fps


def _infer(bundle, fps, out, *flags):
    return cli.main(["infer", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--out", str(out), *flags])


def test_truncated_fingerprint_file_is_an_io_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    assert _infer(bundle, fps, tmp_path / "ok.json") == cli.EXIT_OK
    cut = tmp_path / "cut.bdfp"
    cut.write_bytes(fps.read_bytes()[:-100])
    assert _infer(bundle, cut, tmp_path / "out.json") == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_forged_snapshot_count_is_an_io_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    forged = bytearray(fps.read_bytes())
    forged[4:8] = struct.pack("<I", 2**32 - 1)
    path = tmp_path / "forged.bdfp"
    path.write_bytes(bytes(forged))
    assert _infer(bundle, path, tmp_path / "out.json") == cli.EXIT_IO
    assert "promises 4294967295 snapshot(s)" in capsys.readouterr().err


def test_router_window_zero_is_a_config_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    assert _infer(bundle, fps, tmp_path / "out.json", "--router-window", "0") == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_finite_fingerprint_is_a_contract_violation(inputs, tmp_path, capsys):
    bundle, fps = inputs
    data = channel.read_fingerprints(fps)
    data[1, 5, 7] = np.nan
    path = tmp_path / "nan.bdfp"
    channel.write_fingerprints(path, data)
    for engine in ("int", "float", "both"):
        assert _infer(bundle, path, tmp_path / "out.json", "--engine", engine) == cli.EXIT_CONTRACT
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


BUNDLE_HEADER = 26  # magic, u16 version, u8 dtype, u8 activation, nine u16 sizes
FIRST_MATRIX = BUNDLE_HEADER + 9  # u32 rows, u32 cols, u8 transposed flag


@pytest.mark.parametrize("cut", [
    10,                 # inside the file header
    BUNDLE_HEADER + 4,  # inside the first matrix header
    FIRST_MATRIX + 20,  # inside the first matrix payload
    -1,                 # the last byte
])
def test_truncated_bundle_is_an_io_error(inputs, tmp_path, capsys, cut):
    bundle, fps = inputs
    path = tmp_path / "cut.axlw"
    path.write_bytes(bundle.read_bytes()[:cut])
    assert _infer(path, fps, tmp_path / "out.json") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and ("truncated" in err or "overruns" in err)
    assert not (tmp_path / "out.json").exists()


def test_forged_bundle_row_count_is_an_io_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    forged = bytearray(bundle.read_bytes())
    forged[BUNDLE_HEADER:BUNDLE_HEADER + 4] = struct.pack("<I", 2**32 - 1)
    path = tmp_path / "forged.axlw"
    path.write_bytes(bytes(forged))
    assert _infer(path, fps, tmp_path / "out.json") == cli.EXIT_IO
    assert "a 4294967295x128 matrix overruns the bundle" in capsys.readouterr().err


def test_infer_cycles_follow_the_requested_activation(inputs, tmp_path):
    # softmax-float is ActivationKind 0, which must not read as "unset"
    bundle, fps = inputs
    for name in ("softmax-float", "softmax-int", "sigmoid-norm"):
        flags = ("--activation", name, "--scenario", "S1")
        assert _infer(bundle, fps, tmp_path / "infer.json", *flags, "--no-sparsity") == cli.EXIT_OK
        assert cli.main(["perf", *flags, "--fractions", "0",
                         "--out", str(tmp_path / "perf.json")]) == cli.EXIT_OK
        infer_rows = json.loads((tmp_path / "infer.json").read_text())["results"]
        perf_report, = json.loads((tmp_path / "perf.json").read_text())["reports"]
        assert [r["cycles"] for r in infer_rows] == [perf_report["total_cycles"]] * 2


def test_ablate_rungs_follow_the_ladder(inputs, tmp_path):
    bundle_path, fps = inputs
    out = tmp_path / "ablate.json"
    assert cli.main(["ablate", "--bundle", str(bundle_path), "--fingerprints", str(fps),
                     "--scenario", "S1", "--out", str(out)]) == cli.EXIT_OK
    rungs = json.loads(out.read_text())["rungs"]
    assert [{k: r[k] for k in ("engine", "activation", "sparsity")} for r in rungs] == \
        list(cli.ABLATION_LADDER)
    bundle = load_bundle(bundle_path)
    perf_cfg = RunConfig().perf_config(bundle)
    for rung in rungs:
        kind = activation_from_name(rung["activation"])
        sparsity = dict(DEFAULT_SPARSITY) if rung["sparsity"] else None
        engine = make_engine(rung["engine"], bundle, EngineConfig(
            activation=kind, scenario_override="S1"))
        masks = [engine.infer(fp, sparsity=sparsity).mask
                 for fp in channel.read_fingerprints(fps)]
        assert rung["cycles"] == [
            pipeline_report(m, "S1", kind, perf_cfg).total_cycles for m in masks]


def _sweep_rows(bundle, fps, out, engine, *flags):
    assert cli.main(["sweep", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--engine", engine, "--scenario", "S1", *flags,
                     "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    return list(csv.DictReader(lines[1:]))


def test_sweep_statistics_match_the_engine_domain(inputs, tmp_path):
    # An independent recount: the integer engine thresholds Q8.8 codes
    # against the quantized cutoff, the float oracle float64 amplitudes.
    bundle, fps = inputs
    snapshots = channel.read_fingerprints(fps)
    domains = {
        "float": (list(snapshots), lambda t_elem: t_elem),
        "int": ([quantize_array(fp) for fp in snapshots], quantize),
    }
    for engine, (values, cutoff) in domains.items():
        rows = _sweep_rows(bundle, fps, tmp_path / f"{engine}.csv", engine,
                           "--t-elem", "0.01,0.1", "--t-rowcount", "8,40")
        assert len(rows) == 4
        for row in rows:
            t_elem, t_rowcount = float(row["t_elem"]), int(row["t_rowcount"])
            zeros = [(v < cutoff(t_elem)) | (v == 0) for v in values]
            skipped = [float(np.mean(z.sum(axis=1) > t_rowcount)) for z in zeros]
            assert float(row["element_sparsity"]) == \
                sum(int(z.sum()) for z in zeros) / sum(z.size for z in zeros)
            assert float(row["row_sparsity"]) == float(np.mean(skipped))
            assert float(row["max_row_sparsity"]) == max(skipped)


@pytest.mark.parametrize("engine", ["int", "float"])
def test_sweep_cell_that_masks_nothing_has_no_deviation(inputs, tmp_path, engine):
    bundle, fps = inputs
    row, = _sweep_rows(bundle, fps, tmp_path / "sweep.csv", engine,
                       "--t-elem", "0", "--t-rowcount", "46")
    assert float(row["row_sparsity"]) == 0.0
    assert float(row["output_deviation"]) == 0.0


def test_sweep_writes_one_row_per_grid_cell(inputs, tmp_path):
    bundle, fps = inputs
    rows = _sweep_rows(bundle, fps, tmp_path / "sweep.csv", "int",
                       "--t-elem", "0,0.5", "--t-rowcount", "0,8,46")
    assert [(r["t_elem"], r["t_rowcount"]) for r in rows] == [
        (t, c) for t in ("0.0", "0.5") for c in ("0", "8", "46")]
    assert list(rows[0]) == ["t_elem", "t_rowcount", "element_sparsity", "row_sparsity",
                             "max_row_sparsity", "output_deviation"]


def test_sweep_quantizes_the_bundle_once(inputs, tmp_path, monkeypatch):
    # The thresholds are a run setting: the baseline and all 35 cells of the
    # default grid share one engine and one quantized view of the bundle.
    calls = []
    quantized = ModelBundle.quantized
    monkeypatch.setattr(ModelBundle, "quantized",
                        lambda self: calls.append(self) or quantized(self))
    bundle, fps = inputs
    assert cli.main(["sweep", "--engine", "int", "--bundle", str(bundle), "--fingerprints",
                     str(fps), "--out", str(tmp_path / "sweep.csv")]) == cli.EXIT_OK
    assert len(calls) == 1


# SHA-256 of whole sweep CSVs, config line included, on the module's inputs
# with relative paths.  The statistics columns are exact; the float engine's
# output_deviation also depends on the BLAS build's float64 summation order.
SWEEP_CSV_SHA256 = {
    "int": "3c71a06d26c8428d4e1da999a1b9e0dcf141eef2dc2cbe05b74b9f0eeb192578",
    "float": "6f34e0255f54eb0cf91b561b53380d1db25f8cd1a987bec620b57eb221c98ca2",
    "int --scenario S3": "d4f1e8137d9d2ab414154b0f6c7dc02cf430c803fc3927a686e68d3c8b81b608",
    "float --scenario S3": "fb20e9cb4388bb635bd0d34fd8ed50576bbe571b3ebfc67a896f0ee82cf4910c",
}


@pytest.mark.parametrize("flags", list(SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(inputs, tmp_path, monkeypatch, flags):
    bundle, fps = inputs
    monkeypatch.chdir(bundle.parent)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--bundle", bundle.name, "--fingerprints", fps.name,
                     "--engine", *flags.split(), "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[flags]


def test_bundle_with_trailing_bytes_is_an_io_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    path = tmp_path / "long.axlw"
    path.write_bytes(bundle.read_bytes() + b"\x00")
    assert _infer(path, fps, tmp_path / "out.json") == cli.EXIT_IO
    assert "matrices end at byte" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["S1.w_q", "FCNN_S3.b2"])
def test_forged_smaller_bundle_row_count_is_an_io_error(inputs, tmp_path, capsys, matrix):
    bundle, fps = inputs
    forged = bytearray(bundle.read_bytes())
    if matrix == "S1.w_q":  # after the router's 3x128 weights and 1x3 bias
        offset, shape = FIRST_MATRIX + 3 * 128 * 4 + 9 + 3 * 4, (46, 46)
    else:  # the last matrix, a 1x2 float32 bias
        offset, shape = len(forged) - 9 - 2 * 4, (1, 2)
    assert struct.unpack_from("<II", forged, offset) == shape
    struct.pack_into("<I", forged, offset, shape[0] - 1)
    path = tmp_path / "forged.axlw"
    path.write_bytes(bytes(forged))
    assert _infer(path, fps, tmp_path / "out.json") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error")
    if matrix == "FCNN_S3.b2":
        assert "FCNN_S3.b2 is a 0x2 matrix where the header's sizes give (1, 2)" in err


def test_forged_bundle_size_is_an_io_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    forged = bytearray(bundle.read_bytes())
    d_h = 8 + 2 * 4  # the fifth u16 size: n, d, heads, d_ff, d_h
    assert struct.unpack_from("<H", forged, d_h) == (64,)
    struct.pack_into("<H", forged, d_h, 32)
    path = tmp_path / "forged.axlw"
    path.write_bytes(bytes(forged))
    assert _infer(path, fps, tmp_path / "out.json") == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "FCNN_S1.w1 is a 1536x64 matrix where the header's sizes give (1536, 32)" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flags, setting", [
    (["--diffuse-floor", "nan"], "diffuse_floor"),
    (["--diffuse-floor", "inf"], "diffuse_floor"),
    (["--diffuse-floor", "-0.5"], "diffuse_floor"),
    (["--dominant-beams", "0"], "dominant_beams"),
    (["--dominant-beams", "129"], "dominant_beams"),
    (["--dominant-delays", "0"], "dominant_delays"),
    (["--dominant-delays", "47"], "dominant_delays"),
    (["--count", "-1"], "count"),
    (["--seed", "-1"], "seed"),
])
def test_bad_generator_setting_is_a_config_error(tmp_path, capsys, flags, setting):
    out = tmp_path / "caps.bdfp"
    assert cli.main(["generate", "--count", "2", "--out", str(out), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert not out.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--t-elem=-1"], "--t-elem"),
    (["--t-elem", "abc"], "--t-elem"),
    (["--t-elem", "nan"], "--t-elem"),
    (["--t-elem", "0.01,inf"], "--t-elem"),
    (["--t-rowcount=-3"], "--t-rowcount"),
    (["--t-rowcount", "8,x"], "--t-rowcount"),
    (["--t-rowcount", ","], "--t-rowcount"),
    (["--t-elem", ","], "--t-elem"),
])
def test_bad_sweep_grid_is_a_config_error(inputs, tmp_path, capsys, flags, setting):
    bundle, fps = inputs
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--scenario", "S1", "--out", str(out), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert not out.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--clock-hz", "0"], "clock_hz"),
    (["--clock-hz", "nan"], "clock_hz"),
    (["--clock-hz", "inf"], "clock_hz"),
    (["--c-overhead=-1"], "c_overhead"),
    (["--c-overhead", "nan"], "c_overhead"),
    (["--div-latency=-50"], "div_latency"),
    (["--pipeline-fill=-1000"], "pipeline_fill"),
    (["--layer-overhead=-100000"], "layer_overhead"),
    (["--fractions", "abc"], "--fractions"),
    (["--fractions", "0,2"], "--fractions"),
    (["--fractions", "nan"], "--fractions"),
    (["--c-overhead", "1e-9", "--layer-overhead", "0"], "c_overhead = 1e-09 and layer_overhead = 0"),
    (["--c-overhead", "1e308"], "c_overhead = 1e+308 overflows"),
    (["--fractions", ","], "--fractions"),
    (["--layer-overhead", "1" + "0" * 400], "layer_overhead"),
    (["--div-latency", "1" + "0" * 400], "div_latency"),
    (["--pipeline-fill", "1" + "0" * 400], "pipeline_fill"),
    (["--clock-hz", "5e-324", "--fractions", "0"], "clock_hz"),
    (["--clock-hz", "1.7976931348623157e308", "--c-overhead", "0.0003",
      "--layer-overhead", "0", "--fractions", "1"], "clock_hz"),
])
def test_bad_perf_setting_is_a_config_error(tmp_path, capsys, flags, setting):
    out = tmp_path / "perf.json"
    assert cli.main(["perf", "--out", str(out), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert not out.exists()


@pytest.mark.parametrize("delay_bin", ["46", "99", "-1"])
def test_bad_delay_bin_is_a_config_error(inputs, tmp_path, capsys, delay_bin):
    bundle, fps = inputs
    out = tmp_path / "out.json"
    assert _infer(bundle, fps, out, f"--delay-bin={delay_bin}") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "delay_bin" in err
    assert not out.exists()
    assert _infer(bundle, fps, out, "--delay-bin=45") == cli.EXIT_OK


@pytest.mark.parametrize("fields, setting", [
    ({"sparsity": {"S1": {"t_elem": float("nan"), "t_rowcount": 41}}}, "t_elem"),
    ({"sparsity": {"S1": {"t_elem": 0.039}}}, "t_rowcount"),
    ({"sparsity": {"S1": {"t_elem": 0.039, "t_rowcount": 2.5}}}, "t_rowcount"),
    ({"sparsity": [1]}, "sparsity"),
    ({"sparsity": {"S9": {"t_elem": 0.1, "t_rowcount": 3}}}, "S9"),
    ({"sparsity_enabled": "no"}, "sparsity_enabled"),
    ({"router_window": 2.5}, "router_window"),
    ({"pipeline_fill": 2.5}, "pipeline_fill"),
    ({"clock_hz": "fast"}, "clock_hz"),
    ({"seed": 0}, "seed"),
    ({"bundle": 5}, "bundle"),
    ({"layer_overhead": 10**400}, "layer_overhead"),
    ({"div_latency": 10**400}, "div_latency"),
    ({"pipeline_fill": 10**400}, "pipeline_fill"),
])
def test_bad_config_file_is_a_config_error(tmp_path, capsys, fields, setting):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    assert cli.main(["show-config", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err


@pytest.mark.parametrize("flags", [
    [],
    ["--engine", "both", "--scenario", "S2", "--activation", "softmax-int", "--no-sparsity",
     "--router-window", "5", "--delay-bin", "3", "--ffn-residual", "--clock-hz", "2e8",
     "--div-latency", "8", "--pipeline-fill", "3", "--c-overhead", "1.5",
     "--layer-overhead", "100"],
])
def test_show_config_round_trips_through_a_config_file(tmp_path, capsys, flags):
    assert cli.main(["show-config", *flags]) == cli.EXIT_OK
    shown = capsys.readouterr().out
    path = tmp_path / "run.json"
    path.write_text(shown)
    assert cli.main(["show-config", "--config", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == shown


def test_flags_override_the_config_file_and_only_when_given(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ffn_residual": True, "sparsity_enabled": False,
                                "router_window": 5}))
    parser = cli.build_parser()
    cfg = cli._build_config(parser.parse_args(["show-config", "--config", str(path)]))
    assert (cfg.ffn_residual, cfg.sparsity_enabled, cfg.router_window) == (True, False, 5)
    path.write_text(json.dumps({"ffn_residual": False, "sparsity_enabled": True,
                                "router_window": 5}))
    cfg = cli._build_config(parser.parse_args([
        "show-config", "--config", str(path), "--ffn-residual", "--no-sparsity",
        "--router-window", "3"]))
    assert (cfg.ffn_residual, cfg.sparsity_enabled, cfg.router_window) == (True, False, 3)
