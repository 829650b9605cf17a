import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamloc import channel, cli
from beamloc.activations import ACTIVATIONS, ActivationKind
from beamloc.config import DEFAULT_SPARSITY, ConfigError, RunConfig
from beamloc.engine import EngineConfig, _EngineBase, make_engine
from beamloc.fxp import ACC_MAX, quantize, quantize_array
from beamloc.perf import pipeline_report
from beamloc.sparsity import SparsityConfig, output_deviation, sparsity_stats
from beamloc.weights import SCENARIOS, ModelBundle, load_bundle, random_bundle, save_bundle


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


def _count_infers(monkeypatch) -> list:
    """A list that grows by one per engine ``infer`` call from here on."""
    calls = []
    infer = _EngineBase.infer
    monkeypatch.setattr(_EngineBase, "infer",
                        lambda self, *args, **kwargs: calls.append(1) or infer(self, *args, **kwargs))
    return calls


def test_truncated_fingerprint_file_is_an_io_error(inputs, tmp_path, capsys, monkeypatch):
    # infer streams its snapshots, but checks the file's size before the first
    bundle, fps = inputs
    assert _infer(bundle, fps, tmp_path / "ok.json") == cli.EXIT_OK
    cut = tmp_path / "cut.bdfp"
    cut.write_bytes(fps.read_bytes()[:-100])
    calls = _count_infers(monkeypatch)
    assert _infer(bundle, cut, tmp_path / "out.json") == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert calls == []


def test_forged_snapshot_count_is_an_io_error(inputs, tmp_path, capsys, monkeypatch):
    bundle, fps = inputs
    forged = bytearray(fps.read_bytes())
    forged[4:8] = struct.pack("<I", 2**32 - 1)
    path = tmp_path / "forged.bdfp"
    path.write_bytes(bytes(forged))
    calls = _count_infers(monkeypatch)
    assert _infer(bundle, path, tmp_path / "out.json") == cli.EXIT_IO
    assert "promises 4294967295 snapshot(s)" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert calls == []


# Runs the command in its argv and prints its peak RSS in KiB.  RUSAGE_CHILDREN
# is the maximum over every child a process has waited for, so each
# measurement needs a wrapper process of its own.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss_mb(*argv) -> float:
    """The peak RSS in MB of ``python -m beamloc.cli *argv`` run in a wrapper of its own."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    wrapper = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "beamloc.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, check=True)
    return int(wrapper.stdout) / 1024


@pytest.mark.parametrize("command", [
    pytest.param(["infer", "--engine", "int"], id="int"),
    pytest.param(["infer", "--engine", "float"], id="float"),
    pytest.param(["sweep", "--t-elem", "0.01", "--t-rowcount", "8"], id="sweep"),
    pytest.param(["ablate"], id="ablate"),
])
def test_infer_memory_does_not_grow_with_its_input(inputs, tmp_path, command):
    # infer, sweep and ablate read one snapshot at a time, so 1000 snapshots
    # (23.5 MB on file) may peak at most 8 MB above 10: their results take
    # about 2 MB.  The bound covers the one-cell sweep run here.  A sweep
    # still keeps every cell's results until its statistics, so a
    # default-grid sweep grows by O(cells x snapshots), about 25 KB a
    # snapshot (ROADMAP item 11).
    bundle, _ = inputs
    rng = np.random.default_rng(5)
    peaks = {}
    for count in (10, 1000):
        fps, out = tmp_path / f"random{count}.bdfp", tmp_path / f"out{count}"
        channel.write_fingerprints(fps, rng.random((count, 128, 46), dtype=np.float32))
        peaks[count] = _peak_rss_mb(*command, "--bundle", bundle, "--fingerprints", fps,
                                    "--out", out)
        if command[0] == "infer":
            assert len(json.loads(out.read_text())["results"]) == count
    assert peaks[1000] - peaks[10] <= 8, peaks


def test_generate_and_infer_of_4000_snapshots_keep_their_memory_bounds(inputs, tmp_path):
    """Fingerprints stay float32 until one snapshot enters an engine, and infer reads one at a time.

    ``generate --count 4000`` (94 MB as float32) peaked at about 127 MB: a
    34 MB base plus the float32 batch, where a float64 batch and three copies
    on write peaked at about 487 MB.  The int engine keeps only the bundle's
    Q8.8 view, so int ``infer`` of that file peaked at about 45 MB, where
    loading the whole file peaked at about 137 MB.
    """
    bundle, _ = inputs
    fps, out = tmp_path / "many.bdfp", tmp_path / "many.json"
    peak = _peak_rss_mb("generate", "--scenario", "S1", "--count", "4000", "--out", fps)
    assert peak <= 250, f"generate --count 4000 peaked at {peak:.0f} MB"
    peak = _peak_rss_mb("infer", "--bundle", bundle, "--fingerprints", fps, "--engine", "int",
                        "--out", out)
    fps.unlink()
    assert peak < 90, f"infer --engine int of 4000 snapshots peaked at {peak:.0f} MB"


def test_router_window_zero_is_a_config_error(inputs, tmp_path, capsys):
    bundle, fps = inputs
    # 10**20 is past the longest ring buffer a deque can hold
    for window in ("0", "100000000000000000000"):
        assert _infer(bundle, fps, tmp_path / "out.json", "--router-window", window) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "router_window" in err
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_empty_fingerprint_file_is_a_contract_violation(inputs, tmp_path, capsys, command):
    bundle, _ = inputs
    assert cli.main(["generate", "--count", "0", "--out", str(tmp_path / "empty.bdfp")]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([command, "--bundle", str(bundle), "--fingerprints", str(tmp_path / "empty.bdfp"),
                     "--out", str(out)]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("contract violation") and "empty.bdfp holds no snapshots" in err
    assert not out.exists()
    # infer still writes an empty result list
    assert _infer(bundle, tmp_path / "empty.bdfp", out) == cli.EXIT_OK
    assert json.loads(out.read_text())["results"] == []


def test_non_finite_fingerprint_is_a_contract_violation(inputs, tmp_path, capsys):
    bundle, fps = inputs
    data = channel.read_fingerprints(fps)
    data[1, 5, 7] = np.nan
    path = tmp_path / "nan.bdfp"
    channel.write_fingerprints(path, data)
    for engine in ("int", "float"):
        assert _infer(bundle, path, tmp_path / "out.json", "--engine", engine) == cli.EXIT_CONTRACT
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
    # sweep routes its snapshots in its baseline run, before it opens the CSV
    for command in (["sweep", "--engine", "int"], ["sweep", "--engine", "float"], ["ablate"]):
        assert cli.main([*command, "--bundle", str(bundle), "--fingerprints", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONTRACT
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["infer", "--engine", "int"], ["infer", "--engine", "float"],
    ["sweep", "--engine", "int"], ["sweep", "--engine", "float"], ["ablate"],
], ids=lambda command: " ".join(command))
def test_signalling_nan_is_one_line_under_every_engine(inputs, tmp_path, capsys, command):
    # A fingerprint file loads as float32, a signalling NaN as it is; each
    # engine rejects it before its float64 cast, which would warn.
    bundle, fps = inputs
    data = bytearray(fps.read_bytes())
    struct.pack_into("<I", data, 8 + 4 * 100, 0x7F800001)  # beam 2, delay bin 8
    path, out = tmp_path / "snan.bdfp", tmp_path / "out"
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*command, "--bundle", str(bundle), "--fingerprints", str(path),
                         "--out", str(out)])
    assert code == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("contract violation") and "non-finite" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["infer", "--engine", "float", "--scenario", "S2", "--no-sparsity"],
    ["infer", "--engine", "float"],
    ["ablate"],
    ["sweep", "--engine", "float"],
], ids=lambda command: " ".join(command))
def test_float_coordinates_that_overflow_are_a_contract_violation(tmp_path, capsys, command):
    # Finite float32 weights of 1e30 overflow float64 on S2 snapshots; the
    # integer engine saturates instead.  A numpy warning would fail the test.
    bundle, fps, out = tmp_path / "big.axlw", tmp_path / "s2.bdfp", tmp_path / "out"
    save_bundle(bundle, random_bundle(seed=7, scale=1e30))
    channel.write_fingerprints(
        fps, channel.generate_fingerprints(channel.default_profile("S2", seed=1), 2))
    assert cli.main([*command, "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--out", str(out)]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("contract violation: the float engine's") and "non-finite" in err
    assert not out.exists()


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
    # Without --bundle, perf prices the default geometry; with it, the bundle's
    # geometry and, unless --activation says otherwise, the bundle's activation.
    bundle, fps = inputs
    wide = tmp_path / "wide.axlw"
    save_bundle(wide, random_bundle(seed=1, d_ff=300, heads=23,
                                    activation=ActivationKind.SOFTMAX_INT))
    cases = [(bundle, (), ("--activation", name)) for name in ("softmax-int", "sigmoid-bias")]
    cases += [(wide, ("--bundle", str(wide)), flags)
              for flags in ((), ("--activation", "softmax-int"), ("--activation", "sigmoid-bias"))]
    for path, perf_flags, activation in cases:
        flags = (*activation, "--scenario", "S1")
        assert _infer(path, fps, tmp_path / "infer.json", *flags, "--no-sparsity") == cli.EXIT_OK
        assert cli.main(["perf", *perf_flags, *flags, "--fractions", "0",
                         "--out", str(tmp_path / "perf.json")]) == cli.EXIT_OK
        infer_rows = json.loads((tmp_path / "infer.json").read_text())["results"]
        perf_report, = json.loads((tmp_path / "perf.json").read_text())["reports"]
        assert [r["cycles"] for r in infer_rows] == [perf_report["total_cycles"]] * 2


def test_ablate_rungs_follow_the_ladder(inputs, tmp_path):
    # The sparsity rung thresholds with the run's map, which --no-sparsity empties.
    bundle_path, fps = inputs
    bundle = load_bundle(bundle_path)
    perf_cfg = RunConfig().perf_config(bundle)
    out = tmp_path / "ablate.json"
    for flags, thresholds in (((), dict(DEFAULT_SPARSITY)), (("--no-sparsity",), {})):
        assert cli.main(["ablate", "--bundle", str(bundle_path), "--fingerprints", str(fps),
                         "--scenario", "S1", *flags, "--out", str(out)]) == cli.EXIT_OK
        rungs = json.loads(out.read_text())["rungs"]
        assert [{k: r[k] for k in ("engine", "activation", "sparsity")} for r in rungs] == \
            list(cli.ABLATION_LADDER)
        for rung in rungs:
            kind = ACTIVATIONS[rung["activation"]]
            sparsity = thresholds if rung["sparsity"] else None
            engine = make_engine(rung["engine"], bundle, EngineConfig(
                activation=kind, scenario_override="S1"))
            masks = [engine.infer(fp, sparsity=sparsity).mask
                     for fp in channel.read_fingerprints(fps)]
            assert rung["cycles"] == [
                pipeline_report(m, "S1", kind, perf_cfg).total_cycles for m in masks]
    assert rungs[-1]["deviation_vs_previous"] == rungs[-1]["cycle_delta_vs_previous"] == 0.0


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


def test_ablate_quantizes_the_bundle_once(inputs, tmp_path, monkeypatch):
    # Both integer rungs run sigmoid-bias: they share one engine and one
    # quantized view of the bundle.
    calls = []
    quantized = ModelBundle.quantized
    monkeypatch.setattr(ModelBundle, "quantized",
                        lambda self: calls.append(self) or quantized(self))
    bundle, fps = inputs
    assert cli.main(["ablate", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--out", str(tmp_path / "ablate.json")]) == cli.EXIT_OK
    assert len(calls) == 1


# SHA-256 of whole sweep CSVs, config line included, on the module's inputs
# with relative paths.  The statistics columns are exact; the float engine's
# output_deviation also depends on the BLAS build's float64 summation order.
SWEEP_CSV_SHA256 = {
    "int": "132d78dd7cc3da7d84b09740d38d1968053a90d9b8835cf873001b2f17bd1f06",
    "float": "ffc591383fab77845877afac93e7a4cea697b1d6ddd11cbc44894eba9910d68a",
    "int --scenario S3": "d4f7689a581fa5ff82baab2fc44d924d43336e082cba5a721ed464d20bd9925e",
    "float --scenario S3": "0ede3b2bc5e146f9f8b8b78a41a50167d37e6ea46a0ec603775e86001d035397",
}


@pytest.mark.parametrize("flags", list(SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(inputs, tmp_path, monkeypatch, flags):
    bundle, fps = inputs
    monkeypatch.chdir(bundle.parent)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--bundle", bundle.name, "--fingerprints", fps.name,
                     "--engine", *flags.split(), "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[flags]


DEFAULT_T_ELEMS = (0.001, 0.003, 0.01, 0.03, 0.1)
DEFAULT_T_ROWCOUNTS = (0, 8, 16, 24, 32, 40, 46)


def _sweep_body(bundle, fps, out, *flags):
    """The sweep CSV below its config line."""
    assert cli.main(["sweep", "--bundle", str(bundle), "--fingerprints", str(fps),
                     *flags, "--out", str(out)]) == cli.EXIT_OK
    return out.read_text().splitlines()[1:]


def _reuse_free_body(bundle, fps, kind, t_elems, t_rowcounts, ecfg):
    """The sweep CSV body, built with a fresh engine and no shared state per cell."""
    bundle, snapshots = load_bundle(bundle), channel.read_fingerprints(fps)
    baseline = np.array([r.coords for r in make_engine(kind, bundle, ecfg).run(snapshots)])
    lines = ["t_elem,t_rowcount,element_sparsity,row_sparsity,max_row_sparsity,output_deviation"]
    for t_elem in t_elems:
        for t_rowcount in t_rowcounts:
            cell = dict.fromkeys(SCENARIOS, SparsityConfig(t_elem=t_elem, t_rowcount=t_rowcount))
            results = make_engine(kind, bundle, ecfg).run(snapshots, cell)
            stats = sparsity_stats([r.mask for r in results], snapshots.shape[-1])
            dev = output_deviation(np.array([r.coords for r in results]), baseline)
            lines.append(",".join(repr(v) for v in (t_elem, t_rowcount, *stats.values(), dev)))
    return lines


@pytest.mark.parametrize("kind", ["int", "float"])
def test_routed_sweep_equals_reuse_free_runs(inputs, tmp_path, kind):
    # S1/S3/S1 blocks under a 3-label router window: the routed scenario
    # changes along the input, and every cell of the default grid is checked.
    bundle, _ = inputs
    fps = tmp_path / "mixed.bdfp"
    channel.write_fingerprints(fps, np.concatenate([
        channel.generate_fingerprints(channel.default_profile(sc, seed=9), 2)
        for sc in ("S1", "S3", "S1")]))
    ecfg = EngineConfig(router_window=3)
    routed = make_engine(kind, load_bundle(bundle), ecfg).run(channel.read_fingerprints(fps))
    assert len({r.scenario for r in routed}) > 1
    got = _sweep_body(bundle, fps, tmp_path / "sweep.csv", "--engine", kind, "--router-window", "3")
    assert got == _reuse_free_body(bundle, fps, kind, DEFAULT_T_ELEMS, DEFAULT_T_ROWCOUNTS, ecfg)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_sweep_cells_with_one_skip_mask_keep_their_own_zero_counts(inputs, tmp_path, kind):
    # At t_rowcount 46 no row is skipped, whatever t_elem: both t_elem values
    # give every snapshot the same skip mask but different zero counts.
    bundle, fps = inputs
    got = _sweep_body(bundle, fps, tmp_path / "sweep.csv", "--engine", kind,
                      "--t-elem", "0.01,0.03", "--t-rowcount", "8,46")
    expect = _reuse_free_body(bundle, fps, kind, (0.01, 0.03), (8, 46), EngineConfig())
    assert got == expect
    at_46 = [row for row in csv.DictReader(expect) if row["t_rowcount"] == "46"]
    assert [row["row_sparsity"] for row in at_46] == ["0.0", "0.0"]
    assert at_46[0]["element_sparsity"] != at_46[1]["element_sparsity"]


def test_sweep_runs_each_distinct_encoder_input_once(inputs, tmp_path, monkeypatch):
    # The input holds each snapshot twice.  sweep runs the encoder and head
    # once per distinct (thresholded codes, skip mask) of each snapshot
    # position over the baseline and all 35 cells, so a repeated snapshot
    # runs again; infer still runs them once per snapshot.
    bundle, fps = inputs
    snapshots = np.concatenate([channel.read_fingerprints(fps)] * 2)
    doubled = tmp_path / "doubled.bdfp"
    channel.write_fingerprints(doubled, snapshots)
    codes = [quantize_array(fp) for fp in snapshots]
    distinct = {(i, q.tobytes(), np.zeros(len(q), dtype=bool).tobytes())
                for i, q in enumerate(codes)}
    for t_elem in DEFAULT_T_ELEMS:
        for t_rowcount in DEFAULT_T_ROWCOUNTS:
            for i, q in enumerate(codes):
                mat = np.where(q < quantize(t_elem), 0, q)
                skip = (mat == 0).sum(axis=1) > t_rowcount
                distinct.add((i, mat.tobytes(), skip.tobytes()))
    calls = []
    fcnn = _EngineBase.fcnn
    monkeypatch.setattr(_EngineBase, "fcnn", lambda self, *a: calls.append(1) or fcnn(self, *a))
    _sweep_body(bundle, doubled, tmp_path / "sweep.csv", "--engine", "int")
    assert len(calls) == len(distinct) < 36 * len(snapshots)
    calls.clear()
    assert _infer(bundle, doubled, tmp_path / "out.json", "--engine", "int") == cli.EXIT_OK
    assert len(calls) == len(snapshots)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_sweep_that_returns_to_a_threshold_equals_reuse_free_runs(inputs, tmp_path, kind):
    # A snapshot's memo keeps one thresholded input: 0.01 must not reuse
    # 0.03's input or zero counts, nor 0.03 after it reuse 0.01's.
    bundle, _ = inputs
    fps = tmp_path / "mixed.bdfp"
    channel.write_fingerprints(fps, np.concatenate([
        channel.generate_fingerprints(channel.default_profile(sc, seed=9), 2)
        for sc in ("S1", "S3", "S1")]))
    grid = (0.03, 0.01, 0.03), (8, 46, 8)
    got = _sweep_body(bundle, fps, tmp_path / "sweep.csv", "--engine", kind, "--router-window", "3",
                      "--t-elem", "0.03,0.01,0.03", "--t-rowcount", "8,46,8")
    assert got == _reuse_free_body(bundle, fps, kind, *grid, EngineConfig(router_window=3))


@pytest.mark.parametrize("kind", ["int", "float"])
def test_sweep_prepares_and_routes_once_and_thresholds_once_per_t_elem(inputs, tmp_path,
                                                                       monkeypatch, kind):
    # Each of a default sweep's 36 runs of N snapshots goes through infer,
    # but a snapshot is prepared and routed once and thresholded once for
    # each of the 5 t_elem values; infer prepares each snapshot once.
    bundle, fps = inputs
    n = len(channel.read_fingerprints(fps))
    engine_class = type(make_engine(kind, load_bundle(bundle)))
    calls = collections.Counter()
    for name in ("prepare_input", "slp_logits", "threshold", "infer"):
        def counted(self, *args, _name=name, _method=getattr(engine_class, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(engine_class, name, counted)
    _sweep_body(bundle, fps, tmp_path / "sweep.csv", "--engine", kind)
    assert calls == {"prepare_input": n, "slp_logits": n, "threshold": 5 * n, "infer": 36 * n}
    calls.clear()
    assert _infer(bundle, fps, tmp_path / "out.json", "--engine", kind) == cli.EXIT_OK
    assert calls["prepare_input"] == calls["infer"] == n


def test_sweep_runs_one_engine(inputs, tmp_path, capsys):
    # Every command that reads the engine runs one: int or float, never both.
    bundle, fps = inputs
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"engine": "both"}))
    out = tmp_path / "out"
    for command in ("infer", "sweep", "show-config"):
        argv = [command, "--bundle", str(bundle), "--fingerprints", str(fps)]
        argv += [] if command == "show-config" else ["--out", str(out)]
        with pytest.raises(SystemExit) as e:
            cli.main([*argv, "--engine", "both"])
        assert e.value.code == cli.EXIT_CONFIG
        assert "argument --engine: invalid choice: 'both'" in capsys.readouterr().err
        assert cli.main([*argv, "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: engine must be one of ('float', 'int'), got 'both'")
        assert not out.exists()


CYCLE_FLAGS = ("--clock-hz", "--div-latency", "--pipeline-fill", "--c-overhead", "--layer-overhead")
UNREAD_FLAGS = [
    ("perf", ["--fingerprints", "caps.bdfp"]),
    ("perf", ["--engine", "int"]),
    ("perf", ["--no-sparsity"]),
    ("perf", ["--router-window", "3"]),
    ("perf", ["--csv", "perf.csv"]),
    ("ablate", ["--engine", "int"]),
    ("ablate", ["--activation", "softmax-int"]),
    # No command reads a cycle-model setting: every run prices PerfConfig's defaults.
    *((command, [flag, "1"]) for command in ("sweep", "infer", "ablate", "perf", "show-config")
      for flag in CYCLE_FLAGS),
    ("generate", ["--csv", "caps.csv"]),
]


@pytest.mark.parametrize("command, flags", UNREAD_FLAGS,
                         ids=[f"{command} {flags[0]}" for command, flags in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_rejected(inputs, tmp_path, monkeypatch, capsys,
                                                      command, flags):
    bundle, fps = inputs
    monkeypatch.chdir(tmp_path)
    inputs_flags = ["--bundle", str(bundle), "--fingerprints", str(fps)]
    with pytest.raises(SystemExit) as e:
        cli.main([command, *(inputs_flags if command in ("sweep", "ablate") else []),
                  *(["--out", "out"] if command != "show-config" else []), *flags])
    assert e.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# The settings each command reads, has flags for and embeds in its artifact.
EMBEDDED = {
    "infer": set(cli.SETTING_FLAGS),
    "sweep": {"bundle", "fingerprints", "engine", "scenario", "activation", "router_window"},
    "ablate": {"bundle", "fingerprints", "scenario", "sparsity", "router_window"},
    "perf": {"bundle", "scenario", "activation"},
}


def test_each_artifact_embeds_exactly_the_settings_its_command_reads(inputs, tmp_path, capsys):
    # One config file holding every setting serves every command.
    bundle, fps = inputs
    assert cli.main(["show-config", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--engine", "float", "--scenario", "S1", "--router-window", "3"]) == cli.EXIT_OK
    config = tmp_path / "run.json"
    config.write_text(capsys.readouterr().out)
    shown = json.loads(config.read_text())
    assert set(shown) == set(cli.SETTING_FLAGS) == {f.name for f in dataclasses.fields(RunConfig)}
    assert [len(keys) for keys in EMBEDDED.values()] == [7, 6, 5, 3]
    for command, keys in EMBEDDED.items():
        out = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        text = out.read_text()
        if command == "sweep":
            embedded = json.loads(text.splitlines()[0].removeprefix("# config: "))
        else:
            embedded = json.loads(text)["config"]
        assert embedded == {k: v for k, v in shown.items() if k in keys}


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
    (["--count", "-1"], "count"),
    (["--seed", "-1"], "seed"),
    (["--count", str(2**32)], "count"),  # past the file header's u32
])
def test_bad_generator_setting_is_a_config_error(tmp_path, capsys, flags, setting):
    out = tmp_path / "caps.bdfp"
    assert cli.main(["generate", "--count", "2", "--out", str(out), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert not out.exists()


def test_generate_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    # An in-range count too large to allocate: one line on stderr, no file.
    def no_memory(profile, count):
        raise MemoryError(f"Unable to allocate the {count} snapshot(s)")
    monkeypatch.setattr(channel, "generate_fingerprints", no_memory)
    out = tmp_path / "caps.bdfp"
    assert cli.main(["generate", "--count", str(10**9), "--out", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate the 1000000000 snapshot(s)\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--dominant-beams", "--dominant-delays", "--diffuse-floor"])
def test_removed_generator_flags_are_rejected(tmp_path, capsys, flag):
    # Each scenario's channel profile is fixed.
    out = tmp_path / "caps.bdfp"
    with pytest.raises(SystemExit) as e:
        cli.main(["generate", "--count", "2", "--out", str(out), flag, "1"])
    assert e.value.code == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
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


# The ids are the ones these cases have long run under.
@pytest.mark.parametrize("flags, setting", [
    (["--fractions", "abc"], "--fractions"),
    (["--fractions", "0,2"], "--fractions"),
    (["--fractions", "nan"], "--fractions"),
    (["--fractions", ","], "--fractions"),
], ids=["flags8---fractions", "flags9---fractions", "flags10---fractions", "flags13---fractions"])
def test_bad_perf_setting_is_a_config_error(tmp_path, capsys, flags, setting):
    out = tmp_path / "perf.json"
    assert cli.main(["perf", "--out", str(out), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--delay-bin=3", "--ffn-residual"])
def test_removed_model_flags_are_rejected(inputs, tmp_path, capsys, flag):
    # The bundle fixes the router's delay bin and the encoder's structure.
    bundle, fps = inputs
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as e:
        _infer(bundle, fps, out, flag)
    assert e.value.code == cli.EXIT_CONFIG
    assert flag.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("delay_bin", 3), ("delay_bin", None), ("ffn_residual", False), ("sparsity_enabled", False),
    ("clock_hz", 1e8), ("div_latency", 16), ("pipeline_fill", 6), ("c_overhead", 1.0),
    ("layer_overhead", 25000),
])
def test_removed_model_settings_are_config_errors(inputs, tmp_path, capsys, key, value):
    bundle, fps = inputs
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out.json"
    assert _infer(bundle, fps, out, "--config", str(config)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


def test_a_huge_finite_threshold_saturates(inputs, tmp_path):
    # 1e307 * 256 is inf in float64; the threshold's code saturates at 32767.
    bundle, fps = inputs
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--bundle", str(bundle), "--fingerprints", str(fps),
                     "--t-elem", "1e307", "--t-rowcount", "3", "--out", str(out)]) == cli.EXIT_OK
    rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                               if not line.startswith("#")))
    assert float(rows[0]["element_sparsity"]) == 1.0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sparsity": {sc: {"t_elem": 1e307, "t_rowcount": 3}
                                               for sc in SCENARIOS}}))
    out = tmp_path / "out.json"
    assert _infer(bundle, fps, out, "--config", str(config)) == cli.EXIT_OK
    assert all(r["row_sparsity"] == 1.0 for r in json.loads(out.read_text())["results"])


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
    ({"router_window": 10**20}, "router_window"),
    ({"activation": ["x"]}, "activation"),
    ({"scenario": ["x"]}, "scenario"),
    ({"activation": "sigmoid"}, "activation"),
    ({"sparsity": {"S1": {"t_elem": 10**400, "t_rowcount": 41}}}, "sparsity.S1: t_elem"),
    ({"clock_hz": 10**400}, "clock_hz"),
    ({"c_overhead": 10**400}, "c_overhead"),
])
def test_bad_config_file_is_a_config_error(tmp_path, capsys, fields, setting):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    assert cli.main(["show-config", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err


@pytest.mark.parametrize("sparsity, setting", [
    ({"S2": 0.1}, "sparsity.S2 must hold exactly t_elem and t_rowcount"),
    ({"S9": SparsityConfig(0.1, 3)}, "sparsity: unknown scenario 'S9'"),
    ([1], "sparsity must map scenarios to thresholds"),
], ids=["bare-threshold", "unknown-scenario", "not-a-map"])
def test_run_config_checks_its_sparsity_map(sparsity, setting):
    # Built in code, not read from a file, the map is checked all the same.
    with pytest.raises(ConfigError, match=re.escape(setting)):
        RunConfig(sparsity=sparsity)


def test_softmax_float_is_no_activation(inputs, tmp_path, capsys):
    # Softmax is one kind, named softmax-int; the engine picks the arithmetic.
    # Plain and row-normalized sigmoid are retired: attention is softmax or
    # sigmoid with the -ln(n) bias.
    bundle, fps = inputs
    out = tmp_path / "out.json"
    for name in ("softmax-float", "sigmoid", "sigmoid-norm"):
        with pytest.raises(SystemExit) as e:
            _infer(bundle, fps, out, "--activation", name)
        assert e.value.code == cli.EXIT_CONFIG
        assert "choose from 'sigmoid-bias', 'softmax-int')" in capsys.readouterr().err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"activation": name}))
        assert _infer(bundle, fps, out, "--config", str(config)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown activation '{name}'")
        assert "['sigmoid-bias', 'softmax-int']" in err
        assert not out.exists()


def test_bundle_with_activation_code_zero_infers_as_softmax(inputs, tmp_path):
    # Files written while code 0 was a second softmax kind still give its bits.
    bundle, fps = inputs
    data = bytearray(bundle.read_bytes())
    outputs = []
    for code in (0, 1):
        data[7] = code
        path = tmp_path / f"code{code}.axlw"
        path.write_bytes(bytes(data))
        for engine in ("int", "float"):
            out = tmp_path / f"code{code}-{engine}.json"
            assert _infer(path, fps, out, "--engine", engine) == cli.EXIT_OK
            outputs.append(json.loads(out.read_text())["results"])
    assert outputs[:2] == outputs[2:]


def test_retired_int16_bundle_is_a_contract_violation(inputs, tmp_path, capsys):
    # Header byte 6 held 1 for int16 Q8.8 files; bundles now hold float weights.
    bundle, fps = inputs
    data = bytearray(bundle.read_bytes())
    data[6] = 1
    path = tmp_path / "int16.axlw"
    path.write_bytes(bytes(data))
    out = tmp_path / "out.json"
    assert _infer(path, fps, out) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err.startswith(
        f"contract violation: {path}: unsupported bundle dtype code 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "sweep", "ablate"])
@pytest.mark.parametrize("missing", ["--bundle", "--fingerprints"])
def test_a_command_without_its_inputs_is_a_config_error(inputs, tmp_path, capsys, command, missing):
    bundle, fps = inputs
    given = {"--bundle": str(bundle), "--fingerprints": str(fps)}
    del given[missing]
    out = tmp_path / "out"
    assert cli.main([command, *given.popitem(), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: this command requires --bundle and --fingerprints\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "sweep", "ablate"])
def test_bundle_and_fingerprint_geometry_must_agree(inputs, toy_bundle, tmp_path, capsys,
                                                    monkeypatch, command):
    _, fps = inputs
    toy = tmp_path / "toy.axlw"
    save_bundle(toy, toy_bundle)
    out = tmp_path / "out"
    calls = _count_infers(monkeypatch)
    assert cli.main([command, "--bundle", str(toy), "--fingerprints", str(fps),
                     "--out", str(out)]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith(f"contract violation: bundle {toy} takes 8x4 snapshots, "
                          f"but fingerprint file {fps} holds 128x46")
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("content", [
    b"\xff\xfe",                                    # not UTF-8
    b'{"layer_overhead": 1' + b"0" * 5000 + b"}",  # past the int-string digit limit
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-past-the-recursion-limit"),
    pytest.param(b"[]", id="not-an-object"),
])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert cli.main(["show-config", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: invalid config file {path}")


@pytest.mark.parametrize("flags", [
    [],
    ["--engine", "float", "--scenario", "S2", "--activation", "softmax-int", "--no-sparsity",
     "--router-window", "5"],
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
    path.write_text(json.dumps({"sparsity": {"S1": {"t_elem": 0.5, "t_rowcount": 3}},
                                "router_window": 5, "activation": "sigmoid-bias"}))
    parser = cli.build_parser()
    cfg = cli._build_config(parser.parse_args(["show-config", "--config", str(path)]))
    assert (cfg.sparsity, cfg.router_window, cfg.activation) == \
        ({"S1": SparsityConfig(0.5, 3)}, 5, "sigmoid-bias")
    cfg = cli._build_config(parser.parse_args([
        "show-config", "--config", str(path), "--no-sparsity", "--router-window", "3",
        "--activation", "softmax-int"]))
    assert (cfg.sparsity, cfg.router_window, cfg.activation) == ({}, 3, "softmax-int")


def test_no_sparsity_is_an_empty_threshold_map(inputs, tmp_path, capsys):
    bundle, fps = inputs
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sparsity": {}}))
    runs = {}
    for name, flags in (("file", ("--config", str(config))), ("flag", ("--no-sparsity",))):
        assert cli.main(["show-config", *flags]) == cli.EXIT_OK
        assert '"sparsity": {}' in capsys.readouterr().out
        runs[name] = tmp_path / f"{name}.json"
        assert _infer(bundle, fps, runs[name], *flags) == cli.EXIT_OK
    assert runs["file"].read_bytes() == runs["flag"].read_bytes()
    assert all(r["row_sparsity"] == 0.0 for r in json.loads(runs["flag"].read_text())["results"])


def _strict_json(text):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@given(seed=st.integers(0, 2**16), scale=st.sampled_from([0.25, 1.0, 8.0]),
       heads=st.sampled_from([1, 2, 23, 46]), d_ff=st.sampled_from([64, 512, 640]),
       d_h=st.sampled_from([64, 512, 640]), activation=st.sampled_from(list(ActivationKind)),
       engine=st.sampled_from(["int", "float"]))
@settings(max_examples=4, deadline=None)
def test_cli_geometry_bundles_run_through_every_command(inputs, tmp_path_factory, seed, scale,
                                                        heads, d_ff, d_h, activation, engine):
    # Saved 128x46 bundles of any head count and width, with weights that
    # saturate: every command exits 0 with strict JSON (and sweep's CSV of
    # finite numbers), or 4 with no output file; never a traceback.
    _, fps = inputs
    root = tmp_path_factory.mktemp("geometry")
    bundle = root / "bundle.axlw"
    save_bundle(bundle, random_bundle(seed=seed, scale=scale, heads=heads, d_ff=d_ff, d_h=d_h,
                                      activation=activation))
    files = ["--bundle", str(bundle), "--fingerprints", str(fps)]
    commands = {
        "infer": ["infer", *files, "--engine", engine],
        "sweep": ["sweep", *files, "--engine", engine],
        "ablate": ["ablate", *files],
        "perf": ["perf", "--bundle", str(bundle)],
    }
    for name, argv in commands.items():
        out = root / f"{name}.out"
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main([*argv, "--out", str(out)])
        err = stderr.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT), (name, err)
        assert "Traceback" not in err
        if code == cli.EXIT_CONTRACT:
            assert err.startswith("contract violation") and not out.exists()
        elif name == "sweep":
            config, *lines = out.read_text().splitlines()
            _strict_json(config.removeprefix("# config: "))
            rows = list(csv.DictReader(lines))
            assert len(rows) == 35  # the default 5x7 grid
            assert all(math.isfinite(float(v)) for row in rows for v in row.values())
        else:
            _strict_json(out.read_text())


@pytest.fixture(scope="module")
def caps(tmp_path_factory):
    """The snapshots of ``generate --scenario S2 --count 4 --seed 1``."""
    path = tmp_path_factory.mktemp("caps") / "caps.bdfp"
    channel.write_fingerprints(
        path, channel.generate_fingerprints(channel.default_profile("S2", seed=1), 4))
    return path


def test_a_bundle_that_saturates_its_scores_runs_under_both_activations(caps, tmp_path):
    """An int run of a bundle with weights up to 8 saturates its scaled attention scores.

    Under both activations ``infer`` exits 0 with strict JSON, so both scaled
    score tables run.  A softmax ``sweep`` writes its config line, the header
    and the default grid's 35 rows, so the sweep's per-snapshot reuse runs
    over saturated scores too.
    """
    bundle, out = tmp_path / "scale8.axlw", tmp_path / "out"
    save_bundle(bundle, random_bundle(seed=7, scale=8))
    for activation in ("sigmoid-bias", "softmax-int"):
        assert _infer(bundle, caps, out, "--engine", "int", "--activation", activation) == cli.EXIT_OK
        _strict_json(out.read_text())
    assert cli.main(["sweep", "--bundle", str(bundle), "--fingerprints", str(caps), "--engine", "int",
                     "--activation", "softmax-int", "--out", str(out)]) == cli.EXIT_OK
    assert len(out.read_text().splitlines()) == 37


@pytest.mark.parametrize("command", [
    ["infer", "--engine", "int", "--no-sparsity"], ["sweep", "--engine", "int"],
    ["ablate", "--no-sparsity"],
], ids=lambda command: " ".join(command))
def test_an_accumulator_overflow_exits_4_under_every_command(caps, tmp_path, capsys, command):
    """A run whose first head accumulator lands one past ``ACC_MAX`` exits 4 and writes nothing.

    Only products of 512 terms or more are headroom-checked, so the coordinate
    head's 1536-term layer is the one checked product.  A run that lands on
    ``ACC_MAX`` itself exits 0 with its output.
    """
    for acc, code in ((ACC_MAX + 1, cli.EXIT_CONTRACT), (ACC_MAX, cli.EXIT_OK)):
        bundle, out = tmp_path / f"edge{acc}.axlw", tmp_path / f"out{acc}"
        save_bundle(bundle, oracles.fcnn_edge_bundle(acc))
        assert cli.main([*command, "--scenario", "S1", "--bundle", str(bundle),
                         "--fingerprints", str(caps), "--out", str(out)]) == code
        assert out.exists() == (code == cli.EXIT_OK)
    err = capsys.readouterr().err
    assert err.startswith("contract violation: accumulator") and err.count("\n") == 1


def test_perf_without_a_bundle_prices_the_seed_7_bundle(inputs, tmp_path):
    """``perf`` without a bundle prices the seed-7 bundle's geometry and activation.

    So its reports equal ``perf --bundle``'s, and every report echoes the
    cycle model's calibration constants.
    """
    bundle, _ = inputs
    reports = []
    for flags in ([], ["--bundle", str(bundle)]):
        assert cli.main(["perf", *flags, "--out", str(tmp_path / "perf.json")]) == cli.EXIT_OK
        reports.append(json.loads((tmp_path / "perf.json").read_text())["reports"])
    assert reports[0] == reports[1]
    assert [r["calibration"] for r in reports[0]] == \
        [{"c_overhead": 1.0, "layer_overhead": 25000}] * len(reports[0])


def test_ablate_deviations_of_huge_finite_coordinates_are_json_numbers(caps, tmp_path):
    """Weights of 1e30 on S2 snapshots run as S1 give huge but finite coordinates.

    Their deviations must still be JSON numbers in ablate's artifact.
    """
    bundle, out = tmp_path / "big.axlw", tmp_path / "ablate.json"
    save_bundle(bundle, random_bundle(seed=7, scale=1e30))
    assert cli.main(["ablate", "--bundle", str(bundle), "--fingerprints", str(caps),
                     "--scenario", "S1", "--out", str(out)]) == cli.EXIT_OK
    _strict_json(out.read_text())
