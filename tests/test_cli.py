import struct

import numpy as np
import pytest

from beamloc import channel, cli
from beamloc.weights import random_bundle, save_bundle


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
    assert _infer(bundle, path, tmp_path / "out.json") == cli.EXIT_CONTRACT
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
