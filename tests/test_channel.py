import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamloc import channel
from beamloc.config import ConfigError
from beamloc.sparsity import SparsityConfig, build_row_mask, sparsity_stats, threshold_elements
from oracles import generate_channel_loop, naive_idft_row


def test_profile_validation():
    with pytest.raises(ValueError):
        channel.ScenarioProfile("S9", 1, 1, 0.0)
    with pytest.raises(ValueError):
        channel.ScenarioProfile("S1", 0, 1, 0.0)
    with pytest.raises(ValueError):
        channel.ScenarioProfile("S1", 1, 47, 0.0)
    with pytest.raises(ValueError):
        channel.ScenarioProfile("S1", 1, 1, -0.1)
    for floor in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="diffuse_floor"):
            channel.ScenarioProfile("S1", 1, 1, floor)
    with pytest.raises(ConfigError, match="seed"):
        channel.ScenarioProfile("S1", 1, 1, 0.0, seed=-1)
    with pytest.raises(ConfigError, match="unknown scenario 'S9'"):
        channel.default_profile("S9")


def test_generation_deterministic():
    p = channel.default_profile("S2", seed=9)
    a = channel.generate_channel(p)
    b = channel.generate_channel(p)
    assert np.array_equal(a, b)


def test_single_beam_no_floor_gives_one_row():
    p = channel.default_profile("S1", seed=5, dominant_beams=1, diffuse_floor=0.0)
    fp = channel.preprocess(channel.generate_channel(p))
    nonzero_rows = np.flatnonzero(fp.sum(axis=1) > 0)
    assert nonzero_rows.size == 1


def test_dominant_rows_carry_power():
    p = channel.default_profile("S1", seed=5, dominant_beams=4, diffuse_floor=1e-4)
    fp = channel.preprocess(channel.generate_channel(p))
    row_power = np.square(fp).sum(axis=1)
    top4 = np.sort(row_power)[-4:].sum()
    assert top4 / row_power.sum() >= 0.90


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(sorted(channel.PROFILE_DEFAULTS)),
    seed=st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**64)),
    dominant_beams=st.integers(1, channel.N_BEAMS),
    dominant_delays=st.integers(1, channel.N_SUBCARRIERS),
    diffuse_floor=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
)
def test_generate_channel_matches_loop_bytes(scenario, seed, dominant_beams,
                                             dominant_delays, diffuse_floor):
    p = channel.ScenarioProfile(scenario, dominant_beams, dominant_delays, diffuse_floor, seed)
    assert channel.generate_channel(p).tobytes() == generate_channel_loop(p).tobytes()


@pytest.mark.parametrize("scenario", sorted(channel.PROFILE_DEFAULTS))
def test_fingerprint_file_matches_loop_bytes(tmp_path, scenario):
    profile = channel.default_profile(scenario, seed=4242)
    channel.write_fingerprints(tmp_path / "fast.bdfp", channel.generate_fingerprints(profile, 3))
    loop = [channel.preprocess(generate_channel_loop(replace(profile, seed=profile.seed + i)))
            for i in range(3)]
    channel.write_fingerprints(tmp_path / "loop.bdfp", np.array(loop))
    assert (tmp_path / "fast.bdfp").read_bytes() == (tmp_path / "loop.bdfp").read_bytes()


def test_hann_window_shape():
    ones = np.ones((2, 46))
    w = channel.hann_window(ones)
    # endpoints of the symmetric window are exactly zero
    assert w[0, 0] == 0.0 and w[0, 45] == 0.0
    # midpoint pair are the two largest values and equal by symmetry
    assert w[0, 22] == pytest.approx(w[0, 23])
    assert np.argmax(w[0]) in (22, 23)
    assert np.allclose(w[0], w[0, ::-1])
    # closed form check
    j = np.arange(46)
    assert np.allclose(w[0], 0.5 * (1 - np.cos(2 * np.pi * j / 45)))


def test_hann_zero_matrix():
    z = np.zeros((128, 46), dtype=complex)
    assert np.all(channel.hann_window(z) == 0)


def test_transform_constant_row():
    h = np.full((1, 46), 3.0 - 4.0j)
    g = channel.beam_delay_transform(h)
    assert g[0, 0] == pytest.approx(5.0)
    assert np.max(np.abs(g[0, 1:])) < 1e-12


def test_transform_single_exponential():
    k = np.arange(46)
    h = np.exp(-2j * np.pi * k * 7 / 46).reshape(1, -1)
    g = channel.beam_delay_transform(h)
    # delay bin 46-7 holds the unit tone under the +i convention
    hot = np.argmax(g[0])
    assert g[0, hot] == pytest.approx(1.0)
    assert np.sum(g[0] > 1e-9) == 1


def test_transform_matches_naive_dft(rng):
    h = rng.standard_normal((3, 46)) + 1j * rng.standard_normal((3, 46))
    g = channel.beam_delay_transform(h)
    for i in range(3):
        ref = np.abs(np.array(naive_idft_row(h[i].tolist())))
        assert np.max(np.abs(g[i] - ref)) <= 1e-10


def test_preprocess_zero_and_parseval(rng):
    assert np.all(channel.preprocess(np.zeros((128, 46), dtype=complex)) == 0)
    h = rng.standard_normal((128, 46)) + 1j * rng.standard_normal((128, 46))
    windowed = channel.hann_window(h)
    fp = channel.preprocess(h)
    # Parseval with the 1/N convention: output power = windowed power / 46
    assert np.square(fp).sum() == pytest.approx(np.square(np.abs(windowed)).sum() / 46)


def test_row_permutation_commutes(rng):
    h = rng.standard_normal((128, 46)) + 1j * rng.standard_normal((128, 46))
    perm = rng.permutation(128)
    assert np.allclose(channel.preprocess(h)[perm], channel.preprocess(h[perm]))


def test_fingerprint_file_roundtrip(tmp_path, rng):
    fps = np.abs(rng.standard_normal((5, 128, 46))).astype(np.float32).astype(np.float64)
    path = tmp_path / "caps.bdfp"
    channel.write_fingerprints(path, fps)
    back = channel.read_fingerprints(path)
    assert np.array_equal(back, fps)
    raw = path.read_bytes()
    assert raw[:4] == b"BDFP"
    assert len(raw) == 8 + 5 * 128 * 46 * 4


def test_fingerprint_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="junk.bin: not a fingerprint file"):
        channel.read_fingerprints(path)


@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFF800000])  # NaN, signalling NaN, -inf
def test_fingerprint_file_loads_non_finite_values_without_a_warning(tmp_path, bits):
    # The engines reject them (exit 4); the read itself neither warns nor fails.
    path = tmp_path / "nan.bdfp"
    channel.write_fingerprints(path, np.ones((1, 128, 46)))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8 + 4 * 100, bits)  # beam 2, delay bin 8
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fps = channel.read_fingerprints(path)
    assert np.flatnonzero(~np.isfinite(fps)).tolist() == [100]


def test_empty_fingerprint_file(tmp_path):
    path = tmp_path / "empty.bdfp"
    channel.write_fingerprints(path, np.zeros((0, 128, 46)))
    assert channel.read_fingerprints(path).shape == (0, 128, 46)


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fuzz_read(path, data):
    """read_fingerprints on ``data``: an array, ValueError or OSError, nothing else."""
    path.write_bytes(data)
    try:
        channel.read_fingerprints(path)
    except (ValueError, OSError):
        pass


@FUZZ
@given(data=st.binary(max_size=64), keep_magic=st.booleans())
def test_read_fuzz_arbitrary_bytes(tmp_path, data, keep_magic):
    _fuzz_read(tmp_path / "fuzz.bdfp", (b"BDFP" if keep_magic else b"") + data)


@FUZZ
@given(count=st.integers(0, 2), cut=st.none() | st.floats(0.0, 1.0),
       edits=st.lists(st.tuples(st.integers(0, 11) | st.integers(0, 1 << 16),
                                st.integers(0, 255)), max_size=4))
def test_read_fuzz_damaged_file(tmp_path, count, cut, edits):
    # Small offsets hit the magic, the count and the first values.
    path = tmp_path / "fuzz.bdfp"
    channel.write_fingerprints(path, np.ones((count, 128, 46)))
    data = bytearray(path.read_bytes())
    for where, value in edits:
        data[where % len(data)] = value
    if cut is not None:
        data = data[:round(cut * len(data))]
    _fuzz_read(path, bytes(data))


def test_csv_export(tmp_path):
    fps = np.ones((1, 128, 46))
    out = tmp_path / "caps.csv"
    channel.export_csv(out, fps)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("snapshot,beam,d0")
    assert len(lines) == 1 + 128


def test_scenario_element_sparsity_ordering():
    # LoS-like profiles zero out more elements than mixed ones at the same
    # threshold, by construction of the diffuse floors.
    cfg = SparsityConfig(t_elem=0.02, t_rowcount=28)
    s1 = channel.generate_fingerprints(channel.default_profile("S1", seed=3), 6)
    s3 = channel.generate_fingerprints(channel.default_profile("S3", seed=3), 6)
    st1, st3 = (
        sparsity_stats([build_row_mask(threshold_elements(s, cfg.t_elem), cfg) for s in snaps], 46)
        for snaps in (s1, s3))
    assert st1["element_sparsity"] > st3["element_sparsity"]
