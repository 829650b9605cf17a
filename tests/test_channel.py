import hashlib
import re
import struct
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beamloc import channel
from beamloc.config import ConfigError
from beamloc.sparsity import SparsityConfig, build_row_mask, sparsity_stats, threshold_elements
from oracles import generate_channel_loop, naive_idft_row


def test_profile_validation():
    # A profile is a scenario and a seed; the scenario fixes every generator number.
    assert [f.name for f in fields(channel.ScenarioProfile)] == ["scenario", "seed"]
    with pytest.raises(ConfigError, match="unknown scenario 'S9'"):
        channel.ScenarioProfile("S9")
    with pytest.raises(ConfigError, match="seed"):
        channel.ScenarioProfile("S1", seed=-1)
    with pytest.raises(ConfigError, match="unknown scenario 'S9'"):
        channel.default_profile("S9")


def test_generation_deterministic():
    p = channel.default_profile("S2", seed=9)
    a = channel.generate_channel(p)
    b = channel.generate_channel(p)
    assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(sorted(channel._PROFILES)),
    seed=st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**64)),
)
def test_generate_channel_matches_loop_bytes(scenario, seed):
    p = channel.ScenarioProfile(scenario, seed)
    assert channel.generate_channel(p).tobytes() == generate_channel_loop(p).tobytes()


def test_profiles_are_inside_the_decoders_domain():
    # There numpy's choice(spread, m, replace=False) is Floyd's algorithm and
    # every Floyd step draws, which is what channel._beam_draws decodes.
    for n_beams, m, _, spread, _ in channel._PROFILES.values():
        assert 1 <= n_beams <= channel.N_BEAMS
        assert 1 <= m < spread <= 10000


def _draws_and_state(draws, n_beams, m, spread, seed, prior):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(prior):  # an odd count leaves a buffered 32-bit half
        rng.integers(0, 7, dtype=np.uint32)
    return draws(rng, n_beams, m, spread), rng.bit_generator.state


def _assert_decoder_matches_loop(n_beams, m, spread, seed, prior):
    (got, got_state), (want, want_state) = (
        _draws_and_state(f, n_beams, m, spread, seed, prior)
        for f in (channel._beam_draws, channel._beam_draws_loop))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert got_state == want_state


@st.composite
def _draw_shapes(draw):
    # Near 2**31 Lemire rejects about half the draws, so the rewind runs too.
    spread = draw(st.one_of(st.integers(2, 64), st.integers(2**31 + 1, 2**31 + 64)))
    return draw(st.integers(1, 64)), draw(st.integers(1, min(spread - 1, 64))), spread


@settings(max_examples=200, deadline=None)
@given(shape=_draw_shapes(), seed=st.integers(0, 2**64), prior=st.integers(0, 2))
def test_beam_draws_decoder_matches_numpys_calls(shape, seed, prior):
    _assert_decoder_matches_loop(*shape, seed, prior)


@pytest.mark.parametrize("prior", [0, 1])
def test_beam_draws_decoder_rewinds_on_a_lemire_rejection(monkeypatch, prior):
    loop_calls = []
    loop = channel._beam_draws_loop
    monkeypatch.setattr(channel, "_beam_draws_loop",
                        lambda *args: loop_calls.append(args[1:]) or loop(*args))
    _assert_decoder_matches_loop(4, 3, 2**31 + 1, 0, prior)
    # One call from the rejected decode and one from the reference.
    assert loop_calls == [(4, 3, 2**31 + 1)] * 2


# SHA-256 of the fingerprint file of three snapshots from seed 4242.  The
# loop oracle reads the generator's own profile table, so these pins are
# what catches a changed table number, window or transform.
FINGERPRINT_SHA256 = {
    "S1": "9d466607c4f746ea50469c9b10273bfb0753ce7dfa171e3a5c69276acd3964b7",
    "S2": "e6aa8bd25a8090d8c7e98a45f4e7625f3cba3e5adc518d5aac0d9abdb3c6200a",
    "S3": "1b81764e6b1cca4581f188aa5f32781cbc60c0cf06e804802f7afe8522061848",
}


@pytest.mark.parametrize("scenario", sorted(FINGERPRINT_SHA256))
def test_generated_fingerprint_bytes_are_pinned(tmp_path, scenario):
    path = tmp_path / "caps.bdfp"
    channel.write_fingerprints(path, channel.generate_fingerprints(
        channel.default_profile(scenario, seed=4242), 3))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FINGERPRINT_SHA256[scenario]


@pytest.mark.parametrize("scenario", sorted(channel._PROFILES))
def test_fingerprint_file_matches_loop_bytes(tmp_path, scenario):
    profile = channel.default_profile(scenario, seed=4242)
    channel.write_fingerprints(tmp_path / "fast.bdfp", channel.generate_fingerprints(profile, 3))
    loop = [channel.preprocess(generate_channel_loop(replace(profile, seed=profile.seed + i)))
            for i in range(3)]
    channel.write_fingerprints(tmp_path / "loop.bdfp", np.array(loop))
    assert (tmp_path / "fast.bdfp").read_bytes() == (tmp_path / "loop.bdfp").read_bytes()


# channel.generate_channel builds its diffuse floor and its tap phases on the
# real and imaginary parts, where the loop oracle writes complex expressions.
# These are the numpy facts that make the two give the same bytes.
def _finite(shape):
    return arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))


_SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 64))


def _assert_bits_where_nonzero(got, want):
    # Where a product is zero, the complex kernel may give the other signed zero.
    nonzero = want != 0
    assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))
    assert (got[~nonzero] == 0).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_SHAPES)
def test_real_times_complex_is_the_real_products_on_the_parts(data, shape):
    a = data.draw(_finite((shape[0], 1)))
    x, y = data.draw(_finite(shape)), data.draw(_finite(shape))
    with np.errstate(over="ignore"):  # an overflowing product is inf both ways
        z, ax, ay = a * (x + 1j * y), a * x, a * y
    _assert_bits_where_nonzero(z.real, ax)
    _assert_bits_where_nonzero(z.imag, ay)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_SHAPES)
def test_complex_divide_by_sqrt2_multiplies_the_parts_by_its_rounded_reciprocal(data, shape):
    x, y = data.draw(_finite(shape)), data.draw(_finite(shape))
    z = (x + 1j * y) / np.sqrt(2.0)
    _assert_bits_where_nonzero(z.real, x * channel._INV_SQRT2)
    _assert_bits_where_nonzero(z.imag, y * channel._INV_SQRT2)


def test_real_divide_by_sqrt2_is_not_the_reciprocal_multiply():
    # The trap the floor avoids: a real divide rounds once, the multiply by
    # the rounded reciprocal twice, and 7.0 is one value where they differ.
    x = np.array([7.0])
    assert (x / np.sqrt(2.0))[0] == 4.949747468305833
    assert (x * channel._INV_SQRT2)[0] == 4.949747468305832
    assert ((x + 1j * x) / np.sqrt(2.0)).real[0] == 4.949747468305832


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_SHAPES)
def test_exp_of_1j_times_t_is_exp_of_t_in_a_zeroed_imaginary_part(data, shape):
    # 1j * -0.0 has imaginary part +0.0, so adding 0.0 turns -0.0 into +0.0.
    # The tap phase is a nonnegative phase minus a nonnegative delay term, never -0.0.
    t = data.draw(_finite(shape)) + 0.0
    terms = np.zeros(shape, dtype=np.complex128)
    terms.imag = t
    np.exp(terms, out=terms)
    assert terms.tobytes() == np.exp(1j * t).tobytes()


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
    with pytest.raises(ValueError, match="expected 46 subcarriers, got 45"):
        channel.hann_window(np.ones((2, 45)))


def test_hann_zero_matrix():
    z = np.zeros((128, 46), dtype=complex)
    assert np.all(channel.hann_window(z) == 0)


def test_transform_constant_row():
    h = np.full((1, 46), 3.0 - 4.0j)
    g = channel.beam_delay_transform(h)
    assert g[0, 0] == pytest.approx(5.0)
    assert np.max(np.abs(g[0, 1:])) < 1e-12
    with pytest.raises(ValueError, match="expected 46 subcarriers, got 47"):
        channel.beam_delay_transform(np.ones((1, 47)))


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
    for shape in ((128, 46), (5, 128, 45)):
        with pytest.raises(ValueError, match=re.escape(f"expected (count, 128, 46), got {shape}")):
            channel.write_fingerprints(tmp_path / "bad.bdfp", np.zeros(shape))
    assert not (tmp_path / "bad.bdfp").exists()


SNAPSHOT_F32 = channel.N_BEAMS * channel.N_SUBCARRIERS * 4  # one stored snapshot, in bytes


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_holds_one_float32_batch_and_one_float64_snapshot():
    profile, n = channel.default_profile("S2", seed=5), 16
    channel.generate_fingerprints(profile, 1)  # the first call's one-time allocations
    _, working_set = _traced_peak(lambda: channel.preprocess(channel.generate_channel(profile)))
    fps, peak = _traced_peak(lambda: channel.generate_fingerprints(profile, n))
    assert fps.dtype == np.float32 and fps.nbytes == n * SNAPSHOT_F32
    assert peak < fps.nbytes + working_set + SNAPSHOT_F32 / 2


def test_write_and_read_copy_no_batch(tmp_path):
    # Writing a float32 batch allocates less than one snapshot; reading
    # holds the float32 payload and less than one snapshot beside it.
    fps = np.abs(np.random.default_rng(5).standard_normal((16, 128, 46))).astype(np.float32)
    path = tmp_path / "caps.bdfp"
    _, peak = _traced_peak(lambda: channel.write_fingerprints(path, fps))
    assert peak < SNAPSHOT_F32
    back, peak = _traced_peak(lambda: channel.read_fingerprints(path))
    assert back.dtype == np.float32 and back.flags.writeable and np.array_equal(back, fps)
    assert peak < fps.nbytes + SNAPSHOT_F32


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
    assert fps.dtype == np.float32 and fps.view(np.uint32).flat[100] == bits  # as stored


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


def test_scenario_element_sparsity_ordering():
    # LoS-like profiles zero out more elements than mixed ones at the same
    # threshold, by construction of the diffuse floors.
    cfg = SparsityConfig(t_elem=0.02, t_rowcount=28)
    s1 = channel.generate_fingerprints(channel.default_profile("S1", seed=3), 6)
    s3 = channel.generate_fingerprints(channel.default_profile("S3", seed=3), 6)
    stats = []
    for snaps in (s1, s3):
        masks = [build_row_mask(threshold_elements(s, cfg.t_elem), cfg) for s in snaps]
        stats.append(sparsity_stats(sum(int(m.zero_counts.sum()) for m in masks),
                                    [m.skip_fraction for m in masks], 128, 46))
    st1, st3 = stats
    assert st1["element_sparsity"] > st3["element_sparsity"]
