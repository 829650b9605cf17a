"""Synthetic beam-space channels and the fingerprint preprocessing chain.

A snapshot is a 128x46 complex matrix (beam x subcarrier).  Preprocessing
applies a 46-point Hann window across subcarriers, a direct inverse DFT
along the same axis (1/N normalization), and takes the magnitude, giving a
non-negative 128x46 beam-delay fingerprint.

The generator replaces a proprietary measurement set: LoS-like profiles
put energy in a few beams with compact delay support, NLoS-like profiles
spread it wider over beams and delays, and a complex-Gaussian diffuse
floor sits under everything.  All randomness is seeded and reproducible:
:func:`generate_channel` pins the order of its draws.  That order fixes
which PCG64 words are consumed, not how they are read: the per-beam draws
are decoded from one block of raw words (:func:`_beam_draws`, which names
the numpy facts it reads), with the bytes of numpy's own calls.  Likewise
the diffuse floor and the tap phases are written as real products on the
real and imaginary parts, with the bytes of numpy's complex multiply,
divide and ``exp`` (:func:`generate_channel` names those facts).

Fingerprints are float32 from the generator to the engine: the dtype a
fingerprint file stores.  :func:`generate_fingerprints` rounds each
preprocessed snapshot to float32 as it fills the batch, and
:func:`write_fingerprints` writes that batch as it is.  The CLI reads a
file one snapshot at a time, by :func:`iter_fingerprints`, which reads
each snapshot with :func:`read_fingerprints`; the benchmark's setup and the
tests read a file whole with it.  Either way the header is checked first
and the payload comes as it is, a signalling NaN included.  Each engine's
``prepare_input`` converts one snapshot to float64 and rejects non-finite
values before it does.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError

N_BEAMS = 128
N_SUBCARRIERS = 46

FINGERPRINT_MAGIC = b"BDFP"

# The reciprocal numpy's complex division by np.sqrt(2.0) multiplies by.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Each scenario's generator numbers: dominant beams, taps per dominant beam,
# diffuse floor, delay spread of the taps (in bins), and the per-beam
# lognormal gain sigma of the floor.  The gain spread is what creates
# nearly-dead beams for the row-skip logic to find.
_PROFILES = {
    "S1": (6, 2, 0.35, 5, 0.9),
    "S2": (40, 8, 1.10, 24, 0.5),
    "S3": (20, 5, 0.50, 12, 0.75),
}


@dataclass(frozen=True)
class ScenarioProfile:
    scenario: str
    seed: int = 0

    def __post_init__(self):
        """An unknown scenario or a negative seed raises ConfigError."""
        if self.scenario not in _PROFILES:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def default_profile(scenario: str, seed: int = 0) -> ScenarioProfile:
    return ScenarioProfile(scenario, seed)


def _beam_draws_loop(rng, n_beams, m, spread):
    """Row gain uniforms (n_beams,), taps (n_beams, m), pair uniforms (n_beams, m, 2): numpy's calls.

    ``rng.random`` draws the doubles u that ``rng.uniform(low, high)`` would.
    :func:`_beam_draws` rewinds to this loop on a Lemire rejection.
    """
    u_gain = np.empty(n_beams)
    taus = np.empty((n_beams, m), dtype=np.int64)
    u = np.empty((n_beams, m, 2))
    for i in range(n_beams):
        u_gain[i] = rng.random()
        taus[i] = rng.choice(spread, size=m, replace=False)
        rng.random(out=u[i])
    return u_gain, taus, u


@functools.cache  # one entry per profile row and buffered-half state
def _draw_plan(n_beams, m, spread, buffered):
    """Where :func:`_beam_draws_loop`'s draws sit in a block of PCG64 words.

    Word 0's high half is the generator's buffered half; words 1.. are the
    raw words in the loop's order.  Per beam: one row gain word, 2m-1
    bounded draws (m Floyd steps, m-1 Fisher-Yates swaps) on 32-bit halves,
    a buffered half first and then low before high, and 2m pair words.
    Also the number of raw words, the buffered flag and ``uinteger`` half
    the loop leaves, and each bounded draw's range and Lemire threshold.
    """
    gain, halves, pairs = [], [], []
    word, held, last = 1, 0 if buffered else None, 0
    for _ in range(n_beams):
        gain.append(word)
        word += 1
        for _ in range(2 * m - 1):
            if held is None:
                halves.append(2 * word)
                held = last = word
                word += 1
            else:
                halves.append(2 * held + 1)
                held = None
        pairs.append(range(word, word + 2 * m))
        word += 2 * m
    bound = np.array([*range(spread - m + 1, spread + 1), *range(m, 1, -1)], dtype=np.uint64)
    return (np.array(gain), np.array(halves).reshape(n_beams, 2 * m - 1),
            np.array(pairs).reshape(n_beams, m, 2), word - 1, int(held is not None),
            2 * last + 1, bound, 2**32 % bound)


def _beam_draws(rng, n_beams, m, spread):
    """:func:`_beam_draws_loop`'s arrays and generator state, decoded from one block of raw words.

    It relies on these facts of numpy's PCG64 ``Generator``, for
    ``1 <= m < spread < 2**32`` with ``spread <= 10000`` or ``m <= spread // 50``:
    ``random()`` is ``(word >> 11) * 2**-53`` of one word and leaves the
    buffered 32-bit half alone; ``choice(spread, m, replace=False)`` is
    Floyd's algorithm, each of whose m steps draws, then a Fisher-Yates
    shuffle of the m picks; each of its indices below ``bound`` is Lemire's
    ``(half * bound) >> 32`` on the next 32-bit half, the buffered one
    first, rejected while the product's low 32 bits are below
    ``2**32 % bound``.  If any decoded index would be rejected, the
    generator is rewound and the loop draws instead.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    gain, halves, pairs, n_words, held, uinteger, bound, threshold = _draw_plan(
        n_beams, m, spread, state["has_uint32"])
    block = np.empty(n_words + 1, dtype="<u8")
    block[0] = state["uinteger"] << 32
    block[1:] = bit_generator.random_raw(n_words)
    product = block.view("<u4")[halves].astype(np.uint64) * bound
    if ((product & 0xFFFFFFFF) < threshold).any():
        bit_generator.state = state
        return _beam_draws_loop(rng, n_beams, m, spread)
    draws = (product >> 32).astype(np.int64)
    # Floyd: step c draws below j + 1 = spread - m + c + 1 and picks j if the draw is already taken.
    taus = np.empty((n_beams, m), dtype=np.int64)
    for c in range(m):
        taken = (taus[:, :c] == draws[:, c, None]).any(axis=1)
        taus[:, c] = np.where(taken, spread - m + c, draws[:, c])
    # Fisher-Yates: column i, from m - 1 down to 1, swaps with the draw below i + 1.
    rows = np.arange(n_beams)
    for c, i in enumerate(range(m - 1, 0, -1), start=m):
        picked = taus[rows, draws[:, c]]
        taus[rows, draws[:, c]] = taus[:, i]
        taus[:, i] = picked
    u = (block >> 11) * 2.0**-53
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = held, int(block.view("<u4")[uinteger])
    bit_generator.state = state
    return u[gain], taus, u[pairs]


def generate_channel(profile: ScenarioProfile) -> np.ndarray:
    """One 128x46 complex frequency-domain snapshot, deterministic per seed.

    The draws from ``np.random.Generator(np.random.PCG64(profile.seed))``,
    whose bytes are ``np.random.default_rng(profile.seed)``'s, come in a
    fixed order: the 128 lognormal beam gains, the real and then the
    imaginary 128x46 standard normals of the diffuse floor, and the dominant
    beams (``choice`` without replacement).  Then, for each dominant beam in
    the order drawn: its row gain, uniform in [0.6, 1.4); its m distinct
    taps below the delay spread (one ``choice`` without replacement); and m
    (amplitude, phase) pairs, amplitude first, uniform in [0.4, 1.0) and
    [0, 2*pi).  The per-beam draws are decoded from one block of the
    generator's raw words (:func:`_beam_draws`), which leaves the words,
    values and generator state of those calls; a Lemire rejection (about
    7e-7 per S2 snapshot) rewinds and makes the calls themselves.  Each
    tap's term is added to its row one at a time in the order drawn, so the
    bytes of the result are fixed by the seed.  The counts, floor, spread
    and gain sigma are the scenario's row of ``_PROFILES``.

    The floor and the tap phases are built on the real and imaginary parts,
    with the bytes of ``floor * gain * (re + 1j * im) / np.sqrt(2.0)`` and
    ``np.exp(1j * t)``.  A real times a complex multiplies each part and adds
    a zero product, which leaves a nonzero part as it is.  numpy's complex
    division by ``np.sqrt(2.0)`` (Smith's method) multiplies each part by
    the rounded reciprocal, so the floor multiplies by ``_INV_SQRT2``: a real
    divide rounds once, and its bits differ in about one draw in eight.  And
    ``exp(0 + it)`` equals ``exp(-0 + it)``, so the phases go into the
    imaginary part of a zeroed array.
    """
    n_beams, m, floor, spread, sigma = _PROFILES[profile.scenario]
    rng = np.random.Generator(np.random.PCG64(profile.seed))
    floor_gain = floor * rng.lognormal(0.0, sigma, size=(N_BEAMS, 1))
    normals = rng.standard_normal((2, N_BEAMS, N_SUBCARRIERS))  # the real part's, then the imaginary's
    h = np.empty((N_BEAMS, N_SUBCARRIERS), dtype=np.complex128)
    for part, x in zip((h.real, h.imag), normals):
        np.multiply(x, floor_gain, out=part)
        part *= _INV_SQRT2

    beams = rng.choice(N_BEAMS, size=n_beams, replace=False)
    u_gain, taus, u = _beam_draws(rng, beams.size, m, spread)
    # low + (high - low) * u is what ``uniform`` computes (for the phase, low = 0 adds nothing).
    amp = (0.6 + (1.4 - 0.6) * u_gain)[:, None] * (0.4 + (1.0 - 0.4) * u[..., 0])
    phase = 2.0 * np.pi * u[..., 1:]
    k = np.arange(N_SUBCARRIERS)
    terms = np.zeros((beams.size, m, N_SUBCARRIERS), dtype=np.complex128)
    np.subtract(phase, 2.0 * np.pi * k * taus[..., None] / N_SUBCARRIERS, out=terms.imag)
    np.exp(terms, out=terms)
    terms *= amp[..., None]
    # Tap by tap, not terms.sum(axis=1): pairwise summation changes the bits.
    # The beams are distinct, so the rows are gathered and scattered once.
    rows = h[beams]
    for j in range(m):
        rows += terms[:, j]
    h[beams] = rows
    return h


# Symmetric Hann taper; the denominator is N-1, so both endpoint weights
# are exactly 0.
_HANN = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(N_SUBCARRIERS) / (N_SUBCARRIERS - 1)))


def hann_window(h: np.ndarray) -> np.ndarray:
    """Scale each subcarrier column by the symmetric Hann taper."""
    if h.shape[-1] != N_SUBCARRIERS:
        raise ValueError(f"expected {N_SUBCARRIERS} subcarriers, got {h.shape[-1]}")
    return h * _HANN


# Direct O(N^2) inverse DFT matrix; N = 46 is small enough that this is
# both trivial to verify and fast.
_IDFT = np.exp(2j * np.pi * np.outer(np.arange(N_SUBCARRIERS), np.arange(N_SUBCARRIERS))
               / N_SUBCARRIERS) / N_SUBCARRIERS


def beam_delay_transform(h: np.ndarray) -> np.ndarray:
    """Per-row inverse DFT (1/N normalization) followed by magnitude."""
    if h.shape[-1] != N_SUBCARRIERS:
        raise ValueError(f"expected {N_SUBCARRIERS} subcarriers, got {h.shape[-1]}")
    return np.abs(h @ _IDFT)


def preprocess(h: np.ndarray) -> np.ndarray:
    return beam_delay_transform(hann_window(h))


def generate_fingerprints(profile: ScenarioProfile, count: int) -> np.ndarray:
    """Float32 batch of preprocessed snapshots; snapshot i uses seed profile.seed + i.

    Each snapshot is preprocessed in float64 and rounded to float32, as a
    fingerprint file stores it, when it enters the batch.
    """
    out = np.empty((count, N_BEAMS, N_SUBCARRIERS), dtype=np.float32)
    for i in range(count):
        out[i] = preprocess(generate_channel(replace(profile, seed=profile.seed + i)))
    return out


# --------------------------------------------------------------------------
# Fingerprint container file: magic "BDFP", u32 count, then per snapshot
# 128x46 float32 values, row-major, little-endian.


def write_fingerprints(path, fingerprints: np.ndarray) -> None:
    """Write a batch; a little-endian float32 batch is written with no copy."""
    fps = np.asarray(fingerprints, dtype="<f4")
    if fps.ndim != 3 or fps.shape[1:] != (N_BEAMS, N_SUBCARRIERS):
        raise ValueError(f"expected (count, {N_BEAMS}, {N_SUBCARRIERS}), got {fps.shape}")
    with open(path, "wb") as f:
        f.write(FINGERPRINT_MAGIC)
        f.write(struct.pack("<I", fps.shape[0]))
        fps.tofile(f)


def _snapshot_count(f, path) -> int:
    """The header's snapshot count of an open fingerprint file, checked against the file's size.

    The wrong magic raises ValueError and a size mismatch (a truncated file,
    or a forged count) OSError; ``f`` is left at the first snapshot.
    """
    header = f.read(8)
    if header[:4] != FINGERPRINT_MAGIC:
        raise ValueError(f"{path}: not a fingerprint file (magic {header[:4]!r})")
    count = int.from_bytes(header[4:], "little")  # a short header fails the size check
    size, expected = os.fstat(f.fileno()).st_size, 8 + count * N_BEAMS * N_SUBCARRIERS * 4
    if size != expected:
        raise OSError(f"{path}: header promises {count} snapshot(s), {expected} bytes, not {size}")
    return count


def read_fingerprints(path, f=None, count: int | None = None) -> np.ndarray:
    """The file at ``path`` whole, header checked first, or with ``f`` open at a snapshot, its next ``count``.

    One writable (count, 128, 46) float32 array, read straight in: no bytes
    object or float64 copy beside it, and a signalling NaN as it is.
    """
    if f is None:
        with open(path, "rb") as f:
            return read_fingerprints(path, f, _snapshot_count(f, path))
    fps = np.empty((count, N_BEAMS, N_SUBCARRIERS), dtype="<f4")
    if f.readinto(fps) != fps.nbytes:  # the file shrank after its size was checked
        raise OSError(f"{path}: cut short before {count} more snapshot(s)")
    return fps


def iter_fingerprints(f, path):
    """Check the header of ``f``, open at its start, now; return an iterator over its snapshots.

    Each is read by :func:`read_fingerprints` when asked for, so ``f`` must
    stay open until the iterator is exhausted.
    """
    count = _snapshot_count(f, path)

    def snapshots():
        for _ in range(count):
            yield read_fingerprints(path, f, 1)[0]

    return snapshots()
