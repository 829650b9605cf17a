"""Synthetic beam-space channels and the fingerprint preprocessing chain.

A snapshot is a 128x46 complex matrix (beam x subcarrier).  Preprocessing
applies a 46-point Hann window across subcarriers, a direct inverse DFT
along the same axis (1/N normalization), and takes the magnitude, giving a
non-negative 128x46 beam-delay fingerprint.

The generator replaces a proprietary measurement set: LoS-like profiles
put energy in a few beams with compact delay support, NLoS-like profiles
spread it wider over beams and delays, and a complex-Gaussian diffuse
floor sits under everything.  All randomness is seeded and reproducible.

Fingerprints are float32 from the generator to the engine: the dtype a
fingerprint file stores.  :func:`generate_fingerprints` rounds each
preprocessed snapshot to float32 as it fills the batch, and
:func:`write_fingerprints` writes that batch as it is.  A file is read
either whole, by :func:`read_fingerprints`, or one snapshot at a time, by
:func:`iter_fingerprints`; both check its header first and give the
payload as it is, a signalling NaN included.  Each engine's
``prepare_input`` converts one snapshot to float64 and rejects non-finite
values before it does.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError

N_BEAMS = 128
N_SUBCARRIERS = 46

FINGERPRINT_MAGIC = b"BDFP"

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


def generate_channel(profile: ScenarioProfile) -> np.ndarray:
    """One 128x46 complex frequency-domain snapshot, deterministic per seed.

    The draws from ``np.random.default_rng(profile.seed)`` come in a fixed
    order: the 128 lognormal beam gains, the real and then the imaginary
    128x46 standard normals of the diffuse floor, and the dominant beams
    (``choice`` without replacement).  Then, for each dominant beam in the
    order drawn: its row gain, uniform in [0.6, 1.4); its m distinct taps
    below the delay spread (one ``choice`` without replacement); and m
    (amplitude, phase) pairs, amplitude first, uniform in [0.4, 1.0) and
    [0, 2*pi).  Each tap's term is added to its row one at a time in the
    order drawn, so the bytes of the result are fixed by the seed.  The
    counts, floor, spread and gain sigma are the scenario's row of
    ``_PROFILES``.
    """
    n_beams, m, floor, spread, sigma = _PROFILES[profile.scenario]
    rng = np.random.default_rng(profile.seed)
    beam_gain = rng.lognormal(0.0, sigma, size=(N_BEAMS, 1))
    h = floor * beam_gain * (
        rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
        + 1j * rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
    ) / np.sqrt(2.0)

    beams = rng.choice(N_BEAMS, size=n_beams, replace=False)
    # The bounded-integer draws of ``choice`` sit between the uniform ones,
    # so only the draws loop over beams.  ``rng.random`` draws the doubles u
    # that ``rng.uniform(low, high)`` would, and low + (high - low) * u is
    # what ``uniform`` computes from them (for the phase, low = 0 adds nothing).
    u_gain = np.empty(beams.size)
    taus = np.empty((beams.size, m, 1), dtype=np.int64)
    u = np.empty((beams.size, m, 2))
    for i in range(beams.size):
        u_gain[i] = rng.random()
        taus[i, :, 0] = rng.choice(spread, size=m, replace=False)
        rng.random(out=u[i])
    amp = (0.6 + (1.4 - 0.6) * u_gain)[:, None] * (0.4 + (1.0 - 0.4) * u[..., 0])
    phase = 2.0 * np.pi * u[..., 1:]
    k = np.arange(N_SUBCARRIERS)
    terms = 1j * (phase - 2.0 * np.pi * k * taus / N_SUBCARRIERS)
    np.exp(terms, out=terms)
    terms *= amp[..., None]
    # Tap by tap, not terms.sum(axis=1): pairwise summation changes the bits.
    for j in range(m):
        h[beams] += terms[:, j]
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


def read_fingerprints(path) -> np.ndarray:
    """Load a fingerprint file as one writable float32 array; its size must match the header count.

    The header is checked before any payload is allocated.  The payload is
    read straight into the array, with no bytes object or float64 copy
    beside it.  Non-finite values load as they are, a signalling NaN
    included: the engines reject them.
    """
    with open(path, "rb") as f:
        count = _snapshot_count(f, path)
        fps = np.fromfile(f, dtype="<f4", count=count * N_BEAMS * N_SUBCARRIERS)
    return fps.reshape(count, N_BEAMS, N_SUBCARRIERS)


def iter_fingerprints(f, path):
    """Check the header of ``f``, open at its start, now; return an iterator over its snapshots.

    Each snapshot is read into a fresh 128x46 float32 array when it is asked
    for, so ``f`` must stay open until the iterator is exhausted.
    """
    count = _snapshot_count(f, path)

    def snapshots():
        for i in range(count):
            fp = np.empty((N_BEAMS, N_SUBCARRIERS), dtype="<f4")
            if f.readinto(fp) != fp.nbytes:  # the file shrank after its size was checked
                raise OSError(f"{path}: snapshot {i} of {count} is cut short")
            yield fp

    return snapshots()
