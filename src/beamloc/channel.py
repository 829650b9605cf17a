"""Synthetic beam-space channels and the fingerprint preprocessing chain.

A snapshot is a 128x46 complex matrix (beam x subcarrier).  Preprocessing
applies a 46-point Hann window across subcarriers, a direct inverse DFT
along the same axis (1/N normalization), and takes the magnitude, giving a
non-negative 128x46 beam-delay fingerprint.

The generator replaces a proprietary measurement set: LoS-like profiles
put energy in a few beams with compact delay support, NLoS-like profiles
spread it wider over beams and delays, and a complex-Gaussian diffuse
floor sits under everything.  All randomness is seeded and reproducible.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError

N_BEAMS = 128
N_SUBCARRIERS = 46

FINGERPRINT_MAGIC = b"BDFP"

# Delay spread (in bins) of the dominant paths and the per-beam lognormal
# gain spread of the diffuse floor, per propagation flavor.  The spread is
# what creates nearly-dead beams for the row-skip logic to find.
_DELAY_SPREAD = {"S1": 5, "S2": 24, "S3": 12}
_BEAM_GAIN_SIGMA = {"S1": 0.9, "S2": 0.5, "S3": 0.75}

PROFILE_DEFAULTS = {
    "S1": dict(dominant_beams=6, dominant_delays=2, diffuse_floor=0.35),
    "S2": dict(dominant_beams=40, dominant_delays=8, diffuse_floor=1.10),
    "S3": dict(dominant_beams=20, dominant_delays=5, diffuse_floor=0.50),
}


@dataclass(frozen=True)
class ScenarioProfile:
    scenario: str
    dominant_beams: int
    dominant_delays: int
    diffuse_floor: float
    seed: int = 0

    def __post_init__(self):
        """Out-of-range settings raise ConfigError, naming the setting."""
        if self.scenario not in PROFILE_DEFAULTS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not 1 <= self.dominant_beams <= N_BEAMS:
            raise ConfigError(f"dominant_beams must be in 1..{N_BEAMS}, got {self.dominant_beams}")
        if not 1 <= self.dominant_delays <= N_SUBCARRIERS:
            raise ConfigError(
                f"dominant_delays must be in 1..{N_SUBCARRIERS}, got {self.dominant_delays}")
        if not (math.isfinite(self.diffuse_floor) and self.diffuse_floor >= 0):
            raise ConfigError(f"diffuse_floor must be finite and >= 0, got {self.diffuse_floor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def default_profile(scenario: str, seed: int = 0, **overrides) -> ScenarioProfile:
    if scenario not in PROFILE_DEFAULTS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    params = dict(PROFILE_DEFAULTS[scenario])
    params.update(overrides)
    return ScenarioProfile(scenario=scenario, seed=seed, **params)


def generate_channel(profile: ScenarioProfile) -> np.ndarray:
    """One 128x46 complex frequency-domain snapshot, deterministic per seed.

    The draws from ``np.random.default_rng(profile.seed)`` come in a fixed
    order: the 128 lognormal beam gains, the real and then the imaginary
    128x46 standard normals of the diffuse floor, and the dominant beams
    (``choice`` without replacement).  Then, for each dominant beam in the
    order drawn: its row gain, uniform in [0.6, 1.4); its
    ``m = min(dominant_delays, delay spread)`` distinct taps (one
    ``choice`` without replacement); and m (amplitude, phase) pairs,
    amplitude first, uniform in [0.4, 1.0) and [0, 2*pi).  Each tap's term
    is added to its row one at a time in the order drawn, so the bytes of
    the result are fixed by the seed.
    """
    rng = np.random.default_rng(profile.seed)
    beam_gain = rng.lognormal(0.0, _BEAM_GAIN_SIGMA[profile.scenario], size=(N_BEAMS, 1))
    h = profile.diffuse_floor * beam_gain * (
        rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
        + 1j * rng.standard_normal((N_BEAMS, N_SUBCARRIERS))
    ) / np.sqrt(2.0)

    spread = _DELAY_SPREAD[profile.scenario]
    m = min(profile.dominant_delays, spread)
    beams = rng.choice(N_BEAMS, size=profile.dominant_beams, replace=False)
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


def hann_window(h: np.ndarray) -> np.ndarray:
    """Scale each subcarrier column by the symmetric Hann taper.

    The denominator is N-1, so both endpoint weights are exactly 0.
    """
    if h.shape[-1] != N_SUBCARRIERS:
        raise ValueError(f"expected {N_SUBCARRIERS} subcarriers, got {h.shape[-1]}")
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(N_SUBCARRIERS) / (N_SUBCARRIERS - 1)))
    return h * w


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
    """Batch of preprocessed snapshots; snapshot i uses seed profile.seed + i."""
    out = np.empty((count, N_BEAMS, N_SUBCARRIERS), dtype=np.float64)
    for i in range(count):
        snap = generate_channel(replace(profile, seed=profile.seed + i))
        out[i] = preprocess(snap)
    return out


# --------------------------------------------------------------------------
# Fingerprint container file: magic "BDFP", u32 count, then per snapshot
# 128x46 float32 values, row-major, little-endian.


def write_fingerprints(path, fingerprints: np.ndarray) -> None:
    fps = np.asarray(fingerprints, dtype=np.float32)
    if fps.ndim != 3 or fps.shape[1:] != (N_BEAMS, N_SUBCARRIERS):
        raise ValueError(f"expected (count, {N_BEAMS}, {N_SUBCARRIERS}), got {fps.shape}")
    with open(path, "wb") as f:
        f.write(FINGERPRINT_MAGIC)
        f.write(struct.pack("<I", fps.shape[0]))
        f.write(fps.astype("<f4").tobytes())


def read_fingerprints(path) -> np.ndarray:
    """Load a fingerprint file; its size must match the header count.

    A size mismatch (a truncated file, or a forged count) raises OSError,
    before any payload is allocated.  Non-finite values load as they are
    (a signalling NaN as a quiet one): the engines reject them.
    """
    with open(path, "rb") as f:
        header = f.read(8)
        if header[:4] != FINGERPRINT_MAGIC:
            raise ValueError(f"{path}: not a fingerprint file (magic {header[:4]!r})")
        count = int.from_bytes(header[4:], "little")  # a short header fails the size check
        size, expected = os.fstat(f.fileno()).st_size, 8 + count * N_BEAMS * N_SUBCARRIERS * 4
        if size != expected:
            raise OSError(f"{path}: header promises {count} snapshot(s), {expected} bytes, not {size}")
        payload = f.read(expected - 8)
    fps = np.frombuffer(payload, dtype="<f4").reshape(count, N_BEAMS, N_SUBCARRIERS)
    with np.errstate(invalid="ignore"):  # the cast's warning for a signalling NaN
        return fps.astype(np.float64)


def export_csv(path, fingerprints: np.ndarray) -> None:
    """Inspection export: one row per (snapshot, beam) with 46 delay columns."""
    fps = np.asarray(fingerprints)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["snapshot", "beam"] + [f"d{j}" for j in range(N_SUBCARRIERS)])
        for s in range(fps.shape[0]):
            for b in range(N_BEAMS):
                writer.writerow([s, b] + [repr(v) for v in fps[s, b].tolist()])
