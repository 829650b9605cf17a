"""Model parameter bundles: in-memory layout, binary format, generator.

A bundle holds the scenario router (SLP), five encoder segments (one for
the single-layer scenario, two each for the deeper ones), and one
coordinate head per scenario.  Files carry either float32 values (oracle
bundles) or int16 Q8.8 codes (integer bundles); selected matrices may be
stored transposed for column-wise access, which the loader undoes while
keeping the flag as metadata.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .activations import ActivationKind
from .fxp import dequantize, dequantize_array, quantize, quantize_array

BUNDLE_MAGIC = b"AXLW"
BUNDLE_VERSION = 1

SCENARIOS = ("S1", "S2", "S3")
SEGMENT_ORDER = ("S1", "S21", "S22", "S31", "S32")
SEGMENTS_PER_SCENARIO = {"S1": ("S1",), "S2": ("S21", "S22"), "S3": ("S31", "S32")}

_SEGMENT_MATS = ("w_q", "w_k", "w_v", "w_o", "gamma", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")
_HEAD_MATS = ("w1", "b1", "w2", "b2")
# Stored transposed to support column-wise streaming access.
_TRANSPOSED_BY_DEFAULT = ("w_q", "w_k", "w_v", "w_o")


@dataclass(frozen=True)
class EncoderSegment:
    w_q: np.ndarray   # (d, d)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gamma: float      # per-layer score scale, folded with 1/sqrt(d_k)
    ffn_w1: np.ndarray  # (d, d_ff)
    ffn_b1: np.ndarray  # (d_ff,)
    ffn_w2: np.ndarray  # (d_ff, d)
    ffn_b2: np.ndarray  # (d,)


@dataclass(frozen=True)
class HeadParams:
    w1: np.ndarray  # (flattened, d_h)
    b1: np.ndarray  # (d_h,)
    w2: np.ndarray  # (d_h, 2)
    b2: np.ndarray  # (2,)


@dataclass(frozen=True)
class ModelBundle:
    n: int
    d: int
    heads: int
    d_ff: int
    d_h: int
    pool_k: int
    pool_p: int
    activation: ActivationKind
    delay_bin: int
    router_window: int
    dtype: str  # "float32" | "int16"
    slp_w: np.ndarray  # (3, n)
    slp_b: np.ndarray  # (3,)
    segments: dict
    fcnn: dict
    transposed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dtype not in ("float32", "int16"):
            raise ValueError(f"bundle dtype must be float32 or int16, got {self.dtype}")
        if self.heads < 1 or self.pool_k < 1:
            raise ValueError(f"heads and pool_k must be >= 1, got {self.heads} and {self.pool_k}")
        if self.d % self.heads != 0:
            raise ValueError("feature width must divide evenly across heads")
        if (self.d + self.pool_p) % self.pool_k != 0:
            raise ValueError("(d + pool_p) must be divisible by pool_k")
        for sc in SCENARIOS:
            expected = len(SEGMENTS_PER_SCENARIO[sc])
            got = len(self.segments.get(sc, ()))
            if got != expected:
                raise ValueError(f"{sc} requires {expected} encoder segment(s), got {got}")
            if sc not in self.fcnn:
                raise ValueError(f"missing coordinate head for {sc}")
        if self.slp_w.shape != (3, self.n):
            raise ValueError(f"router weights must be (3, {self.n}), got {self.slp_w.shape}")
        if not 0 <= self.delay_bin < self.d:
            raise ValueError("delay_bin out of range")

    @property
    def d_k(self) -> int:
        return self.d // self.heads

    @property
    def flattened_len(self) -> int:
        return self.n * (self.d + self.pool_p) // self.pool_k

    def layers(self, scenario: str):
        return self.segments[scenario]

    def _convert(self, fn, gamma_fn, dtype: str) -> "ModelBundle":
        segments = {
            sc: tuple(
                EncoderSegment(
                    w_q=fn(seg.w_q), w_k=fn(seg.w_k), w_v=fn(seg.w_v), w_o=fn(seg.w_o),
                    gamma=gamma_fn(seg.gamma),
                    ffn_w1=fn(seg.ffn_w1), ffn_b1=fn(seg.ffn_b1),
                    ffn_w2=fn(seg.ffn_w2), ffn_b2=fn(seg.ffn_b2),
                )
                for seg in segs
            )
            for sc, segs in self.segments.items()
        }
        fcnn = {
            sc: HeadParams(w1=fn(h.w1), b1=fn(h.b1), w2=fn(h.w2), b2=fn(h.b2))
            for sc, h in self.fcnn.items()
        }
        return replace(self, dtype=dtype, slp_w=fn(self.slp_w), slp_b=fn(self.slp_b),
                       segments=segments, fcnn=fcnn)

    def quantized(self) -> "ModelBundle":
        """Q8.8 view of a float bundle (identity on int bundles)."""
        if self.dtype == "int16":
            return self
        return self._convert(quantize_array, lambda g: dequantize(quantize(g)), "int16")

    def dequantized(self) -> "ModelBundle":
        """Float view of an int bundle (identity on float bundles)."""
        if self.dtype == "float32":
            return self
        return self._convert(dequantize_array, lambda g: g, "float32")


def random_bundle(
    seed: int = 0,
    scale: float = 0.25,
    *,
    n: int = 128,
    d: int = 46,
    heads: int = 2,
    d_ff: int = 64,
    d_h: int = 64,
    pool_k: int = 4,
    pool_p: int = 2,
    activation: ActivationKind = ActivationKind.SIGMOID_BIAS_LUT,
    delay_bin: int = 0,
    router_window: int = 15,
) -> ModelBundle:
    """Seeded bundle with every learned parameter uniform in [-scale, scale].

    Values are rounded through float32 so that saving and reloading a
    float bundle is byte-exact.
    """
    rng = np.random.default_rng(seed)

    def mat(*shape):
        return rng.uniform(-scale, scale, size=shape).astype(np.float32).astype(np.float64)

    def segment():
        return EncoderSegment(
            w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), w_o=mat(d, d),
            gamma=float(np.float32(rng.uniform(-scale, scale))),
            ffn_w1=mat(d, d_ff), ffn_b1=mat(d_ff),
            ffn_w2=mat(d_ff, d), ffn_b2=mat(d),
        )

    flattened = n * (d + pool_p) // pool_k
    segments = {sc: tuple(segment() for _ in SEGMENTS_PER_SCENARIO[sc]) for sc in SCENARIOS}
    fcnn = {
        sc: HeadParams(w1=mat(flattened, d_h), b1=mat(d_h), w2=mat(d_h, 2), b2=mat(2))
        for sc in SCENARIOS
    }
    transposed = {}
    for name in SEGMENT_ORDER:
        for m in _SEGMENT_MATS:
            transposed[f"{name}.{m}"] = m in _TRANSPOSED_BY_DEFAULT
    return ModelBundle(
        n=n, d=d, heads=heads, d_ff=d_ff, d_h=d_h, pool_k=pool_k, pool_p=pool_p,
        activation=activation, delay_bin=delay_bin, router_window=router_window,
        dtype="float32", slp_w=mat(3, n), slp_b=mat(3),
        segments=segments, fcnn=fcnn, transposed=transposed,
    )


# --------------------------------------------------------------------------
# Binary format (little-endian):
#   magic "AXLW", u16 version, u8 dtype (0 = float32, 1 = int16),
#   u8 activation kind, u16 x 9: n, d, heads, d_ff, d_h, pool_k, pool_p,
#   delay_bin, router_window; then matrices in the fixed order
#   SLP, S1, S21, S22, S31, S32, FCNN_S1, FCNN_S2, FCNN_S3, each prefixed
#   by u32 rows, u32 cols, u8 transposed-flag.

_HEADER = struct.Struct("<4sHBB9H")
_MATRIX = struct.Struct("<IIB")


def _matrix_order(bundle: ModelBundle):
    yield "slp_w", bundle.slp_w
    yield "slp_b", bundle.slp_b
    flat_segments = dict(zip(SEGMENT_ORDER[:1], bundle.segments["S1"]))
    flat_segments.update(zip(("S21", "S22"), bundle.segments["S2"]))
    flat_segments.update(zip(("S31", "S32"), bundle.segments["S3"]))
    for name in SEGMENT_ORDER:
        seg = flat_segments[name]
        for m in _SEGMENT_MATS:
            value = getattr(seg, m)
            if m == "gamma":
                value = np.array([[value]], dtype=np.float64)
            yield f"{name}.{m}", value
    for sc in SCENARIOS:
        head = bundle.fcnn[sc]
        for m in _HEAD_MATS:
            yield f"FCNN_{sc}.{m}", getattr(head, m)


def save_bundle(path, bundle: ModelBundle) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(
            BUNDLE_MAGIC, BUNDLE_VERSION,
            0 if bundle.dtype == "float32" else 1,
            int(bundle.activation),
            bundle.n, bundle.d, bundle.heads, bundle.d_ff, bundle.d_h,
            bundle.pool_k, bundle.pool_p, bundle.delay_bin, bundle.router_window,
        ))
        for name, value in _matrix_order(bundle):
            mat2d = np.atleast_2d(np.asarray(value))
            if name.endswith(".gamma") and bundle.dtype == "int16":
                mat2d = np.array([[quantize(float(mat2d[0, 0]))]], dtype=np.int16)
            stored_t = bundle.transposed.get(name, False)
            stored = mat2d.T if stored_t else mat2d
            f.write(_MATRIX.pack(stored.shape[0], stored.shape[1], int(stored_t)))
            if bundle.dtype == "float32":
                f.write(np.ascontiguousarray(stored, dtype="<f4").tobytes())
            else:
                f.write(np.ascontiguousarray(stored, dtype="<i2").tobytes())


def _read_matrix(f, dtype: str, size: int):
    """One matrix; a header or payload past the file's ``size`` bytes raises OSError."""
    header = f.read(_MATRIX.size)
    if len(header) != _MATRIX.size:
        raise OSError(f"{f.name}: truncated bundle, cut inside a matrix header")
    rows, cols, stored_t = _MATRIX.unpack(header)
    count = rows * cols
    nbytes = count * (4 if dtype == "float32" else 2)
    if nbytes > size - f.tell():
        raise OSError(f"{f.name}: a {rows}x{cols} matrix overruns the bundle's {size} bytes")
    if dtype == "float32":
        data = np.frombuffer(f.read(nbytes), dtype="<f4", count=count).astype(np.float64)
    else:
        data = np.frombuffer(f.read(nbytes), dtype="<i2", count=count).astype(np.int16)
    mat = data.reshape(rows, cols)
    return (mat.T.copy() if stored_t else mat), bool(stored_t)


def load_bundle(path) -> ModelBundle:
    """Load a bundle file.

    A truncated file or a forged matrix shape raises OSError before the
    matrix is allocated, and so do bytes left after the last matrix; a
    wrong magic, version or dtype code raises ValueError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise OSError(f"{path}: truncated bundle header")
        (magic, version, dtype_code, act, n, d, heads, d_ff, d_h,
         pool_k, pool_p, delay_bin, window) = _HEADER.unpack(header)
        if magic != BUNDLE_MAGIC:
            raise ValueError(f"not a weight bundle (magic {magic!r})")
        if version != BUNDLE_VERSION:
            raise ValueError(f"unsupported bundle version {version}")
        if dtype_code not in (0, 1):
            raise ValueError(f"unknown bundle dtype code {dtype_code}")
        dtype = "float32" if dtype_code == 0 else "int16"

        transposed = {}

        def read(name):
            mat, flag = _read_matrix(f, dtype, size)
            transposed[name] = flag
            return mat

        slp_w = read("slp_w")
        slp_b = read("slp_b").reshape(-1)
        flat = {}
        for name in SEGMENT_ORDER:
            vals = {}
            for m in _SEGMENT_MATS:
                mat = read(f"{name}.{m}")
                if m == "gamma":
                    if mat.shape != (1, 1):
                        raise OSError(f"{path}: {name}.gamma is {mat.shape}, not one value")
                    g = float(mat[0, 0])
                    vals[m] = g / 256.0 if dtype == "int16" else g
                elif m.startswith("ffn_b"):
                    vals[m] = mat.reshape(-1)
                else:
                    vals[m] = mat
            flat[name] = EncoderSegment(**vals)
        fcnn = {}
        for sc in SCENARIOS:
            vals = {m: read(f"FCNN_{sc}.{m}") for m in _HEAD_MATS}
            fcnn[sc] = HeadParams(
                w1=vals["w1"], b1=vals["b1"].reshape(-1),
                w2=vals["w2"], b2=vals["b2"].reshape(-1),
            )
        if f.tell() != size:
            raise OSError(f"{path}: the matrices end at byte {f.tell()} of the bundle's {size}")

    segments = {
        "S1": (flat["S1"],),
        "S2": (flat["S21"], flat["S22"]),
        "S3": (flat["S31"], flat["S32"]),
    }
    return ModelBundle(
        n=n, d=d, heads=heads, d_ff=d_ff, d_h=d_h, pool_k=pool_k, pool_p=pool_p,
        activation=ActivationKind(act), delay_bin=delay_bin, router_window=window,
        dtype=dtype, slp_w=slp_w, slp_b=slp_b, segments=segments, fcnn=fcnn,
        transposed=transposed,
    )
