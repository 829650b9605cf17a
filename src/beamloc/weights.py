"""Model parameter bundles: in-memory layout, binary format, generator.

A bundle holds the scenario router (SLP), five encoder segments (one for
the single-layer scenario, two each for the deeper ones), and one
coordinate head per scenario.  ``_SHAPES`` declares every parameter's
shape once; the generator, the quantized view, the writer and the loader
all follow it.  Files carry the float32 weights; the integer engine takes
their Q8.8 view (``ModelBundle.quantized``) when it is built.  The writer
stores the attention projections transposed for column-wise access; the
loader undoes whatever transpose a file's flags record.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .activations import ActivationKind
from .fxp import dequantize, quantize, quantize_array

BUNDLE_MAGIC = b"AXLW"
BUNDLE_VERSION = 1

SCENARIOS = ("S1", "S2", "S3")
SEGMENTS_PER_SCENARIO = {"S1": ("S1",), "S2": ("S21", "S22"), "S3": ("S31", "S32")}

# The sizes a file header carries, in order.
_SIZES = ("n", "d", "heads", "d_ff", "d_h", "pool_k", "pool_p", "delay_bin", "router_window")
# Stored transposed to support column-wise streaming access.
_STORED_TRANSPOSED = ("w_q", "w_k", "w_v", "w_o")


@dataclass(frozen=True)
class EncoderSegment:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gamma: float      # per-layer score scale, folded with 1/sqrt(d_k)
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray


@dataclass(frozen=True)
class HeadParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


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
    dtype: str  # "float32" as generated or loaded; "q8.8" for the quantized() view
    slp_w: np.ndarray
    slp_b: np.ndarray
    segments: dict
    fcnn: dict

    def __post_init__(self):
        if self.dtype not in ("float32", "q8.8"):
            raise ValueError(f"bundle dtype must be float32 or q8.8, got {self.dtype}")
        if min(self.heads, self.pool_k, self.router_window) < 1:
            raise ValueError(f"heads, pool_k and router_window must be >= 1, got "
                             f"{self.heads}, {self.pool_k} and {self.router_window}")
        if not 1 <= self.n <= 128:  # softmax_int's row sums are exact up to 128 entries
            raise ValueError(f"n must be in 1..128, got {self.n}")
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

    def quantized(self) -> "ModelBundle":
        """Q8.8 view of a float bundle (identity on a quantized view).

        Arrays become Q8.8 codes as float64 integers, the integer engine's
        one code dtype; each gamma snaps onto the Q8.8 grid and stays a float.
        """
        if self.dtype == "q8.8":
            return self

        def convert(obj):
            return {name: quantize_array(getattr(obj, name)) if shape
                    else dequantize(quantize(getattr(obj, name)))
                    for name, shape in _SHAPES[type(obj)].items()}

        segments = {sc: tuple(EncoderSegment(**convert(seg)) for seg in segs)
                    for sc, segs in self.segments.items()}
        fcnn = {sc: HeadParams(**convert(head)) for sc, head in self.fcnn.items()}
        return replace(self, dtype="q8.8", segments=segments, fcnn=fcnn, **convert(self))


# Every learned parameter's shape in ModelBundle size names (an int is a
# fixed size), grouped by the dataclass that holds it.  Files store the
# groups in this order: the router, each segment in SEGMENTS_PER_SCENARIO
# order, then the heads in SCENARIOS order.  The generator draws the
# segments, then the heads, then the router.
_SHAPES = {
    ModelBundle: {"slp_w": (3, "n"), "slp_b": (3,)},
    EncoderSegment: {
        "w_q": ("d", "d"), "w_k": ("d", "d"), "w_v": ("d", "d"), "w_o": ("d", "d"),
        "gamma": (),
        "ffn_w1": ("d", "d_ff"), "ffn_b1": ("d_ff",), "ffn_w2": ("d_ff", "d"), "ffn_b2": ("d",),
    },
    HeadParams: {"w1": ("flattened_len", "d_h"), "b1": ("d_h",), "w2": ("d_h", 2), "b2": (2,)},
}


def _resolve(sizes: dict) -> dict:
    """``_SHAPES`` with every size name replaced by its value under ``sizes``."""
    if sizes["pool_k"] < 1:
        raise ValueError(f"pool_k must be >= 1, got {sizes['pool_k']}")
    dims = {**sizes, "flattened_len": sizes["n"] * (sizes["d"] + sizes["pool_p"]) // sizes["pool_k"]}
    return {cls: {name: tuple(dims[s] if isinstance(s, str) else s for s in shape)
                  for name, shape in table.items()}
            for cls, table in _SHAPES.items()}


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
    sizes = dict(n=n, d=d, heads=heads, d_ff=d_ff, d_h=d_h, pool_k=pool_k, pool_p=pool_p,
                 delay_bin=delay_bin, router_window=router_window)
    shapes = _resolve(sizes)

    def draw(cls):
        out = {}
        for name, shape in shapes[cls].items():
            x = rng.uniform(-scale, scale, size=shape).astype(np.float32).astype(np.float64)
            out[name] = x if shape else float(x)
        return out

    segments = {sc: tuple(EncoderSegment(**draw(EncoderSegment)) for _ in SEGMENTS_PER_SCENARIO[sc])
                for sc in SCENARIOS}
    fcnn = {sc: HeadParams(**draw(HeadParams)) for sc in SCENARIOS}
    return ModelBundle(**sizes, activation=activation, dtype="float32",
                       segments=segments, fcnn=fcnn, **draw(ModelBundle))


# --------------------------------------------------------------------------
# Binary format (little-endian):
#   magic "AXLW", u16 version, u8 dtype (always 0, float32; 1 named the
#   retired int16 Q8.8 encoding), u8 activation kind (older files may hold
#   0, read as softmax), u16 x 9: the _SIZES; then every parameter in
#   _SHAPES file order, each prefixed by u32 rows, u32 cols, u8 transposed
#   flag, then its float32 values.  A vector is one row and gamma a 1x1
#   matrix.  The writer sets the flag on _STORED_TRANSPOSED and stores those
#   matrices transposed; the loader undoes any flagged matrix.

_HEADER = struct.Struct("<4sHBB9H")
_MATRIX = struct.Struct("<IIB")


def save_bundle(path, bundle: ModelBundle) -> None:
    """Write a float ``bundle``, storing the _STORED_TRANSPOSED matrices transposed.

    A quantized view raises ValueError before the file is opened: files hold
    the float weights, and the integer engine quantizes them itself.
    """
    if bundle.dtype == "q8.8":
        raise ValueError("bundle files hold float weights; save the bundle, not its quantized view")
    groups = [bundle, *(seg for sc in SCENARIOS for seg in bundle.segments[sc]),
              *(bundle.fcnn[sc] for sc in SCENARIOS)]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(BUNDLE_MAGIC, BUNDLE_VERSION, 0, int(bundle.activation),
                             *(getattr(bundle, s) for s in _SIZES)))
        for obj in groups:
            for name in _SHAPES[type(obj)]:
                value = getattr(obj, name)
                stored_t = name in _STORED_TRANSPOSED
                mat = np.atleast_2d(value).T if stored_t else np.atleast_2d(value)
                f.write(_MATRIX.pack(mat.shape[0], mat.shape[1], stored_t))
                f.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def _read_matrix(f, size: int, name: str, shape: tuple):
    """The parameter ``name`` of the given shape, read from ``f``.

    A header or payload past the file's ``size`` bytes raises OSError, and
    so does a matrix whose shape, once untransposed, is not ``shape``, or
    one holding a non-finite value.
    """
    header = f.read(_MATRIX.size)
    if len(header) != _MATRIX.size:
        raise OSError(f"{f.name}: truncated bundle, cut inside a matrix header")
    rows, cols, stored_t = _MATRIX.unpack(header)
    count = rows * cols
    nbytes = count * 4  # float32
    if nbytes > size - f.tell():
        raise OSError(f"{f.name}: a {rows}x{cols} matrix overruns the bundle's {size} bytes")
    got = (cols, rows) if stored_t else (rows, cols)
    want = (1,) * (2 - len(shape)) + shape
    if got != want:
        raise OSError(f"{f.name}: {name} is a {got[0]}x{got[1]} matrix "
                      f"where the header's sizes give {want}")
    data = np.frombuffer(f.read(nbytes), dtype="<f4", count=count)
    if not np.isfinite(data).all():  # before the cast, which a signalling NaN trips
        raise OSError(f"{f.name}: {name} holds a non-finite value")
    mat = data.astype(np.float64).reshape(rows, cols)
    if stored_t:
        mat = mat.T.copy()
    return mat.reshape(shape) if shape else float(mat[0, 0])


def load_bundle(path) -> ModelBundle:
    """Load a float bundle file; every error names ``path``.

    A truncated file, a matrix whose shape disagrees with the header's
    sizes, or bytes left after the last matrix raise OSError before the
    matrix is allocated, and a non-finite weight raises OSError too.  A
    wrong magic, version, dtype or activation code, or a header ``heads``,
    ``pool_k`` or ``router_window`` below 1, raises ValueError; so does
    dtype code 1, the retired int16 encoding.  Activation code 0, which
    older files may hold, loads as softmax.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            header = f.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise OSError(f"{path}: truncated bundle header")
            magic, version, dtype_code, act, *values = _HEADER.unpack(header)
            if magic != BUNDLE_MAGIC:
                raise ValueError(f"not a weight bundle (magic {magic!r})")
            if version != BUNDLE_VERSION:
                raise ValueError(f"unsupported bundle version {version}")
            if dtype_code != 0:  # 1 named the retired int16 Q8.8 encoding
                raise ValueError(f"unsupported bundle dtype code {dtype_code}; "
                                 f"bundles hold float32 weights (code 0)")
            # code 0 named a second softmax kind with the same arithmetic
            if act not in (0, *ActivationKind):
                raise ValueError(f"unknown activation code {act}")
            sizes = dict(zip(_SIZES, values))
            shapes = _resolve(sizes)

            def read(cls, prefix=""):
                return {name: _read_matrix(f, size, prefix + name, shape)
                        for name, shape in shapes[cls].items()}

            router = read(ModelBundle)
            segments = {sc: tuple(EncoderSegment(**read(EncoderSegment, f"{seg}."))
                                  for seg in SEGMENTS_PER_SCENARIO[sc])
                        for sc in SCENARIOS}
            fcnn = {sc: HeadParams(**read(HeadParams, f"FCNN_{sc}.")) for sc in SCENARIOS}
            if f.tell() != size:
                raise OSError(f"{path}: the matrices end at byte {f.tell()} of the bundle's {size}")
        return ModelBundle(**sizes, activation=ActivationKind(act or ActivationKind.SOFTMAX_INT),
                           dtype="float32", segments=segments, fcnn=fcnn, **router)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
