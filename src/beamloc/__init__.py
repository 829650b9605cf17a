"""Adaptive, sparsity-aware, integer-only Transformer localization model.

A bit-accurate software model of a heterogeneous vector-engine pipeline
for massive-MIMO beam-delay localization: Q8.8 fixed-point substrate,
synthetic channel generation and preprocessing, row-skip sparsity, a
scenario router with windowed voting, float and integer inference engines
with LUT-based attention activations, and a closed-form cycle-cost model.
"""

from .activations import ActivationKind
from .channel import ScenarioProfile, default_profile, generate_fingerprints, preprocess
from .config import RunConfig
from .engine import EngineConfig, FloatEngine, InferResult, IntEngine, make_engine
from .fxp import dequantize, quantize
from .perf import CycleReport, PerfConfig, pipeline_report, stage_share
from .router import RouterState, route
from .sparsity import RowMask, SparsityConfig, build_row_mask, sparsity_stats, threshold_elements
from .weights import ModelBundle, load_bundle, random_bundle, save_bundle

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "CycleReport",
    "EngineConfig",
    "FloatEngine",
    "InferResult",
    "IntEngine",
    "ModelBundle",
    "PerfConfig",
    "RouterState",
    "RowMask",
    "RunConfig",
    "ScenarioProfile",
    "SparsityConfig",
    "build_row_mask",
    "default_profile",
    "dequantize",
    "generate_fingerprints",
    "load_bundle",
    "make_engine",
    "pipeline_report",
    "preprocess",
    "quantize",
    "random_bundle",
    "route",
    "save_bundle",
    "sparsity_stats",
    "stage_share",
    "threshold_elements",
]
