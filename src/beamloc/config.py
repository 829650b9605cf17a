"""Run configuration: JSON file schema plus CLI flag overrides.

Every output artifact embeds the effective configuration, so a run is
reproducible from its own output.  Default thresholds per scenario follow
the reference operating points of the measured data (the mixed scenario
uses the quantization-constrained threshold with zero count 28).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

from .activations import ACTIVATIONS, ActivationKind
from .perf import PerfConfig, _is_int, _is_number
from .sparsity import SparsityConfig
from .weights import SCENARIOS


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


DEFAULT_SPARSITY = {
    "S1": SparsityConfig(t_elem=0.039, t_rowcount=41),
    "S2": SparsityConfig(t_elem=0.014, t_rowcount=1),
    "S3": SparsityConfig(t_elem=0.006, t_rowcount=28),
}

_ENGINES = ("float", "int", "both")


@dataclass(frozen=True)
class RunConfig:
    bundle: str | None = None
    fingerprints: str | None = None
    engine: str = "int"
    scenario: str | None = None          # None: auto-route per snapshot
    activation: str | None = None        # None: bundle's activation
    sparsity_enabled: bool = True
    sparsity: dict = field(default_factory=lambda: dict(DEFAULT_SPARSITY))
    router_window: int | None = None
    clock_hz: float = PerfConfig.clock_hz
    div_latency: int = PerfConfig.div_latency
    pipeline_fill: int = PerfConfig.pipeline_fill
    c_overhead: float = PerfConfig.c_overhead
    layer_overhead: int = PerfConfig.layer_overhead

    def __post_init__(self):
        if self.engine not in _ENGINES:
            raise ConfigError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        # a tuple compares by equality, so an unhashable value fails here too
        if self.scenario not in (None, *SCENARIOS):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.activation not in (None, *ACTIVATIONS):
            raise ConfigError(f"unknown activation {self.activation!r}; "
                              f"choose from {sorted(ACTIVATIONS)}")
        for name in ("bundle", "fingerprints"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path, got {getattr(self, name)!r}")
        if not isinstance(self.sparsity_enabled, bool):
            raise ConfigError(f"sparsity_enabled must be true or false, got {self.sparsity_enabled!r}")
        window = self.router_window
        if window is not None and not (_is_int(window) and 1 <= window <= sys.maxsize):
            raise ConfigError(f"router_window must be an integer in 1..{sys.maxsize}, got {window!r}")
        self.perf_config()  # PerfConfig checks the cycle-model settings

    def activation_kind(self) -> ActivationKind | None:
        return None if self.activation is None else ACTIVATIONS[self.activation]

    def perf_config(self, bundle=None) -> PerfConfig:
        kwargs = dict(
            div_latency=self.div_latency,
            pipeline_fill=self.pipeline_fill,
            clock_hz=self.clock_hz,
            c_overhead=self.c_overhead,
            layer_overhead=self.layer_overhead,
        )
        if bundle is not None:
            kwargs.update(n=bundle.n, d=bundle.d, d_ff=bundle.d_ff, d_h=bundle.d_h,
                          pool_k=bundle.pool_k, pool_p=bundle.pool_p)
        try:
            return PerfConfig(**kwargs)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sparsity_from_dict(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"sparsity must map scenarios to thresholds, got {raw!r}")
    parsed = {}
    for sc, v in raw.items():
        if sc not in SCENARIOS:
            raise ConfigError(f"sparsity: unknown scenario {sc!r}")
        if not isinstance(v, dict) or set(v) != {"t_elem", "t_rowcount"}:
            raise ConfigError(f"sparsity.{sc} must hold exactly t_elem and t_rowcount, got {v!r}")
        if not (_is_number(v["t_elem"]) and _is_int(v["t_rowcount"])):
            raise ConfigError(f"sparsity.{sc} needs a number t_elem and an integer t_rowcount, "
                              f"got {v!r}")
        try:
            parsed[sc] = SparsityConfig(t_elem=float(v["t_elem"]), t_rowcount=v["t_rowcount"])
        except ValueError as e:
            raise ConfigError(f"sparsity.{sc}: {e}") from e
    return parsed


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    if "sparsity" in data:
        data["sparsity"] = _sparsity_from_dict(data["sparsity"])
    return RunConfig(**data)


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except ValueError as e:  # bad JSON, bad UTF-8, or an integer too long to convert
        raise ConfigError(f"invalid config file {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    try:
        return config_from_dict(data)
    except TypeError as e:
        raise ConfigError(f"invalid config field: {e}") from e
