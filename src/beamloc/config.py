"""Run configuration: JSON file schema plus CLI flag overrides.

A command has flags for exactly the settings it reads and embeds exactly
those in its artifact, so a run is reproducible from its own output.  A
config file may hold any of them.  Default thresholds per scenario follow
the reference operating points of the measured data (the mixed scenario
uses the quantization-constrained threshold with zero count 28).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

from .activations import ACTIVATIONS, ActivationKind
from .perf import PerfConfig
from .sparsity import SparsityConfig, _is_int
from .weights import SCENARIOS


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


DEFAULT_SPARSITY = {
    "S1": SparsityConfig(t_elem=0.039, t_rowcount=41),
    "S2": SparsityConfig(t_elem=0.014, t_rowcount=1),
    "S3": SparsityConfig(t_elem=0.006, t_rowcount=28),
}

ENGINES = ("float", "int")


@dataclass(frozen=True)
class RunConfig:
    bundle: str | None = None
    fingerprints: str | None = None
    engine: str = "int"
    scenario: str | None = None          # None: auto-route per snapshot
    activation: str | None = None        # None: bundle's activation
    sparsity: dict = field(default_factory=lambda: dict(DEFAULT_SPARSITY))
    router_window: int | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        # a tuple compares by equality, so an unhashable value fails here too
        if self.scenario not in (None, *SCENARIOS):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.activation not in (None, *ACTIVATIONS):
            raise ConfigError(f"unknown activation {self.activation!r}; "
                              f"choose from {sorted(ACTIVATIONS)}")
        for name in ("bundle", "fingerprints"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path, got {getattr(self, name)!r}")
        window = self.router_window
        if window is not None and not (_is_int(window) and 1 <= window <= sys.maxsize):
            raise ConfigError(f"router_window must be an integer in 1..{sys.maxsize}, got {window!r}")
        if not isinstance(self.sparsity, dict):
            raise ConfigError(f"sparsity must map scenarios to thresholds, got {self.sparsity!r}")
        parsed = {}
        for sc, v in self.sparsity.items():  # a config file holds each as a two-key dict
            if sc not in SCENARIOS:
                raise ConfigError(f"sparsity: unknown scenario {sc!r}")
            if isinstance(v, SparsityConfig):
                parsed[sc] = v
            elif not isinstance(v, dict) or set(v) != {"t_elem", "t_rowcount"}:
                raise ConfigError(f"sparsity.{sc} must hold exactly t_elem and t_rowcount, got {v!r}")
            else:
                try:
                    parsed[sc] = SparsityConfig(**v)
                except ValueError as e:
                    raise ConfigError(f"sparsity.{sc}: {e}") from e
        object.__setattr__(self, "sparsity", parsed)

    def activation_kind(self) -> ActivationKind | None:
        return None if self.activation is None else ACTIVATIONS[self.activation]

    def perf_config(self, bundle=None) -> PerfConfig:
        """The geometry a report prices: the bundle's when one is given, else the defaults.

        No loadable bundle overflows the model: header sizes are u16, ``n`` is at
        most 128, and ``perf.LAYER_OVERHEAD`` (25000 > 0) keeps every total above 0.
        """
        if bundle is None:
            return PerfConfig()
        return PerfConfig(n=bundle.n, d=bundle.d, heads=bundle.heads, d_ff=bundle.d_ff,
                          d_h=bundle.d_h, pool_k=bundle.pool_k, pool_p=bundle.pool_p)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting, a huge integer
        raise ConfigError(f"invalid config file {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"invalid config file {path}: it must hold a JSON object")
    try:
        return RunConfig(**data)
    except TypeError as e:
        raise ConfigError(f"invalid config field: {e}") from e
