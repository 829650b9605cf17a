"""Command-line front end: generate, infer, sweep, ablate, perf, show-config.

Every command is a pure function of (config, input files, seeds): rerunning
with identical inputs produces byte-identical outputs, and each artifact
embeds the configuration that produced it.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 contract violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import channel, sparsity
from .activations import ACTIVATIONS, ActivationKind
from .config import ConfigError, RunConfig, load_config
from .engine import EngineConfig, make_engine
# quantize_array is unused here, but the benchmark's tracer wraps cli.quantize_array.
from .fxp import AccumulatorOverflow, quantize_array  # noqa: F401
from .perf import pipeline_report, stage_share
from .sparsity import SparsityConfig, output_deviation
from .weights import SCENARIOS, load_bundle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONTRACT = 4


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _engine(cfg: RunConfig, kind: str, bundle):
    """The ``kind`` ("int" or "float") engine with the run's settings."""
    return make_engine(kind, bundle, EngineConfig(
        activation=cfg.activation_kind(),
        scenario_override=cfg.scenario,
        router_window=cfg.router_window,
    ))


def _thresholds(cfg: RunConfig) -> dict | None:
    """The run's scenario -> SparsityConfig map, or None to threshold nothing."""
    return cfg.sparsity if cfg.sparsity_enabled else None


def _load_inputs(cfg: RunConfig, need_snapshots: bool = False):
    if cfg.bundle is None or cfg.fingerprints is None:
        raise ConfigError("this command requires --bundle and --fingerprints")
    bundle = load_bundle(cfg.bundle)
    fps = channel.read_fingerprints(cfg.fingerprints)
    if fps.shape[1:] != (bundle.n, bundle.d):
        raise ValueError(f"bundle {cfg.bundle} takes {bundle.n}x{bundle.d} snapshots, but "
                         f"fingerprint file {cfg.fingerprints} holds {fps.shape[1]}x{fps.shape[2]}")
    if need_snapshots and len(fps) == 0:
        raise ValueError(f"fingerprint file {cfg.fingerprints} holds no snapshots")
    return bundle, fps


# --------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig, args) -> int:
    if args.count < 0:
        raise ConfigError(f"count must be >= 0, got {args.count}")
    profile = channel.default_profile(
        args.scenario,
        seed=args.seed,
        **{
            k: v
            for k, v in dict(
                dominant_beams=args.dominant_beams,
                dominant_delays=args.dominant_delays,
                diffuse_floor=args.diffuse_floor,
            ).items()
            if v is not None
        },
    )
    fps = channel.generate_fingerprints(profile, args.count)
    channel.write_fingerprints(args.out, fps)
    if args.csv:
        channel.export_csv(args.csv, fps)
    print(f"wrote {args.count} {args.scenario} snapshot(s) to {args.out}")
    return EXIT_OK


def cmd_infer(cfg: RunConfig, args) -> int:
    bundle, fps = _load_inputs(cfg)
    kinds = ("int", "float") if cfg.engine == "both" else (cfg.engine,)
    engines = {kind: _engine(cfg, kind, bundle) for kind in kinds}
    runs = {kind: engine.run(fps, _thresholds(cfg)) for kind, engine in engines.items()}
    primary = runs[kinds[0]]

    akind = engines[kinds[0]].activation
    perf_cfg = cfg.perf_config(bundle)
    rows = []
    for i, res in enumerate(primary):
        report = pipeline_report(res.mask, res.scenario, akind, perf_cfg)
        row = {
            "index": i,
            "scenario": res.scenario,
            "x": float(res.coords[0]),
            "y": float(res.coords[1]),
            "row_sparsity": res.mask.skip_fraction,
            "cycles": report.total_cycles,
            "latency_s": report.latency_s,
        }
        if cfg.engine == "both":
            other = runs["float"][i]
            row["x_float"] = float(other.coords[0])
            row["y_float"] = float(other.coords[1])
            row["deviation"] = float(np.linalg.norm(res.coords - other.coords))
        rows.append(row)
    _write_json(args.out, {"config": cfg.to_dict(), "results": rows})
    print(f"wrote {len(rows)} result(s) to {args.out}")
    return EXIT_OK


def _grid(text: str, flag: str, parse) -> list:
    """A non-empty comma-separated grid; a value ``parse`` rejects is a config error."""
    try:
        values = [parse(v) for v in text.split(",") if v]
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e
    if not values:
        raise ConfigError(f"{flag}: grids must be non-empty")
    return values


def cmd_sweep(cfg: RunConfig, args) -> int:
    """One CSV row per (t_elem, t_rowcount) cell; ``--engine both`` sweeps the int engine.

    The baseline and every cell share one ``seen`` dict for this command only:
    each cell keeps its own row masks for the statistics, and a (scenario,
    thresholded input, row mask) already run reuses its coordinates.
    """
    t_elems = _grid(args.t_elem, "--t-elem", float)
    t_rowcounts = _grid(args.t_rowcount, "--t-rowcount", int)
    if not all(math.isfinite(t) and t >= 0 for t in t_elems):
        raise ConfigError(f"--t-elem values must be finite and >= 0, got {args.t_elem}")
    if any(r < 0 for r in t_rowcounts):
        raise ConfigError(f"--t-rowcount values must be >= 0, got {args.t_rowcount}")
    bundle, fps = _load_inputs(cfg, need_snapshots=True)
    engine = _engine(cfg, "int" if cfg.engine == "both" else cfg.engine, bundle)
    seen = {}
    baseline = np.array([r.coords for r in engine.run(fps, seen=seen)])
    rows = []
    for t_elem in t_elems:
        for t_rowcount in t_rowcounts:
            scfg = SparsityConfig(t_elem=t_elem, t_rowcount=t_rowcount)
            results = engine.run(fps, dict.fromkeys(SCENARIOS, scfg), seen)
            coords = np.array([r.coords for r in results])
            rows.append({"t_elem": t_elem, "t_rowcount": t_rowcount,
                         **sparsity.sparsity_stats([r.mask for r in results], fps.shape[-1]),
                         "output_deviation": output_deviation(coords, baseline)})
    with open(args.out, "w", newline="") as f:
        f.write("# config: " + json.dumps(cfg.to_dict(), sort_keys=True) + "\n")
        writer = csv.writer(f)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([repr(v) for v in row.values()])
    print(f"wrote {len(rows)} sweep row(s) to {args.out}")
    return EXIT_OK


ABLATION_LADDER = (
    {"engine": "float", "activation": "softmax-int", "sparsity": False},
    {"engine": "float", "activation": "sigmoid-bias", "sparsity": False},
    {"engine": "int", "activation": "sigmoid-bias", "sparsity": False},
    {"engine": "int", "activation": "sigmoid-bias", "sparsity": True},
)


def cmd_ablate(cfg: RunConfig, args) -> int:
    bundle, fps = _load_inputs(cfg, need_snapshots=True)
    rungs = []
    prev_coords = None
    perf_cfg = cfg.perf_config(bundle)
    for rung in ABLATION_LADDER:
        rung_cfg = dataclasses.replace(cfg, activation=rung["activation"],
                                       sparsity_enabled=rung["sparsity"])
        engine = _engine(rung_cfg, rung["engine"], bundle)
        results = engine.run(fps, _thresholds(rung_cfg))
        coords = np.array([r.coords for r in results])
        cycles = [
            pipeline_report(r.mask, r.scenario, engine.activation, perf_cfg).total_cycles
            for r in results
        ]
        entry = {
            "engine": rung["engine"],
            "activation": rung["activation"],
            "sparsity": rung["sparsity"],
            "mean_cycles": float(np.mean(cycles)),
            "cycles": cycles,
            "mean_row_sparsity": float(np.mean([r.mask.skip_fraction for r in results])),
        }
        if prev_coords is not None:
            entry["deviation_vs_previous"] = output_deviation(coords, prev_coords)
            entry["cycle_delta_vs_previous"] = entry["mean_cycles"] - rungs[-1]["mean_cycles"]
        prev_coords = coords
        rungs.append(entry)
    _write_json(args.out, {"config": cfg.to_dict(), "rungs": rungs})
    print(f"wrote ablation ladder ({len(rungs)} rungs) to {args.out}")
    return EXIT_OK


def cmd_perf(cfg: RunConfig, args) -> int:
    fractions = _grid(args.fractions, "--fractions", float)
    if not all(0 <= f <= 1 for f in fractions):
        raise ConfigError(f"--fractions values must be in [0, 1], got {args.fractions}")
    scenario = cfg.scenario or "S1"
    akind = cfg.activation_kind()
    if akind is None:
        akind = ActivationKind.SIGMOID_BIAS_LUT
    perf_cfg = cfg.perf_config()
    entries = []
    for frac in fractions:
        n_kept = perf_cfg.n - int(round(frac * perf_cfg.n))
        report = pipeline_report(n_kept, scenario, akind, perf_cfg)
        entry = report.to_dict()
        entry["mask_fraction"] = frac
        entry["stage_shares"] = stage_share(report)
        entries.append(entry)
    _write_json(args.out, {"config": cfg.to_dict(), "reports": entries})
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["mask_fraction", "n_eff", "total_cycles", "latency_s",
                             "speedup_vs_dense", "throughput_pos_per_s"])
            for e in entries:
                writer.writerow([e["mask_fraction"], e["n_eff"], e["total_cycles"],
                                 repr(e["latency_s"]), repr(e["speedup_vs_dense"]),
                                 repr(e["throughput_pos_per_s"])])
    print(f"wrote {len(entries)} perf report(s) to {args.out}")
    return EXIT_OK


def cmd_show_config(cfg: RunConfig, args) -> int:
    print(cfg.to_json())
    return EXIT_OK


# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run-config file; flags override it")
    p.add_argument("--bundle", help="weight bundle path")
    p.add_argument("--fingerprints", help="fingerprint file path")
    p.add_argument("--engine", choices=("float", "int", "both"))
    p.add_argument("--scenario", choices=SCENARIOS, help="bypass the router")
    p.add_argument("--activation", choices=sorted(ACTIVATIONS))
    p.add_argument("--no-sparsity", dest="sparsity_enabled", action="store_const", const=False,
                   help="disable thresholding and masking")
    p.add_argument("--router-window", type=int)
    p.add_argument("--clock-hz", type=float)
    p.add_argument("--div-latency", type=int)
    p.add_argument("--pipeline-fill", type=int)
    p.add_argument("--c-overhead", type=float)
    p.add_argument("--layer-overhead", type=int)


def _build_config(args) -> RunConfig:
    """The config file's settings (or the defaults), overridden by every flag given."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    try:
        return dataclasses.replace(cfg, **updates)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamloc",
        description="Adaptive sparsity-aware integer Transformer localization model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a fingerprint file")
    p.add_argument("--scenario", choices=SCENARIOS, default="S1")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export a CSV for inspection")
    p.add_argument("--dominant-beams", type=int)
    p.add_argument("--dominant-delays", type=int)
    p.add_argument("--diffuse-floor", type=float)
    p.set_defaults(func=cmd_generate, needs_config=False)

    p = sub.add_parser("infer", help="run inference over a fingerprint file")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer, needs_config=True)

    p = sub.add_parser("sweep", help="threshold/zero-count grid sweep "
                       "(--engine both sweeps the int engine)")
    _add_common(p)
    p.add_argument("--t-elem", default="0.001,0.003,0.01,0.03,0.1")
    p.add_argument("--t-rowcount", default="0,8,16,24,32,40,46")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep, needs_config=True)

    p = sub.add_parser("ablate", help="optimization ladder over a batch")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate, needs_config=True)

    p = sub.add_parser("perf", help="cycle-model sweep over mask fractions")
    _add_common(p)
    p.add_argument("--fractions", default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write a CSV summary")
    p.set_defaults(func=cmd_perf, needs_config=True)

    p = sub.add_parser("show-config", help="print the effective configuration")
    _add_common(p)
    p.set_defaults(func=cmd_show_config, needs_config=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.needs_config:
            cfg = _build_config(args)
        else:
            cfg = RunConfig()
        return args.func(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (AccumulatorOverflow, ValueError) as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
