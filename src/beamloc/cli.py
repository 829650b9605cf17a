"""Command-line front end: generate, infer, sweep, ablate, perf, show-config.

Every command is a pure function of (config, input files, seeds): rerunning
with identical inputs produces byte-identical outputs.  A command has flags
for exactly the ``RunConfig`` settings it reads (``SETTING_FLAGS``), and its
artifact embeds those settings and no others.  A ``--config`` file may hold
any setting, so one file serves every command.  ``infer``, ``sweep`` and
``ablate`` reduce each snapshot's results as they are run, so each holds
only its output rows and the per-snapshot values they are computed from.

Exit codes: 0 success, 2 config error, 3 I/O error or out of memory, 4
contract violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from array import array

import numpy as np

from . import channel, sparsity
from .activations import ACTIVATIONS, ActivationKind
from .config import ENGINES, ConfigError, RunConfig, load_config
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


def _engine(cfg: RunConfig, bundle):
    """The run's engine ("int" or "float") with the run's settings."""
    return make_engine(cfg.engine, bundle, EngineConfig(
        activation=cfg.activation_kind(),
        scenario_override=cfg.scenario,
        router_window=cfg.router_window,
    ))


def _cycle_pricer(activation, perf_cfg):
    """A result's cycle report, priced once per (scenario, kept-row count), all it reads."""
    report = functools.cache(lambda scenario, n_kept: pipeline_report(n_kept, scenario, activation,
                                                                       perf_cfg))
    return lambda result: report(result.scenario, result.mask.n_kept)


def _load_bundle(cfg: RunConfig):
    if cfg.bundle is None or cfg.fingerprints is None:
        raise ConfigError("this command requires --bundle and --fingerprints")
    return load_bundle(cfg.bundle)


def _sweep_file(cfg: RunConfig, engine, maps):
    """``engine.sweep`` of the fingerprint file: each snapshot's results, read and run one at a time.

    The first iteration checks the header, then that the bundle takes 128x46 snapshots.
    """
    bundle = engine.bundle
    with open(cfg.fingerprints, "rb") as f:
        snapshots = channel.iter_fingerprints(f, cfg.fingerprints)
        if (bundle.n, bundle.d) != (channel.N_BEAMS, channel.N_SUBCARRIERS):
            raise ValueError(f"bundle {cfg.bundle} takes {bundle.n}x{bundle.d} snapshots, but "
                             f"fingerprint file {cfg.fingerprints} holds "
                             f"{channel.N_BEAMS}x{channel.N_SUBCARRIERS}")
        yield from engine.sweep(snapshots, maps)


def _need_snapshots(cfg: RunConfig, per_snapshot) -> None:
    """Batch statistics need a snapshot: an empty file is a contract violation."""
    if not per_snapshot:
        raise ValueError(f"fingerprint file {cfg.fingerprints} holds no snapshots")


# --------------------------------------------------------------------------


def cmd_generate(cfg: RunConfig, args) -> int:
    if not 0 <= args.count < 2**32:  # a fingerprint file's header holds it as a u32
        raise ConfigError(f"count must be in 0..{2**32 - 1}, got {args.count}")
    fps = channel.generate_fingerprints(channel.default_profile(args.scenario, seed=args.seed),
                                        args.count)
    channel.write_fingerprints(args.out, fps)
    print(f"wrote {args.count} {args.scenario} snapshot(s) to {args.out}")
    return EXIT_OK


def cmd_infer(cfg: RunConfig, args) -> int:
    """One row per snapshot; the engine is built first, so an int engine keeps no float bundle."""
    engine = _engine(cfg, _load_bundle(cfg))
    price = _cycle_pricer(engine.activation, cfg.perf_config(engine.bundle))
    rows = []
    for i, [res] in enumerate(_sweep_file(cfg, engine, [cfg.sparsity])):
        report = price(res)
        rows.append({
            "index": i,
            "scenario": res.scenario,
            "x": float(res.coords[0]),
            "y": float(res.coords[1]),
            "row_sparsity": res.mask.skip_fraction,
            "cycles": report.total_cycles,
            "latency_s": report.latency_s,
        })
    _write_json(args.out, {"config": _settings(cfg, args), "results": rows})
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
    """One CSV row per (t_elem, t_rowcount) cell of one engine.

    The baseline and then every cell run in one ``engine.sweep``, which reads
    the file once: each snapshot is prepared and routed once, and thresholded
    and zero-counted once per ``t_elem``; a (thresholded input, row mask)
    already run reuses its coordinates.  Each cell keeps, for its statistics,
    an exact zero total and its skip fractions and flat coordinates in order.
    """
    t_elems = _grid(args.t_elem, "--t-elem", lambda v: SparsityConfig(float(v), 0).t_elem)
    t_rowcounts = _grid(args.t_rowcount, "--t-rowcount",
                        lambda v: SparsityConfig(0.0, int(v)).t_rowcount)
    engine = _engine(cfg, _load_bundle(cfg))
    cells = [SparsityConfig(t_elem, t_rowcount) for t_elem in t_elems for t_rowcount in t_rowcounts]
    baseline, zeros = array("d"), [0] * len(cells)
    skips, coords = [array("d") for _ in cells], [array("d") for _ in cells]
    for base, *results in _sweep_file(
            cfg, engine, [None, *(dict.fromkeys(SCENARIOS, cell) for cell in cells)]):
        baseline.extend(base.coords)
        for i, res in enumerate(results):
            zeros[i] += int(res.mask.zero_counts.sum())
            skips[i].append(res.mask.skip_fraction)
            coords[i].extend(res.coords)
    _need_snapshots(cfg, baseline)
    baseline = np.reshape(baseline, (-1, 2))
    rows = [{"t_elem": cell.t_elem, "t_rowcount": cell.t_rowcount,
             **sparsity.sparsity_stats(zeros[i], skips[i], engine.bundle.n, engine.bundle.d),
             "output_deviation": output_deviation(np.reshape(coords[i], (-1, 2)), baseline)}
            for i, cell in enumerate(cells)]
    with open(args.out, "w", newline="") as f:
        f.write("# config: " + json.dumps(_settings(cfg, args), sort_keys=True) + "\n")
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
    """The ladder's rungs in order, each reading the file once; the int rungs share one engine."""
    bundle = _load_bundle(cfg)
    engine_for = functools.cache(lambda kind, activation: _engine(
        dataclasses.replace(cfg, engine=kind, activation=activation), bundle))
    rungs = []
    prev_coords = None
    perf_cfg = cfg.perf_config(bundle)
    for rung in ABLATION_LADDER:
        engine = engine_for(rung["engine"], rung["activation"])
        price = _cycle_pricer(engine.activation, perf_cfg)
        coords, cycles, skips = array("d"), [], array("d")
        for [res] in _sweep_file(cfg, engine, [cfg.sparsity if rung["sparsity"] else None]):
            coords.extend(res.coords)
            cycles.append(price(res).total_cycles)
            skips.append(res.mask.skip_fraction)
        _need_snapshots(cfg, cycles)
        coords = np.reshape(coords, (-1, 2))
        entry = {
            "engine": rung["engine"],
            "activation": rung["activation"],
            "sparsity": rung["sparsity"],
            "mean_cycles": float(np.mean(cycles)),
            "cycles": cycles,
            "mean_row_sparsity": float(np.mean(skips)),
        }
        if prev_coords is not None:
            entry["deviation_vs_previous"] = output_deviation(coords, prev_coords)
            entry["cycle_delta_vs_previous"] = entry["mean_cycles"] - rungs[-1]["mean_cycles"]
        prev_coords = coords
        rungs.append(entry)
    _write_json(args.out, {"config": _settings(cfg, args), "rungs": rungs})
    print(f"wrote ablation ladder ({len(rungs)} rungs) to {args.out}")
    return EXIT_OK


def cmd_perf(cfg: RunConfig, args) -> int:
    """Cycle reports of the bundle's geometry and activation, or of the defaults without one."""
    fractions = _grid(args.fractions, "--fractions", float)
    if not all(0 <= f <= 1 for f in fractions):
        raise ConfigError(f"--fractions values must be in [0, 1], got {args.fractions}")
    scenario = cfg.scenario or "S1"
    bundle = None if cfg.bundle is None else load_bundle(cfg.bundle)
    akind = cfg.activation_kind()
    if akind is None:
        akind = ActivationKind.SIGMOID_BIAS_LUT if bundle is None else bundle.activation
    perf_cfg = cfg.perf_config(bundle)
    entries = []
    for frac in fractions:
        n_kept = perf_cfg.n - int(round(frac * perf_cfg.n))
        report = pipeline_report(n_kept, scenario, akind, perf_cfg)
        entry = report.to_dict()
        entry["mask_fraction"] = frac
        entry["stage_shares"] = stage_share(report)
        entries.append(entry)
    _write_json(args.out, {"config": _settings(cfg, args), "reports": entries})
    print(f"wrote {len(entries)} perf report(s) to {args.out}")
    return EXIT_OK


def cmd_show_config(cfg: RunConfig, args) -> int:
    print(json.dumps(_settings(cfg, args), indent=2, sort_keys=True))
    return EXIT_OK


# --------------------------------------------------------------------------


# Each RunConfig setting's flag and argparse keywords; build_parser gives a
# command the flags of the settings it reads.
SETTING_FLAGS = {
    "bundle": ("--bundle", dict(help="weight bundle path")),
    "fingerprints": ("--fingerprints", dict(help="fingerprint file path")),
    "engine": ("--engine", dict(choices=ENGINES,
                                help="int: the Q8.8 engine; float: the float64 oracle")),
    "scenario": ("--scenario", dict(choices=SCENARIOS, help="bypass the router")),
    "activation": ("--activation", dict(choices=sorted(ACTIVATIONS))),
    "sparsity": ("--no-sparsity", dict(action="store_const", const={},
                                       help="threshold nothing (sparsity = {})")),
    "router_window": ("--router-window", dict(type=int)),
}


def _add_settings(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` and the flags of ``names``, the settings the command reads and embeds."""
    p.add_argument("--config", help="JSON run-config file of any settings; flags override it")
    for name in names:
        flag, kwargs = SETTING_FLAGS[name]
        p.add_argument(flag, dest=name, **kwargs)
    p.set_defaults(settings=names)


def _settings(cfg: RunConfig, args) -> dict:
    """The settings the command reads, as its artifact embeds them."""
    return {name: value for name, value in cfg.to_dict().items() if name in args.settings}


def _build_config(args) -> RunConfig:
    """The config file's settings (or the defaults), overridden by every flag given."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    updates = {name: getattr(args, name) for name in args.settings
               if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **updates)


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
    p.set_defaults(func=cmd_generate, settings=())

    p = sub.add_parser("infer", help="run inference over a fingerprint file")
    _add_settings(p, *SETTING_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep", help="threshold/zero-count grid sweep")
    _add_settings(p, "bundle", "fingerprints", "engine", "scenario", "activation", "router_window")
    # Hidden and unread (each cell sets its own thresholds); the benchmark's dense workload passes it.
    p.add_argument("--no-sparsity", action="store_true", dest="unread", help=argparse.SUPPRESS)
    p.add_argument("--t-elem", default="0.001,0.003,0.01,0.03,0.1")
    p.add_argument("--t-rowcount", default="0,8,16,24,32,40,46")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="optimization ladder over a batch")
    _add_settings(p, "bundle", "fingerprints", "scenario", "sparsity", "router_window")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("perf", help="cycle-model sweep over mask fractions")
    _add_settings(p, "bundle", "scenario", "activation")
    p.add_argument("--fractions", default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("show-config", help="print the effective configuration")
    _add_settings(p, *SETTING_FLAGS)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_build_config(args), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_IO
    except (AccumulatorOverflow, ValueError) as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
