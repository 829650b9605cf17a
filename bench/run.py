"""beamloc benchmark: CLI workloads, host-time and modeled-cycle metrics.

Usage, from the repository root:

    python3 bench/run.py                                 # every workload
    python3 bench/run.py --workload stream --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1        # per-layer run
    python3 bench/run.py --record                        # re-record digests

One process runs one workload (``all`` starts one child process per
workload).  Before measuring it runs the workload once on the default seed
and checks the digests recorded in ``bench/digests.json``, so every run
gates on the same bits.  It then repeats the workload on ``--seed`` inputs
for ``--seconds`` and reports medians.  Host times are scaled by a reference
kernel timed around each command run (``workload.reference_seconds``), which
cancels most of the slowdown other tenants of the host cause; the unscaled
times are kept in the result file.  With ``--trace 1`` it alternates
untraced and traced passes and reports per-layer self times and counts,
the measured-vs-modeled stage shares and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Names and units of the metrics come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 4242     # recorded, never used while tuning a change
SETUPS_PER_PASS = 5

# The matrices are at most 128x64, so BLAS threads only add scheduling
# noise (two threads made generate swing between 150 and 370 snapshots/s).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not (ROOT / "src" / "beamloc" / "__init__.py").is_file():
    sys.exit(f"bench: no beamloc sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workload as wlmod  # noqa: E402
from beamloc import channel, weights  # noqa: E402
from beamloc.config import RunConfig  # noqa: E402
from beamloc.engine import EngineConfig, make_engine  # noqa: E402


# -- run metadata --------------------------------------------------------------


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(name: str, seed: int, last: wlmod.Pass) -> dict:
    return {
        "workload": name, "seed": seed, "bundle_seed": wlmod.BUNDLE_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(), "git_commit": git_commit(),
        **{k: v for k, v in last.summary.items() if k != "int_float_dev"},
    }


# -- one workload ----------------------------------------------------------------


def setup_once(bundle_path: Path, inputs: Path) -> float:
    """load_bundle + read_fingerprints + both engines, bundle quantization included."""
    start = time.perf_counter()
    bundle = weights.load_bundle(bundle_path)
    channel.read_fingerprints(inputs)
    for kind in ("int", "float"):
        make_engine(kind, bundle, EngineConfig())
    return time.perf_counter() - start


def setups(bundle_path: Path, inputs: Path) -> list:
    """SETUPS_PER_PASS set-up times, scaled by the reference kernel around them."""
    before = wlmod.reference_seconds()
    times = [setup_once(bundle_path, inputs) for _ in range(SETUPS_PER_PASS)]
    ref = (before + wlmod.reference_seconds()) / 2
    return [t * wlmod.REF_SECONDS / ref for t in times]


class Run:
    """One workload at one seed: the canary pass, then measured passes.

    Traced runs pass ``min_seconds=0`` so that every pass runs each command
    exactly once and per-layer counts repeat exactly.
    """

    def __init__(self, name: str, seed: int, work: Path, min_seconds: float):
        self.seed, self.work, self.min_seconds = seed, work, min_seconds
        self.wl = wlmod.WORKLOADS[name]
        self.bundle = work / "bundle.bin"
        weights.save_bundle(self.bundle, weights.random_bundle(seed=wlmod.BUNDLE_SEED))
        recorded = json.loads(DIGESTS.read_text())["digests"].get(name, {})
        self.passes: list = []
        self.verdicts: list = []
        canary = self.run_pass(DEFAULT_SEED, min_seconds=0)
        self.check(canary, recorded.get(str(DEFAULT_SEED)), f"recorded seed {DEFAULT_SEED}")
        self.expected = recorded.get(str(seed))
        self.label = f"recorded seed {seed}"

    def run_pass(self, seed: int, min_seconds: float) -> wlmod.Pass:
        p = wlmod.run_pass(self.wl, seed, self.work, self.bundle, min_seconds)
        self.passes.append(p)
        return p

    def check(self, p: wlmod.Pass, expected, label: str) -> None:
        bad = wlmod.check_digests(p, expected, label)
        verdict = f"{label}: " + ("MISMATCH in " + ", ".join(bad) if bad else "match")
        if expected and verdict not in self.verdicts:
            self.verdicts.append(verdict)

    def measured_pass(self) -> wlmod.Pass:
        p = self.run_pass(self.seed, self.min_seconds)
        if self.expected is None:
            self.expected, self.label = p.digests(), f"first pass at seed {self.seed}"
        else:
            self.check(p, self.expected, self.label)
        return p

    @property
    def attempted(self) -> int:
        return sum(c.ops for p in self.passes for c in p.commands.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for p in self.passes for c in p.commands.values())

    def errors(self) -> list:
        return sorted({e for p in self.passes for c in p.commands.values() for e in c.errors})


def end_to_end(run: Run, seconds: float) -> tuple:
    passes, setup_times = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        setup_times += setups(run.bundle, run.work / "inputs.bdfp")
        passes.append(run.measured_pass())

    def rate(cmd: str, scaled: bool = True) -> list:
        return [p.commands[cmd].ops / (p.commands[cmd].scaled_seconds if scaled
                                       else p.commands[cmd].seconds) for p in passes]

    names = {"generate": "gen_snap_per_s", "int": "int_snap_per_s",
             "float": "float_snap_per_s", "sweep": "sweep_cells_per_s"}
    samples = {"setup_s": setup_times, **{m: rate(c) for c, m in names.items()}}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    samples.update({f"unscaled_{m}": rate(c, scaled=False) for c, m in names.items()})
    notes = [f"  {k:<34} median of {len(samples[k])}, spread {wlmod.spread(samples[k]):.3f} "
             f"(quartile distance / median)" for k in ("setup_s", *names.values())]
    metrics["modeled_kcycles"] = passes[-1].summary.get("modeled_kcycles", float("nan"))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples, notes, {}


def per_layer(run: Run, seconds: float) -> tuple:
    perf_cfg = RunConfig().perf_config(weights.load_bundle(run.bundle))
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1].wall + traced[-1].wall <= seconds:
        untraced.append(run.measured_pass())
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced.append(run.measured_pass())
        finally:
            tracer.restore()
        tracers.append(tracer)
    per_pass = []
    for tracer in tracers:
        m = tracing.layer_metrics(tracer)
        for stage, (measured, modeled) in tracing.stage_shares(tracer, perf_cfg).items():
            m[f"share.{stage}.measured"] = measured
            if stage != "other":
                m[f"share.{stage}.modeled"] = modeled
        per_pass.append(m)
    metrics = wlmod.medians(per_pass)
    metrics["int_float_dev"] = traced[-1].summary.get("int_float_dev", float("nan"))
    metrics["tracing.untraced_pass_s"] = statistics.median(p.wall for p in untraced)
    metrics["tracing.traced_pass_s"] = statistics.median(p.wall for p in traced)
    samples = {"untraced_pass_s": [p.wall for p in untraced],
               "traced_pass_s": [p.wall for p in traced]}
    overhead = metrics["tracing.traced_pass_s"] / metrics["tracing.untraced_pass_s"] - 1
    same = all(p.digests() == untraced[0].digests() for p in untraced + traced)
    notes = [f"  {'stage':<16} {'measured share':>15} {'modeled share':>14}"]
    for stage in tracing.STAGES + ("other",):
        modeled = metrics.get(f"share.{stage}.modeled")
        notes.append(f"  {stage:<16} {metrics[f'share.{stage}.measured']:>15.3f} "
                     f"{'-' if modeled is None else format(modeled, '.3f'):>14}")
    notes.append(f"  tracing overhead {overhead:+.1%}; traced digests "
                 + ("equal the untraced ones" if same else "DIFFER from the untraced ones"))
    spans = {"names": sorted({s[0] for t in tracers for s in t.spans})}
    index = {n: i for i, n in enumerate(spans["names"])}
    spans["passes"] = [[[index[n], parent, start, end] for n, parent, start, end in t.spans]
                       for t in tracers]
    return metrics, samples, notes, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (result line dict, human-readable lines)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, work, 0 if trace else wlmod.MIN_SAMPLE_SECONDS)
        metrics, samples, notes, spans = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = run.passes[1:]
    correct = run.failed == 0
    result = {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    meta = metadata(name, seed, measured[-1])
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"{len(measured)} measured pass(es) + 1 canary pass",
             "  " + "  ".join(f"{k}={v}" for k, v in meta.items() if k not in ("workload", "seed"))]
    lines += [f"  {k:<34} {v['value']:>14.6g}  {v['unit']}" for k, v in result["metrics"].items()]
    lines += notes
    lines += [f"  digests {v}" for v in run.verdicts]
    lines.append(f"  error_rate {run.failed / run.attempted:.4g} "
                 f"({run.failed} failed of {run.attempted} ops)")
    lines += [f"  error: {e}" for e in run.errors()]

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    record = {**result, "metadata": meta, "samples": samples, "verdicts": run.verdicts,
              "digests": measured[-1].digests(), "errors": run.errors()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as f:
            json.dump(spans, f)
    return result, lines


# -- commands ----------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh child process; prints their lines and a summary."""
    results, ok = {}, True
    for name in wlmod.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        out = child.stdout.strip().splitlines()
        if child.returncode != 0 or not out:
            print(f"workload {name}: exit {child.returncode}\n{child.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    summary = {
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if ok else 1


def record() -> int:
    """Re-record the digests of the default and the held-out seed."""
    work = HERE / ".work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bundle = work / "bundle.bin"
    weights.save_bundle(bundle, weights.random_bundle(seed=wlmod.BUNDLE_SEED))
    digests = {}
    try:
        for name, wl in wlmod.WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                p = wlmod.run_pass(wl, seed, work, bundle, min_seconds=0)
                errors = [e for c in p.commands.values() for e in c.errors]
                if errors:
                    print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = p.digests()
                print(f"{name} seed {seed}: {p.digests()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"bundle_seed": wlmod.BUNDLE_SEED, "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*wlmod.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record bench/digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.record:
        return record()
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
