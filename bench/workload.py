"""Workloads, one pass of beamloc CLI commands, and the same-bits checks.

Every workload runs the same four commands in-process through
``beamloc.cli.main``: ``generate`` for its scenario blocks, ``infer --engine
int`` and ``infer --engine float`` on the concatenated blocks, and ``sweep
--engine int`` over the CLI default 5x7 grid on the first snapshots.  The
workloads differ in scenario mix and flags, so they stress different layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import struct
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import beamloc.cli

BUNDLE_SEED = 7          # random_bundle(seed=7), the ROADMAP baseline bundle
SWEEP_CELLS = 35         # the CLI default grid: 5 t_elem x 7 t_rowcount values
SNAPSHOT_BYTES = 128 * 46 * 4
# Normalized RMS of int vs float coordinates, over snapshots both engines
# route alike, above which the float rows count as failed.  Seeds 0-20 and
# 4242 give at most 0.073 on stream, 0.012 on dense and 0.014 on sweep.
MAX_INT_FLOAT_DEV = 0.25
# Each timed sample repeats its command until it has run this long, so that
# the short float inferences are not lost in timer and scheduling noise.
MIN_SAMPLE_SECONDS = 0.5
# Host time is scaled to a host on which reference_seconds() takes this long.
REF_SECONDS = 0.04
_REF = np.random.default_rng(0)
_REF_INT, _REF_INT_W = _REF.integers(-4096, 4096, (128, 46)), _REF.integers(-4096, 4096, (46, 46))
_REF_FLOAT, _REF_FLOAT_W = _REF.standard_normal((128, 46)), _REF.standard_normal((46, 46))


@dataclass(frozen=True)
class Workload:
    blocks: tuple        # (scenario, count) per `beamloc generate` call
    flags: tuple         # extra flags for infer and sweep
    sweep_count: int     # sweep runs on this many leading snapshots


WORKLOADS = {
    # The full user path: the router sees S1, S3 and S2 blocks in turn and
    # switches; per-scenario sparsity skips about half of layer 1's rows.
    "stream": Workload((("S1", 80), ("S3", 80), ("S2", 80)), ("--router-window", "15"), 4),
    # Both S2 encoders on all 128 rows: the most fxp work, no router or
    # row skipping in infer, and softmax-int's row-normalizing LUT path.
    "dense": Workload((("S2", 160),),
                      ("--scenario", "S2", "--no-sparsity", "--activation", "softmax-int"), 4),
    # Sweep-heavy: 36 engine constructions and passes over 8 snapshots.  The
    # router is bypassed: it sends S3 inputs to S2 or S3 by seed, and with
    # them the skipped-row fraction swings from 0.47 to 0.68.
    "sweep": Workload((("S3", 160),), ("--scenario", "S3"), 8),
}


def spread(values) -> float:
    """Interquartile distance over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def medians(dicts: list) -> dict:
    """Per-key median over dicts that share their keys."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def reference_seconds() -> float:
    """Wall time of a fixed kernel of interpreter, int64 and BLAS work.

    Other tenants of a shared host slow this kernel and the workload alike
    (their pass-to-pass times correlate at 0.9, and either one alone swings
    by half), so host-time metrics divide by it: a pass that took t seconds
    next to a reference time r counts as t * REF_SECONDS / r.
    """
    times = []
    for _ in range(3):     # the median of three damps a burst inside one
        start = time.perf_counter()
        acc = 0
        for i in range(80):
            acc += int(((_REF_INT @ _REF_INT_W) >> 8)[i % 128, i % 46])
            acc += int((_REF_FLOAT @ _REF_FLOAT_W)[i % 128, 0] > 0)
            acc += len({k: k * i for k in range(40)})
        times.append(time.perf_counter() - start)
    return 3 * statistics.median(times)


def block_seed(seed: int, block: int) -> int:
    """Generator seed of one block; snapshot j of the block uses this + j."""
    return seed * 1_000_000 + block * 10_000


@dataclass
class Command:
    name: str
    ops: int
    seconds: float = 0.0
    scaled_seconds: float = 0.0  # seconds * REF_SECONDS / reference time
    failed: int = 0
    digest: str | None = None
    errors: list = field(default_factory=list)

    def fail(self, why: str, ops: int | None = None) -> None:
        self.failed = self.ops if ops is None else min(self.ops, self.failed + ops)
        self.errors.append(why)


@dataclass
class Pass:
    wall: float
    commands: dict       # name -> Command
    summary: dict        # routing and quality facts of the int/float rows

    def digests(self) -> dict:
        return {name: c.digest for name, c in self.commands.items() if c.digest}


def call_cli(argv: list) -> tuple:
    """Run ``beamloc.cli.main(argv)`` with its output captured.

    Returns (exit code or None if it raised, stderr text, seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = beamloc.cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:  # a crash fails the command; the benchmark carries on
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue(), time.perf_counter() - start


def _check_exit(cmd: Command, code, err: str, ops: int | None = None) -> bool:
    if code != 0:
        cmd.fail(f"exit {code}: {err.strip()[-300:]}", ops)
        return False
    return True


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_bdfp(path: Path, payloads: list) -> None:
    """A BDFP fingerprint file (magic, u32 count, float32 payload)."""
    body = b"".join(payloads)
    with open(path, "wb") as f:
        f.write(b"BDFP" + struct.pack("<I", len(body) // SNAPSHOT_BYTES) + body)


def generate(wl: Workload, seed: int, work: Path) -> tuple:
    """Run generate per block; returns the command and the block payloads."""
    cmd = Command("generate", sum(count for _, count in wl.blocks))
    payloads = []
    for i, (scenario, count) in enumerate(wl.blocks):
        path = work / f"block{i}.bdfp"
        code, err, seconds = call_cli([
            "generate", "--scenario", scenario, "--count", str(count),
            "--seed", str(block_seed(seed, i)), "--out", str(path)])
        cmd.seconds += seconds
        data = path.read_bytes() if path.exists() else b""
        if _check_exit(cmd, code, err, count) and len(data) != 8 + count * SNAPSHOT_BYTES:
            cmd.fail(f"block {i}: {len(data)} bytes", count)
        payloads.append(data[8:])
    cmd.digest = sha256(b"".join(payloads))
    return cmd, payloads


def infer(kind: str, bundle: Path, inputs: Path, out: Path, flags, count: int) -> tuple:
    """Run infer; returns the command and its result rows (None on failure)."""
    cmd = Command(kind, count)
    code, err, cmd.seconds = call_cli([
        "infer", "--bundle", str(bundle), "--fingerprints", str(inputs),
        "--engine", kind, "--out", str(out), *flags])
    if not _check_exit(cmd, code, err):
        return cmd, None
    rows = json.loads(out.read_text())["results"]
    if len(rows) != count:
        cmd.fail(f"{len(rows)} rows for {count} snapshots")
        return cmd, None
    if kind == "int":
        keys = ("scenario", "x", "y", "row_sparsity", "cycles")
        cmd.digest = sha256(json.dumps([[r[k] for k in keys] for r in rows]).encode())
    return cmd, rows


def sweep(bundle: Path, inputs: Path, out: Path, flags) -> tuple:
    """Run sweep; returns the command and None, like generate and infer."""
    cmd = Command("sweep", SWEEP_CELLS)
    code, err, cmd.seconds = call_cli([
        "sweep", "--bundle", str(bundle), "--fingerprints", str(inputs),
        "--engine", "int", "--out", str(out), *flags])
    if _check_exit(cmd, code, err):
        body = out.read_text().split("\n", 1)[1]   # drop the config line
        if body.count("\n") != SWEEP_CELLS + 1:
            cmd.fail(f"{body.count(chr(10)) - 1} sweep rows")
        cmd.digest = sha256(body.encode())
    return cmd, None


def repeated(run_once, min_seconds: float) -> tuple:
    """Run a command until it has taken ``min_seconds`` or failed.

    Each repetition is scaled by the reference times just before and after
    it.  Returns the merged command and the last repetition's output.  A
    digest that changes between repetitions fails that repetition.
    """
    total = None
    after = reference_seconds()
    while total is None or (total.seconds < min_seconds and not total.failed):
        before = after
        cmd, out = run_once()
        after = reference_seconds()
        cmd.scaled_seconds = cmd.seconds * REF_SECONDS * 2 / (before + after)
        if total is None:
            total = cmd
            continue
        if cmd.digest != total.digest:
            cmd.fail("digest changed between repetitions")
        total.ops += cmd.ops
        total.seconds += cmd.seconds
        total.scaled_seconds += cmd.scaled_seconds
        total.failed += cmd.failed
        total.errors += cmd.errors
    return total, out


def summarize(int_rows, float_rows) -> dict:
    """Routing and quality facts; int_float_dev is None without both rows."""
    if not int_rows:
        return {}
    out = {
        "routed": dict(sorted(Counter(r["scenario"] for r in int_rows).items())),
        "mean_skip_frac": float(np.mean([r["row_sparsity"] for r in int_rows])),
        "modeled_kcycles": float(np.mean([r["cycles"] for r in int_rows])) / 1000.0,
        "int_float_dev": None,
    }
    if float_rows:
        same = [(a, b) for a, b in zip(int_rows, float_rows) if a["scenario"] == b["scenario"]]
        out["route_disagreements"] = len(int_rows) - len(same)
        if same:
            ci = np.array([[a["x"], a["y"]] for a, _ in same])
            cf = np.array([[b["x"], b["y"]] for _, b in same])
            ref = np.sqrt(np.mean(np.sum(cf ** 2, axis=1)))
            out["int_float_dev"] = float(np.sqrt(np.mean(np.sum((ci - cf) ** 2, axis=1))) / ref)
    return out


def run_pass(wl: Workload, seed: int, work: Path, bundle: Path,
             min_seconds: float = MIN_SAMPLE_SECONDS) -> Pass:
    """generate, infer int, infer float and sweep, each repeated to min_seconds."""
    start = time.perf_counter()
    gen, payloads = repeated(lambda: generate(wl, seed, work), min_seconds)
    inputs, sweep_inputs = work / "inputs.bdfp", work / "sweep.bdfp"
    write_bdfp(inputs, payloads)
    write_bdfp(sweep_inputs, [b"".join(payloads)[:wl.sweep_count * SNAPSHOT_BYTES]])
    count = sum(n for _, n in wl.blocks)
    int_cmd, int_rows = repeated(
        lambda: infer("int", bundle, inputs, work / "int.json", wl.flags, count), min_seconds)
    float_cmd, float_rows = repeated(
        lambda: infer("float", bundle, inputs, work / "float.json", wl.flags, count), min_seconds)
    sweep_cmd, _ = repeated(
        lambda: sweep(bundle, sweep_inputs, work / "sweep.csv", wl.flags), min_seconds)
    summary = summarize(int_rows, float_rows)
    dev = summary.get("int_float_dev")
    if float_rows and (dev is None or dev > MAX_INT_FLOAT_DEV):
        float_cmd.fail(f"int_float_dev {dev} above {MAX_INT_FLOAT_DEV}")
    commands = {c.name: c for c in (gen, int_cmd, float_cmd, sweep_cmd)}
    return Pass(time.perf_counter() - start, commands, summary)


def check_digests(p: Pass, expected: dict | None, label: str) -> list:
    """Fail each command whose digest differs from ``expected``; return their names."""
    if not expected:
        return []
    bad = []
    for name, digest in expected.items():
        cmd = p.commands[name]
        if cmd.digest != digest:
            cmd.fail(f"digest differs from {label}")
            bad.append(name)
    return bad
