"""Tests of the benchmark's own logic: python3 -m pytest bench -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import beamloc.activations  # noqa: E402
import beamloc.engine  # noqa: E402
import beamloc.sparsity  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402
from beamloc import channel, weights  # noqa: E402
from beamloc.router import RouterState  # noqa: E402


def test_self_time_and_stage_attribution():
    spans = [
        ["cli.main", -1, 0.0, 12.0],
        ["engine.infer", 0, 1.0, 11.0],          # self 10 - 5 - 3 = 2 -> other
        ["engine.mha", 1, 1.0, 6.0],             # self 5 - 1 - 1 - 0.5 = 2.5 -> wo
        ["engine.qkv_project", 2, 1.0, 2.0],     # self 1 - 0.6 = 0.4 -> qkv
        ["engine.matmul", 3, 1.2, 1.8],          # -> qkv
        ["fxp.qmatmul", 4, 1.3, 1.7],            # fxp layer, qkv stage
        ["engine.matmul", 2, 4.0, 5.0],          # the w_o product -> wo
        ["fxp.sat_add", 2, 5.0, 5.5],            # the residual, wo stage
        ["engine.ffn", 1, 6.0, 9.0],             # self 3 - 1 - 1 = 1 -> ffn1
        ["engine.matmul", 8, 6.0, 7.0],          # -> ffn1
        ["engine.matmul", 8, 7.5, 8.5],          # -> ffn2
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([2.0, 2.0, 2.5, 0.4, 0.2, 0.4, 1.0, 0.5, 1.0, 1.0, 1.0])
    assert tracing.stages_of(spans) == [
        None, "other", "wo", "qkv", "qkv", "qkv", "wo", "wo", "ffn1", "ffn1", "ffn2"]

    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    m = tracing.layer_metrics(tracer)
    assert m["engine.wo_s"] == pytest.approx(3.5)
    assert m["engine.qkv_s"] == pytest.approx(0.6)
    assert m["engine.ffn1_s"] == pytest.approx(2.0)
    assert m["engine.ffn2_s"] == pytest.approx(1.0)
    assert m["engine.other_s"] == pytest.approx(2.0)
    assert m["fxp.qmatmul_s"] == pytest.approx(0.4)
    assert m["fxp.sat_add_s"] == pytest.approx(0.5)
    assert m["fxp.qmatmul_calls"] == 1
    assert m["cli.self_s"] == pytest.approx(2.0)


def test_wrapped_calls_nest_and_restore():
    tracer = tracing.Tracer()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    originals = dict(vars(Box))
    tracer.patch(Box, "outer", "t.outer")
    tracer.patch(Box, "inner", "t.inner")
    assert Box().outer() == 2
    assert [(s[0], s[1]) for s in tracer.spans] == [("t.outer", -1), ("t.inner", 0)]
    assert all(s[2] <= s[3] for s in tracer.spans)
    tracer.restore()
    assert dict(vars(Box)) == originals


def test_route_counters_recompute_switches_and_ties():
    tracer = tracing.Tracer()
    tracer.patch(beamloc.engine, "route", "router.route",
                 pre=lambda args: args[0].current, post=tracer._count_route)
    try:
        state = RouterState.create(2)
        for label in (1, 0, 0):   # switch to 1, tied vote holds 1, switch to 0
            beamloc.engine.route(state, np.eye(3)[label])
    finally:
        tracer.restore()
    assert tracer.counters["router.switches"] == 2
    assert tracer.counters["router.tie_holds"] == 1


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    bundle = work / "bundle.bin"
    weights.save_bundle(bundle, weights.random_bundle(seed=wl.BUNDLE_SEED))
    inputs = work / "inputs.bdfp"
    channel.write_fingerprints(inputs, channel.generate_fingerprints(
        channel.default_profile("S3", seed=5), 3))
    return work, bundle, inputs


def test_every_wrapper_sees_calls_and_originals_come_back(files):
    work, bundle, inputs = files
    e = beamloc.engine
    owners = (e, beamloc.cli, beamloc.fxp, beamloc.channel, beamloc.weights, beamloc.sparsity,
              beamloc.activations, e._EngineBase, e.IntEngine, e.FloatEngine, weights.ModelBundle)
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert wl.call_cli(["generate", "--count", "1", "--out", str(work / "g.bdfp")])[0] == 0
        for flags in ((), ("--scenario", "S2", "--activation", "softmax-int")):
            for kind in ("int", "float"):
                code, err, _ = wl.call_cli(["infer", "--bundle", str(bundle), "--fingerprints",
                                            str(inputs), "--engine", kind,
                                            "--out", str(work / "i.json"), *flags])
                assert code == 0, err
        code, err, _ = wl.call_cli(["sweep", "--bundle", str(bundle), "--fingerprints", str(inputs),
                                    "--t-elem", "0.01", "--t-rowcount", "8",
                                    "--out", str(work / "s.csv")])
        assert code == 0, err
    finally:
        tracer.restore()
    seen = {s[0] for s in tracer.spans}
    expected = set(tracing.ENGINE_STAGE) | set(tracing.TIMED) | {"engine.matmul", "cli.main"}
    assert expected <= seen, expected - seen
    assert tracer.counters["fxp.macs"] > 0 and tracer.int_infers
    assert [dict(vars(o)) for o in owners] == before


def test_spread_and_medians():
    assert wl.spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)   # quartiles 1.5 and 4.5
    assert wl.spread([7.0]) == 0.0
    assert wl.medians([{"a": 1, "b": 9}, {"a": 3, "b": 8}, {"a": 2, "b": 7}]) == {"a": 2, "b": 8}


def test_truncated_fingerprints_fail_every_op(files):
    work, bundle, inputs = files
    broken = work / "broken.bdfp"
    broken.write_bytes(inputs.read_bytes()[:-100])
    cmd, rows = wl.infer("int", bundle, broken, work / "out.json", (), 3)
    assert rows is None
    assert (cmd.ops, cmd.failed) == (3, 3)
    assert cmd.errors


def test_digest_mismatch_fails_the_command(files):
    work, bundle, inputs = files
    cmd, rows = wl.infer("int", bundle, inputs, work / "out.json", (), 3)
    assert cmd.failed == 0 and len(rows) == 3
    p = wl.Pass(0.0, {"int": cmd}, {})
    assert wl.check_digests(p, {"int": cmd.digest}, "self") == []
    assert wl.check_digests(p, {"int": "0" * 64}, "record") == ["int"]
    assert cmd.failed == 3
