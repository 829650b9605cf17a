import dataclasses
import math

import numpy as np
import pytest

from beamloc.activations import ActivationKind, sigmoid_bias_code
from beamloc.channel import default_profile, generate_fingerprints
from beamloc.config import DEFAULT_SPARSITY
from beamloc.engine import EngineConfig, FloatEngine, IntEngine, make_engine
from beamloc.fxp import dequantize_array, quantize, quantize_array
from beamloc.router import RouterState
from beamloc.sparsity import RowMask, SparsityConfig, build_row_mask
from beamloc.weights import random_bundle
from oracles import masked_dense_layer_int, naive_matmul_float, naive_matmul_q, requantize, requantize_int64


def _engines(bundle, **cfg):
    ecfg = EngineConfig(**cfg)
    return FloatEngine(bundle, ecfg), IntEngine(bundle, ecfg)


def _mask(bits):
    skip = np.array(bits, dtype=bool)
    return RowMask(skip=skip, zero_counts=np.where(skip, 99, 0).astype(np.int64))


# --- projections -----------------------------------------------------------


def test_qkv_identity_weight(toy_bundle):
    fe, ie = _engines(toy_bundle)
    seg = toy_bundle.segments["S1"][0]
    eye = dataclasses.replace(seg, w_q=np.eye(4), w_k=np.eye(4), w_v=np.eye(4))
    x = np.array([[0.5, -1.25, 3.0, 0.0], [2.0, 0.25, -0.75, 1.0]])
    q, k, v = fe.qkv_project(x, eye)
    assert np.array_equal(q, x) and np.array_equal(k, x) and np.array_equal(v, x)
    eye_q = dataclasses.replace(
        ie.bundle.segments["S1"][0],
        w_q=quantize_array(np.eye(4)), w_k=quantize_array(np.eye(4)), w_v=quantize_array(np.eye(4)),
    )
    xq = quantize_array(x)
    q, k, v = ie.qkv_project(xq, eye_q)
    assert np.array_equal(q, xq) and np.array_equal(k, xq) and np.array_equal(v, xq)


def test_qkv_zero_input(toy_bundle):
    fe, ie = _engines(toy_bundle)
    for eng, x in ((fe, np.zeros((3, 4))), (ie, np.zeros((3, 4), dtype=np.int16))):
        seg = eng.bundle.segments["S1"][0]
        q, k, v = eng.qkv_project(x, seg)
        assert not q.any() and not k.any() and not v.any()


def test_qkv_matches_naive_oracles(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    seg_f = toy_bundle.segments["S1"][0]
    seg_q = ie.bundle.segments["S1"][0]
    for _ in range(25):
        x = rng.uniform(-2, 2, size=(4, 4))
        q, _, _ = fe.qkv_project(x, seg_f)
        assert np.max(np.abs(q - naive_matmul_float(x, seg_f.w_q))) < 1e-12
        xq = quantize_array(x)
        qi, _, _ = ie.qkv_project(xq, seg_q)
        assert np.array_equal(qi, naive_matmul_q(xq, seg_q.w_q))


# --- attention scores ------------------------------------------------------


def test_scores_gamma_zero(toy_bundle):
    fe, ie = _engines(toy_bundle)
    qh = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert not fe.attention_scores(qh, qh, 0.0).any()
    assert not ie.attention_scores(quantize_array(qh), quantize_array(qh), 0.0).any()


def test_scores_one_hot_gram(toy_bundle):
    fe, _ = _engines(toy_bundle)
    qh = np.eye(2)
    s = fe.attention_scores(qh, qh, math.sqrt(2))
    assert np.allclose(s, np.eye(2))


def test_scores_match_explicit_form(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    for _ in range(25):
        gamma = float(rng.uniform(-1, 1))
        qh = rng.uniform(-2, 2, size=(3, 2))
        kh = rng.uniform(-2, 2, size=(3, 2))
        ref = gamma * naive_matmul_float(qh, kh.T) / math.sqrt(2)
        assert np.max(np.abs(fe.attention_scores(qh, kh, gamma) - ref)) < 1e-12
        # integer path: requantized dot, then one folded Q8.8 multiplier
        qq, kq = quantize_array(qh), quantize_array(kh)
        raw = naive_matmul_q(qq, kq.T)
        m = quantize(gamma / math.sqrt(2))
        expect = np.array([[requantize(int(r) * m) for r in row] for row in raw])
        assert np.array_equal(ie.attention_scores(qq, kq, gamma), expect)


@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda kind: kind.name)
def test_float_activation_is_the_exact_form(full_bundle, rng, kind):
    scores = rng.normal(0.0, 3.0, size=(6, 9))
    e = np.exp(scores)
    sig = 1.0 / (1.0 + np.exp(-scores))
    exact = {
        ActivationKind.SOFTMAX_INT: e / e.sum(axis=1, keepdims=True),
        ActivationKind.SIGMOID_LUT: sig,
        ActivationKind.SIGMOID_BIAS_LUT: 1.0 / (1.0 + np.exp(np.log(full_bundle.n) - scores)),
        ActivationKind.SIGMOID_NORM_LUT: sig / sig.sum(axis=1, keepdims=True),
    }[kind]
    fe = FloatEngine(full_bundle, EngineConfig(activation=kind))
    np.testing.assert_allclose(fe.activation_op(scores), exact, rtol=1e-12, atol=0)


# --- head output and mha ---------------------------------------------------


def test_head_output_identity_and_zero(toy_bundle):
    fe, ie = _engines(toy_bundle)
    vh = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert np.array_equal(fe.head_output(np.eye(2), vh), vh)
    assert not fe.head_output(np.zeros((2, 2)), vh).any()
    vq = quantize_array(vh)
    eye_q = quantize_array(np.eye(2))
    assert np.array_equal(ie.head_output(eye_q, vq), vq)


def test_head_output_matches_oracle(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    for _ in range(25):
        a = rng.uniform(0, 1, size=(3, 3))
        vh = rng.uniform(-2, 2, size=(3, 2))
        assert np.max(np.abs(fe.head_output(a, vh) - naive_matmul_float(a, vh))) < 1e-12
        aq, vq = quantize_array(a), quantize_array(vh)
        assert np.array_equal(ie.head_output(aq, vq), naive_matmul_q(aq, vq))


def test_encoder_layer_passes_skipped_rows_through(toy_bundle):
    skip = np.array([True, False, False, True, True, False, True, False])
    for kind in ("float", "int"):
        engine = make_engine(kind, toy_bundle)
        seg = engine.bundle.segments["S1"][0]
        x = engine.prepare_input(np.arange(32, dtype=np.float64).reshape(8, 4) / 16)
        # every row skipped: attention and FFN both leave the input as it is
        assert np.array_equal(engine.encoder_layer(x, seg, _mask([True] * 8)), x)
        got = engine.encoder_layer(x, seg, _mask(skip))
        assert np.array_equal(got[skip], x[skip])
        if engine.is_integer:  # the ReLU and residuals keep Q8.8 codes int16
            assert got.dtype == engine.ffn(x, seg).dtype == np.int16
        # the kept rows see only each other
        assert np.array_equal(got[~skip], engine.encoder_layer(x[~skip], seg))


def test_mha_zero_wo_is_residual_only(toy_bundle, rng):
    fe, _ = _engines(toy_bundle)
    seg = dataclasses.replace(toy_bundle.segments["S1"][0], w_o=np.zeros((4, 4)))
    x = rng.uniform(-1, 1, size=(8, 4))
    assert np.allclose(fe.mha(x, seg), x)


# --- ffn and coordinate head ------------------------------------------------


def test_ffn_bias_chase(toy_bundle):
    fe, _ = _engines(toy_bundle)
    seg = toy_bundle.segments["S1"][0]
    zero_in = np.zeros((5, 4))
    expect = np.maximum(seg.ffn_b1, 0.0) @ seg.ffn_w2 + seg.ffn_b2
    assert np.allclose(fe.ffn(zero_in, seg), np.tile(expect, (5, 1)))
    # all-negative pre-activations: layer 1 dies, only b2 remains
    killed = dataclasses.replace(seg, ffn_b1=np.full(6, -50.0))
    assert np.allclose(fe.ffn(zero_in, killed), np.tile(killed.ffn_b2, (5, 1)))


def test_ffn_matches_oracle(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    seg_f = toy_bundle.segments["S1"][0]
    seg_q = ie.bundle.segments["S1"][0]
    for _ in range(25):
        x = rng.uniform(-2, 2, size=(3, 4))
        h = np.maximum(naive_matmul_float(x, seg_f.ffn_w1, seg_f.ffn_b1), 0.0)
        ref = naive_matmul_float(h, seg_f.ffn_w2, seg_f.ffn_b2)
        assert np.max(np.abs(fe.ffn(x, seg_f) - ref)) < 1e-12
        xq = quantize_array(x)
        hq = np.maximum(naive_matmul_q(xq, seg_q.ffn_w1, seg_q.ffn_b1), 0)
        refq = naive_matmul_q(hq, seg_q.ffn_w2, seg_q.ffn_b2)
        assert np.array_equal(ie.ffn(xq, seg_q), refq)


def test_leaky_slope_exact():
    bundle = random_bundle(seed=1, n=8, d=4, heads=2, d_ff=6, d_h=5, pool_k=2, pool_p=0)
    fe, ie = _engines(bundle)
    z = np.array([[-1.0, 2.0]])
    assert np.array_equal(fe.leaky_relu(z), np.array([[-0.3, 2.0]]))
    zq = quantize_array(z)
    out = ie.leaky_relu(zq)
    # slope quantizes to 77/256 = 0.30078125: systematic, documented offset
    assert out[0, 0] == -77
    assert dequantize_array(out)[0, 0] == -0.30078125
    assert out[0, 1] == zq[0, 1]
    codes = np.arange(-32768, 32768).astype(np.int16)
    expect = np.where(codes >= 0, codes, requantize_int64(codes.astype(np.int64) * 77))
    assert np.array_equal(ie.leaky_relu(codes), expect)


@pytest.mark.parametrize("gamma", [-1.9, -0.37, 0.0, 0.41, 1.9])
def test_scale_scores_matches_int64_oracle(toy_bundle, gamma):
    # every raw code, with negative multipliers and past both rails
    ie = IntEngine(toy_bundle)
    raw = np.arange(-32768, 32768).astype(np.int16).reshape(256, 256)
    m = quantize(gamma / math.sqrt(2))
    expect = requantize_int64(raw.astype(np.int64) * m)
    assert np.array_equal(ie.scale(raw, gamma / math.sqrt(2)), expect)


def test_fcnn_affine_when_positive(toy_bundle, rng):
    fe, _ = _engines(toy_bundle)
    head = toy_bundle.fcnn["S1"]
    v = np.abs(rng.uniform(1, 2, size=16))
    lifted = dataclasses.replace(head, b1=np.full(5, 10.0))  # force positive hidden
    ref = (v @ lifted.w1 + lifted.b1) @ lifted.w2 + lifted.b2
    assert np.allclose(fe.fcnn(v, lifted), ref)


def test_fcnn_matches_oracle(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    head_f = toy_bundle.fcnn["S1"]
    head_q = ie.bundle.fcnn["S1"]
    for _ in range(25):
        v = rng.uniform(-1, 1, size=16)
        h = naive_matmul_float(v.reshape(1, -1), head_f.w1, head_f.b1)
        h = np.where(h >= 0, h, 0.3 * h)
        ref = naive_matmul_float(h, head_f.w2, head_f.b2)[0]
        assert np.max(np.abs(fe.fcnn(v, head_f) - ref)) < 1e-12
        vq = quantize_array(v.reshape(1, -1))
        hq = naive_matmul_q(vq, head_q.w1, head_q.b1)
        hq = np.array([[c if c >= 0 else requantize(int(c) * 77) for c in hq[0]]], dtype=np.int16)
        refq = naive_matmul_q(hq, head_q.w2, head_q.b2)[0]
        assert np.array_equal(ie.fcnn(vq[0], head_q), refq)


# --- pooling ----------------------------------------------------------------


def test_maxpool_identity_when_k1():
    bundle = random_bundle(seed=2, n=4, d=4, heads=2, d_ff=4, d_h=4, pool_k=1, pool_p=0)
    fe = FloatEngine(bundle)
    x = np.arange(16, dtype=np.float64).reshape(4, 4)
    assert np.array_equal(fe.maxpool_flatten(x), x.reshape(-1))


def test_maxpool_default_geometry(full_bundle):
    fe = FloatEngine(full_bundle)
    x = np.ones((128, 46))
    pooled = fe.maxpool_flatten(x)
    assert pooled.shape == (1536,)  # (46 + 2) / 4 = 12 per row
    # zero padding never beats a positive constant
    assert np.all(pooled == 1.0)


def test_maxpool_rejects_bad_geometry(full_bundle):
    fe = FloatEngine(full_bundle)
    with pytest.raises(ValueError):
        fe.maxpool_flatten(np.ones((128, 45)))


def test_maxpool_windows(rng, toy_bundle):
    fe = FloatEngine(toy_bundle)
    x = rng.uniform(-1, 1, size=(8, 4))
    pooled = fe.maxpool_flatten(x)
    ref = np.concatenate([[max(row[0], row[1]), max(row[2], row[3])] for row in x])
    assert np.array_equal(pooled, ref)


# --- full inference ---------------------------------------------------------


def test_infer_layer_counts(full_bundle, s1_batch):
    for scenario, layers in (("S1", 1), ("S2", 2), ("S3", 2)):
        fe = FloatEngine(full_bundle, EngineConfig(scenario_override=scenario))
        segments = []
        layer = fe.encoder_layer
        fe.encoder_layer = lambda x, seg, mask=None: segments.append(seg) or layer(x, seg, mask)
        fe.infer(s1_batch[0])
        assert len(segments) == layers
        assert all(a is b for a, b in zip(segments, fe.bundle.layers(scenario)))


def test_infer_unknown_scenario_rejected(full_bundle, s1_batch):
    fe = FloatEngine(full_bundle, EngineConfig(scenario_override="S7"))
    with pytest.raises(ValueError):
        fe.infer(s1_batch[0])


def test_infer_routing_updates_state(full_bundle, s1_batch):
    fe = FloatEngine(full_bundle)
    state = RouterState.create(5)
    res = fe.infer(s1_batch[0], state=state)
    assert len(state.window) == 1
    assert res.scenario in ("S1", "S2", "S3")
    # override bypasses the router entirely
    fe2 = FloatEngine(full_bundle, EngineConfig(scenario_override="S2"))
    state2 = RouterState.create(5)
    res2 = fe2.infer(s1_batch[0], state=state2)
    assert res2.scenario == "S2" and len(state2.window) == 0


def test_zero_fingerprint_bias_chase(full_bundle):
    # Analytic forward pass of an all-zero input with masking disabled.
    # Every row of a layer's input equals one row r (all zero into layer 1),
    # so per head every score is the same s = gamma * q.k / sqrt(d_k) with
    # q = r W_q, k = r W_k, every sigmoid-bias weight is w = sigma(s - ln n),
    # and each head outputs n * w * v with v = r W_v.  In layer 1, v = 0 and
    # attention adds nothing; layer 1 then emits the FFN bias chase c, so
    # layer 2 attends over n copies of c, where v = c W_v is not zero.
    assert full_bundle.activation == ActivationKind.SIGMOID_BIAS_LUT
    fe = FloatEngine(full_bundle, EngineConfig(scenario_override="S2"))
    n, d_k = full_bundle.n, full_bundle.d_k
    res = fe.infer(np.zeros((n, full_bundle.d)))

    r = np.zeros(full_bundle.d)
    for seg in full_bundle.segments["S2"]:
        q, k, v = r @ seg.w_q, r @ seg.w_k, r @ seg.w_v
        heads = []
        for h in range(full_bundle.heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            s = seg.gamma * (q[cols] @ k[cols]) / math.sqrt(d_k)
            w = 1.0 / (1.0 + math.exp(-(s - math.log(n))))
            heads.append(n * w * v[cols])
        r = r + np.concatenate(heads) @ seg.w_o
        r = np.maximum(r @ seg.ffn_w1 + seg.ffn_b1, 0.0) @ seg.ffn_w2 + seg.ffn_b2
    pooled = fe.maxpool_flatten(np.tile(r, (n, 1)))
    head = full_bundle.fcnn["S2"]
    h = pooled @ head.w1 + head.b1
    h = np.where(h >= 0, h, 0.3 * h)
    expect = h @ head.w2 + head.b2
    assert np.allclose(res.coords, expect, atol=1e-12)


def test_engine_agreement_without_sparsity(full_bundle, s1_batch):
    fe, ie = _engines(full_bundle, scenario_override="S1")
    for fp in s1_batch[:3]:
        cf = fe.infer(fp).coords
        ci = ie.infer(fp).coords
        assert np.max(np.abs(cf - ci)) < 0.05  # loose sanity; tight bound in acceptance


def _check_against_masked_dense(ie, x, seg, mask):
    ref = masked_dense_layer_int(
        x, seg, mask, kind=ie.activation, bias_code=sigmoid_bias_code(ie.bundle.n),
        m_code=quantize(seg.gamma / math.sqrt(ie.bundle.d_k)), heads=ie.bundle.heads,
    )
    assert np.array_equal(ie.encoder_layer(x, seg, mask), ref)


def test_mask_equivalence_toy_spot_checks(toy_bundle, full_bundle, rng):
    for kind in ActivationKind:
        ie = IntEngine(toy_bundle, EngineConfig(activation=kind))
        seg = ie.bundle.segments["S1"][0]
        for bits in ([0] * 8, [1] * 8, [1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0, 1, 1]):
            x = quantize_array(rng.uniform(0, 1.5, size=(8, 4)))
            _check_against_masked_dense(ie, x, seg, _mask(bits))
    # The default operating point's masks, from each scenario's own snapshots,
    # on the first encoder layer of its model.  These S1 snapshots skip 47 to
    # 58 rows each; at S3's operating point two of the four skip one row.
    for scenario in ("S1", "S3"):
        scfg = DEFAULT_SPARSITY[scenario]
        fps = generate_fingerprints(default_profile(scenario, seed=3), 4)
        for kind in ActivationKind:
            ie = IntEngine(full_bundle, EngineConfig(activation=kind))
            seg = ie.bundle.layers(scenario)[0]
            skipped = 0
            for fp in fps:
                x = ie.threshold(ie.prepare_input(fp), scfg.t_elem)
                mask = build_row_mask(x, scfg)
                skipped += mask.n_skipped
                _check_against_masked_dense(ie, x, seg, mask)
            assert skipped > 0


def test_encoder_folding_is_bit_exact(full_bundle, s1_batch):
    # one shared engine instance run twice == two fresh instances
    ie_shared = IntEngine(full_bundle, EngineConfig(scenario_override="S2"))
    x = quantize_array(s1_batch[0])
    segs = ie_shared.bundle.segments["S2"]
    once = ie_shared.encoder_layer(ie_shared.encoder_layer(x, segs[0]), segs[1])
    fresh1 = IntEngine(full_bundle).encoder_layer(x, segs[0])
    fresh2 = IntEngine(full_bundle).encoder_layer(fresh1, segs[1])
    assert np.array_equal(once, fresh2)


@pytest.mark.parametrize("window", [3, None])
def test_run_is_one_routed_pass(full_bundle, window):
    fps = np.concatenate([generate_fingerprints(default_profile(sc, seed=9), 4)
                          for sc in ("S1", "S3", "S1")])
    ie = IntEngine(full_bundle, EngineConfig(router_window=window))
    state = RouterState.create(full_bundle.router_window if window is None else window)
    expect = [ie.infer(fp, state) for fp in fps]
    got = ie.run(fps)
    assert [r.scenario for r in got] == [r.scenario for r in expect]
    for a, b in zip(got, expect):
        assert np.array_equal(a.coords, b.coords) and np.array_equal(a.mask.skip, b.mask.skip)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_run_thresholds_are_a_run_setting(full_bundle, kind):
    # One engine run under thresholds a, then b, gives what a fresh engine
    # gives under b: nothing of a run's sparsity stays in the engine.
    fps = np.concatenate([generate_fingerprints(default_profile(sc, seed=9), 4)
                          for sc in ("S1", "S3", "S1")])
    a = dict.fromkeys(("S1", "S2", "S3"), SparsityConfig(t_elem=0.1, t_rowcount=8))
    b = dict(DEFAULT_SPARSITY)
    engine = make_engine(kind, full_bundle)
    engine.run(fps, a)
    got = engine.run(fps, b)
    expect = make_engine(kind, full_bundle).run(fps, b)
    assert [r.scenario for r in got] == [r.scenario for r in expect]
    assert len({r.scenario for r in got}) > 1
    assert sum(r.mask.n_skipped for r in got) > 0
    for x, y in zip(got, expect):
        assert np.array_equal(x.coords, y.coords) and np.array_equal(x.mask.skip, y.mask.skip)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_router_reads_the_bundles_delay_bin(s1_batch, kind):
    engine = make_engine(kind, random_bundle(seed=7, delay_bin=5))
    columns = []
    slp_logits = engine.slp_logits
    engine.slp_logits = lambda col: columns.append(col) or slp_logits(col)
    engine.infer(s1_batch[0])
    assert len(columns) == 1
    assert np.array_equal(columns[0], engine.prepare_input(s1_batch[0])[:, 5])


def test_make_engine(full_bundle):
    assert isinstance(make_engine("float", full_bundle), FloatEngine)
    assert isinstance(make_engine("int", full_bundle), IntEngine)
    with pytest.raises(ValueError):
        make_engine("quantum", full_bundle)


def test_softmax_rows_sum_inside_engine(full_bundle, s1_batch):
    for kind in (ActivationKind.SOFTMAX_INT, ActivationKind.SIGMOID_NORM_LUT):
        ie = IntEngine(full_bundle, EngineConfig(activation=kind, scenario_override="S1"))
        weights = []
        activation_op = ie.activation_op
        ie.activation_op = lambda scores: weights.append(activation_op(scores)) or weights[-1]
        ie.infer(s1_batch[0])
        assert len(weights) == full_bundle.heads  # one S1 layer, one call per head
        sums = dequantize_array(weights[0]).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 2**-8
