import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from beamloc.activations import ActivationKind, sigmoid_bias_code
from beamloc.channel import default_profile, generate_fingerprints
from beamloc.config import DEFAULT_SPARSITY
from beamloc.engine import EngineConfig, FloatEngine, IntEngine, make_engine
from beamloc.fxp import ACC_MAX, ACC_MIN, AccumulatorOverflow, dequantize_array, quantize, quantize_array
from beamloc.router import RouterState
from beamloc.sparsity import RowMask, SparsityConfig, build_row_mask
from beamloc.weights import SCENARIOS, random_bundle
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
    for eng in (fe, ie):  # reals and Q8.8 codes are both float64
        seg = eng.bundle.segments["S1"][0]
        q, k, v = eng.qkv_project(np.zeros((3, 4)), seg)
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
    assert not fe.scale(fe.attention_scores(qh, qh), 0.0).any()
    assert not ie.scale(ie.attention_scores(quantize_array(qh), quantize_array(qh)), 0.0).any()


def test_scores_one_hot_gram(toy_bundle):
    fe, _ = _engines(toy_bundle)
    qh = np.eye(2)
    s = fe.scale(fe.attention_scores(qh, qh), math.sqrt(2) / math.sqrt(2))
    assert np.allclose(s, np.eye(2))


def test_scores_match_explicit_form(rng, toy_bundle):
    fe, ie = _engines(toy_bundle)
    for _ in range(25):
        gamma = float(rng.uniform(-1, 1))
        qh = rng.uniform(-2, 2, size=(3, 2))
        kh = rng.uniform(-2, 2, size=(3, 2))
        ref = gamma * naive_matmul_float(qh, kh.T) / math.sqrt(2)
        assert np.max(np.abs(fe.scale(fe.attention_scores(qh, kh), gamma / math.sqrt(2)) - ref)) < 1e-12
        # integer path: the exact dot over 256, unrounded; requantized, it is
        # the Q8.8 product, and then one folded Q8.8 multiplier follows
        qq, kq = quantize_array(qh), quantize_array(kh)
        raw = naive_matmul_q(qq, kq.T)
        scores = ie.attention_scores(qq, kq)
        assert np.array_equal(scores * 256, qq.astype(np.int64) @ kq.T.astype(np.int64))
        assert np.array_equal(oracles.round_half_even_and_saturate(scores), raw)
        m = quantize(gamma / math.sqrt(2))
        expect = np.array([[requantize(int(r) * m) for r in row] for row in raw])
        assert np.array_equal(ie.scale(raw, gamma / math.sqrt(2)), expect)
        # the sigmoid takes the product, or its codes, and rounds, scales and
        # requantizes it within its table gather
        for operand in (scores, raw):
            assert np.array_equal(ie.activation_op(operand, gamma / math.sqrt(2)),
                                  oracles.sigmoid_lut(expect + sigmoid_bias_code(toy_bundle.n)))


@pytest.mark.parametrize("d_k", [511, 512])
def test_score_product_at_the_40_bit_edge(toy_bundle, d_k):
    # Rows of 32767 and -32768 codes: the -32768 row's own score is d_k * 2**30,
    # which fits 40 bits for 511 terms and is one past ACC_MAX for 512.  The
    # scores leave the engine unrequantized, so their product checks itself.
    _, ie = _engines(toy_bundle)
    qh = np.array([[32767.0] * d_k, [-32768.0] * d_k])
    if d_k < 512:
        expect = oracles.matmul_checked(qh, qh.T)
        assert np.array_equal(oracles.round_half_even_and_saturate(ie.attention_scores(qh, qh)), expect)
    else:
        with pytest.raises(AccumulatorOverflow):
            oracles.matmul_checked(qh, qh.T)
        with pytest.raises(AccumulatorOverflow):
            ie.attention_scores(qh, qh)


@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda kind: kind.name)
def test_float_activation_is_the_exact_form(full_bundle, rng, kind):
    scores = rng.normal(0.0, 3.0, size=(6, 9))
    e = np.exp(scores)
    exact = {
        ActivationKind.SOFTMAX_INT: e / e.sum(axis=1, keepdims=True),
        ActivationKind.SIGMOID_BIAS_LUT: 1.0 / (1.0 + np.exp(np.log(full_bundle.n) - scores)),
    }[kind]
    fe = FloatEngine(full_bundle, EngineConfig(activation=kind))
    np.testing.assert_allclose(fe.activation_op(scores, 1.0), exact, rtol=1e-12, atol=0)


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
        if engine.is_integer:  # the ReLU and residuals keep Q8.8 codes float64, with the oracles' bits
            assert got.dtype == engine.ffn(x, seg).dtype == np.float64
            h1 = np.maximum(naive_matmul_q(x, seg.ffn_w1, seg.ffn_b1), 0)
            assert np.array_equal(engine.ffn(x, seg), naive_matmul_q(h1, seg.ffn_w2, seg.ffn_b2))
            _check_against_masked_dense(engine, x, "S1", _mask(skip))
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


@st.composite
def _pool_inputs(draw):
    """A pooling geometry, every valid (k, p) with p up to two windows past d, and rows."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    k = draw(st.integers(1, d + 3))
    p = (-d) % k + k * draw(st.integers(0, 2))
    codes = draw(arrays(np.int16, (n, d), elements=st.integers(-32768, 32767) | st.integers(-2, 2)))
    values = draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    # all-negative rows, where the zero padding wins the last window
    negative = draw(arrays(np.bool_, n))
    codes[negative] = -(np.abs(codes[negative].astype(np.int64)) % 32768) - 1
    values[negative] = -np.abs(values[negative]) - 0.5
    return k, p, codes.astype(np.float64), values


@given(_pool_inputs())
@settings(max_examples=200, deadline=None)
def test_maxpool_matches_the_loop_oracle(inputs):
    k, p, codes, values = inputs
    n, d = codes.shape
    bundle = random_bundle(seed=0, n=n, d=d, heads=1, d_ff=1, d_h=1, pool_k=k, pool_p=p)
    for engine, x in ((IntEngine(bundle), codes), (FloatEngine(bundle), values)):
        pooled = engine.maxpool_flatten(x)
        assert pooled.dtype == np.float64
        assert np.array_equal(pooled, oracles.maxpool_loop(x, k, p))


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


def test_infer_unknown_scenario_rejected(full_bundle):
    with pytest.raises(ValueError, match="unknown scenario 'S7'"):
        FloatEngine(full_bundle, EngineConfig(scenario_override="S7"))


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


def _check_against_masked_dense(ie, x, scenario, mask):
    # The scenario's first layer on float64 codes; the oracle takes them as int16.
    seg = ie.bundle.layers(scenario)[0]
    ref = masked_dense_layer_int(
        x.astype(np.int16), seg, mask, kind=ie.activation, bias_code=sigmoid_bias_code(ie.bundle.n),
        m_code=quantize(seg.gamma / math.sqrt(ie.bundle.d_k)), heads=ie.bundle.heads,
    )
    assert np.array_equal(ie.encoder_layer(x, seg, mask), ref)


def test_mask_equivalence_toy_spot_checks(toy_bundle, full_bundle, rng):
    for kind in ActivationKind:
        ie = IntEngine(toy_bundle, EngineConfig(activation=kind))
        for bits in ([0] * 8, [1] * 8, [1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0, 1, 1]):
            x = quantize_array(rng.uniform(0, 1.5, size=(8, 4)))
            _check_against_masked_dense(ie, x, "S1", _mask(bits))
    # The default operating point's masks, from each scenario's own snapshots,
    # on the first encoder layer of its model.  These S1 snapshots skip 47 to
    # 58 rows each; at S3's operating point two of the four skip one row.
    for scenario in ("S1", "S3"):
        scfg = DEFAULT_SPARSITY[scenario]
        fps = generate_fingerprints(default_profile(scenario, seed=3), 4)
        for kind in ActivationKind:
            ie = IntEngine(full_bundle, EngineConfig(activation=kind))
            skipped = 0
            for fp in fps:
                x = ie.threshold(ie.prepare_input(fp), scfg.t_elem)
                mask = build_row_mask(x, scfg)
                skipped += mask.n_skipped
                _check_against_masked_dense(ie, x, scenario, mask)
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


@st.composite
def _sweeps(draw):
    """A 46-wide bundle, snapshots that may repeat, a threshold grid's maps and engine settings.

    The grid's ``t_elem`` may repeat, return (0.03, 0.01, 0.03), or zero
    nothing: 0.001 and 0.003 are codes 0 and 1, and an input may hold no
    value below 0.004.  Inputs may hold negative values, and -0.0, which
    thresholding turns into +0.0.
    """
    bundle = random_bundle(seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.25, 1.0])),
                           n=draw(st.integers(1, 16)), heads=draw(st.sampled_from([1, 2, 23])),
                           activation=draw(st.sampled_from(list(ActivationKind))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (draw(st.integers(1, 3)), bundle.n, bundle.d)
    amp = draw(st.sampled_from([0.05, 0.2, 1.0]))
    low = draw(st.sampled_from([-amp / 4, 0.0, 0.004]))
    base = rng.uniform(low, amp, shape) * (rng.random(shape) < draw(st.sampled_from([0.5, 1.0])))
    base[rng.random(shape) < draw(st.sampled_from([0.0, 0.1]))] = -0.0
    fps = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=5))]
    t_elems = draw(st.lists(st.sampled_from([0.001, 0.003, 0.01, 0.03, 0.1]), min_size=1, max_size=3)
                   | st.just([0.03, 0.01, 0.03]))
    t_rowcounts = draw(st.lists(st.integers(0, 46), min_size=1, max_size=3))
    cells = [dict.fromkeys(SCENARIOS, SparsityConfig(t, c)) for t in t_elems for c in t_rowcounts]
    maps = draw(st.permutations([None, *cells]))
    cfg = EngineConfig(scenario_override=draw(st.none() | st.sampled_from(SCENARIOS)),
                       router_window=draw(st.integers(1, 5)))
    return bundle, fps, maps, cfg


@pytest.mark.parametrize("kind", ["int", "float"])
@given(sweep=_sweeps())
@settings(max_examples=60, deadline=None)
def test_sweep_equals_fresh_runs(kind, sweep):
    # Masks and scenarios are equal, integer coordinates bit-equal.  A float
    # cell that thresholds only -0.0 away reuses coordinates run on -0.0:
    # equal values in give equal values out, so they are equal in value.
    # The reference calls infer per snapshot, with no memo: run is a sweep.
    # A sweep of a one-shot iterator must read it once.
    bundle, fps, maps, cfg = sweep
    expect = []
    for m in maps:
        engine = make_engine(kind, bundle, cfg)
        state = RouterState.create(engine.router_window)
        expect.append([engine.infer(fp, state, m) for fp in fps])
    for snapshots in (fps, iter(fps)):
        got = make_engine(kind, bundle, cfg).sweep(snapshots, maps)
        for got_run, expect_run in zip(got, expect, strict=True):
            for a, b in zip(got_run, expect_run, strict=True):
                assert a.scenario == b.scenario
                assert np.array_equal(a.mask.skip, b.mask.skip)
                assert np.array_equal(a.mask.zero_counts, b.mask.zero_counts)
                if kind == "int":
                    assert a.coords.tobytes() == b.coords.tobytes()
                else:
                    assert np.array_equal(a.coords, b.coords)


def test_make_engine(full_bundle):
    assert isinstance(make_engine("float", full_bundle), FloatEngine)
    assert isinstance(make_engine("int", full_bundle), IntEngine)
    with pytest.raises(ValueError):
        make_engine("quantum", full_bundle)
    # The float engine is the float model; it does not run on the Q8.8 view.
    with pytest.raises(ValueError, match="quantized view"):
        FloatEngine(full_bundle.quantized())


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("activation", ["softmax-int", 2, True, 1.0])
def test_engine_activation_must_be_a_kind(full_bundle, kind, activation):
    # A config name or a retired code would never match a kind and run sigmoid-bias;
    # True and 1.0 equal SOFTMAX_INT's value 1 but name no kind.
    with pytest.raises(ValueError, match="is not a valid ActivationKind"):
        make_engine(kind, full_bundle, EngineConfig(activation=activation))


def test_softmax_rows_sum_inside_engine(full_bundle, s1_batch):
    ie = IntEngine(full_bundle, EngineConfig(activation=ActivationKind.SOFTMAX_INT,
                                             scenario_override="S1"))
    weights = []
    activation_op = ie.activation_op
    ie.activation_op = lambda scores, c: weights.append(activation_op(scores, c)) or weights[-1]
    ie.infer(s1_batch[0])
    assert len(weights) == full_bundle.heads  # one S1 layer, one call per head
    sums = dequantize_array(weights[0]).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 2**-8


# --- whole runs against the pipeline oracles --------------------------------


@st.composite
def _runs(draw):
    """A bundle of item-2 geometry, snapshots, thresholds and engine settings."""
    heads, d_k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    d = heads * d_k
    pool_k = draw(st.integers(1, d + 2))
    bundle = random_bundle(
        seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.25, 1.0, 3.0, 8.0])),
        n=draw(st.integers(1, 16)), d=d, heads=heads, d_ff=draw(st.integers(0, 8)),
        d_h=draw(st.integers(0, 8)), pool_k=pool_k,
        pool_p=(-d) % pool_k + pool_k * draw(st.integers(0, 1)),
        activation=draw(st.sampled_from(list(ActivationKind))),
        delay_bin=draw(st.integers(0, d - 1)), router_window=draw(st.integers(1, 5)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (draw(st.integers(1, 6)), bundle.n, bundle.d)
    amp = draw(st.sampled_from([0.1, 1.0, 4.0, 200.0]))
    fps = rng.uniform(-amp / 4, amp, shape) * (rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0])))
    sparsity = {sc: SparsityConfig(t_elem=draw(st.sampled_from([0.0, 0.02, 0.3, 1.0])),
                                   t_rowcount=draw(st.integers(0, d)))
                for sc in SCENARIOS if draw(st.booleans())}
    cfg = EngineConfig(activation=draw(st.none() | st.sampled_from(list(ActivationKind))),
                       scenario_override=draw(st.none() | st.sampled_from(SCENARIOS)),
                       router_window=draw(st.none() | st.integers(1, 5)))
    return bundle, fps, sparsity, cfg


def _oracle_args(fps, sparsity, cfg):
    return fps, sparsity, cfg.router_window, cfg.activation, cfg.scenario_override


@given(_runs())
@settings(max_examples=150, deadline=None)
def test_runs_match_the_pipeline_oracles(run):
    bundle, fps, sparsity, cfg = run
    try:
        expect = oracles.run_int(bundle, *_oracle_args(fps, sparsity, cfg))
    except AccumulatorOverflow:
        with pytest.raises(AccumulatorOverflow):
            IntEngine(bundle, cfg).run(fps, sparsity)
        return
    got = IntEngine(bundle, cfg).run(fps, sparsity)
    for res, (scenario, skip, coords) in zip(got, expect, strict=True):
        assert res.scenario == scenario
        assert np.array_equal(res.mask.skip, skip)
        assert np.array_equal(res.coords, coords)
    _check_float_run(bundle, fps, sparsity, cfg)


def _check_float_run(bundle, fps, sparsity, cfg):
    # The float twin sums in another order: routing and masks compare exactly,
    # coordinates to 1e-9 of the largest coordinate of the run (at least 1).
    expect = oracles.run_float(bundle, *_oracle_args(fps, sparsity, cfg))
    got = FloatEngine(bundle, cfg).run(fps, sparsity)
    tol = 1e-9 * max(1.0, *(np.abs(coords).max(initial=0.0) for *_, coords in expect))
    for res, (scenario, skip, coords) in zip(got, expect, strict=True):
        assert res.scenario == scenario
        assert np.array_equal(res.mask.skip, skip)
        assert np.max(np.abs(res.coords - coords), initial=0.0) <= tol


@st.composite
def _cli_runs(draw):
    """A bundle of the CLI's 128x46 geometry, two snapshots and engine settings.

    Weight scales up to 8 and gammas of 0 and +-127 give score-scale codes
    that are negative, zero and large enough to saturate the scaled scores.
    A ``d_ff`` or ``d_h`` of 512 or more makes ``ffn2`` or the head's second
    layer a product that ``qmatmul`` checks for headroom.  A drawn threshold
    map, in which each scenario is present or absent, masks layer 1 at this
    geometry with any row count.
    """
    widths = st.sampled_from([64, 512, 640])
    bundle = random_bundle(seed=draw(st.integers(0, 2**16)),
                           scale=draw(st.sampled_from([0.25, 1.0, 8.0])),
                           heads=draw(st.sampled_from([1, 2, 23, 46])),
                           d_ff=draw(widths), d_h=draw(widths))
    gamma = draw(st.sampled_from([None, 0.0, 127.0, -127.0]))
    if gamma is not None:
        bundle = dataclasses.replace(bundle, segments={
            sc: tuple(dataclasses.replace(seg, gamma=gamma) for seg in segs)
            for sc, segs in bundle.segments.items()})
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (2, bundle.n, bundle.d)
    amp = draw(st.sampled_from([1.0, 30.0]))
    fps = rng.uniform(-amp / 4, amp, shape) * (rng.random(shape) < draw(st.sampled_from([0.5, 1.0])))
    thresholds = st.builds(SparsityConfig, t_elem=st.sampled_from([0.0, 0.006, 0.039, 0.3]),
                           t_rowcount=st.integers(0, bundle.d))
    maps = st.fixed_dictionaries({}, optional=dict.fromkeys(SCENARIOS, thresholds))
    sparsity = draw(st.sampled_from([None, DEFAULT_SPARSITY]) | maps)
    cfg = EngineConfig(activation=draw(st.sampled_from(list(ActivationKind))),
                       scenario_override=draw(st.none() | st.sampled_from(SCENARIOS)))
    return bundle, fps, sparsity, cfg


@given(_cli_runs())
@settings(max_examples=8, deadline=None)
def test_cli_geometry_runs_match_the_int_oracle(run):
    # The integer engine where the CLI runs it: 128-entry score rows, d_k of
    # 46, 23, 2 and 1, both activations' scaled-score tables, and headroom
    # checks on ffn2 and the head's second layer.  Bit-equal to the oracle,
    # or both raise AccumulatorOverflow.
    bundle, fps, sparsity, cfg = run
    try:
        expect = oracles.run_int(bundle, *_oracle_args(fps, sparsity, cfg))
    except AccumulatorOverflow:
        with pytest.raises(AccumulatorOverflow):
            IntEngine(bundle, cfg).run(fps, sparsity)
        return
    got = IntEngine(bundle, cfg).run(fps, sparsity)
    for res, (scenario, skip, coords) in zip(got, expect, strict=True):
        assert res.scenario == scenario
        assert np.array_equal(res.mask.skip, skip)
        assert np.array_equal(res.coords, coords)


@given(_cli_runs())
@settings(max_examples=8, deadline=None)
def test_cli_geometry_float_runs_match_the_float_oracle(run):
    # The float engine where the CLI runs it, to the small geometry's tolerance.
    _check_float_run(*run)


def _rows_of_0_to_46_zeros():
    """One float32 128x46 snapshot whose row i holds i % 47 exact zeros and no value below 0.25."""
    rng = np.random.default_rng(28)
    fp = rng.uniform(0.25, 4.0, (1, 128, 46)).astype(np.float32)
    for i, row in enumerate(fp[0]):
        row[rng.permutation(46)[:i % 47]] = 0.0
    return fp


@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize("heads", [1, 2, 23, 46])
def test_cli_geometry_partly_skipped_masks_match_the_oracles(heads, kind):
    # The drawn runs above reach a partly skipped layer-1 mask at 128x46 only
    # now and then; this one always does.  At t_elem 0 no value is thresholded,
    # and a t_rowcount of 23 skips the 56 rows holding 24 to 46 zeros, whose
    # layer-1 output is their input row.
    bundle, fps = random_bundle(seed=7, heads=heads), _rows_of_0_to_46_zeros()
    sparsity = dict.fromkeys(SCENARIOS, SparsityConfig(t_elem=0.0, t_rowcount=23))
    for scenario in SCENARIOS:
        cfg = EngineConfig(activation=kind, scenario_override=scenario)
        [(_, skip, coords)] = oracles.run_int(bundle, *_oracle_args(fps, sparsity, cfg))
        [res] = IntEngine(bundle, cfg).run(fps, sparsity)
        assert res.mask.n_skipped == 56 and np.array_equal(res.mask.skip, skip)
        assert np.array_equal(res.coords, coords)
        _check_float_run(bundle, fps, sparsity, cfg)


@pytest.mark.parametrize("d_ff", [512, 513])
def test_ffn2_accumulator_at_the_40_bit_edge(s1_batch, d_ff):
    # Zero ffn_w1 and an ffn_b1 of 32767 codes make every hidden unit 32767
    # codes, as is every ffn_w2 code: 512 such terms fit in 40 bits with
    # 33553919 to spare, far more than ffn_b2 adds; 513 do not.
    base = random_bundle(seed=7, d_ff=d_ff)
    seg = base.segments["S1"][0]
    edge = dataclasses.replace(seg, ffn_w1=np.zeros_like(seg.ffn_w1), ffn_b1=np.full(d_ff, 32767 / 256),
                               ffn_w2=np.full_like(seg.ffn_w2, 32767 / 256))
    bundle = dataclasses.replace(base, segments={**base.segments, "S1": (edge,)})
    engine = IntEngine(bundle, EngineConfig(scenario_override="S1"))
    if d_ff == 512:
        [(_, _, coords)] = oracles.run_int(bundle, s1_batch[:1], scenario="S1")
        assert np.array_equal(engine.infer(s1_batch[0]).coords, coords)
    else:
        with pytest.raises(AccumulatorOverflow):
            oracles.run_int(bundle, s1_batch[:1], scenario="S1")
        with pytest.raises(AccumulatorOverflow):
            engine.infer(s1_batch[0])


@pytest.mark.parametrize("acc", [ACC_MAX, ACC_MAX + 1, ACC_MIN, ACC_MIN - 1])
def test_fcnn_accumulator_at_the_40_bit_edge(s1_batch, acc):
    # The coordinate head's 1536-term dot lands exactly on, or one past, each rail.
    bundle = oracles.fcnn_edge_bundle(acc)
    engine = IntEngine(bundle, EngineConfig(scenario_override="S1"))
    if ACC_MIN <= acc <= ACC_MAX:
        [(_, _, coords)] = oracles.run_int(bundle, s1_batch[:1], scenario="S1")
        assert np.array_equal(engine.infer(s1_batch[0]).coords, coords)
    else:
        with pytest.raises(AccumulatorOverflow):
            oracles.run_int(bundle, s1_batch[:1], scenario="S1")
        with pytest.raises(AccumulatorOverflow):
            engine.infer(s1_batch[0])
