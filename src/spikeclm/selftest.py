"""Built-in invariant suite, runnable without pytest.

Each check is a plain function that raises on failure. The set mirrors
the property tests in tests/ at reduced size so a user can validate an
install in seconds via `spikeclm selftest`.
"""

import os
import sys
import tempfile

import numpy as np

from . import autodiff as ad, data, energy
from .attention import causal_mask, csa_forward, sfsa_forward
from .distill import (SpadConfig, layer_map, loss_attention, loss_embedding,
                      loss_feature, loss_hard, loss_soft, loss_total, pool_heads,
                      spike_encode)
from .errors import ConfigError
from .model import (ModelConfig, ann_forward, count_params, expected_param_count,
                    generate, init_params, load_model, save_model, snn_forward)
from .neurons import (LifParams, NeuronState, TernaryParams, eligibility_trace,
                      empirical_rate, lif_step, surrogate_forward,
                      surrogate_grad, ternary_step)
from .numerics import Rng, count_macs, finite_diff_grad, matmul
from .training import TrainConfig, adam_step, clip_gradients, global_norm, init_adam, lr_schedule


def _tiny_cfg(**kw):
    base = dict(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                max_seq_len=8, t_steps=2)
    base.update(kw)
    return ModelConfig(**base)


def check_rng_reference():
    def ref(state):
        state = (state + 0x9E3779B97F4A7C15) & (1 << 64) - 1
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & (1 << 64) - 1
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & (1 << 64) - 1
        return state, z ^ (z >> 31)

    rng = Rng(12345)
    state = 12345
    for _ in range(5):
        state, want = ref(state)
        got = int(rng.next_u64())
        assert got == want, f"splitmix64 mismatch: {got} != {want}"


def check_rng_uniform():
    rng = Rng(7)
    u = rng.uniform(1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(Rng(7).uniform(1000), u), "rng not deterministic"


def check_matmul_macs():
    with count_macs() as c:
        matmul(np.ones((3, 4)), np.ones((4, 5)))
    assert c.macs == 3 * 4 * 5, f"mac count {c.macs} != 60"


def check_autodiff_fd():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 3))

    def f(x):
        v = ad.Var(x)
        y = ad.softmax(v @ v + 0.5) * ad.relu(v)
        return float(ad.value(y.sum()))

    v = ad.Var(x0.copy(), requires_grad=True)
    (ad.softmax(v @ v + 0.5) * ad.relu(v)).sum().backward()
    fd = finite_diff_grad(f, x0.copy())
    err = np.abs(v.grad - fd).max()
    assert err < 1e-6, f"autodiff vs fd error {err}"


def check_lif_hand_traces():
    p = LifParams(beta=1.0, u_thr=1.0)
    st = NeuronState()
    us, ss = [], []
    for _ in range(4):
        s, st = lif_step(st, 0.5, p)
        us.append(float(ad.value(st.u)))
        ss.append(float(ad.value(s)))
    assert us == [0.5, 1.0, 0.5, 1.0] and ss == [0, 1, 0, 1], (us, ss)

    p = LifParams(beta=0.5, u_thr=1.0)
    st = NeuronState()
    us = []
    for _ in range(4):
        s, st = lif_step(st, 1.0, p)
        us.append(float(ad.value(st.u)))
    assert us == [1.0, 0.5, 1.25, 0.625], us


def check_ternary_branch_table():
    p = TernaryParams(amp=1.0)
    for u in np.linspace(-2.5, 2.5, 21):
        s, st = ternary_step(NeuronState(u=np.array(0.0), s_prev=np.array(0.0)),
                             np.array(u), p)
        # middle branch is |U| <= amp, so exactly +-amp stays silent
        want = 1.0 if u > 1.0 else (-1.0 if u < -1.0 else 0.0)
        assert float(ad.value(s)) == want, (u, float(ad.value(s)))
        want_u = u * (1.0 - want) + 0.0 * want
        assert abs(float(ad.value(st.u)) - want_u) < 1e-15


def check_surrogate():
    alpha = 2.0
    xs = np.linspace(-5, 5, 100)
    eps = 1e-6
    num = (surrogate_forward(xs + eps, alpha) - surrogate_forward(xs - eps, alpha)) / (2 * eps)
    ana = surrogate_grad(xs, alpha)
    rel = np.abs(num - ana) / np.maximum(np.abs(ana), 1e-12)
    assert rel.max() < 1e-6, f"surrogate grad mismatch {rel.max()}"
    assert ana.max() <= alpha / 2 + 1e-15, "surrogate bound violated"


def check_rate_monotone():
    p = LifParams()
    grid = [-1.0, -0.5, 0.0] + list(np.arange(0.25, 3.01, 0.25))
    rates = [empirical_rate(a, 256, p) for a in grid]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:])), rates


def check_eligibility():
    rng = np.random.default_rng(3)
    beta = 0.7
    for _ in range(20):
        xs = rng.uniform(-2, 2, size=50)
        m = np.abs(xs).max()
        e = eligibility_trace(list(xs), beta)
        assert max(abs(v) for v in e) <= m / (1 - beta) + 1e-12


def check_sfsa_structure():
    cfg = _tiny_cfg()
    params = init_params(cfg, 0)
    w = params
    rng = np.random.default_rng(1)
    x = (rng.random((cfg.t_steps, 6, cfg.d_model)) < 0.5).astype(float)
    mask = causal_mask(6)
    from .model import _attn_weights
    sn, attn_sn = cfg.neuron_spec(), cfg.attn_spec()
    out, s_attn, _ = sfsa_forward(x, _attn_weights(w, 0), mask, sn, attn_sn, cfg.n_heads)
    a = ad.value(s_attn)
    o = ad.value(out)
    assert set(np.unique(a)) <= {0.0, 1.0}, "attention spikes not binary"
    assert set(np.unique(o)) <= {0.0, 1.0}, "output spikes not binary"
    # causality: perturb the last row of x, prefix must be bit-identical
    x2 = x.copy()
    x2[:, -1] = 1 - x2[:, -1]
    out2, _, _ = sfsa_forward(x2, _attn_weights(w, 0), mask, sn, attn_sn, cfg.n_heads)
    assert np.array_equal(ad.value(out2)[:, :-1], o[:, :-1]), "suffix leaked backward"


def check_csa_rows():
    cfg = _tiny_cfg()
    params = init_params(cfg, 0, kind="teacher")
    ids = np.arange(5)
    _, trace = ann_forward(ids, cfg, params)
    a = trace.attn_maps[0]
    assert np.allclose(a.sum(axis=-1), 1.0), "attention rows must sum to 1"
    assert np.allclose(np.triu(a, k=1), 0.0), "causality violated"


def check_param_count():
    for kind in ("student", "teacher"):
        cfg = _tiny_cfg(n_layers=2)
        params = init_params(cfg, 0, kind=kind)
        assert count_params(params) == expected_param_count(cfg, kind)


def check_forward_determinism():
    cfg = _tiny_cfg()
    params = init_params(cfg, 9)
    ids = np.array([1, 2, 3, 4])
    a, _ = snn_forward(ids, cfg, params)
    b, _ = snn_forward(ids, cfg, params)
    assert np.array_equal(ad.value(a), ad.value(b))


def check_checkpoint_roundtrip():
    cfg = _tiny_cfg()
    params = init_params(cfg, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "selftest.ckpt")
        save_model(path, cfg, params, extra_fields={"arch": "spiking"})
        cfg2, params2, extra, _ = load_model(path)
    assert cfg2 == cfg and extra["arch"] == "spiking"
    for k in params:
        assert np.array_equal(params[k], params2[k]), k


def check_generation_determinism():
    cfg = _tiny_cfg()
    params = init_params(cfg, 2)
    a = generate([1, 2], 8, cfg, params)
    b = generate([1, 2], 8, cfg, params)
    assert a.tokens == b.tokens


def check_spad_fixed_points():
    p = LifParams()
    e = np.random.default_rng(0).normal(size=(3, 4))
    assert float(ad.value(loss_embedding(e, [e]))) == 0.0
    a = np.zeros((2, 3, 3))
    assert float(ad.value(loss_attention(a, [a, a], p, 0.5))) == 0.0
    h = np.zeros((3, 4))
    assert float(ad.value(loss_feature(h, [h], p, 0.5))) == 0.0
    z = np.random.default_rng(1).normal(size=(2, 5))
    assert float(ad.value(loss_soft(z, z.copy(), 2.0))) == 0.0
    zl = np.full((1, 4), -1000.0)
    zl[0, 1] = 0.0
    assert float(ad.value(loss_hard(zl, np.array([1])))) == 0.0
    # unit probes: component i alone reproduces lambda_i
    lams = (0.2, 0.1, 0.1, 0.3, 0.3)
    for i, lam in enumerate(lams):
        comps = [0.0] * 5
        comps[i] = 1.0
        total, _ = loss_total(comps, SpadConfig(lambdas=lams))
        assert abs(float(ad.value(total)) - lam) < 1e-15


def check_layer_alignment():
    assert layer_map(2, 4) == [1, 3]
    assert layer_map(3, 6) == [1, 3, 5]
    assert layer_map(4, 4) == [0, 1, 2, 3]
    try:
        layer_map(4, 2)
    except ConfigError:
        pass
    else:
        raise AssertionError("student deeper than teacher must fail")
    a = np.stack([np.full((2, 2), v) for v in (1.0, 3.0)])
    assert np.array_equal(pool_heads(a, 1)[0], np.full((2, 2), 2.0))


def check_spike_encode_rate():
    p = LifParams()
    grid = np.linspace(0, 2, 5)
    enc = spike_encode(grid, 32, p).mean(axis=0)
    for g, r in zip(grid, enc):
        assert r == empirical_rate(g, 32, p)


def check_schedule_and_clip():
    cfg = TrainConfig(total_steps=100, lr_peak=5e-4, warmup_ratio=0.2)
    assert lr_schedule(0, cfg) == 0.0
    assert abs(lr_schedule(20, cfg) - 5e-4) < 1e-18
    assert abs(lr_schedule(100, cfg)) < 1e-12
    g = {"a": np.array([3.0]), "b": np.array([2.0, 6.0])}
    out, norm = clip_gradients(g, 0.7)
    assert abs(norm - 7.0) < 1e-12
    assert abs(global_norm(out) - 0.7) < 1e-9
    params = {"w": np.array([1.0])}
    st = init_adam(params)
    out = adam_step(params, {"w": np.zeros(1)}, st, 1e-3, TrainConfig())
    assert out["w"][0] == 1.0


def check_bptt_fd():
    cfg = _tiny_cfg(vocab_size=7, d_model=8, max_seq_len=4)
    base = {k: v * 25.0 for k, v in init_params(cfg, 5).items()}
    ids = np.array([1, 2, 3, 0])
    targets = np.array([2, 3, 0, 1])

    def f(z):
        p = dict(base)
        p["layers.0.attn.w_q"] = z
        logits, _ = snn_forward(ids, cfg, p, relaxed=True)
        return float(ad.value(loss_hard(logits, targets)))

    vp = dict(base)
    v = ad.Var(base["layers.0.attn.w_q"].copy(), requires_grad=True)
    vp["layers.0.attn.w_q"] = v
    logits, _ = snn_forward(ids, cfg, vp, relaxed=True)
    loss_hard(logits, targets).backward()
    fd = finite_diff_grad(f, base["layers.0.attn.w_q"].copy())
    rel = np.abs(v.grad - fd) / np.maximum(np.abs(fd), 1e-8)
    p99 = np.percentile(rel, 99)
    assert p99 < 1e-3, f"bptt p99 rel err {p99}"


def check_energy_model():
    cfg = _tiny_cfg(vocab_size=4, d_model=2, n_heads=1, d_ff=4, max_seq_len=4,
                    n_layers=1)
    fc = energy.count_flops(cfg, 1)
    assert fc.sfsa == [20] and fc.sffn == [16] and fc.head == 8 and fc.embed == 0
    assert energy.sops(0.25, 4, 10**6) == 10**6
    c = energy.EnergyConstants()
    assert abs(10**9 * c.e_ac * 1e3 - 0.9) < 1e-12
    assert abs(10**9 * c.e_mac * 1e3 - 4.6) < 1e-12
    # dense teacher MACs agree with the analytic count exactly
    tcfg = _tiny_cfg()
    tparams = init_params(tcfg, 0, kind="teacher")
    ids = np.arange(6)
    with count_macs() as cm:
        ann_forward(ids, tcfg, tparams)
    assert cm.macs == energy.count_flops(tcfg, 6).total(), (
        cm.macs, energy.count_flops(tcfg, 6).total())
    # report self-consistency from a real forward
    scfg = _tiny_cfg()
    sparams = init_params(scfg, 1)
    _, trace = snn_forward(np.arange(6), scfg, sparams)
    rep = energy.energy_report(scfg, trace)
    for lay in rep.layers:
        assert lay.sfsa_sops == energy.sops(lay.sfsa_rate, rep.t_steps, lay.sfsa_flops)
        assert lay.sffn_sops == energy.sops(lay.sffn_rate, rep.t_steps, lay.sffn_flops)
    assert rep.snn_energy_j >= 0 and rep.ann_energy_j >= 0


def check_data_pipeline():
    s = "spikes are sparse ✓"
    assert data.decode(data.encode(s)) == s
    ws = data.make_windows(np.arange(16), 4)
    assert np.array_equal(ws.inputs[:, 1:], ws.targets[:, :-1])
    assert (ws.inputs[:, 0] == data.BOS_ID).all()
    train, val = data.split_corpus(np.arange(100), 0.1)
    assert len(train) == 90 and len(val) == 10


CHECKS = [
    ("rng-reference", check_rng_reference),
    ("rng-uniform", check_rng_uniform),
    ("matmul-mac-count", check_matmul_macs),
    ("autodiff-finite-diff", check_autodiff_fd),
    ("lif-hand-traces", check_lif_hand_traces),
    ("ternary-branch-table", check_ternary_branch_table),
    ("surrogate-gradient", check_surrogate),
    ("rate-monotone", check_rate_monotone),
    ("eligibility-bound", check_eligibility),
    ("sfsa-structure", check_sfsa_structure),
    ("csa-rows", check_csa_rows),
    ("param-count", check_param_count),
    ("forward-determinism", check_forward_determinism),
    ("checkpoint-roundtrip", check_checkpoint_roundtrip),
    ("generation-determinism", check_generation_determinism),
    ("spad-fixed-points", check_spad_fixed_points),
    ("layer-alignment", check_layer_alignment),
    ("spike-encode-rate", check_spike_encode_rate),
    ("schedule-and-clip", check_schedule_and_clip),
    ("bptt-finite-diff", check_bptt_fd),
    ("energy-model", check_energy_model),
    ("data-pipeline", check_data_pipeline),
]


def run_selftest(out=None) -> int:
    """Run every check; returns the number of failures."""
    out = out or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as e:  # report and continue; the exit code aggregates
            failures += 1
            print(f"FAIL {name}: {e}", file=out)
        else:
            print(f"ok   {name}", file=out)
    n = len(CHECKS)
    print(f"{n - failures}/{n} checks passed", file=out)
    return failures
