"""The acceptance criteria that need no trained model, runnable without
pytest: `spikeclm selftest`.

A check is a plain function of no arguments. It raises
AssertionError(detail) on failure, through require() or an explicit
raise and never a bare assert, so `python -O` checks just as much. It
may otherwise return a detail string for its report line. The suite
holds, at full size, every acceptance criterion that needs no trained
model: 01-08, 12 and the model-free half of 11. The building blocks are
checked by the unit tests under tests/.
tests/test_acceptance.py calls these checks for its verdict lines, so
each criterion is written once; the criteria that need trained models
stay there, on the session fixtures.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad, data, energy
from .attention import sfsa_forward
from .distill import (SpadConfig, loss_attention, loss_embedding, loss_feature, loss_hard,
                      loss_soft, loss_total, spad_losses, spike_encode)
from .model import (ModelConfig, _attn_weights, ann_forward, generate, init_params,
                    save_model, snn_forward)
from .neurons import (LifParams, NeuronState, TernaryParams, eligibility_trace,
                      empirical_rate, lif_constant_drive, lif_step, surrogate_forward,
                      surrogate_grad, ternary_step)
from .numerics import Rng, count_macs, finite_diff_grad
from .training import TrainConfig, train_loop


def require(ok, detail: str = "") -> str:
    """Return detail when ok holds; otherwise raise AssertionError(detail)."""
    if not ok:
        raise AssertionError(detail)
    return detail


# drive grid shared by the rate-monotonicity and concentration checks
DRIVE_GRID = np.array([-1.0, -0.5] + [0.25 * i for i in range(13)])


def check_neuron_fidelity():
    """Criterion 01: LIF hand traces and the ternary branch table."""
    p = LifParams(beta=0.5, u_thr=1.0)
    ok = True

    # zero input from rest stays silent with a zero membrane
    st = NeuronState()
    for _ in range(5):
        s, st = lif_step(st, np.array(0.0), p)
        ok &= float(s) == 0.0 and float(st.u) == 0.0

    # single step at I=2: membrane 2.0, immediate spike
    s, st = lif_step(NeuronState(), np.array(2.0), p)
    ok &= float(st.u) == 2.0 and float(s) == 1.0

    # float input I=1: membranes 1.0, 0.5, 1.25, 0.625 (decay plus soft reset)
    st = NeuronState()
    got_u = []
    for _ in range(4):
        s, st = lif_step(st, 1.0, p)
        got_u.append(float(st.u))
    ok &= got_u == [1.0, 0.5, 1.25, 0.625]

    # beta=1, I=0.5: membranes 0.5, 1.0, 0.5, 1.0 -> spikes 0,1,0,1
    p2 = LifParams(beta=1.0, u_thr=1.0)
    st = NeuronState()
    got_s, got_u = [], []
    for _ in range(4):
        s, st = lif_step(st, np.array(0.5), p2)
        got_s.append(float(s))
        got_u.append(float(st.u))
    ok &= got_s == [0.0, 1.0, 0.0, 1.0] and got_u == [0.5, 1.0, 0.5, 1.0]

    # ternary branch table on 21 membrane values; |U| <= amp stays silent
    tp = TernaryParams(amp=1.0)
    grid = np.linspace(-2.5, 2.5, 21)
    spikes, st = ternary_step(NeuronState(u=np.zeros(21), s_prev=np.zeros(21)),
                              grid, tp)
    expect = np.where(grid > 1.0, 1.0, np.where(grid < -1.0, -1.0, 0.0))
    ok &= np.array_equal(spikes, expect)
    ok &= np.array_equal(st.u, grid * (tp.amp - expect) + tp.u_reset * expect)
    return require(ok)


def check_rate_monotonicity():
    """Criterion 02: constant-drive LIF rates are monotone in the drive."""
    t0 = time.time()
    p = LifParams()
    rates = np.array([empirical_rate(a, 256, p) for a in DRIVE_GRID])
    elapsed = time.time() - t0
    ok = bool(np.all(np.diff(rates) >= 0.0)
              and rates.min() >= 0.0 and rates.max() <= 1.0
              and elapsed < 1.0)
    return require(ok, f"T=256, {len(DRIVE_GRID)} drives, {elapsed:.3f}s")


def check_surrogate_gradient():
    """Criterion 03: the analytic surrogate slope against central differences."""
    alpha = 2.0
    h = 1e-6

    def max_rel_err(us):
        fd = (surrogate_forward(us + h, alpha) - surrogate_forward(us - h, alpha)) / (2 * h)
        an = surrogate_grad(us, alpha)
        return float((np.abs(an - fd) / np.abs(an)).max())

    err = max_rel_err(np.random.default_rng(3).uniform(-4.0, 4.0, size=100))
    ok = err < 1e-6
    # an even grid that reaches further into the tails
    ok &= max_rel_err(np.linspace(-5.0, 5.0, 100)) < 1e-6
    # sup of the derivative is alpha/2, attained at u=0
    dense = surrogate_grad(np.linspace(-50, 50, 20001), alpha)
    ok &= bool(dense.max() <= alpha / 2 + 1e-15)
    ok &= surrogate_grad(np.array(0.0), alpha) == alpha / 2
    return require(ok, f"max rel err {err:.2e}")


def check_bptt_finite_diff():
    """Criterion 04: taped BPTT of the full SpAD loss against finite differences."""
    t0 = time.time()
    cfg_s = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2,
                        d_ff=12, max_seq_len=4, t_steps=2)
    cfg_t = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2,
                        d_ff=12, max_seq_len=4, t_steps=1)
    # scaled init pushes membranes into the responsive band in relaxed mode
    p_s = {k: v * 25.0 for k, v in init_params(cfg_s, 1).items()}
    p_t = init_params(cfg_t, 2, kind="teacher")
    ids = np.array([[3, 1, 4, 1]])
    targets = np.array([[1, 4, 1, 5]])
    _, t_trace = ann_forward(ids, cfg_t, p_t)
    spad = SpadConfig()
    lif = cfg_s.neuron_spec().lif

    def full_loss(pdict):
        logits, s_trace = snn_forward(ids, cfg_s, pdict, relaxed=True)
        total, _ = spad_losses(logits, s_trace, t_trace, targets, spad, lif)
        return total

    rels = []
    for key in sorted(p_s):
        vparams = dict(p_s)
        v = ad.Var(p_s[key].copy())
        vparams[key] = v
        full_loss(vparams).backward()

        def f(z, key=key):
            q = dict(p_s)
            q[key] = z
            return float(ad.value(full_loss(q)))

        fd = finite_diff_grad(f, p_s[key].copy(), eps=1e-5)
        rels.append((np.abs(v.grad - fd) / np.maximum(np.abs(fd), 1e-8)).ravel())
    rel = np.concatenate(rels)
    p99 = float(np.percentile(rel, 99))
    elapsed = time.time() - t0
    ok = p99 < 1e-3 and elapsed < 60.0
    return require(ok, f"{rel.size} coords, p99 {p99:.2e}, {elapsed:.1f}s")


def check_eligibility():
    """Criterion 05: the eligibility trace's bound and its equality with the tape."""
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        beta = float(rng.uniform(0.0, 0.99))
        m = float(rng.uniform(0.1, 5.0))
        xs = rng.uniform(-m, m, size=40)
        e = eligibility_trace([np.array(x) for x in xs], beta)
        # the bound holds for the largest input drawn, not only for the range
        bound = np.abs(xs).max() / (1.0 - beta)
        ok &= all(abs(float(et)) <= bound + 1e-12 for et in e)

    # no-reset leaky integrator: sum_t delta_t e_t equals the tape exactly
    p = LifParams(beta=0.6, u_thr=1.0, surrogate_alpha=2.0)
    xs = rng.normal(size=12)
    cs = rng.normal(size=12)
    w = ad.Var(np.array(0.8))
    u = loss = np.array(0.0)
    us = []
    for x, c in zip(xs, cs):
        u = u * p.beta + w * float(x)
        us.append(float(ad.value(u)))
        centered = u - p.u_thr
        cval = ad.value(centered)
        local = surrogate_grad(cval, p.surrogate_alpha)
        sig = ad.custom_op(surrogate_forward(cval, p.surrogate_alpha),
                           (centered, lambda g, local=local: g * local))
        loss = loss + sig * float(c)
    loss.backward()
    e = eligibility_trace([np.array(x) for x in xs], p.beta)
    hand = sum(c * surrogate_grad(np.array(ut - p.u_thr), p.surrogate_alpha) * et
               for c, ut, et in zip(cs, us, e))
    gap = float(abs(w.grad - hand))
    ok &= bool(np.allclose(w.grad, hand, rtol=1e-10, atol=1e-14))
    return require(ok, f"1000 streams, tape gap {gap:.1e}")


def check_sfsa_structure():
    """Criterion 06: binary SFSA spikes, integer scores and causality.

    The threshold is low enough that the init_params block fires (about 40%
    of the query and value neurons and of the visible attention entries),
    so every trial must see attention spikes and the probes compare live
    spikes. The last-row path, resumed from a cached prefix of keys and
    values, must reproduce the last row of the full call.
    """
    cfg = ModelConfig(vocab_size=17, d_model=16, n_layers=1, n_heads=2,
                      d_ff=24, max_seq_len=12, t_steps=2, u_thr=0.04)
    params = init_params(cfg, 6)
    sn, attn_sn = cfg.neuron_spec(), cfg.attn_spec()
    rng = np.random.default_rng(6)
    t, l, h = cfg.t_steps, 8, cfg.n_heads
    d_head = cfg.d_model // h
    w = _attn_weights(params, 0)
    ok, out_spikes = True, 0

    for trial in range(100):
        # a fresh spike pattern at each of the T steps
        x = (rng.random((t, 1, l, cfg.d_model)) < 0.5).astype(float)
        pops = sfsa_forward(x, w, sn, attn_sn, h)
        out, s_attn, sk, sv = pops["out"], pops["attn"], pops["k"], pops["v"]
        ok &= set(np.unique(out)) <= {0.0, 1.0}
        ok &= set(np.unique(s_attn)) <= {0.0, 1.0}
        ok &= bool(np.any(s_attn))
        out_spikes += int(np.count_nonzero(out))

        # integer scores: replay the q/k branch and take the binary dot products
        sq = sn.run(x @ w.w_q + w.b_q).reshape(t, 1, l, h, d_head).swapaxes(2, 3)
        sk_h = sn.run(x @ w.w_k + w.b_k).reshape(t, 1, l, h, d_head).swapaxes(2, 3)
        scores = sq @ sk_h.swapaxes(-1, -2)
        ok &= bool(np.array_equal(scores, np.round(scores))
                   and scores.min() >= 0 and scores.max() <= d_head)

        # suffix perturbation: flip the last row at every step; the prefix
        # must be bit-exact
        x2 = x.copy()
        x2[:, :, -1] = 1.0 - x2[:, :, -1]
        pops2 = sfsa_forward(x2, w, sn, attn_sn, h)
        ok &= bool(np.array_equal(pops2["out"][:, :, :-1], out[:, :, :-1]))
        ok &= bool(np.array_equal(pops2["attn"][..., :-1, :], s_attn[..., :-1, :]))

        # last-row path after a cached prefix of trial % l positions
        p = trial % l
        past = (sk[:, :, :p], sv[:, :, :p]) if p else None
        pops3 = sfsa_forward(x[:, :, p:], w, sn, attn_sn, h, past=past, last_row=True)
        ok &= bool(np.array_equal(pops3["out"], out[:, :, -1:]))
        ok &= bool(np.array_equal(pops3["attn"], s_attn[..., -1:, :]))
        ok &= all(np.array_equal(pops3[n], pops[n][:, :, p:]) for n in ("k", "v"))
        if not ok:
            break
    ok &= out_spikes > 0
    return require(ok, f"100 causality trials, {out_spikes} output spikes")


def check_spad_fixed_points():
    """Criterion 07: every SpAD loss vanishes at its fixed point."""
    lif = LifParams()
    rng = np.random.default_rng(7)
    ok = True

    # each loss must vanish when the student already matches the teacher;
    # attention/feature use the all-silent fixed point shared by both branches
    e = rng.normal(size=(3, 4))
    ok &= float(ad.value(loss_embedding(e, [e]))) == 0.0
    ok &= float(ad.value(loss_embedding(e, [e, e]))) == 0.0
    a = np.zeros((2, 5, 5))
    ok &= float(ad.value(loss_attention(a, [a, a], lif, 0.5))) == 0.0
    h = np.zeros((3, 6))
    ok &= float(ad.value(loss_feature(h, [h, h], lif, 0.5))) == 0.0
    # each branch alone also vanishes on its own nonzero fixed point
    am = (rng.random((2, 5, 5)) < 0.4).astype(float)
    enc = spike_encode(am, 4, lif)
    ok &= float(ad.value(loss_attention(am, list(enc), lif, 1.0))) == 0.0
    ok &= float(ad.value(loss_attention(enc.mean(axis=0), list(enc), lif, 0.0))) == 0.0
    z = rng.normal(size=(4, 9))
    ok &= float(ad.value(loss_soft(z, z.copy(), 2.0))) == 0.0
    big = np.full((3, 5), -60.0)
    big[np.arange(3), [1, 2, 4]] = 60.0
    ok &= float(ad.value(loss_hard(big, np.array([1, 2, 4])))) == 0.0
    # far larger logits must not overflow on the way to the same zero
    huge = np.full((1, 4), -1000.0)
    huge[0, 1] = 0.0
    ok &= float(ad.value(loss_hard(huge, np.array([1])))) == 0.0

    # loss_total respects the published weights exactly on unit probes
    lambdas = (0.2, 0.1, 0.1, 0.3, 0.3)
    comps = [1.0, 1.0, 1.0, 1.0, 1.0]
    total, bd = loss_total(comps, SpadConfig(lambdas=lambdas))
    ok &= abs(float(ad.value(total)) - 1.0) < 1e-15
    for i, lam in enumerate(lambdas):
        comps = [0.0] * 5
        comps[i] = 1.0
        total, _ = loss_total(comps, SpadConfig(lambdas=lambdas))
        ok &= abs(float(ad.value(total)) - lam) < 1e-15
    return require(ok)


def check_concentration():
    """Criterion 08: time-averaged rates concentrate as T grows."""
    t0 = time.time()
    p = LifParams()

    def time_avg(t_steps):
        return lif_constant_drive(DRIVE_GRID, t_steps, p).mean(axis=0)

    r_ref = time_avg(8192)
    v16 = float((time_avg(16) - r_ref).var())
    v64 = float((time_avg(64) - r_ref).var())
    elapsed = time.time() - t0
    ok = v64 < 0.5 * v16 and elapsed < 30.0
    return require(ok, f"var16 {v16:.2e} var64 {v64:.2e}, {elapsed:.2f}s")


def check_energy_model():
    """Criterion 11, the half without a trained model: the energy constants,
    hand-counted FLOPs and energy, and the teacher's instrumented MACs."""
    ok = True
    c = energy.EnergyConstants()
    ok &= abs(1e9 * c.e_ac * 1e3 - 0.9) < 1e-12   # 1e9 ACs -> 0.9 mJ
    ok &= abs(1e9 * c.e_mac * 1e3 - 4.6) < 1e-12  # 1e9 MACs -> 4.6 mJ
    ok &= energy.sops(0.25, 4, 10**6) == 10**6    # f_r * T * FLOPs

    # toy config: hand-counted flops and the assembled total, bit-exact
    toy = ModelConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1, d_ff=4,
                      max_seq_len=4, t_steps=2)
    fc = energy.count_flops(toy, 1)
    ok &= fc.sfsa == [20] and fc.sffn == [16] and fc.head == 8 and fc.embed == 0
    fc = energy.count_flops(toy, 4)
    hand_sfsa = 4 * 4 * 2 * 2 + 4 * 4 * 2 + 4 * 4 * 2  # projections + scores + values
    hand_sffn = 2 * 4 * 2 * 4
    hand_head = 4 * 2 * 4
    ok &= fc.sfsa == [hand_sfsa] and fc.sffn == [hand_sffn]
    ok &= fc.head == hand_head and fc.embed == 0
    tparams = init_params(toy, 3)
    _, trace = snn_forward(np.array([1, 2, 3, 0]), toy, tparams)
    rep = energy.energy_report(toy, trace)
    rates = energy.measure_firing_rates(trace)
    ac_ops = sum(int(round(r["sfsa"] * 2 * hand_sfsa))
                 + int(round(r["sffn"] * 2 * hand_sffn)) for r in rates)
    hand_total = c.e_mac * (0 + hand_head) + c.e_ac * ac_ops
    ok &= hand_total == rep.snn_energy_j
    for lay in rep.layers:
        ok &= lay.sfsa_sops == energy.sops(lay.sfsa_rate, rep.t_steps, lay.sfsa_flops)
        ok &= lay.sffn_sops == energy.sops(lay.sffn_rate, rep.t_steps, lay.sffn_flops)
    ok &= rep.snn_energy_j >= 0 and rep.ann_energy_j >= 0

    # teacher MAC instrumentation agrees with the analytic count exactly
    tcfg = ModelConfig(vocab_size=17, d_model=16, n_layers=2, n_heads=2,
                       d_ff=24, max_seq_len=12, t_steps=1)
    with count_macs() as cm:
        ann_forward(np.arange(9), tcfg, init_params(tcfg, 4, kind="teacher"))
    ok &= cm.macs == energy.count_flops(tcfg, 9).total()
    return require(ok)


def check_determinism():
    """Criterion 12: two seeded runs give the same bytes, tokens and report."""
    cfg = ModelConfig(vocab_size=257, d_model=16, n_layers=1, n_heads=2,
                      d_ff=32, max_seq_len=16, t_steps=2)
    corpus = data.encode("determinism check text " * 60)
    tc = TrainConfig(total_steps=6, batch_size=2, seq_len=16, lr_peak=1e-3, seed=9)
    prompt = [data.BOS_ID, 100, 101]

    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            mpath = Path(tmp, f"metrics{run}.tsv")
            res = train_loop(tc, cfg, corpus, metrics_path=str(mpath))
            ckpt = Path(tmp, f"run{run}.ckpt")
            save_model(str(ckpt), cfg, res.params)
            sampled = generate(prompt, 8, cfg, res.params, temperature=0.8, rng=Rng(4))
            greedy = generate(prompt, 8, cfg, res.params)
            logits, trace = snn_forward(np.arange(10), cfg, res.params)
            report = energy.render_report(energy.energy_report(cfg, trace))
            outs.append({"checkpoint bytes": ckpt.read_bytes(),
                         "metrics bytes": mpath.read_bytes(),
                         "sampled generation": sampled.tokens,
                         "greedy generation": greedy.tokens,
                         "logits": logits.tobytes(),
                         "energy report text": report})
    differ = [k for k in outs[0] if outs[0][k] != outs[1][k]]
    return require(not differ, ", ".join(differ) + " differ" if differ else "")


CHECKS = [
    ("criterion-01-neuron-fidelity", check_neuron_fidelity),
    ("criterion-02-rate-monotonicity", check_rate_monotonicity),
    ("criterion-03-surrogate-gradient", check_surrogate_gradient),
    ("criterion-04-bptt-finite-diff", check_bptt_finite_diff),
    ("criterion-05-eligibility", check_eligibility),
    ("criterion-06-sfsa-structure", check_sfsa_structure),
    ("criterion-07-spad-fixed-points", check_spad_fixed_points),
    ("criterion-08-concentration", check_concentration),
    ("criterion-11-energy-model", check_energy_model),
    ("criterion-12-determinism", check_determinism),
]


def run_selftest(out=None) -> int:
    """Run every check; returns the number of failures."""
    out = out or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            detail = fn()
        except Exception as e:  # report and continue; the exit code aggregates
            failures += 1
            print(f"FAIL {name}: {e}", file=out)
        else:
            print(f"ok   {name}" + (f"  [{detail}]" if detail else ""), file=out)
    n = len(CHECKS)
    print(f"{n - failures}/{n} checks passed", file=out)
    return failures
