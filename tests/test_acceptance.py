"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline. The criteria that need no trained model are checks in
spikeclm.selftest, which `spikeclm selftest` runs too; the tests here call
them. Criteria 09, 10 and the trained half of 11 live here: their trained
models come from session fixtures in conftest.py and are shared with the
rest of the tree.
"""

import dataclasses
import math

import numpy as np

from spikeclm import data, energy, selftest
from spikeclm.model import generate, snn_forward


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def run_criterion(num: int, name: str, check) -> None:
    """Print the verdict line of a selftest-style check; a failure re-raises."""
    try:
        detail = check()
    except AssertionError as e:
        verdict(num, name, False, str(e))
        raise
    verdict(num, name, True, detail)


def test_criterion_01_neuron_fidelity():
    run_criterion(1, "neuron fidelity", selftest.check_neuron_fidelity)


def test_criterion_02_rate_monotonicity():
    run_criterion(2, "rate monotonicity", selftest.check_rate_monotonicity)


def test_criterion_03_surrogate_gradient():
    run_criterion(3, "surrogate gradient", selftest.check_surrogate_gradient)


def test_criterion_04_bptt_matches_finite_differences():
    run_criterion(4, "bptt vs finite differences", selftest.check_bptt_finite_diff)


def test_criterion_05_eligibility_bound_and_equivalence():
    run_criterion(5, "eligibility bound + equivalence", selftest.check_eligibility)


def test_criterion_06_sfsa_structure():
    run_criterion(6, "sfsa structure", selftest.check_sfsa_structure)


def test_criterion_07_spad_fixed_points():
    run_criterion(7, "spad fixed points", selftest.check_spad_fixed_points)


def test_criterion_08_concentration():
    run_criterion(8, "temporal concentration", selftest.check_concentration)


def test_criterion_09_desk_scale_learning(smoke_run, periodic_run):
    ce = smoke_run["result"].val_ce
    ok = ce < math.log(256.0)
    ok &= smoke_run["train_cfg"].total_steps <= 2000
    ok &= smoke_run["seconds"] < 1200.0

    prompt = [data.BOS_ID] + list(data.encode("abababab"))
    res = generate(prompt, 50, periodic_run["cfg"], periodic_run["result"].params)
    new = res.tokens[len(prompt):]
    expect = [ord("ab"[(8 + i) % 2]) for i in range(50)]
    acc = float(np.mean([a == b for a, b in zip(new, expect)]))
    ok &= acc >= 0.95
    ok &= periodic_run["seconds"] < 1200.0
    assert verdict(9, "desk-scale learning", ok,
                   f"val CE {ce:.3f} < ln256 {math.log(256):.3f} in "
                   f"{smoke_run['train_cfg'].total_steps} steps "
                   f"({smoke_run['seconds']:.0f}s), greedy acc {acc:.2f}")


def test_criterion_10_spad_directional_benefit(student_hard, student_spad,
                                               student_sta_hta):
    ce_hard = student_hard.val_ce
    ce_spad = student_spad.val_ce
    ce_sta = student_sta_hta.val_ce
    # hard mode and the hta-only lambda vector optimize the identical CE
    # objective, so ce_hard doubles as the hta-only baseline
    ok = ce_spad <= ce_hard and ce_sta <= ce_hard
    assert verdict(10, "spad directional benefit", ok,
                   f"hard/hta {ce_hard:.4f}, spad {ce_spad:.4f}, "
                   f"sta+hta {ce_sta:.4f}")


def test_criterion_11_energy_model(smoke_run, smoke_corpus):
    def check():
        selftest.check_energy_model()
        # trained smoke model: whenever f_r*T*E_AC < E_MAC holds per sublayer,
        # the spiking attention+FFN energy undercuts the dense equivalent
        c = energy.EnergyConstants()
        cfg = smoke_run["cfg"]
        params = smoke_run["result"].params
        _, val_ids = data.split_corpus(smoke_corpus, 0.1)
        seq_len = smoke_run["train_cfg"].seq_len
        xb, _ = data.batch_at(data.make_windows(val_ids, seq_len), 0, 4)
        ok = True
        details = []
        for t in (2, 4):
            cfg_t = dataclasses.replace(cfg, t_steps=t)
            _, trace = snn_forward(xb, cfg_t, params)
            rep = energy.energy_report(cfg_t, trace)
            for lay in rep.layers:
                for r in (lay.sfsa_rate, lay.sffn_rate):
                    ok &= r * t * c.e_ac < c.e_mac
            snn_core = c.e_ac * sum(l.sfsa_sops + l.sffn_sops for l in rep.layers)
            ann_core = c.e_mac * sum(l.sfsa_flops + l.sffn_flops for l in rep.layers)
            ok &= snn_core < ann_core
            details.append(f"T={t}: {snn_core / ann_core:.3f}x dense")
        return selftest.require(ok, "; ".join(details))
    run_criterion(11, "energy model", check)


def test_criterion_12_determinism():
    run_criterion(12, "determinism", selftest.check_determinism)
