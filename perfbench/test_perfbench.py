"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from spikeclm import energy, model, numerics, training  # noqa: E402
from spikeclm.model import ModelConfig  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TINY = ModelConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=8, t_steps=2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- percentiles and self time ------------------------------------------------


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 10, 50, 90, 100):
        assert tr.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))
    assert tr.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        tr.percentile([], 50)


def test_self_time_subtracts_only_direct_children():
    spans = [tr.Span("root", 0.0, 0.010),
             tr.Span("a", 0.001, 0.004, parent=0),
             tr.Span("b", 0.005, 0.009, parent=0),
             tr.Span("c", 0.006, 0.007, parent=2)]
    own = tr.self_times(spans)
    assert own == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(spans[0].ms)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_close_step_adopts_root_spans_of_its_interval():
    t = tr.Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    t.begin_steps()                       # 0.0
    with t.span("model.snn_forward"):     # 1.0 .. 2.0
        pass
    t.close_step()                        # 3.0: warm-up step 0
    with t.span("autodiff.backward"):     # 4.0 .. 5.0
        pass
    t.close_step()                        # 6.0: step 1
    steps = [s for s in t.spans if s.name == "training.step"]
    assert [(s.start, s.end, s.attrs["index"]) for s in steps] == [
        (0.0, 3.0, 0), (3.0, 6.0, 1)]
    fwd, bwd = t.spans[0], t.spans[2]
    assert t.spans[fwd.parent] is steps[0] and t.spans[bwd.parent] is steps[1]
    assert tr.self_times(t.spans)[t.spans.index(steps[1])] == pytest.approx(2000.0)


def test_layer_metrics_cycle_layers_and_sum_to_unit_time():
    t = tr.Tracer(clock=fake_clock([i * 1e-3 for i in range(100)]))
    t.begin_steps()
    t.close_step()                                         # warm-up step
    with t.span("model.snn_forward", n_layers=2):
        for _ in range(2):                                 # two time steps
            for name in ("attention.sfsa", "model.sffn"):  # layer 0, then 1
                for _ in range(2):
                    with t.span(name):
                        with t.span("neurons.step", taped=True):
                            pass
    t.close_step()
    roots = [i for i, s in enumerate(t.spans)
             if s.name == "training.step" and s.attrs["index"] == 1]
    out = tr.layer_metrics(t, roots, 1, train_tokens=1, decode_tokens=0)
    assert out["neurons.step_calls"] == 8
    assert out["attention.sfsa.layer0_ms"] == pytest.approx(out["attention.sfsa.layer1_ms"])
    assert out["attention.sfsa.layer0_ms"] > 0
    layers = sum(out[f"self.{name}_ms"] for name in tr.LAYERS)
    assert layers + out["trace.unattributed_ms"] == pytest.approx(out["trace.unit_ms"])
    assert 0 < out["attention.sfsa_share"] < 1


def test_install_wraps_and_uninstall_restores_every_name():
    before = {(m.__name__, a): getattr(m, a) for m, a, _ in tr.WRAPPED}
    init = model.ad.Var.__init__
    t = tr.Tracer()
    t.install()
    try:
        assert all(getattr(m, a) is not before[(m.__name__, a)] for m, a, _ in tr.WRAPPED)
        model.snn_forward(np.array([256, 1, 2]), TINY, wl.firing_init(TINY, 0))
    finally:
        t.uninstall()
    assert all(getattr(m, a) is before[(m.__name__, a)] for m, a, _ in tr.WRAPPED)
    assert model.ad.Var.__init__ is init
    names = {s.name for s in t.spans}
    assert {"model.snn_forward", "attention.sfsa", "neurons.step"} <= names


# -- seeded inputs ------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    a, b, c = wl.word_stream(3, 200), wl.word_stream(3, 200), wl.word_stream(4, 200)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    reqs = wl.make_requests(3, wl.word_stream(3, 2000), 64, n=50)
    assert reqs == wl.make_requests(3, wl.word_stream(3, 2000), 64, n=50)
    assert all(16 <= len(r.prompt) <= 40 and 16 <= r.n_new <= 64 for r in reqs)
    assert {r.temperature for r in reqs} == {0.0, 0.8}
    assert any(len(r.prompt) + r.n_new > 64 for r in reqs)


# -- oracles fail on corrupted outputs -----------------------------------------


def test_finite_oracle():
    assert wl.all_finite([1.0, 2.5])
    assert not wl.all_finite([1.0, float("nan")])
    assert not wl.all_finite([math.inf])


def test_mac_oracle_matches_count_macs_and_rejects_a_wrong_count():
    params = wl.firing_init(TINY, 0)
    windows = wl.data.make_windows(wl.word_stream(0, 100)[:40], TINY.max_seq_len)
    with numerics.count_macs() as mc:
        training.evaluate_ce(TINY, params, windows, 2)
    want = wl.expected_eval_macs(TINY, TINY.max_seq_len, len(windows))
    assert mc.macs == want
    assert mc.macs + 1 != want


def test_greedy_oracle_accepts_generate_and_rejects_a_changed_token():
    params = wl.firing_init(TINY, 1)
    prompt = [256, 104, 105]
    out = model.generate(prompt, 10, TINY, params).tokens   # slides past max_seq_len
    assert wl.greedy_matches(out, len(prompt), TINY, params)
    bad = list(out)
    bad[-1] = (bad[-1] + 1) % TINY.vocab_size
    assert not wl.greedy_matches(bad, len(prompt), TINY, params)


def test_report_oracle_accepts_a_round_trip_and_rejects_an_edit():
    params = wl.firing_init(TINY, 2)
    _, trace = model.snn_forward(np.array([[256, 1, 2, 3]] * 2), TINY, params)
    rep = energy.energy_report(TINY, trace)
    text = energy.render_report(rep)
    assert wl.report_roundtrips(rep, text)
    line = f"layer0.sfsa.flops: {rep.layers[0].sfsa_flops}"
    assert not wl.report_roundtrips(rep, text.replace(line, line + "1"))
    assert not wl.report_roundtrips(rep, text.replace("snn_energy_mj", "snn_energy"))


# -- output schema ------------------------------------------------------------------


def test_result_has_exactly_the_listed_metrics_and_units():
    s = spec()
    tally = wl.Tally()
    tally.record(3, True)
    values = {m["name"]: 1.5 for m in s["end_to_end"]}
    res = run.result(tally, values, s["end_to_end"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == 3 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in s["end_to_end"]}
    tally.record(1, False, "broken")
    assert not run.result(tally, values, s["end_to_end"])["correct"]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_short_run_prints_the_contract_json_last(trace, key):
    proc = bench("--workload", "train-hard", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in spec()[key]]
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "infer", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
