"""Benchmark spikeclm on one workload, or all of them with --workload all.

    python3 perfbench/run.py --workload train-hard --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Set-up runs several times (SETUP_REPS, and
at least SETUP_SECONDS) and the median is reported. With --trace 0 the timed
phase runs untraced for --seconds and the end-to-end metrics are reported.
With --trace 1 one traced set-up runs, then untraced and traced repeats (or
rounds) alternate for --seconds, and the per-layer metrics are reported,
with the tracing overhead as traced minus untraced.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One BLAS thread for every process of the benchmark: OpenBLAS would
# otherwise use every core, and spikeclm is meant to run on one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up runs at least SETUP_REPS times and until SETUP_SECONDS have passed,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPS = 3
SETUP_SECONDS = 1.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS)}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(tally, values: dict, specs: list) -> dict:
    """The final JSON object: every metric of `specs`, in their order."""
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                        for m in specs}}


def summary(wl, phase, e2e: dict, specs: list) -> list:
    """Readable lines naming the metrics as the workload means them."""
    train = wl.kind == "train"
    ops = f"{len(phase.op_ms)} {'steps' if train else 'requests'}"
    groups = f"median of {len(phase.op_rates)} {'repeats' if train else 'rounds'}"
    notes = {
        "tokens_per_s": ("train_tokens_per_s" if train else "decode_tokens_per_s", groups),
        "op_ms_p50": ("train_step_ms_p50" if train else "decode_ms_per_token_p50", ops),
        "op_ms_p90": ("train_step_ms_p90" if train else "decode_ms_per_token_p90", ops),
        "eval_tokens_per_s": ("eval_tokens_per_s", f"median of {len(phase.eval_rates)} evals"),
    }
    lines = []
    for m in specs:
        name, note = notes.get(m["name"], (m["name"], ""))
        line = f"  {name}: {e2e[m['name']]:.6g} {m['unit']}"
        lines.append(f"{line} ({note})" if note else line)
    return lines


def print_failures(tally) -> None:
    for why in tally.reasons:
        print(f"  failure: {why}")


def run_one(args, spec: dict) -> dict:
    from tracer import NullTracer, percentile
    from workloads import WORKLOADS, Clock, Tally

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    setup_s = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS:
        t0 = time.perf_counter()
        ctx = wl.setup(args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    clock = Clock()
    clock.install()
    try:
        if args.trace:
            return traced_run(args, spec, wl, ctx, clock, tally,
                              percentile(setup_s, 50), workdir)
        phase = wl.measure(ctx, args.seconds, args.seed, clock, NullTracer(), tally)
    finally:
        clock.uninstall()
    e2e = phase.end_to_end()
    e2e["setup_s"] = percentile(setup_s, 50)
    e2e["peak_rss_mb"] = peak_rss_mb()
    print(f"{args.workload} seed {args.seed}: {tally.attempted} ops, {tally.failed} failed")
    print("\n".join(summary(wl, phase, e2e, spec["end_to_end"])))
    print_failures(tally)
    return result(tally, e2e, spec["end_to_end"])


def traced_run(args, spec, wl, ctx, clock, tally, setup_median, workdir) -> dict:
    """Alternate untraced and traced repeats (or rounds) for --seconds.

    Alternating puts both sides in the same stretch of machine time, so
    traced minus untraced measures the tracing and not the drift between
    two halves of the run.
    """
    from tracer import LAYERS, N_LAYERS, NullTracer, Tracer, layer_metrics, wrapped_call_us
    from workloads import BATCH, Phase

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        wl.setup(args.seed, workdir)
        traced_setup = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    base, traced = Phase(), Phase()
    deadline = time.perf_counter() + args.seconds
    while traced.units == 0 or time.perf_counter() < deadline:
        wl.measure(ctx, 0, args.seed, clock, NullTracer(), tally, base)
        tracer.install()
        try:
            wl.measure(ctx, 0, args.seed, clock, tracer, tally, traced)
        finally:
            tracer.uninstall()
    tracer.dump(os.path.join(workdir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    tally.record(1, traced.val_ce == base.val_ce,
                 f"tracing changed val_ce: {traced.val_ce} != {base.val_ce}")

    spans = tracer.spans
    if wl.kind == "train":
        roots = [i for i, s in enumerate(spans) if s.name == "training.step"
                 and s.parent is None and s.attrs["index"] >= 1]
        train_tokens, decode_tokens = len(roots) * BATCH * wl.cfg.max_seq_len, 0
    else:
        roots = [i for i, s in enumerate(spans) if s.parent is None
                 and s.name in ("op.generate", "op.eval", "op.profile")]
        train_tokens, decode_tokens = 0, traced.op_tokens
    values = layer_metrics(tracer, roots, traced.units, train_tokens, decode_tokens)
    values["trace.span_cost_ms"] = values["trace.spans"] * wrapped_call_us() / 1e3
    for i in range(N_LAYERS):
        for part in ("sfsa", "sffn"):
            values[f"energy.firing_rate.layer{i}.{part}"] = traced.firing.get(
                f"layer{i}.{part}", 0.0)
    e2e, traced_e2e = base.end_to_end(), traced.end_to_end()
    for name in ("tokens_per_s", "op_ms_p50", "op_ms_p90", "eval_tokens_per_s"):
        values["overhead." + name] = traced_e2e[name] - e2e[name]
    values["overhead.setup_s"] = traced_setup - setup_median

    layer_sum = sum(values[f"self.{n}_ms"] for n in LAYERS)
    print(f"{args.workload} seed {args.seed} (traced): {traced.units} units, "
          f"{len(spans)} spans, {tally.attempted} ops, {tally.failed} failed")
    print(f"  unit: {values['trace.unit_ms']:.4g} ms = layers' self time "
          f"{layer_sum:.4g} ms + unattributed {values['trace.unattributed_ms']:.4g} ms; "
          f"recording {values['trace.span_cost_ms']:.3g} ms; "
          f"overhead on op_ms_p50 {values['overhead.op_ms_p50']:.4g} ms")
    print(f"  SFSA share of forward {values['attention.sfsa_share']:.3f}, "
          f"SFFN share {values['model.sffn_share']:.3f}")
    print_failures(tally)
    return result(tally, values, spec["per_layer"])


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    import subprocess
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in load_spec_workloads():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        out["correct"] &= res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            out["metrics"][f"{name}/{key}"] = val
    return out


def load_spec_workloads() -> list:
    return [w["name"] for w in load_spec()["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "spikeclm")):
        print(f"perfbench: no spikeclm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    if args.workload == "all":
        res = run_all(args)
    elif args.workload in load_spec_workloads():
        print("env " + json.dumps(environment()))
        res = run_one(args, spec)
    else:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
