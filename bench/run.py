"""moddeg benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload hom-dense --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``golden-replay``: the shipped CLI replays in-process through
  ``cli.main``, over QQ and retyped to GF(101), plus one cold
  ``python -m moddeg.cli`` subprocess per QQ case.
* ``hom-dense``: intertwiner queries on conjugated Jordan modules and
  random Kronecker representations, over QQ and GF(101).
* ``flag-ladder``: certificate -> composition series -> pushed flags ->
  ladder -> deformation family -> series isomorphism and virtual chain,
  over QQ and GF(32003).

One client in one process sends the next op when the previous one has
returned (a closed loop).  Whole rounds run until the op time reaches
``--seconds`` and at least ``min_rounds`` rounds are done; every output is
checked.

End-to-end timings are read at reference host speed (see ``clock.py``):
a shared host's cores change speed by up to a factor of two for tens of
seconds, which would otherwise swamp any change to moddeg.  An op
instance's latency is the median of its repeats across rounds; the p50
and p90 of a field are Harrell-Davis estimates over its instances.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` the per-layer metrics, from round 0 run three times
(untraced, with spans, with field-operation counters), in plain wall
time.  Lines above it list each metric with its sample count.

``--smoke`` runs one round of every workload at its smallest size with all
checks on and no timing gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = BENCH / ".out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
WARMUP_SAMPLES = 20   # host-clock samples before the first timing
FLANK_SAMPLES = 3     # host-clock samples after each fresh interpreter

sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import moddeg; "
              "from moddeg.io_json import parse_document; "
              "[parse_document(line) for line in sys.stdin.read().splitlines()]")
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import moddeg.cli; "
               "print(time.perf_counter() - t)")


def fresh_interpreter(code: str, stdin: str = "") -> tuple[float, float, str]:
    """Runs ``code`` in a fresh interpreter; its start, wall time and stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], input=stdin,
                          capture_output=True, text=True, timeout=120, check=True)
    return start, time.perf_counter() - start, proc.stdout


def percentile(values: list, q: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: the order
    statistics weighted by the Beta(q (n + 1), (1 - q)(n + 1)) mass on
    each ((i - 1) / n, i / n).  Where few ops have latencies near the
    quantile, it moves smoothly instead of jumping between them."""
    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [[(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
             for t in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_rounds(load, run: workloads.Runner, seconds: float):
    rounds = 0
    while rounds < load.min_rounds or run.busy < seconds:
        load.run_round(run, rounds)
        rounds += 1
    return rounds


def end_to_end(load, seconds: float, smoke: bool) -> tuple[workloads.Runner, dict]:
    host = clock.HostClock()
    host.sample(WARMUP_SAMPLES)
    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start, elapsed, _ = fresh_interpreter(SETUP_CODE, "\n".join(load.documents()))
        host.sample(FLANK_SAMPLES)
        setups.append((start, elapsed))
    run = workloads.Runner(clock=host)
    # The cold CLI cases run between ops, spread over the first ``seconds``
    # of op time, so that a slow spell of the host meets few of them.
    queue = [*enumerate(load.cold_cases)] * (1 if smoke else load.cold_repeats)
    spacing = seconds / (len(queue) + 1)
    cold = {}   # case index -> (start, wall time) of each of its repeats

    def cold_case():
        index, case = queue.pop(0)
        run.attempted += 1
        code, out, start, elapsed = workloads.cold_cli(case, str(SRC))
        host.sample(FLANK_SAMPLES)
        problem = workloads.check_cli(case, code, out)
        if problem:
            run.failed += 1
            run.problems.append(f"cold {case['name']}: {problem}")
        else:
            cold.setdefault(index, []).append((start, elapsed))

    def between_ops():
        while queue and run.busy >= spacing * (cold_total + 1 - len(queue)):
            cold_case()

    cold_total = len(queue)
    run.between_ops = between_ops
    if smoke:
        load.run_round(run, 0)
    else:
        run_rounds(load, run, seconds)
    run.between_ops = None
    while queue:
        cold_case()
    ops = run.attempted - cold_total
    setups = [host.reference(*s) for s in setups]
    cold_cases = [statistics.median([host.reference(*c) for c in times])
                  for times in cold.values()]
    lat = {tag: [v * 1000 for v in run.latencies(tag)] for tag in ("qq", "gf")}
    reps = {tag: run.sample_count(tag) for tag in ("qq", "gf")}
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": metric(ops / run.op_time(), "1/s", ops),
        "qq_op_ms_p50": metric(percentile(lat["qq"], 0.5), "ms", reps["qq"]),
        "qq_op_ms_p90": metric(percentile(lat["qq"], 0.9), "ms", reps["qq"]),
        "gf_op_ms_p50": metric(percentile(lat["gf"], 0.5), "ms", reps["gf"]),
        "gf_op_ms_p90": metric(percentile(lat["gf"], 0.9), "ms", reps["gf"]),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "cli_cold_ms_p50": metric(
            percentile(cold_cases, 0.5) * 1000 if cold else 0.0, "ms",
            sum(len(times) for times in cold.values())),
    }
    return run, metrics


def layer_pass(load, run: workloads.Runner) -> float:
    """Parse the workload's documents, run round 0 and replay the cold CLI
    cases in process; returns the time spent in moddeg."""
    span = run.tracer.begin_op("prepare") if run.tracer else None
    start = time.perf_counter()
    load.prepare()
    prepare_s = time.perf_counter() - start
    if span is not None:
        run.tracer.close(span)
    load.run_round(run, 0)
    workloads.replay_cases(run, load.cold_cases)
    return prepare_s + run.busy


def per_layer(load, name: str, seed: int) -> tuple[workloads.Runner, dict]:
    import tracing

    imports = [float(fresh_interpreter(IMPORT_CODE)[2])
               for _ in range(IMPORT_REPEATS)]
    plain_run = workloads.Runner()
    plain_s = layer_pass(load, plain_run)
    tracer = tracing.Tracer()
    traced_run = workloads.Runner(tracer)
    tracer.install_spans()
    try:
        traced_s = layer_pass(load, traced_run)
    finally:
        tracer.uninstall()
    tracer.write_spans(SPANS / f"spans-{name}-seed{seed}.tsv.gz")
    counter = tracing.Tracer()
    counted_run = workloads.Runner()
    counter.install_counters()
    try:
        layer_pass(load, counted_run)
    finally:
        counter.uninstall()
    selfs, counts = tracer.self_times(), tracer.counts
    counts.update({key: cell[0] for key, cell in counter.field_ops.items()})
    ops = traced_run.attempted
    measured = {"cli.import_s": (statistics.median(imports), len(imports)),
                "trace.overhead_share": (traced_s / plain_s - 1, 1)}
    out = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        span, stat = name.rsplit(".", 1)
        if name in measured:
            value, samples = measured[name]
        elif stat == "self_s":
            value, samples = selfs.get(span, 0.0), counts[f"{span}.calls"]
        elif stat == "nonzero_share":
            whole = counts[f"{span}.cells"]
            value, samples = counts[f"{span}.nonzero"] / whole if whole else 0.0, whole
        elif stat.endswith("_max"):
            value, samples = tracer.maxima.get(name, 0), counts[f"{span}.calls"]
        else:
            value, samples = counts[name], ops
        out[name] = metric(value, spec["unit"], samples)
    run = workloads.Runner()
    for part in (plain_run, traced_run, counted_run):
        run.attempted += part.attempted
        run.failed += part.failed
        run.problems += part.problems
    return run, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round at the smallest sizes, no timing gate")
    args = parser.parse_args(argv)
    if not (SRC / "moddeg" / "__init__.py").is_file():
        print(f"moddeg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    if args.trace:
        run, metrics = per_layer(load, args.workload, args.seed)
    else:
        load.prepare()
        gc.collect()
        gc.freeze()
        run, metrics = end_to_end(load, args.seconds, args.smoke)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {run.attempted} ops attempted, "
          f"{run.failed} failed, failed_share {run.failed / max(run.attempted, 1)}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
