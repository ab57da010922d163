"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload nat_map --seed 0 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory; nothing needs installing.  A run sets up once
(imports, profiles, configs), then makes whole checked passes of the
workload's pipeline until ``--seconds`` have passed, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median pass), ``setup_s`` (median of fresh interpreters
timed from start to the first layer call) and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, taken from the traced passes; their spans are
written to ``<out>/spans-<workload>-seed<seed>.jsonl``.

The run writes only under ``--out``, and only when traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# no bytecode is written, so a run leaves the checkout as it found it
# and every run compiles the program alike
sys.dont_write_bytecode = True
import spans  # noqa: E402  (after the bytecode switch)

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 5
#: Program counters read around each traced pass.
COUNTERS = (
    "kernels.fifo.packets",
    "kernels.fifo.fast_segments",
    "kernels.fifo.scalar_fallback_segments",
    "matchmaking.columnar.vectorised_attempts",
    "matchmaking.columnar.scalar_fallback_attempts",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory the traced run writes its spans to")
    parser.add_argument("--probe-setup", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the workloads (and with them the program) from ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import pipelines

    return pipelines


def time_setup(args) -> float:
    """Median seconds from interpreter start to the first layer call."""
    times = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--probe-setup", repr(started)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def counter_values(registry) -> dict:
    return {name: registry.counter(name).value for name in COUNTERS}


def one_pass(workload, recorder, registry):
    """One pass: collected heap, timed pipeline, output checks.

    Returns the outputs, the pipeline's wall time and how far it moved
    each program counter; the counters are read before the checks,
    which call into the program too.
    """
    gc.collect()
    before = counter_values(registry)
    started = time.perf_counter()
    with recorder.span("pass"):
        out = workload.run(recorder)
    wall = time.perf_counter() - started
    after = counter_values(registry)
    workload.check(out)
    return out, wall, {name: after[name] - before[name] for name in COUNTERS}


def main(argv=None) -> int:
    args = parse_args(argv)
    pipelines = load_program()
    if args.workload not in pipelines.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(pipelines.WORKLOADS)}")
    workload = pipelines.WORKLOADS[args.workload](args.seed)
    if args.probe_setup is not None:
        print(time.time() - args.probe_setup)
        return 0

    from repro.obs.metrics import registry

    spec = json.loads(SPEC.read_text())
    setup_s = None if args.trace else time_setup(args)

    walls, traced_walls, coverage, recorders = [], [], [], []
    layer_samples: dict = {}
    attempted = failed = wrong = 0
    # a round is one pass, or an untraced and a traced pass
    round_kinds = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in round_kinds:
            attempted += 1
            recorder = spans.SpanRecorder(attempted) if traced else spans.NullRecorder()
            try:
                out, wall, counts = one_pass(workload, recorder, registry())
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                wrong += isinstance(sys.exc_info()[1], pipelines.CheckFailed)
                traceback.print_exc()
                continue
            print(f"pass {attempted}{' traced' if traced else ''}: {wall:.3f} s",
                  file=sys.stderr)
            if traced:
                durations = recorder.durations()
                sample = {f"{name}.s": secs for name, secs in durations.items()}
                sample.update(workload.layer_metrics(out, durations))
                sample.update(counts)
                for name, value in sample.items():
                    layer_samples.setdefault(name, []).append(value)
                traced_walls.append(wall)
                coverage.append(recorder.coverage("pass"))
                recorders.append(recorder)
            else:
                walls.append(wall)
            del out  # the next pass starts from an empty heap
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans.write_spans(
            out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", recorders)
        values = {name: statistics.median(v) for name, v in layer_samples.items()}
        if walls and traced_walls:
            values["bench.trace_overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls))
            values["bench.span_coverage"] = min(coverage)
        # a layer this workload never calls did no work: it reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": wrong == 0 and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
