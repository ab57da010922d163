"""Steadiness check: two interleaved sets of benchmark runs of one commit.

    python3 perfbench/steady.py --runs 10 [--seed 0] [--vary-seed]
                                [--workloads nat_map,fleet_loop]

Every run of both sets uses seed ``--seed`` (default 0); with
``--vary-seed``, run ``i`` of both sets uses seed ``--seed + i``.
Which set goes first alternates from run to run.  For each workload
and end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether the two sets
agree within the bounds of ``BENCHMARK.json``: every spread
(``setup_s`` excepted) at most the bound, the two medians apart by at
most the bound (as a share of the smaller), and the same share of
failed operations.  Exits 1 when any pair disagrees.  Every run's
result is kept in ``<out>/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i of each set uses seed --seed + i")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=".perfbench_out")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    results = {w: [[], []] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = args.seed + i if args.vary_seed else args.seed
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][s].append(result)
                print(f"run {i} set {s} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items()),
                      flush=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    for workload in workloads:
        sets = results[workload]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        agree = correct and len(set(shares)) == 1
        ok &= agree
        print(f"\n{workload}: failed share {shares}, all correct {correct}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            spread_ok = name == "setup_s" or all(st[3] <= bound for st in stats)
            first, second = stats[0][0], stats[1][0]
            drift_ok = abs(second - first) / min(first, second) <= bound
            verdict = "agree" if spread_ok and drift_ok else "DISAGREE"
            ok &= spread_ok and drift_ok
            cells = "  ".join(
                f"set{k}: median {st[0]:.4g} [{st[1]:.4g}, {st[2]:.4g}] "
                f"spread {st[3]:.3f}" for k, st in enumerate(stats))
            print(f"  {name:<14} bound {bound:<5} {cells}  -> {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
