"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--seeds 1-10]

Runs ``bench/run.py`` once per seed and workload, for every workload of
``BENCHMARK.json`` and for its ``run_seconds``, rotating the order of
the workloads from one seed to the next so that slow drift of the host
hits every workload alike.  For each workload and metric it prints the
median and the interquartile range as a share of the median, next to the
metric's bound in ``BENCHMARK.json``, and it writes every run's result to
``.bench_out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for r, seed in enumerate(seeds):
        for w in workloads[r % len(workloads):] + workloads[:r % len(workloads)]:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(seed=seed, diagnostics=lines[:-1])
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w:12s} seed {seed:3d} correct={result['correct']} {values}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>8s}")
    for w, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values) if len(values) > 1 else 0.0
            flag = "" if s < bound / 3 else (" above bound/3" if s < bound else " ABOVE BOUND")
            print(f"{w:12s} {name:14s} {statistics.median(values):12.5g} {s:8.4f} {bound:8.2g}{flag}")
    out = ROOT / ".bench_out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"\nruns written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
