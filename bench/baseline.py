"""Record the baseline: end-to-end and per-layer numbers for one seed.

    python3 bench/baseline.py [--seed 1] [--out bench/baseline.json]

For every workload it makes one untraced and one traced run of
``run_seconds`` from ``BENCHMARK.json`` and writes their metrics, the
ROADMAP anchor jobs' per-layer breakdowns (raw seconds of the traced run,
next to the job's raw and host-normalised untraced seconds), and the host
it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import gen, run  # noqa: E402


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "bench" / "baseline.json"))
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {
        "seed": args.seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "host": {"cpu": _cpu_model(), "cores": os.cpu_count(), "system": platform.platform()},
        "date": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    for workload in gen.WORKLOADS:
        plain = run.run(workload, args.seed, seconds, trace=False)
        traced = run.run(workload, args.seed, seconds, trace=True)
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items() if v["value"]},
            "anchors": traced["anchors"],
            "diagnostics": plain["diagnostics"] + traced["diagnostics"],
        }
        print(f"{workload}: done", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
