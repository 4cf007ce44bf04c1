"""End-to-end benchmark of the ``umr`` verbs.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Closed loop, one client: a fresh single-threaded worker process imports
``umr`` and runs the workload's seeded job list through ``umr.cli.main``,
one job at a time.  Passes over the list repeat, each in a new worker, for
about ``--seconds``; every answer is checked against the benchmark's own
oracles.  The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced worker with ``--trace 1``.
Lines before it starting with ``#`` are diagnostics (CPU time and a fixed
calibration loop per pass, to tell host drift from program changes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import gen, tracing  # noqa: E402

WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / ".bench_out"
PROBES_PER_GAP = 3  # set-up probes before every pass and after the last
MIN_JOB_SAMPLES = 100  # so that at least ten lie beyond p90
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "correct_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(tracing.EXTRAS)
    units["trace.overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], env: dict) -> float:
    """Start a worker and wait for it; return the seconds until it said
    ready.  The worker writes nothing else to stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(WORKER), str(ROOT), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed (exit {proc.returncode}): {err.decode()[-2000:]}")
    return ready


def _pass(mode: str, workdir: Path, env: dict, anchors: list[int], spans: Path) -> dict:
    results = workdir / f"results-{mode}.jsonl"
    extra = [str(spans), json.dumps(anchors)] if mode == "trace" else []
    setup = _spawn([mode, str(workdir / "jobs.json"), str(results), *extra], env)
    with open(results) as fh:
        lines = [json.loads(line) for line in fh]
    summary = lines.pop()["summary"]
    for job, seconds in zip(lines, summary.pop("seconds")):
        job["s"] = seconds
    summary.update(setup_s=setup, jobs=lines)
    return summary


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "umr" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    workdir = OUT / f"{workload}-s{seed}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    try:
        jobs = gen.build(workload, seed, workdir / "in")
        (workdir / "jobs.json").write_text(json.dumps([job.argv for job in jobs]))
        anchors = [i for i, job in enumerate(jobs) if job.anchor]
        spans = OUT / "spans" / f"{workload}-s{seed}.spans"
        spans.parent.mkdir(parents=True, exist_ok=True)

        _spawn(["probe"], env)  # untimed: compiles bytecode in a fresh checkout

        # Probes are spread over the run so that set-up time, which host
        # speed swings move as much as anything, is sampled in many states.
        setups: list[float] = []
        start = time.perf_counter()
        passes: dict[str, list[dict]] = {"plain": [], "trace": []}
        modes = ["plain", "trace"] if trace else ["plain"]
        while True:
            setups += [_spawn(["probe"], env) for _ in range(PROBES_PER_GAP)]
            mode = modes[sum(len(p) for p in passes.values()) % len(modes)]
            begun = time.perf_counter()
            passes[mode].append(_pass(mode, workdir, env, anchors, spans))
            took = time.perf_counter() - begun
            samples = sum(len(p["jobs"]) for p in passes["plain"])
            done = all(passes[m] for m in modes) and samples >= MIN_JOB_SAMPLES
            if done and time.perf_counter() - start + took / 2 >= seconds:
                break
        setups += [_spawn(["probe"], env) for _ in range(PROBES_PER_GAP)]

        checked: dict[tuple, str | None] = {}
        attempted = failed = 0
        failures: list[str] = []
        for p in passes["plain"] + passes["trace"]:
            for i, res in enumerate(p["jobs"]):
                key = (i, res["code"], res["out"])
                if key not in checked:
                    try:
                        checked[key] = jobs[i].check(res["code"], res["out"])
                    except Exception as exc:  # malformed output the checker did not foresee
                        checked[key] = f"checker raised {exc!r}"
                attempted += 1
                if checked[key] is not None:
                    failed += 1
                    failures.append(f"{' '.join(jobs[i].argv[:2])}: {checked[key]} {res['err'][-300:]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = passes["plain"]
    latencies = [res["s"] for p in plain for res in p["jobs"]]
    setups += [p["setup_s"] for p in plain + passes["trace"]]
    diagnostics = [
        f"{mode} pass {k}: wall_s={p['wall_s']:.4f} raw_wall_s={p['raw_wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
        f"snippet_ms={p['snippet_ms']:.4f} setup_s={p['setup_s']:.4f} "
        f"peak_rss_mib={p['peak_rss_mib']:.1f}"
        for mode in ("plain", "trace") for k, p in enumerate(passes[mode])
    ]
    diagnostics.append(f"job samples={len(latencies)} jobs/pass={len(jobs)} setup samples={len(setups)}")
    diagnostics += failures[:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "diagnostics": diagnostics}
    if not trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "job_ms_p50": 1000 * statistics.median(latencies),
            "job_ms_p90": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "correct_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
        units = END_TO_END
    else:
        traced = passes["trace"]
        values = dict(traced[0]["layers"])
        for name in tracing.NAMES:
            values[f"{name}.self_s"] = statistics.median(p["layers"][f"{name}.self_s"] for p in traced)
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        )
        units = per_layer_units()
        # An anchor's layers are raw traced seconds and add up to
        # traced_span_s; its untraced time is given raw and host-normalised.
        result["anchors"] = {}
        for i in anchors:
            layers = traced[0]["anchors"][str(i)]
            result["anchors"][jobs[i].anchor] = {
                "verb": jobs[i].argv[0],
                "plain_raw_s": statistics.median(p["jobs"][i]["raw_s"] for p in plain),
                "plain_normalised_s": statistics.median(p["jobs"][i]["s"] for p in plain),
                "traced_span_s": sum(entry["self_s"] for entry in layers.values()),
                "layers": layers,
            }
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in result.pop("diagnostics"):
        print("# " + line)
    result.pop("anchors", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
