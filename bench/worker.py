"""Fresh worker process: import ``umr``, say ``ready``, run a job list.

Usage: ``python worker.py ROOT MODE [JOBS RESULTS [SPANS ANCHORS]]`` where
MODE is ``probe`` (import and exit), ``plain`` or ``trace``.  Jobs run one
at a time through ``umr.cli.main`` with stdout and stderr captured.  RESULTS gets one JSON line per job as it finishes,
then one summary line with each job's host-normalised seconds; nothing is
written while a job's clock runs.
"""

import sys
import time

root, mode = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")
import umr.cli  # noqa: E402  (the import is what set-up time measures)

sys.stdout.write("ready\n")
sys.stdout.flush()
if mode == "probe":
    sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, root)
from bench import hostspeed  # noqa: E402
from bench.tracing import Tracer  # noqa: E402


def peak_rss_mib() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    also count the spawning parent, whose high-water mark survives exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    jobs_path, results_path = sys.argv[3], sys.argv[4]
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    cli_main = umr.cli.main
    sampler = hostspeed.Sampler()
    clocks = []
    cpu = 0.0
    with open(results_path, "w") as results:
        sampler.start()
        for index, argv in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.current_job = index
            spent = sampler.spent
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(argv)
            except Exception:
                code, err = -1, io.StringIO(traceback.format_exc())
            t1 = time.perf_counter()
            cpu += time.process_time() - c0
            clocks.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
            results.write(json.dumps({"code": code, "raw_s": clocks[-1][2], "out": out.getvalue(), "err": err.getvalue()}) + "\n")
        sampler.stop()
        seconds = [s * sampler.factor(t0, t1) for t0, t1, s in clocks]
        summary = {
            "seconds": seconds,
            "wall_s": sum(seconds),
            "raw_wall_s": sum(s for _, _, s in clocks),
            "cpu_s": cpu,
            "snippet_ms": 1000 * sum(sampler.costs) / max(len(sampler.costs), 1),
            "peak_rss_mib": peak_rss_mib(),
        }
        if tracer is not None:
            summary["layers"] = tracer.metrics()
            summary["anchors"] = tracer.job_totals(json.loads(sys.argv[6]))
            tracer.write(sys.argv[5])
        results.write(json.dumps({"summary": summary}) + "\n")


main()
