"""Tests of the benchmark itself: ``python -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import gen, run, tracing

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import umr.cli  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _answer(job: gen.Job) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = umr.cli.main(job.argv)
    return code, out.getvalue()


def _first(jobs, verb, pred=lambda job: True) -> gen.Job:
    return next(job for job in jobs if job.argv[0] == verb and pred(job))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = gen.build(workload, 7, tmp_path / "a")
    b = gen.build(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [[x.replace(str(tmp_path / "a"), "") for x in j.argv] for j in a] == [
        [x.replace(str(tmp_path / "b"), "") for x in j.argv] for j in b
    ]
    gen.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generator_never_touches_the_library():
    for name in ("gen.py", "model.py", "check.py"):
        source = (ROOT / "bench" / name).read_text()
        assert not re.search(r"^\s*(import|from)\s+umr\b", source, re.M), name


def test_generated_rationals_have_non_unit_denominators(tmp_path):
    gen.build("census", 3, tmp_path)
    text = "".join(p.read_text() for p in tmp_path.glob("*.uspace"))
    values = re.findall(r"^d \S+ \S+ (\S+)$", text, re.M)
    assert values and all("/" in v for v in values)


def test_checker_accepts_the_library_and_rejects_perturbed_answers(tmp_path):
    census = gen.build("census", 2, tmp_path / "census")
    job = _first(census, "tau", lambda j: "tau=2\n" in _answer(j)[1])
    code, out = _answer(job)
    assert job.check(code, out) is None
    assert job.check(code, out.replace("tau=2", "tau=3")) is not None

    job = _first(census, "orders", lambda j: _answer(j)[1].count("\n") > 2)
    code, out = _answer(job)
    lines = out.splitlines(keepends=True)
    assert job.check(code, out) is None
    assert job.check(code, "".join([lines[1], lines[0]] + lines[2:])) is not None

    job = _first(census, "hull", lambda j: _answer(j)[1].count("\n") > 8)
    code, out = _answer(job)
    assert job.check(code, out) is None
    assert job.check(code, "\n".join(out.splitlines()[:-1]) + "\n") is not None

    arrow = gen.build("arrow", 2, tmp_path / "arrow")
    job = _first(arrow, "arrow", lambda j: _answer(j)[0] == 1 and "copies=10" in _answer(j)[1])
    code, out = _answer(job)
    assert job.check(code, out) is None
    monochrome = re.sub(r"color \d+$", "color 0", out, flags=re.M)
    assert job.check(code, monochrome) is not None

    homogeneity = gen.build("homogeneity", 2, tmp_path / "qs")
    job = _first(homogeneity, "qs-extend", lambda j: int(_answer(j)[1].split()[0][6:]) >= 2)
    code, out = _answer(job)
    assert job.check(code, out) is None
    lines = out.splitlines()
    shortened = [f"moves={len(lines) - 2}"] + lines[1:-1]
    assert job.check(code, "\n".join(shortened) + "\n") is not None


def test_every_listed_function_is_wrapped_everywhere():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
import umr, umr.cli
from bench.tracing import Tracer, originals, umr_namespaces
before = {id(f) for f in originals().values()}
tracer = Tracer()
tracer.install()
left = [(m.__name__, k) for m in umr_namespaces() for k, v in vars(m).items() if id(v) in before]
assert not left, left
assert getattr(umr.QsAutomorphism.__call__, "__wrapped__", None) is not None
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    umr.cli.main(["extremal", "-n", "4"])
calls = tracer.metrics()
assert calls["cli.main.calls"] == 1 and calls["shapes.all_tree_shapes.calls"] >= 1, calls
assert calls["trees.count_sibling_orderings.calls"] >= 6, calls
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT)], capture_output=True, text=True)
    assert proc.stdout.strip() == "ok", proc.stderr


def _traced_counts(jobs_path: Path, tmp_path: Path, tag: str) -> dict:
    results = tmp_path / f"results-{tag}.jsonl"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT), "trace",
         str(jobs_path), str(results), str(tmp_path / f"{tag}.spans"), "[]"],
        check=True, capture_output=True,
    )
    lines = results.read_text().splitlines()
    layers = json.loads(lines[-1])["summary"]["layers"]
    spans = tracing.read_spans(tmp_path / f"{tag}.spans")
    assert len(spans) == sum(v for k, v in layers.items() if k.endswith(".calls"))
    return {k: v for k, v in layers.items() if not k.endswith(("self_s", "_per_s"))}


def test_traced_counts_repeat_exactly(tmp_path):
    jobs = gen.build("arrow", 1, tmp_path / "arrow")[:10] + gen.build("homogeneity", 1, tmp_path / "qs")[:4]
    jobs += gen.build("census", 1, tmp_path / "census")[:60]
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(json.dumps([j.argv for j in jobs]))
    first = _traced_counts(jobs_path, tmp_path, "a")
    second = _traced_counts(jobs_path, tmp_path, "b")
    assert first == second
    for key in ("spaces.is_convex_order.calls", "ramsey.verify_arrow.colorings",
                "urysohn.check_homogeneity.trials", "cli.main.calls"):
        assert first[key] > 0, key


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "arrow", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
