#!/usr/bin/env python3
"""Benchmark of the vocalm pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 runs `python -m vocalm pipeline` in fresh subprocesses with tracing
off and reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
pipeline once untraced and once under perfbench/traced.py, and reports the
per-layer metrics. Every report is checked; a failed check or a nonzero exit
counts as a failed run. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with environment and
input sizes, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import environment
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170.0  # one workload run ends within 180 s
SETUP_REPS = 3
SETUP_CODE = (
    "import sys, vocalm, vocalm.cli, vocalm.pipeline\n"
    "from vocalm.manifest import RunConfig\n"
    "RunConfig.from_file(sys.argv[1])\n"
    "print(vocalm.__file__)\n"
)
REPORT_KEYS = ("tool", "config_fingerprint", "seed", "segmentation", "ppl", "tasks", "fad", "purity", "probe")


class Overtime(Exception):
    """The run reached its time limit before the next subprocess could start."""


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_proc(cmd: list[str], log_dir: Path, timeout: float) -> Proc:
    """Run cmd to completion; wall time, CPU time and peak RSS are those of
    this one child, from wait4."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def report_problems(path: Path, seed: int, grid: bool) -> list[str]:
    """Invariants every report must meet."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"report unreadable: {e}"]
    missing = [k for k in REPORT_KEYS + (("context_grid",) if grid else ()) if k not in report]
    if missing:
        return [f"report misses {missing}"]
    problems = []
    if report["seed"] != seed:
        problems.append(f"report seed {report['seed']} != {seed}")
    fad = report["fad"].get("values", {})
    if not fad.get("original", math.inf) < fad.get("reversed", -math.inf) < fad.get("noise", -math.inf):
        problems.append(f"FAD not original < reversed < noise: {fad}")
    if not report["tasks"]:
        problems.append("report has no tasks")
    for task, stats in report["tasks"].items():
        if not (0.0 <= stats["accuracy"] <= 1.0 and stats["n"] > 0):
            problems.append(f"task {task}: accuracy {stats['accuracy']} n {stats['n']}")
    return problems


def input_sizes(out: Path, report: dict) -> dict:
    def lines(path: Path) -> list[str]:
        return [line for line in path.read_text().splitlines() if line.strip()]

    index = json.loads((out / "features" / "index.json").read_text())["windows"]
    return {
        "scenes": len(lines(out / "synth" / "truth.jsonl")),
        "windows": len(lines(out / "segment" / "windows.jsonl")),
        "frames": sum(row["n_frames"] for row in index),
        "unit_tokens": sum(
            len(line.split()) for split in ("train", "valid", "test")
            for line in lines(out / "quantize" / f"units_{split}.txt")
        ),
        "pairs_per_task": {task: stats["n"] for task, stats in report["tasks"].items()},
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """One workload run: its work directory, subprocess accounting and checks."""

    def __init__(self, name: str, wl, seed: int, trace: int, deadline: float):
        self.wl, self.seed, self.deadline = wl, seed, deadline
        self.jobs = min(wl.jobs, len(os.sched_getaffinity(0)))
        self.dir = WORK / "work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(wl.config, indent=2, sort_keys=True) + "\n")
        self.grid = bool(wl.config.get("context_grid", {}).get("enabled", False))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[int, str] = {}
        self.report_sha: dict[int, str] = {}

    def proc(self, cmd: list[str]) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Overtime
        self.attempted += 1
        return run_proc(cmd, self.dir, timeout)

    def check(self, what: str, problems: list[str]) -> bool:
        """Record one attempted run's problems; it fails if there are any."""
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def pipeline(self, out: Path, seed: int, jobs: int, what: str) -> tuple[Proc, bytes | None]:
        cmd = [sys.executable, "-m", "vocalm", "pipeline", "--config", str(self.config),
               "--out-dir", str(out), "--seed", str(seed), "--jobs", str(jobs)]
        p = self.proc(cmd)
        if p.rc != 0:
            tail = p.stderr.strip().splitlines()[-1:] or [""]
            self.check(what, [f"exit code {p.rc}: {tail[0]}"])
            return p, None
        if not self.check(what, report_problems(out / "report.json", seed, self.grid)):
            return p, None
        data = (out / "report.json").read_bytes()
        self.fingerprints[seed] = json.loads(data)["config_fingerprint"]
        return p, data

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure_end_to_end(run: Run, seconds: float, reference: str | None, record: bool,
                       previous: dict[int, str]) -> dict:
    wl = run.wl
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "resume_s": []}
    for i in range(SETUP_REPS):
        p = run.proc([sys.executable, "-c", SETUP_CODE, str(run.config)])
        imported = Path(p.stdout.strip() or ".").resolve()
        ok = run.check(f"setup {i}", [] if p.rc == 0 and (ROOT / "src") in imported.parents
                       else [f"exit code {p.rc}, vocalm imported from {imported}"])
        if ok:
            samples["setup_s"].append(p.wall)

    # a pass runs the reference input (the default seed) and the input of the
    # benchmark seed, each fresh and then resumed
    seeds = (DEFAULT_SEED, run.seed)
    reports: dict[int, bytes] = {}
    sizes = None
    t0 = time.monotonic()
    passes = 0
    while True:
        t_pass = time.monotonic()
        for i, seed in enumerate(seeds):
            out = run.dir / f"pass{passes}-{i}-seed{seed}"
            fresh, data = run.pipeline(out, seed, run.jobs, f"fresh seed {seed}")
            if data is not None:
                problems = []
                if seed in reports and reports[seed] != data:
                    problems.append("report differs from an earlier run of the same seed")
                if seed in previous and previous[seed] != sha256(data):
                    problems.append("report differs from the last run of this seed on the same source")
                if seed == DEFAULT_SEED and not record and sha256(data) != reference:
                    problems.append(f"report sha256 {sha256(data)} != reference {reference}")
                if run.check(f"fresh seed {seed}", problems):
                    reports.setdefault(seed, data)
                    run.report_sha[seed] = sha256(data)
                    samples["wall_s"].append(fresh.wall)
                    samples["cpu_s"].append(fresh.cpu)
                    samples["peak_rss_mb"].append(fresh.rss_mb)
                    if i == 0 and sizes is None:
                        sizes = input_sizes(out, json.loads(data))
            if data is not None:
                resume, again = run.pipeline(out, seed, run.jobs, f"resume seed {seed}")
                if again is not None and run.check(
                    f"resume seed {seed}", [] if again == data else ["resumed report differs from the fresh one"]
                ):
                    samples["resume_s"].append(resume.wall)
            shutil.rmtree(out, ignore_errors=True)
        if run.jobs > 1 and passes == 0:
            out = run.dir / "jobs1"
            _, data = run.pipeline(out, run.seed, 1, f"--jobs 1 seed {run.seed}")
            if data is not None:
                run.check(f"--jobs 1 seed {run.seed}", [] if data == reports.get(run.seed)
                          else [f"--jobs 1 report differs from --jobs {run.jobs}"])
            shutil.rmtree(out, ignore_errors=True)
        passes += 1
        pass_s = time.monotonic() - t_pass
        now = time.monotonic()
        if now - t0 + pass_s > seconds or now + pass_s > run.deadline:
            break
    return {"samples": samples, "passes": passes, "seeds": seeds, "input_sizes": sizes}


def measure_traced(run: Run) -> dict:
    """An untraced run on each side of the traced one, so that a slow drift
    of the machine cancels in the overhead."""
    untraced_out, traced_out = run.dir / "untraced", run.dir / "traced"
    _, untraced = run.pipeline(untraced_out, run.seed, run.jobs, "untraced")
    result_path = run.dir / "traced.json"
    p = run.proc([sys.executable, str(HERE / "traced.py"), "--config", str(run.config),
                  "--out-dir", str(traced_out), "--seed", str(run.seed), "--jobs", str(run.jobs),
                  "--result", str(result_path)])
    problems = [] if p.rc == 0 else [f"exit code {p.rc}: {p.stderr.strip()[-300:]}"]
    if not problems:
        problems = report_problems(traced_out / "report.json", run.seed, run.grid)
    if not problems and untraced is not None and (traced_out / "report.json").read_bytes() != untraced:
        problems = ["traced report differs from the untraced one"]
    if not run.check("traced", problems) or untraced is None:
        return {"metrics": {}}
    m = json.loads(result_path.read_text())

    def elapsed(out: Path) -> float:
        return json.loads((out / "run_meta.json").read_text())["elapsed_s"]

    untraced_s = [elapsed(untraced_out)]
    shutil.rmtree(untraced_out)
    _, again = run.pipeline(untraced_out, run.seed, run.jobs, "untraced again")
    if again is not None and run.check("untraced again", [] if again == untraced else
                                       ["report differs from the first untraced run"]):
        untraced_s.append(elapsed(untraced_out))
    m["trace.untraced_s"] = statistics.median(untraced_s)
    m["trace.traced_s"] = elapsed(traced_out)
    # Kept in the result file, not as a metric: it is the difference of two
    # noisy times, so it can read 0 or below.
    return {"metrics": m, "trace_overhead_s": m["trace.traced_s"] - m["trace.untraced_s"]}


def summarize(values: list[float]) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values) if values else 0.0,
        "max": max(values) if values else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict, record: bool) -> dict:
    wl = WORKLOADS[name]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = None if record else references.get(name, {}).get("report_sha256")
    run = Run(name, wl, seed, trace, time.monotonic() + RUN_LIMIT_S)
    env = environment.collect(ROOT)
    out = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
    config_sha256 = sha256(json.dumps(wl.config, sort_keys=True).encode())
    # reports of this seed from the last run on the same source, config and
    # numeric libraries must repeat
    previous: dict[int, str] = {}
    try:
        last = json.loads(out.read_text())
        keys = ("source_sha256", "numpy", "scipy", "blas_version")
        if all(last["environment"][k] == env[k] for k in keys) and last["workload_config_sha256"] == config_sha256:
            previous = {int(k): v for k, v in last["report_sha256"].items()}
    except (OSError, ValueError, KeyError):
        pass
    try:
        if trace:
            measured = measure_traced(run)
            values = measured["metrics"]
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
            if values and missing:
                run.check("traced", [f"per-layer metrics missing: {missing}"])
            table = {m["name"]: {"n": 1, "median": values.get(m["name"], 0.0), "max": values.get(m["name"], 0.0)}
                     for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            measured = measure_end_to_end(run, seconds, reference, record, previous)
            table = {m["name"]: summarize(measured["samples"][m["name"]]) for m in spec["end_to_end"]}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except Overtime:
        run.check("time limit", [f"run exceeded {RUN_LIMIT_S:.0f} s"])
        measured, table, units = {}, {}, {}
    finally:
        run.cleanup()

    if record and trace == 0 and DEFAULT_SEED in run.report_sha and not run.failed:
        references[name] = {"seed": DEFAULT_SEED, "report_sha256": run.report_sha[DEFAULT_SEED]}
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")

    result = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "trace": trace,
        "jobs": run.jobs,
        "environment": env,
        "workload_config_sha256": config_sha256,
        "config_fingerprints": run.fingerprints,
        "report_sha256": run.report_sha,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_rate": run.failed / run.attempted if run.attempted else 1.0,
        "problems": run.problems,
        "metrics": {k: {**v, "unit": units[k]} for k, v in table.items()},
        **{k: v for k, v in measured.items() if k != "metrics"},
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    result["path"] = str(out.relative_to(ROOT))
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']} jobs {result['jobs']}: {result['why']}")
    print("   nproc {nproc}  python {python}  numpy {numpy}  scipy {scipy}  OpenBLAS {blas_version} "
          "({blas_threads} threads)  commit {git_commit}".format(**{k: env.get(k) for k in (
              "nproc", "python", "numpy", "scipy", "blas_version", "blas_threads", "git_commit")}))
    if result.get("input_sizes"):
        print(f"   inputs at seed {DEFAULT_SEED}: {json.dumps(result['input_sizes'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"   {name:<48} {m['unit']:<6} n={m['n']:<3} median={m['median']:<14.6g} max={m['max']:.6g}")
    if "trace_overhead_s" in result:
        print(f"   {'tracing overhead (traced - untraced)':<48} {'s':<6} value={result['trace_overhead_s']:.4g}")
    print(f"   {'fail_rate':<48} {'ratio':<6} n={result['attempted']:<3} value={result['fail_rate']:.4g}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    print(f"   full result: {result['path']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store the default-seed report sha256 as the reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vocalm" / "__init__.py").is_file():
        print(f"error: no vocalm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace, spec, args.record_reference) for n in names]
    for result in results:
        print_result(result)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": m["median"], "unit": m["unit"]}
        for r in results for name, m in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
