"""clab benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload adiabatic|spectral|montecarlo \
        --seed N --seconds S --trace 0|1

Each batch runs the workload's fixed job list through ``clab.cli.main`` in
a fresh interpreter, one job after another (one client, closed loop).
Batches repeat, each in a new process, as many as fit in ``--seconds``
(at least one). BLAS is pinned to one thread in every child, and times
are reported in reference seconds (see child.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced batch with ``--trace 1``.
Exits with 2, printing no result, when the clab sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: the plain single-threaded baseline, and immune to a
# second busy process on a two-core machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
# Everything, including the last batch, must end well inside 180 s.
DEADLINE_S = 165.0
FORMATS = "json,csv,svg"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("failed_frac", "fraction")]


class ChildFailed(RuntimeError):
    pass


def _machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


class Bench:
    """One run's job plans and the children it starts."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.jobs = workloads.build(workload, seed, ROOT)
        self.children = 0
        self.plans = []
        for job in self.jobs:
            if job.experiment is None:
                self.plans.append({"name": job.name, "argv": None, "config": job.config})
                continue
            config_path = tmp / f"{job.name}.json"
            config_path.write_text(json.dumps(job.config), encoding="utf-8")
            argv = [job.experiment, "--config", str(config_path), "--out", None, "--format", FORMATS]
            self.plans.append({"name": job.name, "argv": argv, "config": None})

    def spawn(self, jobs: list[dict], trace: bool = False) -> dict:
        """Run one child to completion; returns its result with its plan added."""
        self.children += 1
        tag = f"child{self.children}"
        plan_path, result_path, log_path = (self.tmp / f"{tag}.{ext}" for ext in ("plan.json", "result.json", "log"))
        plan = {"src": str(ROOT / "src"), "trace": trace, "result": str(result_path), "jobs": []}
        for job in jobs:
            job = dict(job)
            if job["argv"] is not None:
                out_dir = self.tmp / tag / job["name"]
                job["argv"] = [str(out_dir) if a is None else a for a in job["argv"]]
                job["out"] = str(out_dir)
            plan["jobs"].append(job)
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = {**os.environ, **PINNED_ENV}
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(plan_path), repr(spawned)],
                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - spawned),
                )
            except subprocess.TimeoutExpired as exc:
                raise ChildFailed(f"{tag} exceeded the run deadline") from exc
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise ChildFailed(f"{tag} exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["plan"] = plan
        return result


def _outputs(job_plan: dict, record: dict, experiment: str | None):
    if job_plan["argv"] is None:
        return record.get("outputs")
    path = Path(job_plan["out"]) / f"{experiment}_result.json"
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


def check_batch(bench: Bench, result: dict, failures: dict, hashes: dict) -> int:
    """Check every job of one batch; returns how many failed.

    Failures collect in ``failures`` under the job's name.
    """
    failed = 0
    for job, plan, record in zip(bench.jobs, result["plan"]["jobs"], result["jobs"]):
        errors = []
        if record["exit_code"] != 0:
            errors.append(f"exit code {record['exit_code']}" + (f"\n{record['error']}" if record["error"] else ""))
        else:
            try:
                outputs = _outputs(plan, record, job.experiment)
                errors.extend(job.check(outputs))
                digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
                seen = hashes.setdefault(job.name, digest)
                if seen != digest:
                    errors.append(f"outputs hash {digest[:12]} differs from an earlier run's {seen[:12]}")
            except (OSError, KeyError, TypeError, IndexError, ValueError) as exc:
                errors.append(f"unreadable outputs: {exc!r}")
        if errors:
            failed += 1
            failures.setdefault(job.name, []).extend(errors)
    return failed


class HashStore:
    """Output hashes of earlier runs in this checkout, per program and job plan.

    The key digests every clab source file and the generated job configs
    (which hold the seed), so an edit to either starts a fresh entry.
    Entries of other programs and plans are kept.
    """

    def __init__(self, path: Path, jobs: list):
        self.path = path
        key = hashlib.sha256()
        for source in sorted((ROOT / "src" / "clab").glob("*.py")):
            key.update(hashlib.sha256(source.name.encode() + b"\0" + source.read_bytes()).digest())
        key.update(json.dumps([[job.name, job.experiment, job.config] for job in jobs], sort_keys=True).encode())
        self.key = key.hexdigest()[:16]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}
        self.data = data if isinstance(data, dict) else {}
        self.hashes = dict(self.data.get(self.key, {}))

    def save(self) -> None:
        self.data[self.key] = self.hashes
        self.path.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")


def run(args, tmp: Path) -> dict:
    started = time.monotonic()
    bench = Bench(args.workload, args.seed, tmp, started + DEADLINE_S)
    bench.spawn([])  # warm-up: compiles bytecode, fills the file cache
    probes = [bench.spawn([]) for _ in range(SETUP_PROBES)]
    store = HashStore(ROOT / ".bench_tmp" / "output_hashes.json", bench.jobs)
    plain, traced, failures = [], [], {}
    attempted = failed = 0

    def one_round() -> bool:
        nonlocal attempted, failed
        for trace in (False, True) if args.trace else (False,):
            attempted += len(bench.jobs)
            try:
                result = bench.spawn(bench.plans, trace=trace)
            except ChildFailed as exc:
                failed += len(bench.jobs)
                for job in bench.jobs:
                    failures.setdefault(job.name, []).append(str(exc))
                return False
            (traced if trace else plain).append(result)
            failed += check_batch(bench, result, failures, store.hashes)
        return True

    rounds = done = 0
    while done == 0 or done < rounds:
        round_started = time.monotonic()
        if not one_round():
            break
        done += 1
        took = time.monotonic() - round_started
        if done == 1:
            # As many rounds as fit in --seconds, at least one.
            rounds = max(1, math.floor(args.seconds / took))
        if time.monotonic() + took > started + DEADLINE_S:
            break
    store.save()
    return {
        "bench": bench, "plain": plain, "traced": traced, "failures": failures,
        "probes": probes, "setups": [b["setup_s"] for b in probes + plain + traced],
        "attempted": attempted, "failed": failed,
    }


def end_to_end(state: dict) -> dict:
    plain, jobs = state["plain"], len(state["bench"].jobs)
    return {
        "wall_s": statistics.median(b["wall_s"] for b in plain) if plain else 0.0,
        "setup_s": statistics.median(state["setups"]),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain) if plain else 0.0,
        # Rule-of-succession estimate of the per-job failure rate over the
        # fixed job list: (failed jobs + 1) / (jobs + 2). It never reads 0
        # and does not depend on how many batches fitted in the run.
        "failed_frac": (len(state["failures"]) + 1) / (jobs + 2),
    }


def per_layer(state: dict) -> tuple[dict, list[str]]:
    plain, traced = state["plain"], state["traced"]
    values, absent = {}, set()
    for name, _unit, _span in layers.LAYER_METRICS:
        samples = [b["layers"][name] for b in traced if name in b["layers"]]
        values[name] = statistics.median(samples) if samples else 0.0
    for b in traced:
        absent.update(b["absent"])
    for job in workloads.JOB_NAMES:
        samples = [r["wall_s"] for b in plain for r in b["jobs"] if r["name"] == job]
        values[f"job.{job}.wall_s"] = statistics.median(samples) if samples else 0.0
    if plain and traced:
        values["trace.overhead_frac"] = (
            statistics.median(b["wall_s"] for b in traced) / statistics.median(b["wall_s"] for b in plain) - 1.0
        )
    else:
        values["trace.overhead_frac"] = 0.0
    return values, sorted(absent)


def layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, _span in layers.LAYER_METRICS}
    units.update((f"job.{job}.wall_s", "s") for job in workloads.JOB_NAMES)
    units["trace.overhead_frac"] = "fraction"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clab" / "cli.py").is_file() or not (ROOT / "instances").is_dir():
        print(f"benchmark: no clab sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        try:
            state = run(args, tmp)
        except ChildFailed as exc:
            print(f"benchmark: clab does not start: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, errors in sorted(state["failures"].items()):
        print(f"FAILED {name}: {errors[0]}")
    batches = state["plain"] + state["traced"]
    print(f"workload {args.workload}, seed {args.seed}: {len(state['plain'])} timed and "
          f"{len(state['traced'])} traced batch(es) of {len(state['bench'].jobs)} jobs")
    # Reference seconds, then elapsed seconds, of every child.
    print("timed batches " + json.dumps([
        {"wall_s": [round(b["wall_s"], 4), round(b["elapsed_s"], 4)],
         "setup_s": [round(b["setup_s"], 4), round(b["setup_elapsed_s"], 4)],
         "jobs": {r["name"]: [round(r["wall_s"], 4), round(r["elapsed_s"], 4)] for r in b["jobs"]}}
        for b in state["plain"]
    ]))
    print("setup probes " + json.dumps([[round(b["setup_s"], 4), round(b["setup_elapsed_s"], 4)]
                                        for b in state["probes"]]))
    child = batches[0] if batches else {}
    machine = {**_machine(), **child.get("versions", {}), "blas": child.get("blas", {}),
               "blas_env": PINNED_ENV, "workload": args.workload, "seed": args.seed}
    print("machine " + json.dumps(machine, sort_keys=True))
    if args.trace:
        values, absent = per_layer(state)
        units = layer_units()
        if absent:
            print("absent (wrap target missing, reported as 0): " + ", ".join(absent))
    else:
        values, units = end_to_end(state), dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not state["failures"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
