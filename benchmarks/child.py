"""Run one batch of clab jobs in this fresh interpreter.

Usage: python3 benchmarks/child.py PLAN.json SPAWNED

The plan names the clab source tree, the jobs and the result file;
SPAWNED is the parent's ``time.monotonic()`` just before it started this
process. The child times its set-up (spawn until ``import clab.cli`` with
numpy and scipy has finished), runs every job in order, and writes
per-job exit codes and times, its peak RSS and the BLAS facts of this
process to the result file. With ``trace`` set it installs the span
wrappers after the import and adds the per-layer metrics; without it no
wrapper is installed.

Every time is given twice: as elapsed seconds, and as seconds at a fixed
reference speed (see ``SpeedProbe``).
"""
from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import threading
import time
import traceback

# The host this benchmark was written on (2 vCPUs of a shared Xeon) runs a
# process about 1.5 times slower while other tenants load it, in phases
# lasting from under a second to half an hour. Elapsed times therefore
# move with the host's load, not only with the program. The probe times a
# fixed pure-Python loop every PROBE_PERIOD_S on the CPU the child runs
# on; its speed relative to REFERENCE_PROBE_S rescales each stretch of
# elapsed time to the reference speed. REFERENCE_PROBE_S is close to the
# loop's duration on that host while it is unloaded, so there reference
# seconds are close to elapsed seconds; elsewhere it only sets the unit.
PROBE_LOOPS = 5000
PROBE_PERIOD_S = 0.02
REFERENCE_PROBE_S = 320e-6


class SpeedProbe:
    """Samples this process's speed from a thread; converts elapsed to reference seconds.

    The process is pinned to one CPU, so the probe measures the CPU that
    runs the jobs. A thread, unlike a signal handler, also runs while a
    job is inside a long C call that released the GIL (a dense
    eigen-solve). Each probe takes about 2% of the CPU.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time.monotonic() at the end, speed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.monotonic()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        end = time.monotonic()
        self.samples.append((end, REFERENCE_PROBE_S / (end - start)))

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def start(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def reference_seconds(self, a: float, b: float) -> float:
        """The stretch [a, b] of ``time.monotonic()`` in seconds at the reference speed."""
        if not self.samples:  # the stretch ended before the thread's first probe
            self._sample()
        inside = [s for s in self.samples if a <= s[0] <= b]
        if not inside:
            nearest = min(self.samples, key=lambda s: abs(s[0] - b))
            return (b - a) * nearest[1]
        total = (inside[0][0] - a) * inside[0][1] + (b - inside[-1][0]) * inside[-1][1]
        for (t0, v0), (t1, v1) in zip(inside, inside[1:]):
            total += (t1 - t0) * (v0 + v1) / 2.0
        return total


def _blas_facts() -> dict:
    """Thread count each loaded OpenBLAS reports, and its configuration string."""
    facts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return facts
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode().strip()
        facts[os.path.basename(path)] = entry
    return facts


def _certify(spec: dict) -> dict:
    """Verify the exact zero-potential eigenpairs and reject perturbed energies."""
    import numpy as np
    from clab.reduction import SpectralDecisionInstance, reduce_energy_decision, verify_eigenpair

    grid = spec["grid"]
    n = grid["grid_points"]
    inst = SpectralDecisionInstance(
        grid_points=n, box_length=grid["box_length"], mass=grid["mass"], potential=np.zeros(n), threshold=0.0
    )
    h, _ = reduce_energy_decision(inst)
    j = np.arange(1, n + 1)
    tol = spec["tol"]
    pairs = []
    for pair in spec["pairs"]:
        psi = np.sqrt(2.0 / (n + 1)) * np.sin(j * pair["k"] * np.pi / (n + 1))
        pairs.append({
            "k": pair["k"],
            "accepted": bool(verify_eigenpair(h, psi, pair["energy"], tol)),
            "perturbed_rejected": not verify_eigenpair(h, psi, pair["energy"] + 10.0 * tol * spec["norm"], tol),
        })
    return {"pairs": pairs}


def _run_job(job: dict, cli) -> dict:
    out = {"name": job["name"], "exit_code": 0, "error": None}
    try:
        if job["argv"] is None:
            out["outputs"] = _certify(job["config"])
        else:
            out["exit_code"] = cli.main(job["argv"])
    except SystemExit as exc:
        out["exit_code"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback from the program is a failed job, not a failed batch
        out["exit_code"] = 1
        out["error"] = traceback.format_exc(limit=5)
    return out


def main(plan_path: str, spawned: float) -> int:
    probe = SpeedProbe()
    probe.start()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import clab.cli

    ready = time.monotonic()
    result = {"setup_s": probe.reference_seconds(spawned, ready), "setup_elapsed_s": ready - spawned, "jobs": []}
    if plan["jobs"]:
        tracer = wrapped = None
        if plan["trace"]:
            import layers

            tracer, wrapped = layers.install()
        first = time.monotonic()
        for job in plan["jobs"]:
            if tracer is not None:
                tracer.job = job["name"]
            start = time.monotonic()
            record = _run_job(job, clab.cli)
            record["elapsed_s"] = time.monotonic() - start
            record["wall_s"] = probe.reference_seconds(start, start + record["elapsed_s"])
            result["jobs"].append(record)
        last = time.monotonic()
        result["elapsed_s"] = last - first
        result["wall_s"] = probe.reference_seconds(first, last)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"], result["absent"] = layers.metrics(tracer, wrapped)
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        result["blas"] = _blas_facts()
    probe.stop()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
