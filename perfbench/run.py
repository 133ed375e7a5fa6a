"""Launch one wsigraph benchmark run in a fresh process.

    python3 perfbench/run.py --workload {cv-synth,patch-dense,slide-large} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The launcher caps BLAS/OpenMP threads at
one per process (OpenBLAS would otherwise start nproc threads in every
featurization worker), runs bench.py, which gives the featurization pool one
worker per usable core, adds the peak RSS of the largest process among bench.py
and its pool workers, and prints an environment record followed by the result
as the last line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache() -> str:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    for index in reversed(caches):
        try:
            return (index / "size").read_text(encoding="utf-8").strip()
        except OSError:
            continue
    return "unknown"


def environment() -> dict:
    """Machine and library record; imports numpy only after the measured run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": THREAD_CAPS,
        "featurize_workers": len(os.sched_getaffinity(0)),   # as bench.WORKERS
    }


def main() -> int:
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_CAPS}, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: bench.py exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: bench.py printed no result", file=sys.stderr)
        return 1
    if "wall_s" in result["metrics"]:
        # the largest peak of any single waited-for descendant, not their sum
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
