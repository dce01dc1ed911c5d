"""Run isolation, Ray start/stop and host facts.

Each run gets a fresh root inside the checkout (``.pbrun/``), which
holds its inputs, lakes, temp files and Ray's session directory, and is
removed on exit. Nothing is cached across runs, so set-up costs the same
every time.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(REPO, ".pbrun")
MIN_FREE_BYTES = 2 << 30
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
MAX_RAY_TEMP_LEN = 41


def make_run_root(workload: str, seed: int) -> str:
    os.makedirs(RUNS_DIR, exist_ok=True)
    free = shutil.disk_usage(RUNS_DIR).free
    if free < MIN_FREE_BYTES:
        raise RuntimeError(f"only {free >> 20} MiB free under {RUNS_DIR}; "
                           f"a run needs {MIN_FREE_BYTES >> 20} MiB")
    root = os.path.join(RUNS_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.join(root, "tmp"))
    return root


def ray_temp_dir(root: str) -> str | None:
    """Ray's temp directory inside the checkout, or None (Ray's default)
    when the checkout path is too long for Ray's unix sockets."""
    short = os.path.join(RUNS_DIR, f"r{os.getpid()}")
    if len(short) <= MAX_RAY_TEMP_LEN:
        return short
    print(f"perfbench: warning: checkout path too long for Ray sockets; "
          f"Ray uses its default temp dir", file=sys.stderr)
    return None


# Ray gets one CPU slot, and the timed work one CPU, whatever the host
# offers: the workloads are sized for a 1-CPU host, and a fixed CPU count
# keeps runs on different hosts comparable (the host record states what the
# host had). On a shared VM one busy vCPU also loses far less time to the
# hypervisor than several do, which keeps timings steady from run to run.
RAY_CPUS = 1
_HOST_CPUS = None


def host_cpus() -> int:
    """CPUs the host offered this process, before ``pin_one_cpu``."""
    if _HOST_CPUS is not None:
        return _HOST_CPUS
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_one_cpu(procs) -> int | None:
    """Pin every thread of this process and of the Ray processes it started
    to the highest-numbered CPU it may use; threads and workers started
    later inherit that. Ray starts its processes first, on every CPU,
    because starting them on one CPU takes twice as long. Returns the CPU,
    or None where the platform has no CPU affinity."""
    global _HOST_CPUS
    _HOST_CPUS = host_cpus()
    try:
        cpu = max(os.sched_getaffinity(0))
    except AttributeError:
        return None
    for pid in [os.getpid()] + [p.pid for p in procs]:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            tids = [pid]
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass
    return cpu


def start_ray(root: str, idle_workers: int | None = None) -> None:
    """ray.init with the repo root on every worker's import path, so the
    benchmark works from any working directory. Ray's processes inherit the
    driver's environment; a job ``runtime_env`` would do the same but makes
    Ray start a second worker for it, 3-4 s more set-up on one CPU.
    ``idle_workers`` is how many idle workers Ray keeps; None keeps Ray's
    default, one per CPU slot."""
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    if idle_workers:
        kwargs["_system_config"] = {"num_workers_soft_limit": idle_workers}
    temp = ray_temp_dir(root)
    if temp:
        kwargs["_temp_dir"] = temp
    ray.init(num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


# the program's modules the workloads and the traced-run wrappers use
PROGRAM_MODULES = ("qwery_ray", "qwery_ray.cdc.engine", "qwery_ray.cdc.tail",
                   "qwery_ray.cdc.upsert", "qwery_ray.cdc.merge_stmt",
                   "qwery_ray.ops.dedup", "qwery_ray.sqlc.compiler",
                   "qwery_ray.sqlc.parser",
                   "qwery_ray.pipelines.driver_queries")


def _warm(batch):
    """Cold imports, paid before timing. A module a refactor removed is
    skipped: the workload that needs it reports the failure."""
    import importlib

    for name in PROGRAM_MODULES:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    return batch


def warm_workers() -> None:
    """Start the worker pool and pay its cold imports, and the driver's,
    before timing, so that traced and untraced runs time the same work."""
    import ray.data as rd

    n = RAY_CPUS
    rd.range(n * 4, override_num_blocks=n * 2) \
        .map_batches(_warm, batch_format="pyarrow").materialize()
    _warm(None)


def ray_processes():
    """The Ray processes this run started (descendants of this process)."""
    import ray  # noqa: F401 — puts Ray's bundled psutil on sys.path
    import psutil

    try:
        return psutil.Process().children(recursive=True)
    except psutil.Error:
        return []


def stop_ray(procs) -> None:
    """ray.shutdown(), then wait for every process it started to end."""
    import ray
    import psutil

    if ray.is_initialized():
        ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=15)
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(alive, timeout=10)


def remove_root(root: str, temp: str | None) -> None:
    for path in (root, temp):
        if path:
            shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(RUNS_DIR)
    except OSError:
        pass


# ------------------------------------------------------------------ memory
def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss(procs) -> None:
    """Reset VmHWM of this process and the Ray processes (Linux
    clear_refs 5), so the peak covers the timed phase only."""
    for pid in [os.getpid()] + [p.pid for p in procs]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(procs) -> float:
    """Highest VmHWM among this process and the live Ray processes."""
    pids = [os.getpid()] + [p.pid for p in procs]
    return max(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


# -------------------------------------------------------------------- host
def decode_probe(path: str, seconds: float = 0.5) -> float:
    """Single-core parquet decode rate (M rows/s) of one input file: an
    engine-free probe of this host's current per-core speed."""
    import pyarrow.parquet as pq

    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        n += pq.read_table(path).num_rows
    return n / (time.perf_counter() - t0) / 1e6


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]):
    """Share of CPU time the hypervisor gave to other guests in between:
    a sign that the host was busy and timings are slow."""
    total = after[1] - before[1]
    return round((after[0] - before[0]) / total, 4) if total > 0 else None


def host_record(input_digest: str, probe_file: str | None) -> dict:
    import pyarrow
    import ray

    rec = {
        "nproc": host_cpus(),
        "cpus_used": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": int(ray.cluster_resources().get("CPU", 0))
        if ray.is_initialized() else None,
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": sys.version.split()[0],
        "input_digest": input_digest,
    }
    rec["host_decode_mrows_s"] = round(decode_probe(probe_file), 3) \
        if probe_file else None
    return rec


def input_files(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "inputs", "**", "*.parquet"),
                            recursive=True))
