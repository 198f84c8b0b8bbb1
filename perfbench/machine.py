"""Facts about the machine a result was measured on, and its steal time."""

from __future__ import annotations

import os
from pathlib import Path


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine, over all its CPUs.

    Steal time is when a virtual CPU had work but the host ran something
    else; 0.0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_facts(root: Path, seed: int, thread_env: dict[str, str]) -> dict:
    import platform
    from importlib import metadata

    facts: dict = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads_env": thread_env,
        "seed": seed,
    }
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu_model"] = models[0] if models else None
    except OSError:
        facts["cpu_model"] = None
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        try:
            facts[name.lower()[3:] + "_bytes"] = os.sysconf(name)
        except (ValueError, OSError):
            facts[name.lower()[3:] + "_bytes"] = None
    facts["mem_total_mb"] = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20
    facts["git_revision"] = git_revision(root)
    facts["note"] = ("_mb, voxels_out and ratio metrics are computed from shapes, "
                     "file sizes and arguments, not measured bandwidth")
    return facts


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
