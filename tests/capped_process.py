"""Run Python in a child process whose address space is capped.

Tests of size refusals use it: code that does ask for a huge array then
fails fast with MemoryError instead of taking the machine's memory.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_capped(args: list[str], cap_bytes: int, timeout: float = 300) -> subprocess.CompletedProcess:
    """``python *args`` with ``src/`` importable and RLIMIT_AS set to `cap_bytes`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    return subprocess.run(
        [sys.executable, *args], env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=timeout,
    )
