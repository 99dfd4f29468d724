"""Self-test of the benchmark's process and shared-memory hygiene.

    python3 perfbench/hygiene_check.py

Runs every workload briefly through ``run.py`` four ways: to the end, with
a failure injected into the workload mid-run, interrupted by SIGTERM sent to
``run.py``, and with ``run.py`` killed by SIGKILL (the workload then gets
SIGTERM from the kernel and cleans up by itself).  After each run it checks, through ``/proc``, that no
process started by the benchmark or by the program survives (every process
of the run inherits a marker in its environment), and that ``/dev/shm``
holds no new ``rps*`` segment.  Exits 1 on the first violation.

The file is not named ``test_*`` on purpose: the repository's test suite
must not start these multi-second, multi-process runs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402

WORKLOADS = ("factorize-dist", "solve-stream", "serve-mixed")
MARKER = "PERFBENCH_HYGIENE_TAG"


def survivors(tag: str) -> list:
    """Live processes whose environment carries ``tag``."""
    needle = f"{MARKER}={tag}".encode()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle in fh.read().split(b"\0"):
                    out.append(int(entry))
        except OSError:
            continue
    return [p for p in out if procs.alive(p)]


def run(workload: str, *, seconds: float, fail_after=None, signal_after=None,
        sig=signal.SIGTERM) -> tuple:
    tag = uuid.uuid4().hex
    env = dict(os.environ, **{MARKER: tag})
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "0"]
    if fail_after is not None:
        cmd += ["--fail-after", str(fail_after)]
    before = procs.shm_segments()
    proc = subprocess.Popen(cmd, cwd=HERE.parent, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if signal_after is not None:
        time.sleep(signal_after)
        proc.send_signal(sig)
    out, err = proc.communicate(timeout=200)
    # After a SIGKILL nobody waits for the workload; give its own cleanup time.
    deadline = time.monotonic() + 30.0
    while survivors(tag) and time.monotonic() < deadline:
        time.sleep(0.2)
    left = survivors(tag)
    leaked = procs.shm_segments() - before
    return proc.returncode, out, err, left, leaked


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        cases = (
            ("normal", dict(seconds=2.0), lambda code, out: code == 0
             and json.loads(out.strip().splitlines()[-1])["correct"] is True),
            ("injected failure", dict(seconds=6.0, fail_after=5.0), lambda code, out: code != 0),
            ("SIGTERM", dict(seconds=6.0, signal_after=5.0),
             lambda code, out: code == 128 + signal.SIGTERM),
            ("SIGKILL", dict(seconds=6.0, signal_after=5.0, sig=signal.SIGKILL),
             lambda code, out: code == -signal.SIGKILL),
        )
        for name, kwargs, expect in cases:
            code, out, err, left, leaked = run(workload, **kwargs)
            ok = expect(code, out) and not left and not leaked
            print(f"{workload:15s} {name:17s} exit={code:<4d} survivors={len(left)} "
                  f"leaked_segments={len(leaked)} {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                problems.append((workload, name, err[-2000:]))
                procs.kill_all(left)
                procs.sweep_segments(leaked)
    for workload, name, err in problems:
        print(f"--- {workload} / {name} stderr:\n{err}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
