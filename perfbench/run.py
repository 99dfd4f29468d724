"""Benchmark of the structured dense solver, end to end and per layer.

    python3 perfbench/run.py --workload factorize-dist --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workloads are ``factorize-dist``,
``solve-stream`` and ``serve-mixed`` (see ``BENCHMARK.json`` and
``perfbench/workload.py``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of the output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file is the supervisor and uses the standard library only.  It runs
the workload in a child process with ``src`` on ``PYTHONPATH`` and every
BLAS thread pool at one thread, in a session of its own.  Whatever way the
run ends -- normally, by an exception, by the timeout, or by SIGTERM/SIGINT
sent to this process -- every process of that session is stopped and waited
for, and shared-memory segments of the distributed backend that the run
left in ``/dev/shm`` are removed.  Exit status: 0 when the outputs are
correct, 1 when an output is wrong or processes were left running, 2 when
the checkout holds no program, 124 on timeout, 128+N on signal N.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402

WORKLOADS = ("factorize-dist", "solve-stream", "serve-mixed")
#: A run must end within 180 s: the workload is stopped after this many
#: seconds, which leaves time to stop its processes.
TIMEOUT_S = 150.0
#: Every BLAS / OpenMP pool runs one thread: the runtime's 2 workers or
#: ranks are the only parallelism (default-threaded BLAS under them swings
#: factorization times by an order of magnitude).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Stopped(Exception):
    """Raised in the main thread when SIGTERM or SIGINT arrives."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _raise_stopped(signum, frame):
    raise Stopped(signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fail-after", type=float, default=None,
                        help="inject a failure into the workload after this many seconds")
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = root / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if args.fail_after is not None:
        cmd += ["--fail-after", str(args.fail_after)]

    segments_before = procs.shm_segments()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _raise_stopped)
    lines = []
    child = None
    code = 1
    try:
        # The child leads a new session: everything it and the program start
        # (server, load generator, forked ranks) can be found by session id.
        child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                 text=True, start_new_session=True,
                                 preexec_fn=procs.die_with_parent(signal.SIGTERM))
        reader = threading.Thread(target=_relay, args=(child.stdout, lines), daemon=True)
        reader.start()
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"timeout: workload still running after {TIMEOUT_S:g}s", file=sys.stderr)
            code = 124
        reader.join(timeout=5.0)
    except Stopped as stop:
        print(f"stopped by signal {stop.signum}", file=sys.stderr)
        code = 128 + stop.signum
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        left = _stop_session(child)
        swept = procs.sweep_segments(procs.shm_segments() - segments_before)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
        print(f"hygiene: leftover_processes={left} swept_segments={swept}", file=sys.stderr)
    if code == 0 and left:
        print("workload left processes running", file=sys.stderr)
        code = 1
    if code in (0, 1) and lines:
        print(lines[-1], flush=True)
    return code


def _relay(stream, lines) -> None:
    """Copy the workload's output through, holding back its last line.

    The last line is the JSON result; it is printed only after the run is
    known to have ended cleanly.
    """
    held = None
    for line in stream:
        if held is not None:
            print(held, flush=True)
        held = line.rstrip("\n")
        lines.append(held)
    stream.close()


def _stop_session(child) -> int:
    """Stop every process of the workload's session; returns how many were running."""
    if child is None:
        return 0
    sid = child.pid
    left = [p for p in procs.session_members(sid) if p != child.pid]
    if child.poll() is None:
        # Interrupt the workload itself first: it stops its server and load
        # generator on the way out.
        try:
            os.kill(child.pid, signal.SIGTERM)
            child.wait(timeout=10.0)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
    procs.kill_all(procs.session_members(sid))
    child.wait()
    deadline = time.monotonic() + 5.0
    while procs.session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(left)


if __name__ == "__main__":
    sys.exit(main())
