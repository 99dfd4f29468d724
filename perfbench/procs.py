"""Process and shared-memory hygiene helpers (standard library only).

The benchmark starts processes (the workload, the solver server, the load
generator) and the program forks its own (distributed ranks).  These helpers
find them through ``/proc`` and stop them: by process group, first with
SIGINT so a server can shut down cleanly, then with SIGKILL.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Iterable, List, Set

SHM_DIR = "/dev/shm"
#: Prefix of the distributed backend's shared-memory segments.
SHM_PREFIX = "rps"


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    # The command name may hold spaces and parentheses; fields follow the last ')'.
    return text[text.rindex(")") + 2:].split()


def session_members(sid: int) -> List[int]:
    """Live pids whose session id is ``sid`` (zombies excluded)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            out.append(int(entry))
    return out


def die_with_parent(sig: int = signal.SIGTERM):
    """A ``preexec_fn`` that has the kernel send ``sig`` to the child when its parent dies.

    Covers the one exit path no cleanup code runs on: the parent being
    killed with SIGKILL.
    """
    def _arm() -> None:
        import ctypes

        pr_set_pdeathsig = 1
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, int(sig))

    return _arm


def stop_group(pgid: int, proc=None, *, grace: float = 10.0) -> None:
    """SIGINT the process group ``pgid``, wait, then SIGKILL what is left.

    ``proc`` (a :class:`subprocess.Popen` leading the group) is reaped.
    """
    try:
        os.killpg(pgid, signal.SIGINT)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is None:
            time.sleep(0.05)
            continue
        if not _group_alive(pgid):
            break
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc is not None:
        proc.wait()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Only zombies may be left; they hold no resources beyond their entry.
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _stat_fields(int(entry))
            except (OSError, ValueError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                return True
    return False


def kill_all(pids: Iterable[int], *, grace: float = 3.0) -> None:
    """SIGTERM, then after ``grace`` seconds SIGKILL, every pid in ``pids``."""
    pids = list(pids)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and any(alive(p) for p in pids):
            time.sleep(0.05)


def alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, ValueError):
        return False


def shm_segments() -> Set[str]:
    """Names of the distributed backend's segments now in ``/dev/shm``."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def sweep_segments(names: Iterable[str]) -> int:
    """Unlink the given ``/dev/shm`` segments; returns how many were removed."""
    removed = 0
    for name in names:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
            removed += 1
        except FileNotFoundError:
            pass
    return removed
