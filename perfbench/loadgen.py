"""Open-loop HTTP load generator for the serve-mixed workload.

Runs as its own process so that it never shares an interpreter lock with the
server or with the workload process.  It reads a plan (``.npz``) holding a
pool of right-hand sides, the problems requests name, the reference solution
of every (problem, right-hand side) pair and, per phase, the offered rate and
each request's due time, problem and right-hand side.  It keeps at most
``--connections`` keep-alive connections to the server.

Requests are independent users, so the loop is open: each request is sent at
its due time whether or not earlier ones have finished, through
``POST /v1/submit``; ``GET /v1/tickets/<id>`` polls the oldest outstanding
ticket until it resolves.  Latency is timed from the request's due time, so a
stalled server or a late generator shows in the latency.  The result is
written as JSON to ``--out``.

    python3 perfbench/loadgen.py --port 8080 --plan plan.npz --out result.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

#: Seconds between polls of a ticket that was still pending: a fifth of the
#: server's default flush window (50 ms), which resolves tickets in batches.
#: Polls that find the oldest ticket pending are counted apart from the rest.
POLL_INTERVAL = 0.01
#: Seconds a phase may run past its last due time while tickets drain.
DRAIN_LIMIT = 2.0
#: Relative error a served solution may have against the reference solve.
#: Batched solves stack several right-hand sides into one block, so their
#: rounding may differ from the single-vector reference in the last bits.
SOLUTION_RTOL = 1e-10


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.req_bytes = 0
        self.resp_bytes = 0
        self.requests = 0
        self.rtt_s = 0.0

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        start = time.perf_counter()
        self.writer.write(head + body)
        await self.writer.drain()
        self.req_bytes += len(head) + len(body)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        size = len(status_line)
        while True:
            line = await self.reader.readline()
            size += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        self.resp_bytes += size + length
        self.requests += 1
        self.rtt_s += time.perf_counter() - start
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Phase:
    """One offered rate: its requests, and what happened to them."""

    def __init__(self, name: str, rate: float, due: np.ndarray,
                 body: Callable[[int], bytes], ref: Callable[[int], np.ndarray]) -> None:
        self.name = name
        self.rate = rate
        self.due = due
        self.body = body
        self.ref = ref
        self.latency: List[float] = []
        self.late: List[float] = []
        #: Outstanding tickets after each accepted submit.
        self.backlog: List[int] = []
        self.rejected: Dict[int, int] = {}
        #: Requests answered with a correct solution; every other one failed.
        self.ok = 0
        self.wrong = 0
        #: Tickets the server resolved with an error instead of a solution.
        self.errors = 0
        #: Polls that found the oldest ticket still pending.
        self.pending_polls = 0
        #: Seconds from the phase's first due time to its last answer.
        self.span_s = 0.0


async def run_phase(conns: List[Connection], phase: Phase) -> None:
    """Drive one phase open-loop over ``conns``; fill in ``phase``'s results."""
    t0 = time.perf_counter() + 0.05
    due_abs = t0 + phase.due
    outstanding: Deque[Tuple[str, int]] = deque()
    state = {"next": 0, "last_poll": 0.0}
    deadline = due_abs[-1] + DRAIN_LIMIT if len(due_abs) else t0

    def check(index: int, doc: dict) -> None:
        if doc.get("status") == "error":
            phase.errors += 1
            return
        x = np.asarray(doc["x"], dtype=np.float64)
        ref = phase.ref(index)
        if x.shape != ref.shape or not (
            np.linalg.norm(x - ref) <= SOLUTION_RTOL * np.linalg.norm(ref)
        ):
            phase.wrong += 1
        else:
            phase.ok += 1

    async def submit(conn: Connection, index: int) -> None:
        sent = time.perf_counter()
        phase.late.append(sent - due_abs[index])
        status, payload = await conn.request("POST", "/v1/submit", phase.body(index))
        if status == 202:
            outstanding.append((json.loads(payload)["id"], index))
            phase.backlog.append(len(outstanding))
        elif status in (429, 503):
            phase.rejected[status] = phase.rejected.get(status, 0) + 1

    async def poll(conn: Connection) -> None:
        ticket, index = outstanding.popleft()
        status, payload = await conn.request("GET", f"/v1/tickets/{ticket}")
        if status != 200:
            return
        doc = json.loads(payload)
        if doc.get("status") == "pending":
            # The oldest ticket is still pending, so are the younger ones:
            # back off before polling again.
            state["last_poll"] = time.perf_counter()
            phase.pending_polls += 1
            outstanding.appendleft((ticket, index))
            return
        done = time.perf_counter()
        phase.latency.append(done - due_abs[index])
        phase.span_s = done - t0
        check(index, doc)

    async def worker(conn: Connection) -> None:
        while True:
            now = time.perf_counter()
            i = state["next"]
            if i < len(due_abs) and due_abs[i] <= now:
                state["next"] = i + 1
                await submit(conn, i)
                continue
            if i >= len(due_abs) and not outstanding:
                return
            if now > deadline:
                return
            if outstanding and now - state["last_poll"] >= POLL_INTERVAL:
                await poll(conn)
                continue
            wake = state["last_poll"] + POLL_INTERVAL if outstanding else deadline
            if i < len(due_abs):
                wake = min(wake, due_abs[i])
            await asyncio.sleep(max(0.0, min(wake - now, 0.01)))

    await asyncio.gather(*(worker(c) for c in conns))


def _quantile(values: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else float("nan")


def summarize(phase: Phase) -> dict:
    lat = phase.latency
    backlog = phase.backlog
    half = len(backlog) // 2
    return {
        "name": phase.name,
        "rate": phase.rate,
        "attempted": len(phase.due),
        "ok": phase.ok,
        "latency_s": lat,
        "late_p99_s": _quantile(phase.late, 0.99),
        "backlog_max": max(backlog, default=0),
        # Mean outstanding tickets over the first and second half of the
        # phase: a backlog that keeps growing means the rate is not sustained.
        "backlog_first_half": float(np.mean(backlog[:half])) if half else 0.0,
        "backlog_second_half": float(np.mean(backlog[half:])) if backlog[half:] else 0.0,
        "rejected_429": phase.rejected.get(429, 0),
        "rejected_503": phase.rejected.get(503, 0),
        "wrong": phase.wrong,
        "errors": phase.errors,
        "pending_polls": phase.pending_polls,
        "span_s": phase.span_s,
    }


async def main_async(args: argparse.Namespace) -> dict:
    plan = np.load(args.plan, allow_pickle=False)
    names = [str(s) for s in plan["phase_names"]]
    problems = [bytes(p) for p in plan["problems"]]
    pool, refs = plan["pool"], plan["refs"]
    # Encode every right-hand side before the phases start, so the timed
    # loop only joins bytes.
    rhs_json = [json.dumps(b.tolist()).encode() for b in pool]
    conns = [Connection(args.host, args.port) for _ in range(args.connections)]
    for conn in conns:
        await conn.open()
    results = []
    try:
        for k, name in enumerate(names):
            which, rhs = plan[f"{name}_problem"], plan[f"{name}_rhs"]

            def body(i: int, which=which, rhs=rhs) -> bytes:
                return b'{"b": ' + rhs_json[rhs[i]] + b", " + problems[which[i]] + b"}"

            def ref(i: int, which=which, rhs=rhs) -> np.ndarray:
                return refs[which[i], rhs[i]]

            phase = Phase(name, float(plan["phase_rates"][k]), plan[f"{name}_due"], body, ref)
            await run_phase(conns, phase)
            results.append(summarize(phase))
    finally:
        for conn in conns:
            await conn.close()
    return {
        "phases": results,
        "requests": sum(c.requests for c in conns),
        "rtt_s": sum(c.rtt_s for c in conns),
        "req_bytes": sum(c.req_bytes for c in conns),
        "resp_bytes": sum(c.resp_bytes for c in conns),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--connections", type=int, default=2)
    args = parser.parse_args()
    result = asyncio.run(main_async(args))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
