"""Traced solver server: ``repro serve`` with the benchmark's span wrappers.

Builds the same server as ``python -m repro serve --port 0 --backend
parallel --workers 2`` (a :class:`~repro.service.SolverService` behind a
:class:`~repro.service.SolverHTTPServer` with its default batching window),
but installs the benchmark's wrappers first, so every service, compression,
factorization, solve and task-graph call the server makes is timed.  On
SIGUSR1 it drops the totals recorded so far (the benchmark sends it once its
warm-up requests are served); on SIGINT it stops the server and writes the
span totals, the ticket queue waits and the flush window to ``--totals`` as
JSON.

    python3 perfbench/server.py --workers 2 --totals totals.json
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
import time

from tracer import Tracer

import layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--totals", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    layers.install(tracer, ("api", "runtime", "kernels", "lowrank", "service"))
    # Queue wait of a ticket: from the end of its submit() to the start of
    # the flush() that returns it.
    lock = threading.Lock()
    submitted = {}
    waits = {"sum_s": 0.0, "count": 0, "first_flush": None, "last_flush": None}

    def on_submit(start: float, end: float, ticket) -> None:
        with lock:
            submitted[id(ticket)] = end

    def on_flush(start: float, end: float, tickets) -> None:
        with lock:
            for ticket in tickets or ():
                stamp = submitted.pop(id(ticket), None)
                if stamp is not None:
                    waits["sum_s"] += max(0.0, start - stamp)
                    waits["count"] += 1
            if waits["first_flush"] is None:
                waits["first_flush"] = start
            waits["last_flush"] = end

    def on_reset(signum, frame) -> None:
        tracer.reset()
        with lock:
            waits.update(sum_s=0.0, count=0, first_flush=None, last_flush=None)

    tracer.on_span("service.submit", on_submit)
    tracer.on_span("service.flush", on_flush)
    signal.signal(signal.SIGUSR1, on_reset)

    from repro.service import SolverHTTPServer, SolverService

    service = SolverService(backend="parallel", n_workers=args.workers)
    server = SolverHTTPServer(service)
    host, port = server.start_in_thread()
    print(f"traced repro-solver listening on http://{host}:{port}", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:
        server.shutdown()
        server.join(10)
    finally:
        with lock:
            doc = {"tracer": tracer.snapshot(), "queue_wait": dict(waits),
                   "written_at": time.perf_counter()}
        with open(args.totals, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    main()
