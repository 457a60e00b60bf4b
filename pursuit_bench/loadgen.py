"""Read load against a tracker: open-loop reads, closed-loop lookups.

:func:`open_loop` and :func:`closed_loop` drive any clients with a
``get(path) -> (status, body)`` method, one thread per client.  Run as
a script (``loadgen.py <cpu>``), this module is the ``campaign``
workload's load generator: a process of its own, on its own CPU,
holding two keep-alive HTTP connections, driven over stdin/stdout one
line at a time:

1. a config line ``{"host", "port", "rate", "reads": [paths],
   "lookups": [paths], "profiles": n}``, answered with ``ready``;
2. ``go``: sends the open-loop reads;
3. ``lookup``: sends the closed-loop lookups, then ``profiles`` reads
   of ``/profiles``, and prints one JSON result line.

Standard library only, so it starts in milliseconds.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
from time import perf_counter, sleep

CONNECTIONS = 2
#: Timed batches of the closed-loop lookups.
BATCHES = 5


class HttpClient:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def get(self, path: str) -> tuple[int, str]:
        """(status, body); status 0 when the connection failed."""
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            return response.status, response.read().decode()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            return 0, repr(exc)


def _run_workers(clients, count: int, work) -> None:
    """Hand indices ``0..count-1``, in order, to one thread per client."""
    lock = threading.Lock()
    cursor = [0]

    def worker(client):
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= count:
                return
            work(client, index)

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(clients, paths: list[str], rate: float) -> list[dict]:
    """Send ``paths[i]`` when it is due, ``i / rate`` seconds after the
    start, whatever happened to earlier reads.

    A read's latency runs from when it was due, so a stall also counts
    against the reads queued behind it; ``late_ms`` is how late the
    generator sent it.
    """
    start = perf_counter()
    results: list = [None] * len(paths)

    def send(client, i):
        due = start + i / rate
        delay = due - perf_counter()
        if delay > 0:
            sleep(delay)
        sent = perf_counter()
        status, body = client.get(paths[i])
        results[i] = {
            "late_ms": (sent - due) * 1e3,
            "latency_ms": (perf_counter() - due) * 1e3,
            "status": status,
            "body": body,
        }

    _run_workers(clients, len(paths), send)
    return results


def closed_loop(clients, paths: list[str]) -> tuple[list, list[float]]:
    """Each client sends its next path as soon as its previous answer
    is in.  The paths go in :data:`BATCHES` equal batches, timed apart
    so that a rate can be taken as a median over them; returns the
    ``(status, body)`` answers and each batch's seconds."""
    results: list = []
    seconds = []
    size = len(paths) // BATCHES
    for start in range(0, size * BATCHES, size):
        batch = paths[start : start + size]
        answers: list = [None] * size

        def send(client, i):
            answers[i] = client.get(batch[i])

        t0 = perf_counter()
        _run_workers(clients, size, send)
        seconds.append(perf_counter() - t0)
        results += answers
    return results, seconds


def main() -> None:
    # Off the tracker's core: argv[1] names the CPU to run on.
    os.sched_setaffinity(0, {int(sys.argv[1])})
    config = json.loads(sys.stdin.readline())
    clients = [HttpClient(config["host"], config["port"]) for _ in range(CONNECTIONS)]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        sys.exit("loadgen: expected 'go'")
    reads = open_loop(clients, config["reads"], config["rate"])
    if sys.stdin.readline().strip() != "lookup":
        sys.exit("loadgen: expected 'lookup'")
    lookups, lookup_s = closed_loop(clients, config["lookups"])
    profiles = [clients[0].get("/profiles") for _ in range(config["profiles"])]
    for client in clients:
        client.conn.close()
    print(
        json.dumps(
            {
                "reads": reads,
                "lookups": lookups,
                "lookup_s": lookup_s,
                "profiles": profiles,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
