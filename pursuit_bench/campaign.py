"""The ``campaign`` workload: the served pursuit campaign, end to end.

One round: a :class:`TrackerDaemon` runs the 8-day campaign over every
rotation-flagged /48 of the SMALL world, writing a binary checkpoint
every day and watching 200 EUI-64 IIDs.  A load-generator process
(``loadgen.py``, two connections) sends an open-loop read mix while it
ingests; the daemon then lingers for the closed-loop lookups and the
final ``/profiles`` reads; finally its state is restored from the
checkpoint chain through the public restore path.  Reads compete with
ingest for the interpreter lock here, which is what the query
latencies show.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from repro import StreamingCampaign, TrackerDaemon
from repro.stream.checkpoint import engine_state
from repro.stream.ckptbin import chain_info

from . import checks
from .common import (
    FINAL_PROFILES,
    RESTORES,
    _snapshot_note,
    batch_rate,
    read_mix,
    restore,
    set_up,
    settle,
    wrap_day_layers,
)

#: Open-loop reads per round and their rate: 600 reads at 40/s span
#: the ingest of a 2-CPU box, and 40/s holds there (see README).
READ_RATE = 40.0
READS = 600
#: Closed-loop /iid lookups per round against the lingering daemon.
LOOKUPS = 5000
LOADGEN = Path(__file__).with_name("loadgen.py")


class CampaignWorkload:

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.world = None
        #: The CPU the load generator runs on (set by the runner).
        self.loadgen_cpu = 0
        self._ingest_done = threading.Event()
        self._tag = ""

    def wrap(self) -> None:
        wrap_day_layers(self.tracer, publish_note=self._publish_note)

    def _publish_note(self, args, kwargs, snapshot) -> dict:
        note = _snapshot_note(args, kwargs, snapshot)
        if note["force"]:
            # The daemon's final snapshot after its last day: ingest is over.
            self.tracer.enter(f"{self._tag}.linger")
            self._ingest_done.set()
        return note

    def set_up(self, tag: str) -> None:
        self.world = set_up(self.seed, self.tracer, tag, corpus=False)

    def prepare(self) -> None:
        """What the checks need from the world, before it is frozen."""
        self.truth = checks.truth(self.world.internet)

    def round(self, tag: str) -> dict:
        world, tracer = self.world, self.tracer
        self._tag = tag
        self._ingest_done.clear()
        path = self.workdir / "campaign.rpb"
        path.unlink(missing_ok=True)
        streaming = StreamingCampaign(
            world.campaign,
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_format="binary",
        )
        for iid in world.watched:
            streaming.live_engine.watch(iid)
        daemon = TrackerDaemon(streaming)
        reads, lookups = read_mix(self.seed, world, READS, LOOKUPS)
        errors: list[BaseException] = []

        def serve() -> None:
            try:
                daemon.run(linger=float("inf"))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
                self._ingest_done.set()

        loadgen = subprocess.Popen(
            [sys.executable, str(LOADGEN), str(self.loadgen_cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        thread = threading.Thread(target=serve, name="bench-daemon", daemon=True)
        try:
            config = {
                "host": daemon.server.host,
                "port": daemon.server.port,
                "rate": READ_RATE,
                "reads": reads,
                "lookups": lookups,
                "profiles": FINAL_PROFILES,
            }
            loadgen.stdin.write(json.dumps(config) + "\n")
            loadgen.stdin.flush()
            if loadgen.stdout.readline().strip() != "ready":
                raise RuntimeError("load generator did not start")
            settle()
            tracer.enter(f"{tag}.ingest")
            t_start = perf_counter()
            thread.start()
            loadgen.stdin.write("go\n")
            loadgen.stdin.flush()
            if not self._ingest_done.wait(timeout=150) or errors:
                raise RuntimeError(f"campaign ingest did not finish: {errors}")
            settle()
            tracer.enter(f"{tag}.lookup")
            out, _ = loadgen.communicate("lookup\n", timeout=120)
            if loadgen.returncode != 0:
                raise RuntimeError(f"load generator exited {loadgen.returncode}")
            load = json.loads(out.strip().splitlines()[-1])
            tracer.enter(f"{tag}.stop")
        finally:
            daemon.shutdown()
            if thread.ident is not None:
                thread.join(timeout=60)
            if loadgen.poll() is None:
                loadgen.kill()
            loadgen.wait()
            tracer.enter(None)
        if errors or thread.is_alive():
            raise RuntimeError(f"daemon did not stop cleanly: {errors}")

        restore_s, restored, restored_store = restore(
            tracer, tag, path, world.origin_of
        )
        tracer.enter("check")
        result = self._measure(tag, t_start, streaming)
        result["restore_s"] = restore_s
        result["segments"] = len(chain_info(path))
        load["read_paths"], load["lookup_paths"] = reads, lookups
        result.update(self._check(streaming, daemon, load, restored, restored_store))
        tracer.enter(None)
        path.unlink(missing_ok=True)
        return result

    def _measure(self, tag: str, t_start: float, streaming) -> dict:
        tracer = self.tracer
        days = self.world.days
        appends = tracer.of("store.append", f"{tag}.ingest")
        publishes = tracer.of("publish", f"{tag}.ingest")

        def published(day: int) -> float:
            """When the first snapshot holding *day*'s close was out."""
            return next(
                s["end"]
                for s in publishes
                if s["closed_through"] is not None and s["closed_through"] >= day
            )

        # The campaign appends a day's responses to the store right after
        # the last of them entered the engine.
        day_close_ms = [
            (published(day) - append["start"]) * 1e3
            for day, append in zip(days, appends)
        ]
        saves = tracer.of("ckpt.save", f"{tag}.")
        return {
            "passes": 1,
            "responses": streaming.live_engine.responses_ingested,
            # From the daemon's start (its first probe) to the publication
            # of the last day's close: the round is one pass.
            "pass_s": [published(days[-1]) - t_start],
            "day_close_ms": [day_close_ms],
            "ckpt_written_mb": sum(s["segment_bytes"] for s in saves) / 1e6,
        }

    def _check(self, streaming, daemon, load, restored, restored_store) -> dict:
        world, truth = self.world, self.truth
        engine = streaming.engine
        rows = streaming.result.store.snapshot_rows()
        problems = []
        expected_probes = len(world.campaign.targets) * len(world.days)
        if streaming.result.probes_sent != expected_probes:
            problems.append(
                f"probes {streaming.result.probes_sent} != targets x days {expected_probes}"
            )
        if engine.responses_ingested != len(rows):
            problems.append(
                f"responses {engine.responses_ingested} != stored rows {len(rows)}"
            )
        expected = checks.expected_rotations(rows)
        problems += checks.check_rotations(daemon.publisher.current, expected)
        problems += checks.check_pools(engine, rows, world.origin_of, truth)
        problems += checks.check_restore(
            restored,
            engine_state(engine),
            restored_store,
            checks.store_columns(streaming.result.store),
        )
        answer_problems, failed = checks.check_answers(
            load, engine, expected, world.internet, truth
        )
        statuses = [r["status"] for r in load["reads"]]
        statuses += [status for status, _ in load["lookups"] + load["profiles"]]
        return {
            "problems": problems + answer_problems,
            # Reads, lookups, final /profiles reads and the restores.
            "attempted": READS + LOOKUPS + FINAL_PROFILES + RESTORES,
            "failed": failed,
            "query_ms": [r["latency_ms"] for r in load["reads"]],
            "late_ms": [r["late_ms"] for r in load["reads"]],
            "lookup_per_s": batch_rate(LOOKUPS, load["lookup_s"]),
            "answered": statuses.count(200),
            "changed_pairs": daemon.publisher.current.changed_pairs,
            "scorecard": checks.scorecard(engine, truth),
        }
