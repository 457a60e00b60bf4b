"""The ``replay`` workload: the day-close path at full strength.

Set-up also generates the seed's 8-day corpus with a per-observation
engine (a plain ``StreamingCampaign.run`` watching the same IIDs).
One round re-feeds that corpus day by day into fresh engines through
the columnar path (``day_slice`` -> ``ingest_columns`` +
``extend_columns``), closing, delta-checkpointing and publishing
every day, then restores the last pass's chain.  A reader thread answers
the read mix from the published snapshots in-process while the first
pass ingests, as the HTTP front end would minus the socket; the other
passes run alone.  Each pass starts from a collected heap, with the
engines of earlier passes checked and dropped, so every pass does the
same work, garbage collections included.  No probing and no HTTP:
scan, simnet or socket changes must leave every number here but
``setup_s`` alone.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import ObservationStore, SnapshotPublisher, StreamConfig, StreamEngine
from repro.stream.checkpoint import engine_state
from repro.stream.ckptbin import BinaryCheckpointer, chain_info

from . import checks
from .common import (
    FINAL_PROFILES,
    RESTORES,
    batch_rate,
    read_mix,
    restore,
    set_up,
    settle,
    wrap_day_layers,
)
from .loadgen import closed_loop, open_loop

#: Fresh engines per round; ``resp_per_s`` is the median pass rate and
#: ``day_close_ms`` the mean over days of each day's median over
#: passes, so a pass slowed by the shared box does not set them.  The
#: traced run of ``run.py`` runs three rounds and uses fewer.
PASSES = 4
TRACED_PASSES = 2
#: In-process reads during the first pass and their rate: 300 reads at
#: 100/s take 3 s of a pass of about 3.5 s on a 2-CPU box.  The reader
#: is joined before the second pass starts.
READ_RATE = 100.0
READS = 300
#: In-process lookups per round against the final snapshot.
LOOKUPS = 50000


def answer(snapshot, path: str) -> dict:
    """The body the HTTP front end serves for *path* (``/stats`` without
    its server counters)."""
    if path.startswith("/iid/"):
        return snapshot.iid_payload(int(path[len("/iid/") :], 16))
    if path.startswith("/rotations"):
        return snapshot.rotations_payload(int(path.split("=")[1]))
    if path == "/profiles":
        return snapshot.profiles_payload()
    return snapshot.stats()


class SnapshotClient:
    """Answers reads from the newest snapshot of ``holder[0]``."""

    def __init__(self, holder: list) -> None:
        self.holder = holder

    def get(self, path: str) -> tuple[int, str]:
        return 200, json.dumps(answer(self.holder[0].current, path), sort_keys=True)


@dataclass
class Pass:
    """One fresh engine fed the whole corpus, and what it measured."""

    path: Path
    engine: StreamEngine
    store: ObservationStore
    publisher: SnapshotPublisher
    written: int = 0
    day_close_ms: list = field(default_factory=list)
    #: Wall seconds of the whole re-feed.
    ingest_s: float = 0.0


class ReplayWorkload:

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.world = None
        self.passes = PASSES

    def wrap(self) -> None:
        wrap_day_layers(self.tracer)

    def set_up(self, tag: str) -> None:
        self.world = set_up(self.seed, self.tracer, tag, corpus=True)

    def prepare(self) -> None:
        """Compute what every pass must reproduce, once per run, before
        the world is frozen: frozen with it, these copies of the corpus
        and the generator's state stay out of the collections the
        passes trigger."""
        self._problems = self._expectations()

    def _expectations(self) -> list[str]:
        world = self.world
        generator = world.generator
        self.truth = checks.truth(world.internet)
        self.rows = world.corpus.snapshot_rows()
        self.columns = checks.store_columns(world.corpus)
        self.generator_state = engine_state(generator.engine)
        self._expected = checks.expected_rotations(self.rows)
        problems = checks.check_pools(
            generator.engine, self.rows, world.origin_of, self.truth
        )
        if generator.result.probes_sent != len(world.campaign.targets) * len(world.days):
            problems.append(f"corpus probes {generator.result.probes_sent} != targets x days")
        if generator.engine.responses_ingested != len(self.rows):
            problems.append("corpus responses != stored rows")
        return problems

    def _fresh(self, index: int) -> "Pass":
        path = self.workdir / f"replay{index}.rpb"
        path.unlink(missing_ok=True)
        engine = StreamEngine(
            StreamConfig(keep_observations=False), origin_of=self.world.origin_of
        )
        for iid in self.world.watched:
            engine.watch(iid)
        return Pass(path, engine, ObservationStore(), SnapshotPublisher(engine))

    def _feed(self, p: "Pass") -> None:
        """Re-feed the corpus day by day: ingest, close, checkpoint, publish."""
        world = self.world
        targets = len(world.campaign.targets)
        saver = BinaryCheckpointer(p.path)
        t_pass = perf_counter()
        for done, day in enumerate(world.days, 1):
            batch = world.corpus.day_slice(day)
            p.engine.ingest_columns(batch)
            t_in = perf_counter()
            p.store.extend_columns(batch)
            p.engine.flush()
            progress = {
                "probes_sent": targets * done,
                "days_run": done,
                "targets_per_day": targets,
            }
            p.written += saver.save(p.engine, store=p.store, progress=progress).segment_bytes
            p.publisher.refresh()
            t_out = perf_counter()
            p.day_close_ms.append((t_out - t_in) * 1e3)
        p.ingest_s = perf_counter() - t_pass

    def _check_pass(self, index: int, p: "Pass") -> list[str]:
        problems = []
        if engine_state(p.engine) != self.generator_state:
            problems.append(f"pass {index}: engine state != the generating engine's")
        if checks.store_columns(p.store) != self.columns:
            problems.append(f"pass {index}: store rows != corpus rows")
        problems += checks.check_rotations(p.publisher.current, self._expected)
        return problems

    def round(self, tag: str) -> dict:
        world, tracer = self.world, self.tracer
        problems, self._problems = self._problems, []
        reads, lookups = read_mix(self.seed, world, READS, LOOKUPS)
        holder: list = [None]
        client = SnapshotClient(holder)
        load: dict = {"read_paths": reads, "lookup_paths": lookups}
        reader = threading.Thread(
            target=lambda: load.update(reads=open_loop([client], reads, READ_RATE)),
            name="bench-reader",
            daemon=True,
        )
        pass_s, day_close_ms, written = [], [], []
        for index in range(self.passes):
            # The previous pass's engine is dropped before this one starts.
            p = None
            p = self._fresh(index)
            holder[0] = p.publisher
            settle()
            tracer.enter(f"{tag}.ingest")
            if index == 0:
                reader.start()
            self._feed(p)
            tracer.enter(None)
            if index == 0:
                reader.join()
            tracer.enter("check")
            problems += self._check_pass(index, p)
            tracer.enter(None)
            pass_s.append(p.ingest_s)
            day_close_ms.append(p.day_close_ms)
            written.append(p.written)
            if index < self.passes - 1:
                p.path.unlink()
        settle()
        tracer.enter(f"{tag}.lookup")
        load["lookups"], lookup_s = closed_loop([client], lookups)
        load["profiles"] = [client.get("/profiles") for _ in range(FINAL_PROFILES)]
        tracer.enter(None)

        # Restore the last pass's chain; the others are only written.
        path, engine, changed_pairs = p.path, p.engine, p.publisher.current.changed_pairs
        del p  # one engine besides the restored one in memory
        holder[0] = None
        restore_s, restored, restored_store = restore(
            tracer, tag, path, world.origin_of
        )

        tracer.enter("check")
        segments = len(chain_info(path))
        # Every pass ended in the generator's state (checked above), so
        # that is the state of the engine whose chain was restored.
        problems += checks.check_restore(
            restored, self.generator_state, restored_store, self.columns
        )
        answer_problems, failed = checks.check_answers(
            load, engine, self._expected, world.internet, self.truth
        )
        tracer.enter(None)
        path.unlink()
        return {
            "problems": problems + answer_problems,
            # Reads, lookups, final /profiles reads and the restores.
            "attempted": READS + LOOKUPS + FINAL_PROFILES + RESTORES,
            "failed": failed,
            "passes": self.passes,
            "responses": len(self.rows),
            "pass_s": pass_s,
            "day_close_ms": day_close_ms,
            "ckpt_written_mb": sum(written) / self.passes / 1e6,
            "restore_s": restore_s,
            "segments": segments,
            "query_ms": [r["latency_ms"] for r in load["reads"]],
            "late_ms": [r["late_ms"] for r in load["reads"]],
            "lookup_per_s": batch_rate(LOOKUPS, lookup_s),
            "answered": 0,
            "changed_pairs": changed_pairs,
            "scorecard": checks.scorecard(engine, self.truth),
        }
