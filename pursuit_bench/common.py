"""Set-up and helpers shared by both workloads.

Inputs: the SMALL world, its discovery pipeline, allocation sample and
campaign /48 list are the SMALL scale's own (seed 0), the same for
every run.  ``--seed`` picks everything the attacker randomises on top
of that: the campaign's scan seed (which address of each probed block
is the target, and the probe order), the watched IIDs and the read
mix.  Letting ``--seed`` choose the world as well changes the input
size from run to run (31.7k to 54.3k campaign targets and 109k to
158k responses over seeds 0-8), and every size-driven metric then
spreads across seeds by more than a regression bound can tolerate.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro import Campaign, CampaignConfig, ObservationStore, StreamingCampaign
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import SMALL

#: EUI-64 IIDs the campaign watches (the pursuit's targets).
WATCHED_IIDS = 200
#: (endpoint, percent) of the read mix sent while ingest runs.
MIX = (("iid", 70), ("rotations", 10), ("profiles", 10), ("stats", 10))
#: /profiles reads of the final snapshot, judged against the truth bound.
FINAL_PROFILES = 4


@dataclass
class World:
    """Everything set-up produces for one run."""

    context: ExperimentContext
    campaign: Campaign
    watched: list[int]
    #: setup phase name -> wall seconds, for this set-up.
    phase_s: dict[str, float] = field(default_factory=dict)
    #: replay only: the per-observation engine that generated the corpus,
    #: and the corpus itself.
    generator: StreamingCampaign | None = None

    @property
    def internet(self):
        return self.context.internet

    @property
    def origin_of(self):
        return self.context.internet.rib.origin_of

    @property
    def corpus(self) -> ObservationStore:
        return self.generator.result.store

    @property
    def days(self) -> list[int]:
        return [day for day, _ in self.campaign.day_schedule()]


#: Set-up stages, each a phase ``<tag>.<stage>``: the world; discovery;
#: allocation sampling and the campaign's target list; the workload's
#: own inputs (the watched IIDs, and for ``replay`` the 8-day corpus).
SETUP_STAGES = ("world", "discovery", "alloc_sample", "inputs")


def set_up(seed: int, tracer, tag: str, *, corpus: bool) -> World:
    """Run every set-up stage; with *corpus*, generate the 8-day corpus
    with a per-observation engine watching the same IIDs."""
    def stage(name: str | None) -> None:
        tracer.enter(f"{tag}.{name}" if name else None)

    stage("world")
    context = ExperimentContext(SMALL)
    context.internet
    stage("discovery")
    context.pipeline_result
    stage("alloc_sample")
    context.allocation_inferences
    # The attacker's scan seed; the cached config is what build_campaign reads.
    context.campaign_config = CampaignConfig(
        days=SMALL.campaign_days, start_day=2, seed=seed
    )
    campaign = context.build_campaign()
    stage("inputs")
    rng = random.Random(seed)
    candidates = sorted(context.allocation_sample_store.eui64_iids())
    watched = sorted(rng.sample(candidates, min(WATCHED_IIDS, len(candidates))))
    generator = None
    if corpus:
        generator = StreamingCampaign(campaign)
        for iid in watched:
            generator.live_engine.watch(iid)
        generator.run()
    stage(None)
    world = World(context, campaign, watched, generator=generator)
    for name in SETUP_STAGES:
        world.phase_s[name] = tracer.phase_walls(f"{tag}.{name}")[-1]
    return world


def read_mix(
    seed: int, world: World, reads: int, lookups: int
) -> tuple[list[str], list[str]]:
    """The round's read paths: *reads* in the shares of :data:`MIX`,
    in an order drawn from the seed, and *lookups* lookups of watched
    IIDs.  Every seed sends each endpoint the same number of times, so
    the seed moves which reads land beside a day close, not how much
    read work a round holds."""
    rng = random.Random(seed * 7919 + 1)
    kinds = [kind for kind, percent in MIX for _ in range(reads * percent // 100)]
    rng.shuffle(kinds)
    paths = []
    for kind in kinds:
        if kind == "iid":
            paths.append(f"/iid/0x{rng.choice(world.watched):x}")
        elif kind == "rotations":
            paths.append(f"/rotations?day={rng.choice(world.days)}")
        else:
            paths.append(f"/{kind}")
    return paths, [f"/iid/0x{rng.choice(world.watched):x}" for _ in range(lookups)]


def batch_rate(count: int, seconds: list[float]) -> float:
    """Median rate over equal batches of *count* operations in all."""
    size = count / len(seconds)
    return median([size / s for s in seconds])


#: Restores of the final chain per round; ``restore_s`` is their median.
RESTORES = 3


def restore(tracer, tag: str, path, origin_of) -> tuple[list[float], object, object]:
    """Restore *path* :data:`RESTORES` times through the public path
    (``read_state``, ``restore_engine``, ``restore_rows``); returns the
    times and the last restored engine and store."""
    from repro.stream.checkpoint import restore_engine
    from repro.stream.ckptbin import read_state

    times = []
    engine = store = None
    for _ in range(RESTORES):
        engine = store = None  # one restored copy in memory at a time
        settle()
        tracer.enter(f"{tag}.restore")
        t0 = perf_counter()
        with tracer.span("restore.read"):
            state = read_state(path)
        with tracer.span("restore.rebuild"):
            engine = restore_engine(state["engine"], origin_of=origin_of)
            store = ObservationStore()
            store.restore_rows(state["store"])
        times.append(perf_counter() - t0)
        tracer.enter(None)
        del state
    return times, engine, store


def settle() -> None:
    """Collect garbage before a timed phase, so a full collection the
    previous phase left pending does not land inside this one."""
    gc.collect()


def cpus() -> tuple[int, int]:
    """(tracker CPU, load-generator CPU): the first and last this
    process may use (the same one on a 1-CPU box)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def freeze_world() -> None:
    """Hide everything set-up built from the garbage collector.

    The simulated Internet, the discovery results and the corpus belong
    to the benchmark's world, not to the tracker under test, which in
    deployment does not hold the Internet in its heap.  Left visible,
    every full collection during a round scans them too: about 5 s of
    full collections in one campaign run, and a p95 read latency near
    100 ms that reads 30-45 ms without them.
    """
    gc.collect()
    gc.freeze()


class RssPeak:
    """The peak resident memory a round adds to its process.

    A thread reads the process's resident size (``/proc/self/statm``)
    every :attr:`INTERVAL` seconds while the round runs, and keeps the
    highest reading taken while one of the round's measured phases
    (``<tag>.*``) was open, so the benchmark's own checks do not count.
    :meth:`stop` returns that reading less the one when the round
    started, so the set-up world the round runs in does not count
    either: a high-water mark of the whole process (``ru_maxrss``)
    would hold both, and a set-up or a check that peaked higher than
    the round would hide the tracker's memory from it.
    """

    INTERVAL = 0.02

    def __init__(self, tracer, tag: str) -> None:
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 1e6
        self._tracer = tracer
        self._prefix = f"{tag}."
        self._stop = threading.Event()
        self._start = self._peak = self._read()
        self._thread = threading.Thread(target=self._sample, name="bench-rss")
        self._thread.start()

    def _read(self) -> float:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page_mb

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            if (self._tracer.phase or "").startswith(self._prefix):
                self._peak = max(self._peak, self._read())

    def stop(self) -> float:
        """Stop sampling; returns the peak MB above the round's start."""
        self._stop.set()
        self._thread.join()
        return self._peak - self._start


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """The *pct*-th percentile (``statistics.quantiles``' exclusive
    method, as the steadiness check computes quartiles)."""
    return float(statistics.quantiles(values, n=100)[pct - 1])


def _segment_note(args, kwargs, result) -> dict:
    return {"kind": result.kind, "segment_bytes": result.segment_bytes}


def _snapshot_note(args, kwargs, snapshot) -> dict:
    return {
        "version": snapshot.version,
        "closed_through": snapshot.closed_through,
        "force": bool(kwargs.get("force", args[1] if len(args) > 1 else False)),
    }


def _count_note(args, kwargs, result) -> dict:
    return {"rows": result}


def wrap_day_layers(tracer, publish_note=_snapshot_note) -> None:
    """Layers the program crosses a few times a day.  Both modes wrap
    them: the end-to-end metrics are defined by their boundaries, and
    at ~50 calls a round their cost does not show."""
    from repro import ObservationStore, SnapshotPublisher, StreamEngine
    from repro.stream.ckptbin import BinaryCheckpointer

    tracer.wrap(ObservationStore, "extend", "store.append", note=_count_note)
    tracer.wrap(ObservationStore, "extend_columns", "store.append", note=_count_note)
    tracer.wrap(ObservationStore, "day_slice", "store.read")
    # The checkpoint writer reads the rows appended since its last segment.
    tracer.wrap(ObservationStore, "snapshot_columns", "store.read")
    tracer.wrap(StreamEngine, "ingest_columns", "ingest", note=_count_note)
    tracer.wrap(StreamEngine, "flush", "close")
    tracer.wrap(BinaryCheckpointer, "save", "ckpt.save", note=_segment_note)
    tracer.wrap(SnapshotPublisher, "refresh", "publish", note=publish_note)


def wrap_hot_layers(tracer) -> None:
    """Layers crossed once per probe or per response: the traced run
    only (group ``hot``)."""
    from repro import ProbeObservation, ScanStream, SimInternet, StreamEngine

    tracer.wrap(SimInternet, "probe", "simnet.probe", hot=True, group="hot")
    tracer.wrap_iter(ScanStream, "__iter__", "scan.walk", group="hot")
    tracer.wrap(
        ProbeObservation, "from_response", "records.convert", hot=True, group="hot"
    )
    tracer.wrap(StreamEngine, "_ingest_observation", "ingest", hot=True, group="hot")
