"""Pursuit benchmark: the served campaign and the columnar replay.

Run from the root of a checkout::

    python3 pursuit_bench/run.py --workload campaign --seed 0 --seconds 5 --trace 0
    python3 pursuit_bench/run.py --seed 0        # both workloads, one process each

A run sets up ``SETUPS`` times (``setup_s`` is their median), then
runs whole rounds of the workload until ``--seconds`` have passed
(at least one), checks every round's outputs, and prints the metrics
with their units, then one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` sets up once with every layer traced, then runs
three rounds: untraced, traced and untraced again (the per-probe and
per-response layers wrapped in the traced one only).  It reports the
traced round's per-layer metrics, the wall time no layer accounts for
in each measured phase, the tracing overhead against the mean of the
two untraced rounds (so the order of rounds cancels out), and the
untraced rounds' read p95 and lookup rate.  Spans are written to
``.bench_work/`` at the end.

The program is imported from ``src/`` of the same checkout; without it
the command exits with an error before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "replay")
#: Set-ups per untraced run; ``setup_s`` is their median.  Set-up is
#: the longest part of a run (17 s of 65 in ``replay``); a third would
#: push the 48 runs of a two-workload steadiness check near an hour.
SETUPS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("resp_per_s", "1/s"),
    ("day_close_ms", "ms"),
    ("ckpt_written_mb", "MB"),
    ("restore_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
)

PER_LAYER = (
    ("setup.world_s", "s"),
    ("setup.discovery_s", "s"),
    ("setup.alloc_sample_s", "s"),
    ("setup.inputs_s", "s"),
    ("simnet.probe_s", "s"),
    ("simnet.probes", "count"),
    ("simnet.responses", "count"),
    ("simnet.response_ratio", "ratio"),
    ("scan.walk_s", "s"),
    ("records.convert_s", "s"),
    ("ingest.busy_s", "s"),
    ("ingest.rows", "count"),
    ("store.append_s", "s"),
    ("store.read_s", "s"),
    ("close.busy_ms", "ms"),
    ("close.changed_pairs", "count"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.saves_per_day", "count"),
    ("ckpt.last_delta_mb", "MB"),
    ("ckpt.full_segments", "count"),
    ("publish.build_ms", "ms"),
    ("publish.builds_per_day", "count"),
    ("http.requests", "count"),
    ("query_p95_ms", "ms"),
    ("lookup_per_s", "1/s"),
    ("loadgen.late_p95_ms", "ms"),
    ("restore.read_s", "s"),
    ("restore.rebuild_s", "s"),
    ("restore.segments", "count"),
    ("other.ingest_s", "s"),
    ("other.lookup_s", "s"),
    ("other.restore_s", "s"),
    ("trace.overhead_pct", "%"),
)


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or exit with an error."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to benchmark under {ROOT / 'src'}")
    # Settings the environment could slip in (store backend, checkpoint
    # format, replication) would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def end_to_end(setups: list[float], rounds: list[dict]) -> dict:
    from pursuit_bench.common import median, percentile

    def pooled(key):
        return [v for r in rounds for v in r[key]]

    # Each pass's own rate, and each day's close time as the median over
    # passes: the median of either shrugs off a pass the shared box slowed.
    # Over days the close times are averaged: a slow step (a collection,
    # a burst of load on the box) lands on a different day from pass to
    # pass and seed to seed, and the mean counts it wherever it lands,
    # where the median over days jumps with it.
    rates = [r["responses"] / s for r in rounds for s in r["pass_s"]]
    days = zip(*pooled("day_close_ms"))
    return {
        "setup_s": median(setups),
        "resp_per_s": median(rates),
        "day_close_ms": statistics.fmean([median(day) for day in days]),
        "ckpt_written_mb": median([r["ckpt_written_mb"] for r in rounds]),
        "restore_s": median(pooled("restore_s")),
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        "query_p50_ms": percentile(pooled("query_ms"), 50),
    }


def per_layer(tracer, setup: str, tag: str, untraced: list, rounds: list) -> dict:
    """Layer metrics of the traced round *tag* (and set-up *setup*).

    *rounds* are the results of the rounds tagged *untraced* and, last,
    of the traced round.  The read tail and the lookup rate come from
    the untraced rounds: they are end-to-end figures that could not be
    held within a regression bound on a shared 2-CPU box (see README),
    so they are reported here, ungated.
    """
    *plain, result = rounds
    from pursuit_bench.common import median, percentile

    def both(layer):
        a, b = tracer.layer(layer, f"{setup}."), tracer.layer(layer, f"{tag}.")
        return [x + y for x, y in zip(a, b)]

    def spans(layer):
        return tracer.of(layer, f"{tag}.")

    def ms(layer):
        return median([(s["end"] - s["start"]) * 1e3 for s in spans(layer)])

    days = len(tracer.of("close", f"{tag}.ingest"))
    probe = both("simnet.probe")
    ingest = tracer.layer("ingest", f"{tag}.")
    saves = spans("ckpt.save")
    deltas = [s for s in saves if s["kind"] == "delta"]
    builds, version = [], 1
    for span in spans("publish"):
        if span["version"] < version:  # a new publisher
            version = 1
        if span["version"] > version:
            builds.append((span["end"] - span["start"]) * 1e3)
        version = span["version"]
    restores = len(spans("restore.read"))
    traced_wall = sum(tracer.phase_walls(f"{tag}.ingest"))
    untraced_wall = median(
        [sum(tracer.phase_walls(f"{t}.ingest")) for t in untraced]
    )
    return {
        **{
            f"setup.{stage}_s": tracer.phase_walls(f"{setup}.{stage}")[-1]
            for stage in ("world", "discovery", "alloc_sample", "inputs")
        },
        "simnet.probe_s": probe[0],
        "simnet.probes": probe[2],
        "simnet.responses": probe[3],
        "simnet.response_ratio": probe[3] / probe[2],
        "scan.walk_s": both("scan.walk")[1],
        "records.convert_s": both("records.convert")[0],
        "ingest.busy_s": ingest[0],
        "ingest.rows": result["responses"] * result["passes"],
        "store.append_s": tracer.layer("store.append", f"{tag}.")[0],
        "store.read_s": tracer.layer("store.read", f"{tag}.")[0],
        "close.busy_ms": ms("close"),
        "close.changed_pairs": result["changed_pairs"],
        "ckpt.save_ms": ms("ckpt.save"),
        "ckpt.saves_per_day": len(saves) / days,
        "ckpt.last_delta_mb": deltas[-1]["segment_bytes"] / 1e6,
        "ckpt.full_segments": (len(saves) - len(deltas)) / result["passes"],
        "publish.build_ms": median(builds),
        "publish.builds_per_day": len(builds) / days,
        "http.requests": result["answered"],
        "query_p95_ms": percentile([v for r in plain for v in r["query_ms"]], 95),
        "lookup_per_s": median([r["lookup_per_s"] for r in plain]),
        "loadgen.late_p95_ms": percentile(result["late_ms"], 95),
        "restore.read_s": sum(s["end"] - s["start"] for s in spans("restore.read"))
        / restores,
        "restore.rebuild_s": sum(
            s["end"] - s["start"] for s in spans("restore.rebuild")
        )
        / restores,
        "restore.segments": result["segments"],
        "other.ingest_s": tracer.unaccounted(f"{tag}.ingest"),
        "other.lookup_s": tracer.unaccounted(f"{tag}.lookup"),
        "other.restore_s": tracer.unaccounted(f"{tag}.restore") / restores,
        "trace.overhead_pct": (traced_wall / untraced_wall - 1) * 100,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from pursuit_bench.campaign import CampaignWorkload
    from pursuit_bench.common import (
        RssPeak,
        cpus,
        freeze_world,
        settle,
        wrap_hot_layers,
    )
    from pursuit_bench.replay import TRACED_PASSES, ReplayWorkload
    from pursuit_bench.spans import Tracer

    # The tracker is one interpreter-lock-bound process: keep its ingest
    # and HTTP threads on one core, as a deployment runs one such process
    # per core.  Spread over two cores, every lock hand-off between them
    # crosses CPUs, and where the threads land changes from run to run.
    tracker_cpu, loadgen_cpu = cpus()
    os.sched_setaffinity(0, {tracker_cpu})
    work = ROOT / ".bench_work"
    workdir = work / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    tracer = Tracer()
    workload = {"campaign": CampaignWorkload, "replay": ReplayWorkload}[name](
        seed, tracer, workdir
    )
    workload.loadgen_cpu = loadgen_cpu
    workload.wrap()

    def run_round(tag: str) -> dict:
        rss = RssPeak(tracer, tag)
        try:
            result = workload.round(tag)
        finally:
            rss_mb = rss.stop()
        return {**result, "rss_mb": rss_mb}

    try:
        if trace:
            wrap_hot_layers(tracer)
            workload.set_up("setup0")
            workload.prepare()
            freeze_world()
            tracer.unwrap("hot")
            if name == "replay":
                workload.passes = TRACED_PASSES
            rounds = [run_round("round0")]
            wrap_hot_layers(tracer)
            traced = run_round("round1")
            tracer.unwrap("hot")
            rounds.append(run_round("round2"))
            tracer.unwrap()
            rounds.append(traced)
            values = per_layer(
                tracer, "setup0", "round1", ["round0", "round2"], rounds
            )
            units = dict(PER_LAYER)
        else:
            setups = []
            for index in range(SETUPS):
                workload.world = None  # one world in memory at a time
                settle()
                workload.set_up(f"setup{index}")
                setups.append(sum(workload.world.phase_s.values()))
            workload.prepare()
            freeze_world()
            rounds = []
            start = perf_counter()
            while not rounds or perf_counter() - start < seconds:
                rounds.append(run_round(f"round{len(rounds)}"))
            tracer.unwrap()
            values = end_to_end(setups, rounds)
            units = dict(END_TO_END)
        tracer.dump(work / f"spans-{name}-seed{seed}-trace{int(trace)}.json")
        with open(work / f"scorecard-{name}-seed{seed}.json", "w") as fh:
            json.dump(rounds[-1]["scorecard"], fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def report(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"   {key:<24} {metric['value']:>14.4f} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, result)
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        print(out, end="")
        results[name] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
