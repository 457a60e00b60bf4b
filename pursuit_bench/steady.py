"""Steadiness check: two sets of runs of the same code, compared to the bounds.

Run from the root of a checkout::

    python3 pursuit_bench/steady.py --runs 10

It runs two sets, one after the other.  Each set runs every workload of
``BENCHMARK.json`` ``--runs`` times, run ``i`` with seed ``i``, for
``run_seconds``, the workloads alternating which goes first.  For every
end-to-end metric of each set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile
distance as a share of the median) and the bound; then how far the
second set's median moved from the first's, towards worse.

The benchmark is steady when, on every workload, each spread but
``setup_s``'s is within its bound, each metric's second median is not
worse than its first by more than the bound, and the share of failed
operations is the same in every run; the exit code is 1 otherwise.  A
spread above a third of its bound is marked, as a margin too thin to
rely on.  The raw results go to ``.bench_work/steady-<set>-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
METRICS = CONFIG["end_to_end"]


def run_once(workload: str, seed: int) -> dict:
    out = subprocess.run(
        CONFIG["command"]
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_set(runs: int) -> dict[str, list[dict]]:
    results: dict[str, list] = {w: [] for w in WORKLOADS}
    for i in range(runs):
        for workload in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            result = run_once(workload, i)
            results[workload].append(result)
            print(f"run {i} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return results


def summarize(label: str, results: list[dict]) -> tuple[dict, list[str]]:
    """Print one set's table; returns its medians and what broke a bound."""
    broken = []
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    if not correct:
        broken.append(f"{label}: a run was not correct")
    print(f"== {label}: {len(results)} runs, all correct: {correct}, "
          f"failed shares: {shares}")
    print(f"   {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    medians = {}
    for metric in METRICS:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        medians[name] = q2
        flag = ""
        if spread > bound and name == "setup_s":
            flag = "  wider than the bound (exempt)"
        elif spread > bound:
            flag = "  WIDER THAN THE BOUND"
            broken.append(f"{label}/{name} spread {spread:.3f}")
        elif spread > bound / 3:
            flag = "  above a third of the bound"
        print(f"   {name:<16} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>7.3f} {bound:>6.2f}{flag}")
    return medians, broken


def compare(workload: str, first: dict, second: dict) -> list[str]:
    """Print how far each median moved from set 1 to set 2, towards worse."""
    broken = []
    print(f"== {workload}: set 2 median against set 1, positive is worse")
    for metric in METRICS:
        name, bound = metric["name"], metric["bound"]
        moved = second[name] / first[name] - 1
        worse = moved if metric["better"] == "lower" else -moved
        flag = ""
        if worse > bound:
            flag = "  WORSE BY MORE THAN THE BOUND"
            broken.append(f"{workload}/{name} set 2 worse by {worse:.3f}")
        print(f"   {name:<16} {worse:>+8.3f} {bound:>6.2f}{flag}")
    return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    sets = []
    for number in (1, 2):
        print(f"-- set {number}", flush=True)
        sets.append(run_set(args.runs))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    broken = []
    for workload in WORKLOADS:
        medians = []
        for number, results in enumerate(sets, 1):
            path = ROOT / ".bench_work" / f"steady-{number}-{workload}.json"
            path.write_text(json.dumps(results[workload]))
            set_medians, set_broken = summarize(
                f"set {number} {workload}", results[workload]
            )
            medians.append(set_medians)
            broken += set_broken
        broken += compare(workload, *medians)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s[workload]}
        if len(shares) > 1:
            broken.append(f"{workload}: failed shares differ between runs {shares}")
    if broken:
        print("not steady:", "; ".join(broken))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
