"""Output checks, computed apart from the code paths they check.

Nothing here compares against a stored copy of earlier output.  Each
check is either a recomputation from the stored corpus by code of the
benchmark's own (the rotation diff), the batch algorithm of
``repro.core`` run over the same corpus (Algorithm 2), the simulator's
ground truth (pool and delegation sizes, who holds an address at a
time), or a property the method must have (a restored engine equals
the live one).  Each function returns a list of problems; empty means
the check passed.
"""

from __future__ import annotations

import ipaddress
import json

from repro import RotationPoolInference
from repro.simnet.clock import hours
from repro.stream.checkpoint import engine_state

_MASK64 = (1 << 64) - 1
_NET48_SHIFT = 80


def is_eui64(source: int) -> bool:
    """``ff:fe`` in the middle of the interface identifier."""
    return (source >> 24) & 0xFFFF == 0xFFFE


def expected_rotations(rows) -> dict[int, set[int]]:
    """Day -> /48 networks (as ints) first flagged rotating at that day's close.

    Section 4.3 over consecutive scanned days: the changed pairs are the
    symmetric difference of the two days' EUI-64 ``<target, source>``
    pair sets.  A /48 is attributed to the day where one of its changed
    pairs first appears, so a pair that appeared on one day and vanished
    on the next is reported once.
    """
    pairs_by_day: dict[int, set[tuple[int, int]]] = {}
    for day, _t, target, source in rows:
        pairs = pairs_by_day.setdefault(day, set())
        if is_eui64(source):
            pairs.add((target, source))
    out: dict[int, set[int]] = {}
    seen: set[tuple[int, int]] = set()
    for day in sorted(pairs_by_day):
        if day - 1 not in pairs_by_day:
            continue
        changed = pairs_by_day[day - 1] ^ pairs_by_day[day]
        out[day] = {t >> _NET48_SHIFT << _NET48_SHIFT for t, _ in changed - seen}
        seen |= changed
    return out


def check_rotations(snapshot, expected: dict[int, set[int]]) -> list[str]:
    got = {
        day: {p.network for p in prefixes}
        for day, prefixes in snapshot.rotations_by_day.items()
    }
    if got != expected:
        wrong = sorted(d for d in set(got) | set(expected) if got.get(d) != expected.get(d))
        return [f"rotating /48s differ from the recomputed diff on days {wrong}"]
    union = set().union(*expected.values()) if expected else set()
    if {p.network for p in snapshot.rotating_prefixes} != union:
        return ["cumulative rotating /48s differ from the recomputed diff"]
    return []


def parse_address(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


def parse_net48s(strings) -> set[int]:
    return {int(ipaddress.IPv6Network(s).network_address) for s in strings}


def truth(internet) -> dict[int, tuple[int, int]]:
    """ASN -> (widest true delegation plen, widest true pool plen)."""
    out = {}
    for provider in internet.providers:
        if provider.pools:
            out[provider.asn] = (
                min(pool.delegation_plen for pool in provider.pools),
                min(pool.prefix.plen for pool in provider.pools),
            )
    return out


def check_pools(engine, rows, origin_of, truth_by_asn) -> list[str]:
    """Live Algorithm 2 equals the batch one over the same corpus, and
    no pool is inferred wider than the AS's widest true pool."""
    from repro import ProbeObservation

    groups: dict[int, list] = {}
    for day, t, target, source in rows:
        if is_eui64(source):
            asn = origin_of(source) or 0
            groups.setdefault(asn, []).append(ProbeObservation(day, t, target, source))
    batch = {
        asn: RotationPoolInference.from_observations(asn, obs).inferred_plen
        for asn, obs in groups.items()
        if asn
    }
    live = {asn: p.inferred_plen for asn, p in engine.pool_inferences().items()}
    problems = []
    if live != batch:
        problems.append(f"live pool plens {live} != batch Algorithm 2 {batch}")
    for asn, plen in live.items():
        if asn in truth_by_asn and plen < truth_by_asn[asn][1]:
            problems.append(
                f"AS{asn}: pool inferred /{plen}, wider than the true /{truth_by_asn[asn][1]}"
            )
    return problems


def profiles_over_bound(profiles: dict, truth_by_asn) -> list[int]:
    """ASNs whose ``/profiles`` delegation is wider than the AS's widest
    true delegation (the bound no correct inference can break)."""
    return sorted(
        int(asn)
        for asn, profile in profiles.items()
        if int(asn) in truth_by_asn
        and profile["allocation_plen"] < truth_by_asn[int(asn)][0]
    )


def check_sighting(internet, iid: int, sighting: dict) -> list[str]:
    """The simulator puts a device carrying *iid* at the reported
    address at the reported time."""
    address = parse_address(sighting["address"])
    t = sighting["t_seconds"]
    residence = internet.resolve(address, hours(t)) if t is not None else None
    if residence is None or residence.wan_address != address or address & _MASK64 != iid:
        return [f"sighting of {iid:016x} at {sighting['address']} t={t} not in the simulator"]
    return []


def store_columns(store) -> list[list]:
    """The store's checkpoint rows as six columns: equal columns are
    equal rows, and they are read without building a row per response."""
    batch = store.snapshot_columns()
    return [
        list(column)
        for column in (batch.day, batch.t_seconds, batch.tgt_hi, batch.tgt_lo,
                       batch.src_hi, batch.src_lo)
    ]


def check_restore(restored, live_state: dict, restored_store, live_columns) -> list[str]:
    """A restored engine and store equal the live ones they were saved from."""
    problems = []
    if engine_state(restored) != live_state:
        problems.append("restored engine state differs from the live engine")
    if store_columns(restored_store) != live_columns:
        problems.append("restored store rows differ from the live store")
    return problems


def scorecard(engine, truth_by_asn) -> list[dict]:
    """Per-AS inferred allocation and pool plens against simnet truth."""
    rows = []
    for asn, profile in sorted(engine.as_profiles().items()):
        if asn not in truth_by_asn:
            continue
        true_alloc, true_pool = truth_by_asn[asn]
        rows.append(
            {
                "asn": asn,
                "inferred_alloc": profile.allocation_plen,
                "true_alloc": true_alloc,
                "inferred_pool": engine.pool_inference(asn).inferred_plen,
                "true_pool": true_pool,
                "alloc_over_bound": profile.allocation_plen < true_alloc,
            }
        )
    return rows


def check_answers(load: dict, engine, expected, internet, truth_by_asn):
    """Judge every read of a round; returns ``(problems, failed)``.

    *load* holds the read mix answered during ingest (``read_paths``,
    ``reads``), the lookups answered from the final snapshot
    (``lookup_paths``, ``lookups``) and the final ``/profiles`` answers
    (``profiles``).  An answer that is not a 200 is a failed operation.
    So is a final ``/profiles`` answer that breaks the truth bound.
    Answers read mid-ingest saw whichever snapshot was current, so
    ``/profiles`` is judged for that bound on the final snapshot only:
    that keeps the failed share the same in every run.
    """
    problems: list[str] = []
    failed = 0
    verified: dict = {}

    def sighting_ok(iid: int, sighting) -> bool:
        if sighting is None:
            return True
        key = (iid, sighting["address"], sighting["t_seconds"])
        if key not in verified:
            verified[key] = not check_sighting(internet, iid, sighting)
        return verified[key]

    for path, read in zip(load["read_paths"], load["reads"]):
        if read["status"] != 200:
            failed += 1
            continue
        payload = json.loads(read["body"])
        if path.startswith("/iid/"):
            iid = int(path[len("/iid/") :], 16)
            if payload["iid"] != iid or not sighting_ok(iid, payload["sighting"]):
                problems.append(f"bad answer to {path}: {payload}")
        elif path.startswith("/rotations"):
            day = int(path.split("=")[1])
            if payload["closed"] and (
                parse_net48s(payload["rotating_prefixes"]) != expected.get(day, set())
            ):
                problems.append(f"/rotations?day={day} differs from the recomputed diff")
        elif path == "/stats":
            if payload["responses"] > engine.responses_ingested:
                problems.append(f"/stats counts more responses than ingested: {payload}")
        elif path == "/profiles":
            if not all(
                16 <= p["pool_plen"] <= p["allocation_plen"] <= 64
                for p in payload["profiles"].values()
            ):
                problems.append(f"malformed /profiles answer: {payload}")

    final = engine.watched
    # Lookups repeat a few hundred paths against one snapshot: judge
    # each distinct answer once, and count every failed one.
    failed += sum(status != 200 for status, _ in load["lookups"])
    answers = {(path, status, body) for path, (status, body)
               in zip(load["lookup_paths"], load["lookups"])}
    for path, status, body in sorted(answers):
        if status != 200:
            continue
        payload = json.loads(body)
        iid = int(path[len("/iid/") :], 16)
        sighting = final.get(iid)
        want = None if sighting is None else [sighting.source, sighting.day, sighting.t_seconds]
        got = payload["sighting"]
        if got is not None:
            got = [parse_address(got["address"]), got["day"], got["t_seconds"]]
        if payload["iid"] != iid or got != want or not sighting_ok(iid, payload["sighting"]):
            problems.append(f"lookup {path} answered {payload}, engine has {want}")

    live = {
        str(asn): {"allocation_plen": p.allocation_plen, "pool_plen": p.pool_plen}
        for asn, p in engine.as_profiles().items()
    }
    for status, body in load["profiles"]:
        if status != 200:
            failed += 1
            continue
        profiles = json.loads(body)["profiles"]
        if profiles != live:
            problems.append("final /profiles differs from the live engine")
        if profiles_over_bound(profiles, truth_by_asn):
            failed += 1
    return problems, failed
