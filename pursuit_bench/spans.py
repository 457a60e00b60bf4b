"""Spans recorded around the program's public entry points.

The benchmark never edits the program.  It wraps methods on the
program's classes for the duration of a run and restores them after.
Each wrapped call records its wall time and its self time: the wall
time minus the time of the wrapped calls it made.  Calls made a few
times a day (day close, checkpoint, publication, store append) are
kept as individual spans with their parent layer.  Calls made once per
probe or per response are summed per phase and layer instead, so the
trace stays a few thousand records long however many probes a run
sends.

A phase is a window of wall time the workload names (``setup.world``,
``ingest``, ``restore`` ...).  The wall time of a phase left over after
the self times of every layer recorded in it is the part of the phase
no layer accounts for.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter


class Tracer:
    """Holds spans and per-phase totals in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: One dict per individually kept call.
        self.spans: list[dict] = []
        #: (phase, layer) -> [wall seconds, self seconds, calls,
        #: calls that returned something other than None].
        self.totals: dict[tuple[str, str], list] = {}
        #: Closed phases as (name, start, end).
        self.phases: list[tuple[str, float, float]] = []
        self.phase: str | None = None
        self._phase_start = 0.0
        self._local = threading.local()
        self._patched: list[tuple[type, str, object, str]] = []

    # -- phases ------------------------------------------------------------

    def enter(self, name: str | None) -> None:
        """Close the current phase (if any) and open *name* (if given)."""
        now = perf_counter()
        if self.phase is not None:
            self.phases.append((self.phase, self._phase_start, now))
        self.phase = name
        self._phase_start = now

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, layer: str) -> list:
        # A call belongs to the phase open when it started.
        frame = [layer, 0.0, self.phase, perf_counter()]
        self._stack().append(frame)
        return frame

    def _end(self, frame: list, hot: bool, attrs=None, returned=False) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        layer, child, phase, start = frame
        elapsed = end - start
        if stack:
            stack[-1][1] += elapsed
        key = (phase or "-", layer)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0.0, 0.0, 0, 0]
        total[0] += elapsed
        total[1] += elapsed - child
        total[2] += 1
        total[3] += returned
        if not hot:
            self.spans.append(
                {
                    "layer": layer,
                    "phase": phase,
                    "parent": stack[-1][0] if stack else None,
                    "start": start,
                    "end": end,
                    "self_s": elapsed - child,
                    **(attrs or {}),
                }
            )

    # -- wrapping ----------------------------------------------------------

    def span(self, layer: str) -> "_Span":
        """Time a block of the benchmark's own code as *layer*; the
        dict the block receives is kept on the span."""
        return _Span(self, layer)

    def wrap(self, owner: type, attr: str, layer: str, *, hot=False, note=None,
             group="day"):
        """Time every call of ``owner.attr`` as *layer*.

        *note*, if given, is called as ``note(args, kwargs, result)``
        after a call returns and gives a dict of extra fields for the
        span (hot layers keep none).
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._begin(layer)
            extra = result = None
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    extra = note(args, kwargs, result)
                return result
            finally:
                tracer._end(frame, hot, extra, result is not None)

        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._patch(owner, attr, replacement, group)

    def wrap_iter(self, owner: type, attr: str, layer: str, group="day") -> None:
        """Time each step of the iterator ``owner.attr(self)`` returns
        (a hot layer: the time a consumer spends waiting on it)."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(obj):
            iterator = iter(original(obj))

            def timed():
                while True:
                    frame = tracer._begin(layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(frame, True)
                    yield item

            return timed()

        self._patch(owner, attr, wrapper, group)

    def _patch(self, owner: type, attr: str, replacement, group: str) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr], group))
        setattr(owner, attr, replacement)

    def unwrap(self, group: str | None = None) -> None:
        """Restore the wrapped methods of *group* (all if ``None``)."""
        for entry in reversed(list(self._patched)):
            owner, attr, original, entry_group = entry
            if group is None or entry_group == group:
                setattr(owner, attr, original)
                self._patched.remove(entry)

    # -- reading -----------------------------------------------------------

    def layer(self, layer: str, prefix: str = "") -> list:
        """[wall seconds, self seconds, calls, non-None returns] of
        *layer*, summed over the phases whose names start with *prefix*."""
        out = [0.0, 0.0, 0, 0]
        for (phase, name), total in self.totals.items():
            if name == layer and phase.startswith(prefix):
                out = [a + b for a, b in zip(out, total)]
        return out

    def of(self, layer: str, prefix: str = "") -> list[dict]:
        """The individually kept spans of *layer*, in call order."""
        return [
            s
            for s in self.spans
            if s["layer"] == layer and (s["phase"] or "").startswith(prefix)
        ]

    def phase_walls(self, name: str) -> list[float]:
        """Wall seconds of each window a phase called *name* was open."""
        return [end - start for n, start, end in self.phases if n == name]

    def unaccounted(self, phase: str) -> float:
        """Wall seconds of *phase* not covered by any layer's self time."""
        own = sum(t[1] for (p, _), t in self.totals.items() if p == phase)
        return sum(self.phase_walls(phase)) - own

    def dump(self, path) -> None:
        """Write spans, totals and phases as one JSON document."""
        doc = {
            "phases": [
                {"phase": n, "start": s, "end": e} for n, s, e in self.phases
            ],
            "totals": [
                {"phase": p, "layer": name, "wall_s": t[0], "self_s": t[1],
                 "calls": t[2], "returned": t[3]}
                for (p, name), t in sorted(self.totals.items())
            ],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.attrs: dict = {}

    def __enter__(self) -> dict:
        self.frame = self.tracer._begin(self.layer)
        return self.attrs

    def __exit__(self, *exc) -> None:
        self.tracer._end(self.frame, False, self.attrs)
