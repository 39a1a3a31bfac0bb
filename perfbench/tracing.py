"""Spans around braidcover's public functions, recorded from outside.

The tracer replaces each traced function at every place where braidcover
(or the benchmark) looks it up: a module attribute bound to the function,
or the method on its class.  No program file is touched.  Each span
records (id, name, parent id, operation id, start, end); spans stay in
memory and are written out once, when the run ends.  Self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SETUP = "setup"  # operation id of spans recorded during set-up


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, op, start, end]
        self.stack: list[int] = []
        self.op = SETUP
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the current phase (set-up or operations)."""
        self.counts[(name, SETUP if self.op == SETUP else "ops")] += amount

    def wrap(self, fn, name, on_exit=None):
        """Traced version of fn.  name is a string or a function of the
        call's arguments; on_exit(tracer, args, result) runs after the
        call, with result None when the call raised."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name if isinstance(name, str) else name(args),
                    self.stack[-1] if self.stack else None, self.op, perf(), None]
            self.spans.append(span)
            self.stack.append(span[0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[5] = perf()
                self.stack.pop()
                if on_exit is not None:
                    on_exit(self, args, result)

        return traced

    def patch_function(self, fn, name, on_exit=None) -> None:
        """Replace fn in every loaded braidcover module that binds it."""
        traced = self.wrap(fn, name, on_exit)
        bound = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("braidcover"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    bound = True
        if not bound:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def patch_method(self, cls, attr: str, name, on_exit=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, on_exit)))
        else:
            setattr(cls, attr, self.wrap(raw, name, on_exit))

    # -- summaries ----------------------------------------------------------

    def summary(self, duration):
        """Per phase and span name: calls, inclusive seconds, self seconds,
        with each span's seconds given by duration(start, end)."""
        took = [duration(s[4], s[5]) for s in self.spans]
        child_time = defaultdict(float)
        for sid, _name, parent, _op, _start, _end in self.spans:
            if parent is not None:
                child_time[parent] += took[sid]
        out: dict[str, dict[str, dict[str, float]]] = {SETUP: {}, "ops": {}}
        for sid, name, _parent, op, _start, _end in self.spans:
            phase = SETUP if op == SETUP else "ops"
            row = out[phase].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += took[sid]
            row["self_s"] += took[sid] - child_time[sid]
        return out

    def child_time(self, parent_name: str, child_prefix: str, phase: str, duration) -> float:
        """Seconds spent in direct children named child_prefix* of spans
        named parent_name."""
        parents = {s[0] for s in self.spans
                   if s[1] == parent_name and (s[3] == SETUP) == (phase == SETUP)}
        return sum(duration(s[4], s[5]) for s in self.spans
                   if s[2] in parents and s[1].startswith(child_prefix))

    def write(self, path: str, header: dict, duration) -> None:
        """Spans with raw perf_counter times; the summary in duration units."""
        doc = dict(header)
        doc["fields"] = ["id", "name", "parent", "op", "start", "end"]
        doc["spans"] = self.spans
        doc["summary"] = self.summary(duration)
        doc["counts"] = {f"{phase}:{name}": v for (name, phase), v in sorted(self.counts.items())}
        with open(path, "w") as fh:
            json.dump(doc, fh)
