"""Spans recorded from outside the program, around calls into its modules.

A wrapper is installed on every name a caller looks up: each module of the
package that binds the original function gets the wrapper, and methods are
replaced on their class. Spans carry an id, the id of the span that was open
when they started (their parent), a name, start and end on the monotonic
clock, and optional counts. Pool workers forked while a span is open inherit
the open stack, so their spans nest under the parent-process span that
created the pool; each worker appends its own spans to a file in
``spill_dir`` after every speaker, and ``collect`` reads them back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.active = False  # spans are recorded only while this is set

    # --- recording ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, counter: Counter | None = None,
             spill: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span; ``spill`` flushes worker spans."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = f"{os.getpid()}-{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            record = {"id": span_id, "parent": parent, "name": name, "pid": os.getpid()}
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record.update(counter(args, kwargs, result))
                return result
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(record)
                if spill and os.getpid() != self.main_pid:
                    self._spill()

        return traced

    def _spill(self) -> None:
        pid = os.getpid()
        # the list also holds spans copied from the parent at fork time
        own = [s for s in self.spans if s["pid"] == pid]
        with open(self.spill_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in own:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()

    def collect(self) -> list[dict]:
        """Return and clear every span recorded so far, workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())
            path.unlink()
        return spans

    # --- installation ---------------------------------------------------------

    def install_function(self, module: str, attr: str, name: str,
                         counter: Counter | None = None, spill: bool = False) -> None:
        """Wrap ``module.attr`` under every name the package binds it to."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, counter, spill)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, traced)

    def install_method(self, cls: type, attr: str, name: str,
                       counter: Counter | None = None) -> None:
        self.replace(cls, attr, self.wrap(cls.__dict__[attr], name, counter))

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


# --- aggregation ----------------------------------------------------------------


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(i for i in inside if i[1] > i[0])
    return out


def spans_outside_parent(spans: list[dict]) -> list[dict]:
    """Spans that start before or end after the span they claim as parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            bad.append(s)
        elif parent is not None and not (parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            bad.append(s)
    return bad


class SpanTable:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.self_s = self_times(spans)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def total_self_s(self, name: str | None = None) -> float:
        return sum(self.self_s[s["id"]] for s in self.spans if name is None or s["name"] == name)

    def max_s(self, name: str) -> float:
        return max((s["end"] - s["start"] for s in self.named(name)), default=0.0)

    def count(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.named(name))
