"""Wall-clock spans recorded from outside the program.

The traced run patches the public entry points of each module (a class
method, an ``__init__`` or a module function) with a wrapper that opens
a span, so the benchmark can split wall time by layer without any
tracing inside ``src/``. Spans nest per thread; a span's *self time* is
its duration minus the durations of its direct children, so the self
times of one thread's tree add up to its root span.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Allowed gap between the sum of layer self times and the root spans,
#: and between the main root span and the separately timed traced wall.
CONSERVATION_TOLERANCE = 0.02


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tid: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        span = Span(
            name,
            layer,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            tid=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # patching

    def wrap(self, owner: object, attr: str, name: str, layer: str, on_result=None):
        """Replace ``owner.attr`` by a spanned wrapper.

        For a module-level function, every loaded module that imported
        the same function object by name is patched too, so callers that
        did ``from x import f`` are traced as well.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                module
                for module in list(sys.modules.values())
                if module is not owner and getattr(module, attr, None) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def total_time(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        table: dict[str, float] = defaultdict(float)
        for span in self.spans:
            table[span.layer] += span.self_s
        return dict(table)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def conservation(self, main_root: Span, traced_wall_s: float) -> list[str]:
        """Every span must be closed and hold its children, layer self
        times must add up to the root spans, and the main root must match
        the wall time measured around the traced pass."""
        problems = [
            f"span {s.name} is open or shorter than its children"
            for s in self.spans
            if s.end < s.start or s.self_s < -1e-6
        ]
        layers = sum(self.layer_self_times().values())
        roots = sum(s.duration for s in self.roots())
        if abs(layers - roots) > CONSERVATION_TOLERANCE * roots:
            problems.append(
                f"layer self times sum to {layers:.4f}s, root spans to {roots:.4f}s"
            )
        if abs(main_root.duration - traced_wall_s) > CONSERVATION_TOLERANCE * traced_wall_s:
            problems.append(
                f"root span {main_root.duration:.4f}s vs traced wall "
                f"{traced_wall_s:.4f}s"
            )
        return problems

    def format_table(self) -> str:
        table = self.layer_self_times()
        total = sum(table.values()) or 1.0
        lines = [f"{'layer':<12} {'self s':>9} {'share':>7}"]
        for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            lines.append(f"{layer:<12} {seconds:>9.4f} {seconds / total:>7.1%}")
        by_name: dict[str, float] = defaultdict(float)
        for span in self.spans:
            by_name[span.name] += span.self_s
        lines.append("")
        lines.append(f"{'span':<34} {'calls':>7} {'self s':>9}")
        for name, seconds in sorted(by_name.items(), key=lambda kv: -kv[1]):
            count = sum(1 for s in self.spans if s.name == name)
            lines.append(f"{name:<34} {count:>7} {seconds:>9.4f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {tid: n for n, tid in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tids[span.tid],
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "workload": self.workload,
                    "self_us": span.self_s * 1e6,
                },
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
