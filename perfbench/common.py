"""State shared by the benchmark driver and its workloads."""

from __future__ import annotations

import gc
import importlib
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Fresh-process start-to-ready samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Cold and warm passes per untraced run, at the least. Passes of one kind
#: repeat identical work; ``cpu_s`` is the median of the cold passes' CPU
#: seconds, and ``wall_s`` and ``warm_wall_s`` report the fastest: bursts
#: of load from other tenants of the host only ever add wall time, and the
#: fastest of several short passes is the one they missed.
COLD_PASSES = 7
WARM_PASSES = 5

_ENGINE = (
    "repro.core.api",
    "repro.batch.kernel",
    "repro.sim.engine",
    "repro.dram.refresh",
    "repro.dram.timing",
    "repro.power.micron",
    "repro.workloads.generator",
    "repro.mechanisms.registry",
)

#: What each entry point imports before it can work. Workloads import
#: these before their timed passes, so imports count in ``setup_s`` only.
PRELOAD = {
    "sweep": (
        "repro.experiments.cli",
        "repro.experiments.fig11_fig14_ratio",
        "repro.experiments.fig12_fig15_profile",
        "repro.experiments.mechanism_comparison",
        "repro.harness.planner",
        "repro.harness.session",
        "repro.harness.store",
        *_ENGINE,
    ),
    "verify": ("repro.verify.cli", "repro.verify.batched", *_ENGINE),
    "service": ("repro.service.client", "repro.service.spec", *_ENGINE),
}


def preload(kind: str) -> None:
    for module in PRELOAD[kind]:
        importlib.import_module(module)


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of process ``pid`` and every descendant, alive or reaped."""
    children: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # Fields after the parenthesised command name: state, ppid,
                # ..., utime, stime, cutime, cstime at offsets 11 to 14.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        children.setdefault(int(fields[1]), []).append(int(entry))
        ticks[int(entry)] = sum(int(v) for v in fields[11:15])
    total, todo = 0, [pid]
    while todo:
        current = todo.pop()
        total += ticks.get(current, 0)
        todo += children.get(current, [])
    return total / os.sysconf("SC_CLK_TCK")


@dataclass
class Context:
    """What one benchmark run hands its workload."""

    workload: str
    seed: int
    seconds: float
    tmp: Path
    tracer: Tracer | None = None
    #: Host time of the traced region, set when it closes.
    traced_wall: float = 0.0

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        return env

    def span(self, name: str, layer: str):
        return self.tracer.span(name, layer) if self.tracer else nullcontext()

    @contextmanager
    def region(self):
        """The traced passes: one root span, timed, then patches removed
        so the output checks that follow run untraced."""
        if self.tracer is None:
            yield
            return
        start = time.perf_counter()
        with self.tracer.span("run", "bench"):
            yield
        self.traced_wall = time.perf_counter() - start
        self.tracer.restore()

    def cold_passes(self, cold_only: bool, untraced: int = COLD_PASSES) -> int:
        """The traced run and its untraced reference time one cold pass."""
        return 1 if cold_only or self.tracer else untraced

    def warm_passes(self, untraced: int = WARM_PASSES) -> int:
        return 1 if self.tracer else untraced

    def timed(self, seconds: list[float], fn, *args, cpu: list[float] | None = None):
        """Run ``fn``, append the seconds it took to ``seconds`` (and the
        CPU seconds this process spent on it to ``cpu``) and return its
        result.

        Each pass starts from a collected heap with everything alive so
        far frozen, so neither the garbage nor the retained results of
        earlier passes (state a user's process would not hold) land in
        its time through the collector."""
        gc.collect()
        gc.freeze()
        start, start_cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
        if cpu is not None:
            cpu.append(time.process_time() - start_cpu)
        return result

    def setup_probe(self, kind: str, out: "Outcome") -> None:
        """Start-to-ready seconds of ``SETUP_SAMPLES`` fresh processes."""
        for index in range(SETUP_SAMPLES):
            self.timed(out.setup, self._probe, kind, index)

    def _probe(self, kind: str, index: int) -> None:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), kind,
             str(self.tmp / f"probe-{kind}-{index}")],
            env=self.env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if out.returncode != 0 or out.stdout.strip() != "ready":
            raise RuntimeError(f"setup probe {kind} failed: {out.stderr[-2000:]}")


@dataclass
class Outcome:
    """One workload's measurements, checks and counters."""

    #: Host seconds of each cold pass, warm pass and set-up.
    cold: list[float] = field(default_factory=list)
    #: CPU seconds the program spent on each cold pass.
    cold_cpu: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: RunResults the cold pass produced (modelled controller statistics).
    results: list = field(default_factory=list)
    #: Per-layer values the workload measures itself (counters, latencies).
    layer: dict[str, float] = field(default_factory=dict)
    #: Lines printed beside the metrics (paper values, caveats).
    notes: list[str] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return statistics.median(self.cold_cpu)

    @property
    def wall_s(self) -> float:
        return min(self.cold)

    @property
    def warm_wall_s(self) -> float:
        return min(self.warm)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
