"""Per-layer ledger: spans and counters installed from outside.

Nothing under ``src/`` knows about the ledger.  :meth:`Ledger.install`
replaces the public functions of each layer with wrappers that record a
span (self time = duration minus the spans it encloses) or, where a
span would cost more than the call itself, only count the call.  The
wrappers are removed again by :meth:`Ledger.uninstall`, so one process
can alternate traced and untraced samples.

Service workers are separate interpreters: :func:`traced_execute_job`
replaces the scheduler's worker entry point for a traced round,
installs a ledger in the worker and leaves it as JSON beside the store.
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

#: (module, class or None for a module function, attribute, span name)
SPANS = [
    ("repro.sim.cycle_sim", "CycleSim", "settle", "sim.settle"),
    ("repro.sim.cycle_sim", "CycleSim", "clock_edge", "sim.clock_edge"),
    ("repro.sim.cycle_sim", "CycleSim", "snapshot", "sim.snapshot_restore"),
    ("repro.sim.cycle_sim", "CycleSim", "restore", "sim.snapshot_restore"),
    ("repro.processors.harness", "CoreTarget", "drive", "harness.drive"),
    ("repro.processors.harness", "CoreTarget", "on_edge", "harness.on_edge"),
    ("repro.sim.memory", "XMemory", "read", "memory.xmem"),
    ("repro.sim.memory", "XMemory", "write", "memory.xmem"),
    ("repro.coanalysis.executors", None, "simulate_segment",
     "coanalysis.segment_loop"),
    ("repro.coanalysis.kernel", "ExplorationKernel", "run",
     "coanalysis.kernel"),
    ("repro.coanalysis.frontier", "DepthFirstFrontier", "push",
     "coanalysis.frontier"),
    ("repro.coanalysis.frontier", "DepthFirstFrontier", "pop_batch",
     "coanalysis.frontier"),
    ("repro.csm.manager", "ConservativeStateManager", "observe",
     "csm.observe"),
    ("repro.coanalysis.trace", "Tracer", "emit", "trace.emit"),
    ("repro.store.segments", "SegmentResultCache", "lookup", "store.lookup"),
    ("repro.store.segments", "SegmentResultCache", "key",
     "store.fingerprint"),
    ("repro.reporting.runner", None, "run_fingerprint", "store.fingerprint"),
    ("repro.store.segments", "SegmentResultCache", "store", "store.record"),
    ("repro.store.segments", "SegmentResultCache", "flush", "store.record"),
    ("repro.store.content", "ContentStore", "put_bytes", "store.write"),
    ("repro.store.content", "ContentStore", "put_manifest", "store.write"),
    ("repro.coanalysis.kernel", "ExplorationKernel", "_write_checkpoint",
     "resilience.encode"),
    ("repro.resilience.checkpoint", "Checkpointer", "write",
     "resilience.checkpoint"),
]

#: calls too cheap and too many for a span (about 104k per-bit
#: ``set_net`` calls on bm32/tHold): counted only, their time stays in
#: the enclosing span (the harness bridge)
COUNTED = [
    ("repro.sim.cycle_sim", "CycleSim", "set_net", "sim.net_access"),
    ("repro.sim.cycle_sim", "CycleSim", "get_net", "sim.net_access"),
    ("repro.sim.cycle_sim", "CycleSim", "set_bus", "sim.net_access"),
    ("repro.sim.cycle_sim", "CycleSim", "get_bus", "sim.net_access"),
]


class Ledger:
    """Self time and call count per span name, plus named counters."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._undo: List[tuple] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, fn):
        ledger = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = ledger._stack
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                ledger.self_s[name] += elapsed - frame[0]
                ledger.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
        return span

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module, owner, attr, wrap):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = target.__dict__[attr]
        setattr(target, attr, wrap(original))
        self._undo.append((target, attr, original))

    def install(self) -> "Ledger":
        for module, owner, attr, name in SPANS:
            self._patch(module, owner, attr,
                        functools.partial(self._span, name))
        for module, owner, attr, name in COUNTED:
            self._patch(module, owner, attr,
                        functools.partial(self._counter, name))
        self._patch("repro.store.content", "ContentStore", "get_bytes",
                    self._count_read)
        self._patch("repro.store.content", "ContentStore", "put_bytes",
                    self._count_write)
        self._patch("repro.store.content", "ContentStore", "put_manifest",
                    self._count_manifest)
        self._patch("repro.store.segments", "SegmentResultCache",
                    "lookup", self._count_hit)
        self._patch("repro.csm.manager", "ConservativeStateManager",
                    "observe", self._count_covered)
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- byte and outcome counters -------------------------------------------
    def _count_read(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def get_bytes(store, digest):
            blob = fn(store, digest)
            counts["store.read_bytes"] += len(blob)
            return blob
        return get_bytes

    def _count_write(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def put_bytes(store, blob):
            counts["store.write_bytes"] += len(blob)
            return fn(store, blob)
        return put_bytes

    def _count_manifest(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def put_manifest(store, name, manifest):
            fn(store, name, manifest)
            counts["store.write_bytes"] += \
                store.manifest_path(name).stat().st_size
        return put_manifest

    def _count_hit(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def lookup(cache, key):
            hit = fn(cache, key)
            counts["store.hits"] += hit is not None
            return hit
        return lookup

    def _count_covered(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def observe(csm, pc, state):
            decision = fn(csm, pc, state)
            counts["csm.covered"] += bool(decision.covered)
            return decision
        return observe

    # -- aggregation ----------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    @classmethod
    def merged(cls, ledgers) -> "Ledger":
        out = cls()
        for ledger in ledgers:
            data = ledger if isinstance(ledger, dict) else ledger.to_dict()
            for field in ("self_s", "calls", "counts"):
                for name, value in data[field].items():
                    getattr(out, field)[name] += value
        return out


def traced_execute_job(store_root, job_id, *args):
    """Service worker entry point for traced rounds: the scheduler's own
    ``_execute_job`` under a ledger, left as
    ``<store>/../ledgers/<job>-<attempt>.json`` with the job's start and
    end wall-clock times."""
    from repro.service import scheduler

    ledger = Ledger().install()
    start = time.time()
    try:
        scheduler._execute_job(store_root, job_id, *args)
    finally:
        end = time.time()
        ledger.uninstall()
        out = Path(store_root).parent / "ledgers"
        out.mkdir(exist_ok=True)
        attempt = args[2]
        (out / f"{job_id}-{attempt}.json").write_text(json.dumps(
            dict(ledger.to_dict(), start=start, end=end)))
