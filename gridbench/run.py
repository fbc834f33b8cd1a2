"""Grid-time benchmark entry point.

    python3 gridbench/run.py --workload grid-serial --seed 1 \\
        --seconds 60 --trace 0

Runs the paper's 18-pair grid on one workload, checks every pair run
against ``gridbench/reference.json`` and prints, as its last line, one
JSON object: ``correct``, ``attempted`` and ``failed`` pair runs, and
the metrics -- the end-to-end ones with ``--trace 0``, the per-layer
ledger with ``--trace 1``.  Lines before it are ``#`` diagnostics: the
host stamp and per-pair medians.  Exit status 0 when every pair run
was correct, 1 when one was not, 2 when the benchmark could not run.

``--smoke`` runs three small pairs instead of the grid (the
benchmark's own tests use it).
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from gridbench import ROOT, SRC, WORK, source_digest  # noqa: E402
from gridbench.pairs import (PAIRS, REFERENCE, SMOKE_PAIRS,  # noqa: E402
                             load_reference, pair_name)

WORKLOADS = ("grid-serial", "service-grid")
#: cold starts sampled per run for ``setup_s`` (the median is reported)
SETUP_SAMPLES = 5

END_TO_END = [("grid_s", "s"), ("warm_grid_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

#: per-layer metrics of the cold phase (the one ``grid_s`` times)
LAYER = [
    ("sim.settle_calls", "count"), ("sim.settle_self_s", "s"),
    ("sim.clock_edge_self_s", "s"), ("sim.snapshot_restore_self_s", "s"),
    ("sim.cycles", "count"), ("sim.net_access_calls", "count"),
    ("harness.drive_self_s", "s"), ("harness.on_edge_self_s", "s"),
    ("memory.xmem_calls", "count"), ("memory.xmem_self_s", "s"),
    ("coanalysis.segments", "count"), ("coanalysis.paths_created", "count"),
    ("coanalysis.segment_loop_self_s", "s"),
    ("coanalysis.kernel_self_s", "s"), ("coanalysis.frontier_self_s", "s"),
    ("csm.observe_calls", "count"), ("csm.observe_self_s", "s"),
    ("csm.covered_ratio", "ratio"),
    ("trace.emit_calls", "count"), ("trace.emit_self_s", "s"),
    ("store.lookup_calls", "count"), ("store.hit_ratio", "ratio"),
    ("store.lookup_self_s", "s"), ("store.read_bytes", "B"),
    ("store.fingerprint_self_s", "s"),
    ("store.write_calls", "count"), ("store.write_bytes", "B"),
    ("store.write_self_s", "s"),
    ("resilience.checkpoint_writes", "count"),
    ("resilience.checkpoint_self_s", "s"),
    ("service.queue_wait_s", "s"), ("service.worker_start_s", "s"),
    ("service.job_run_s", "s"), ("service.worker_busy_ratio", "ratio"),
    ("setup.import_s", "s"), ("setup.build_target_s", "s"),
    ("setup.compile_netlist_s", "s"),
    ("bench.trace_overhead_s", "s"), ("bench.ledger_coverage", "ratio"),
]
#: the warm phase (the one ``warm_grid_s`` times) repeats the ledger
#: under a ``warm.`` prefix; exact counts and set-up are phase-free
_PHASE_FREE = {"sim.cycles", "coanalysis.segments",
               "coanalysis.paths_created", "setup.import_s",
               "setup.build_target_s", "setup.compile_netlist_s"}
PER_LAYER = LAYER + [("warm." + name, unit) for name, unit in LAYER
                     if name not in _PHASE_FREE]


# -- set-up samples -------------------------------------------------------------
class SetupSampler:
    """``SETUP_SAMPLES`` cold starts spread over the measuring window:
    :meth:`tick` takes one when due, :meth:`finish` takes the rest."""

    def __init__(self, mode, store, pairs, seconds):
        self.mode, self.store = mode, store
        self.pairs = ",".join(pair_name(p) for p in pairs)
        start = time.perf_counter()
        self.due = [start + i * seconds / SETUP_SAMPLES
                    for i in range(SETUP_SAMPLES)]
        self.seconds, self.splits = [], []

    def tick(self):
        if self.due and self.due[0] <= time.perf_counter():
            self.due.pop(0)
            self._sample()

    def finish(self):
        while self.due:
            self.due.pop(0)
            self._sample()

    def _sample(self):
        store = self.store
        if self.mode == "service":
            store = WORK / f"setup-{os.getpid()}-{time.monotonic_ns()}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             self.mode, str(store), self.pairs],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        self.seconds.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.wait()
        if self.mode == "service":
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0 or not line:
            raise SystemExit(f"set-up probe failed ({proc.returncode})")
        self.splits.append(json.loads(line))

    def metrics(self):
        out = {"setup_s": statistics.median(self.seconds)}
        for key in ("import_s", "build_target_s", "compile_netlist_s"):
            out["setup." + key] = statistics.median(s[key]
                                                    for s in self.splits)
        return out


# -- ledger -> per-layer metrics -------------------------------------------
def layer_metrics(ledger, busy_s: float, service=None):
    """Per-layer metrics of one phase from its merged ledger.
    ``busy_s`` is what the ledger should account for: the traced grid
    time (worker-seconds on the service)."""
    s, c, n = ledger.self_s, ledger.calls, ledger.counts
    lookups = c["store.lookup"]
    observed = c["csm.observe"]
    out = {
        "sim.settle_calls": c["sim.settle"],
        "sim.settle_self_s": s["sim.settle"],
        "sim.clock_edge_self_s": s["sim.clock_edge"],
        "sim.snapshot_restore_self_s": s["sim.snapshot_restore"],
        "sim.net_access_calls": int(n["sim.net_access"]),
        "harness.drive_self_s": s["harness.drive"],
        "harness.on_edge_self_s": s["harness.on_edge"],
        "memory.xmem_calls": c["memory.xmem"],
        "memory.xmem_self_s": s["memory.xmem"],
        "coanalysis.segment_loop_self_s": s["coanalysis.segment_loop"],
        "coanalysis.kernel_self_s": s["coanalysis.kernel"],
        "coanalysis.frontier_self_s": s["coanalysis.frontier"],
        "csm.observe_calls": observed,
        "csm.observe_self_s": s["csm.observe"],
        "csm.covered_ratio": n["csm.covered"] / observed if observed else 0.0,
        "trace.emit_calls": c["trace.emit"],
        "trace.emit_self_s": s["trace.emit"],
        "store.lookup_calls": lookups,
        "store.hit_ratio": n["store.hits"] / lookups if lookups else 0.0,
        "store.lookup_self_s": s["store.lookup"],
        "store.read_bytes": int(n["store.read_bytes"]),
        "store.fingerprint_self_s": s["store.fingerprint"],
        "store.write_calls": c["store.write"],
        "store.write_bytes": int(n["store.write_bytes"]),
        "store.write_self_s": s["store.write"] + s["store.record"],
        "resilience.checkpoint_writes": c["resilience.checkpoint"],
        "resilience.checkpoint_self_s": (s["resilience.checkpoint"]
                                         + s["resilience.encode"]),
        "bench.ledger_coverage": sum(s.values()) / busy_s,
    }
    for key in ("queue_wait_s", "worker_start_s", "job_run_s",
                "worker_busy_ratio"):
        out["service." + key] = (service or {}).get(key, 0.0)
    return out


def exact_counts(answers):
    """Grid totals of the exact counts (identical on every run)."""
    def total(field):
        return sum(a[field] for a in answers.values())
    return {"coanalysis.paths_created": total("paths_created"),
            "coanalysis.segments": total("segments"),
            "sim.cycles": total("simulated_cycles")}


def phase(prefix, metrics):
    return {prefix + k: v for k, v in metrics.items()}


# -- workloads --------------------------------------------------------------
def primed_store(pairs, smoke):
    """The warm store for this source tree, primed (once per checkout,
    in a separate interpreter) when missing."""
    from repro.store import ContentStore

    root = WORK / f"warm-{source_digest()[:16]}-{'smoke' if smoke else 'grid'}"
    if ContentStore(root).get_manifest("gridbench-primed") is None:
        shutil.rmtree(root, ignore_errors=True)
        partial = root.with_name(root.name + f".{os.getpid()}")
        shutil.rmtree(partial, ignore_errors=True)
        status = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("prime.py")),
             str(partial), ",".join(pair_name(p) for p in pairs)]).returncode
        if status != 0:
            shutil.rmtree(partial, ignore_errors=True)
            raise SystemExit(f"priming the warm store failed ({status})")
        partial.rename(root)
    return root


def grid_serial(pairs, reference, rng, seconds, trace, smoke):
    from repro.store import ContentStore

    from gridbench import inprocess

    root = primed_store(pairs, smoke)
    store = ContentStore(root)
    inprocess.warm_up(pairs, reference, store)
    setup = SetupSampler("serial", root, pairs, seconds)
    setup.tick()
    cold, warm = inprocess.measure(pairs, reference, store, rng, seconds,
                                   trace, setup.tick)
    setup.finish()
    failures = cold.failures + warm.failures
    out = {
        "attempted": cold.attempted + warm.attempted,
        "failures": failures,
        "diag": {"samples_per_pair": {
            "cold": min(len(v) + len(cold.traced[p])
                        for p, v in cold.seconds.items()),
            "warm": min(len(v) + len(warm.traced[p])
                        for p, v in warm.seconds.items())}},
    }
    if failures:
        return out
    out["diag"].update(grid_median_s=cold.median_sum(),
                       warm_grid_median_s=warm.median_sum())
    if not trace:
        out["metrics"] = {
            "grid_s": cold.fastest_of_two_sum(),
            "warm_grid_s": warm.fastest_of_two_sum(),
            "setup_s": setup.metrics()["setup_s"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return out
    metrics = {}
    for prefix, samples in (("", cold), ("warm.", warm)):
        traced_s, ledger = samples.traced_fastest()
        layer = layer_metrics(ledger, traced_s)
        layer["bench.trace_overhead_s"] = traced_s - samples.fastest_sum()
        metrics.update(phase(prefix, layer))
    metrics.update(exact_counts(cold.answers))
    metrics.update({k: v for k, v in setup.metrics().items()
                    if k.startswith("setup.")})
    out["metrics"] = metrics
    return out


def service_grid(pairs, reference, rng, seconds, trace, smoke):
    from gridbench import service_grid as svc

    deadline = time.perf_counter() + seconds
    setup = SetupSampler("service", None, pairs, seconds)
    setup.tick()
    with svc.RssSampler() as rss:
        if trace:
            # one untraced and one traced cycle (cold round plus one warm
            # round each), in seeded order, so the traced run measures
            # its own overhead; it outlasts ``seconds`` (about 80 s on
            # the full grid)
            first = rng.random() < 0.5
            cycles = [(traced, svc.run_cycle(
                reference, pairs, rng, traced, setup.tick,
                lambda rounds: len(rounds) < 2))
                for traced in (first, not first)]
        else:
            cycles = [(False, svc.run_until(reference, pairs, rng,
                                            setup.tick, deadline))]
    svc.stop_resource_tracker()
    setup.finish()
    rounds = [(traced, r) for traced, rs in cycles for r in rs]
    failures = [f for _, r in rounds for f in r.failures]
    out = {"attempted": sum(r.attempted for _, r in rounds),
           "failures": failures,
           "diag": {"rounds": [{"warm": r.warm, "traced": t,
                                "makespan_s": r.makespan}
                               for t, r in rounds]}}
    if failures:
        return out

    def makespan(warm, traced=False):
        """Mean makespan of the cold (or warm) rounds: how many a run
        holds depends on host speed, and a mean, unlike a minimum, does
        not fall as rounds are added."""
        return statistics.mean(r.makespan for t, r in rounds
                               if r.warm == warm and t == traced)
    if not trace:
        out["metrics"] = {"grid_s": makespan(False),
                          "warm_grid_s": makespan(True),
                          "setup_s": setup.metrics()["setup_s"],
                          "peak_rss_mb": rss.peak_kb / 1024}
        return out
    metrics = {}
    for prefix, warm in (("", False), ("warm.", True)):
        rnd = next(r for t, r in rounds if t and r.warm == warm)
        layer = layer_metrics(rnd.ledger, svc.WORKERS * rnd.makespan,
                              rnd.service)
        layer["bench.trace_overhead_s"] = (makespan(warm, True)
                                           - makespan(warm, False))
        metrics.update(phase(prefix, layer))
    metrics.update(exact_counts(rounds[0][1].answers))
    metrics.update({k: v for k, v in setup.metrics().items()
                    if k.startswith("setup.")})
    out["metrics"] = metrics
    return out


# -- host stamp ----------------------------------------------------------------
def host_probe() -> float:
    """A fixed pure-Python loop; diagnostic only, never used to rescale
    a metric (it was measured not to track the pair times)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_stamp():
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "source_sha256": source_digest()}


# -- entry point ---------------------------------------------------------------
def run(workload, seed, seconds, trace, smoke, expected):
    """Measure one workload against the ``expected`` answers; returns
    (result object, diagnostics)."""
    pairs = list(SMOKE_PAIRS if smoke else PAIRS)
    rng = random.Random(seed)
    measure = {"grid-serial": grid_serial,
               "service-grid": service_grid}[workload]
    out = measure(pairs, expected, rng, seconds, trace, smoke)
    failures = out["failures"]
    names = PER_LAYER if trace else END_TO_END
    metrics = out.get("metrics", {})
    result = {
        "correct": not failures and all(n in metrics for n, _ in names),
        "attempted": out["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names if name in metrics},
    }
    return result, dict(out["diag"], failures=failures[:20])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # children (set-up probes, priming, service workers) inherit these:
    # nothing they write leaves the checkout
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "repro-cache")

    try:
        expected = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: reference {REFERENCE}: {exc}", file=sys.stderr)
        return 2
    stamp = host_stamp()
    stamp["probe_before_s"] = host_probe()
    result, diag = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, expected)
    stamp["probe_after_s"] = host_probe()
    print("# host " + json.dumps(stamp))
    print("# diag " + json.dumps(diag))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
