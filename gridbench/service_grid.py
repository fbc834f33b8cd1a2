"""Service rounds: one client keeps 2 jobs outstanding on a
``Scheduler(workers=2)`` until all 18 pairs are done.

A *cycle* is a cold round in a fresh store (dedup on: the workers
simulate and write segments, manifests, checkpoints and traces) then a
warm round on the same store (dedup off: every segment replays).  A
round's time is its makespan, first submission to last terminal job.
"""

import json
import os
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import WORK
from .ledger import Ledger
from .pairs import answer, check, pair_name

WORKERS = 2
#: a round still running after this long fails its unfinished pairs
ROUND_TIMEOUT_S = 120.0


class Round:
    """Makespan, verdicts and (traced) ledger of one round."""

    def __init__(self, warm: bool):
        self.warm = warm
        self.makespan = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.answers = {}
        self.jobs = []
        self.ledger: Optional[Ledger] = None
        self.service: Dict[str, float] = {}


def _run_round(sched, order, reference, warm: bool) -> Round:
    out = Round(warm)
    queue = list(order)
    outstanding, done = {}, []
    t0 = time.perf_counter()
    last = t0
    while queue or outstanding:
        while queue and len(outstanding) < WORKERS:
            pair = queue.pop(0)
            job = sched.submit({"design": pair[0], "benchmark": pair[1],
                                "dedup": not warm})
            outstanding[job.job_id] = pair
            out.attempted += 1
        time.sleep(0.005)
        for job_id in list(outstanding):
            job = sched.get(job_id)
            if job.terminal:
                last = time.perf_counter()
                done.append((outstanding.pop(job_id), job))
        if time.perf_counter() - t0 > ROUND_TIMEOUT_S:
            for job_id, pair in outstanding.items():
                sched.cancel(job_id)
                out.failures.append(f"{pair_name(pair)}: timed out")
            out.failures += [f"{pair_name(p)}: not submitted (round "
                             f"timed out)" for p in queue]
            out.attempted += len(queue)
            break
    out.makespan = last - t0
    for pair, job in done:
        why = f"ended {job.state} {job.error}" if job.state != "DONE" \
            else None
        if why is None:
            result = sched.job_store.load_result(job)
            why = "result unreadable" if result is None else check(
                result, reference[pair], job.finished - job.started,
                warm=warm)
            if why is None:
                out.answers[pair] = answer(result)
        if why is not None:
            out.failures.append(f"{pair_name(pair)}: {why}")
    out.jobs = [job for _, job in done]
    return out


def _service_stats(rnd: Round, ledger_dir: Path) -> None:
    """Fold the workers' ledgers and the jobs' timestamps into the
    round: queue wait (submit to running), worker start (spawn to job
    start), job run time and worker busy ratio."""
    ledgers, starts, runs = [], [], []
    for job in rnd.jobs:
        path = ledger_dir / f"{job.job_id}-{job.attempts}.json"
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        ledgers.append(data)
        starts.append(data["start"] - job.started)
        runs.append(data["end"] - data["start"])
    rnd.ledger = Ledger.merged(ledgers)
    busy = sum(job.finished - job.started for job in rnd.jobs)
    rnd.service = {
        "queue_wait_s": statistics.median(
            job.started - job.created for job in rnd.jobs),
        "worker_start_s": statistics.median(starts) if starts else 0.0,
        "job_run_s": statistics.median(runs) if runs else 0.0,
        "worker_busy_ratio": busy / (WORKERS * rnd.makespan),
    }


def submission_order(pairs, reference, rng):
    """Largest jobs first: pairs in thirds by simulated cycles, seeded
    shuffle within each third.  A random order lets the makespan swing
    by up to one large job (dr5/tHold, about 6 s) with the seed alone."""
    ranked = sorted(pairs, key=lambda p: -reference[p]["simulated_cycles"])
    tier = -(-len(ranked) // 3)
    return [p for i in range(0, len(ranked), tier)
            for p in rng.sample(ranked[i:i + tier], len(ranked[i:i + tier]))]


def run_cycle(reference, pairs, rng, traced: bool, tick,
              another_warm_round: Callable[[List[Round]], bool]):
    """One cold round in a fresh store, then warm rounds on it while
    ``another_warm_round(rounds so far)`` says so.  Returns the
    rounds."""
    from repro.service import Scheduler, SchedulerConfig, scheduler

    root = WORK / f"service-{os.getpid()}-{time.monotonic_ns()}"
    store = root / "store"
    original = scheduler._execute_job
    if traced:
        from .ledger import traced_execute_job
        scheduler._execute_job = traced_execute_job
    rounds = []
    try:
        with Scheduler(store, SchedulerConfig(workers=WORKERS)) as sched:
            rounds.append(_run_round(
                sched, submission_order(pairs, reference, rng), reference,
                warm=False))
            tick()
            while (not any(r.failures for r in rounds)
                   and another_warm_round(rounds)):
                rounds.append(_run_round(
                    sched, submission_order(pairs, reference, rng),
                    reference, warm=True))
                tick()
        if traced:
            for rnd in rounds:
                _service_stats(rnd, root / "ledgers")
    finally:
        scheduler._execute_job = original
        shutil.rmtree(root, ignore_errors=True)
    return rounds


def run_until(reference, pairs, rng, tick, deadline: float) -> List[Round]:
    """Untraced rounds until ``deadline`` (a perf_counter time).

    The first cycle is a cold round and a warm round.  Then, while the
    last cold round's makespan still fits before the deadline, another
    cycle starts in a fresh store; otherwise warm rounds follow while
    the last warm round's makespan fits.  A cold round takes 15 to
    30 s and a warm one 6 to 10 s, so a 60 s run holds one to three
    cold rounds and one to three warm rounds, more cold ones on a quiet
    host.
    """
    done: List[Round] = []

    def fits(warm: bool, cycle: List[Round]) -> bool:
        last = next(r for r in reversed(done + cycle) if r.warm == warm)
        return time.perf_counter() + last.makespan <= deadline

    def another_warm_round(cycle: List[Round]) -> bool:
        if not any(r.warm for r in done + cycle):
            return True
        return fits(True, cycle) and not fits(False, cycle)

    while True:
        done += run_cycle(reference, pairs, rng, False, tick,
                          another_warm_round)
        if any(r.failures for r in done) or not fits(False, []):
            return done


class RssSampler:
    """Peak RSS of this process plus the two largest worker peaks.

    Which jobs overlap depends on the seeded order, so the peak of the
    instantaneous sum swings with the seed; the sum of peaks is the
    memory the client and two workers can need at once.  Worker peaks
    (``VmHWM``) are read every 0.1 s on a background thread.
    """

    def __init__(self):
        self._workers = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @property
    def peak_kb(self) -> int:
        largest = sorted(self._workers.values(), reverse=True)[:WORKERS]
        return _status_kb(os.getpid(), "VmHWM") + sum(largest)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        me = os.getpid()
        while not self._stop.is_set():
            for child in _spawn_children(me):
                self._workers[child] = max(self._workers.get(child, 0),
                                           _status_kb(child, "VmHWM"))
            self._stop.wait(0.1)


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass                           # exited between listing and read
    return 0


def _spawn_children(parent: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            if ppid != parent:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as cmd:
                if b"spawn_main" in cmd.read():
                    out.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return out


def stop_resource_tracker() -> None:
    """Stop and wait for the resource tracker that spawned workers start
    and that would otherwise outlive the run by a moment."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
