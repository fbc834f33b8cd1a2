"""Chaos soak: a service job whose workers keep getting killed still
converges to the direct answer.

This is the CI chaos job's payload.  A seeded schedule sends SIGTERM or
SIGKILL to the running :class:`~repro.service.Scheduler` worker of a
sharded bm32 job.  SIGTERM must end the job as a checkpointed PARTIAL
(the governor's cooperative stop); a SIGKILL is retried against the
checkpoint, and once the retry budget is spent the job also ends
PARTIAL (``worker_lost``).  Each PARTIAL is resubmitted with
``resume_from`` until the job is DONE, and the converged exercisable
set must equal a direct :func:`~repro.reporting.runner.run_one`.

Set ``REPRO_CHAOS_ARTIFACTS`` to a directory to keep every launch's
JSONL trace and checkpoint journal for upload (CI does); otherwise they
live in pytest's tmp_path and vanish with it.
"""

import os
import shutil
import signal
import time
from pathlib import Path
from random import Random

import pytest

from repro.reporting.runner import run_one
from repro.service import Scheduler, SchedulerConfig

from .test_governor_signals import _signal_running_worker

DESIGN, BENCH = "bm32", "Div"

#: sharded so every launch dispatches several workers and checkpoints
#: early: a signal always has a live, checkpointed worker to land on
SPEC = {"design": DESIGN, "benchmark": BENCH, "use_constraints": False,
        "shard_segments": 10}

pytestmark = pytest.mark.timeout(600)

#: launches that get signalled; the one after them runs undisturbed
CHAOS_LAUNCHES = 2

#: chaos kinds: (signal, deliveries); ``None`` signals each new worker
#: of the job until it settles, so the launch ends PARTIAL even when a
#: signal lands too early to count (before the governor is installed)
CHAOS = {"sigterm": (signal.SIGTERM, None),
         "sigkill": (signal.SIGKILL, 1),
         "sigkill-until-lost": (signal.SIGKILL, None)}


@pytest.fixture(scope="module")
def baseline():
    return run_one(DESIGN, BENCH, use_constraints=False)


def await_exit(sched, job_id, timeout=120.0):
    """Wait until the job's signalled worker process has exited."""
    entry = sched._running.get(job_id)
    deadline = time.monotonic() + timeout
    while entry is not None and entry.proc.is_alive():
        assert time.monotonic() < deadline, "signalled worker never exited"
        time.sleep(0.02)


def artifact_dir(tmp_path: Path) -> Path:
    override = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


@pytest.mark.parametrize("seed", [7, 2022])
def test_chaos_soak_completes_or_resumes(seed, tmp_path, baseline):
    rng = Random(seed)
    outdir = artifact_dir(tmp_path)
    landed = []
    with Scheduler(tmp_path / "store",
                   SchedulerConfig(workers=2, max_retries=1)) as sched:
        job = sched.submit(dict(SPEC))
        for launch in range(CHAOS_LAUNCHES + 1):
            if launch < CHAOS_LAUNCHES:
                # the first launch always ends PARTIAL, so the resume
                # path runs; later ones may also lose a worker the
                # retry absorbs
                chaos = rng.choice(("sigterm", "sigkill-until-lost")
                                   + (("sigkill",) if launch else ()))
                signum, times = CHAOS[chaos]
                while times is None or times > 0:
                    if not _signal_running_worker(sched, job.job_id, signum,
                                                  require_checkpoint=True):
                        break
                    landed.append(chaos)
                    times = None if times is None else times - 1
                    await_exit(sched, job.job_id)
            settled = sched.wait(job.job_id, timeout=300)
            for name in ("trace", "checkpoint"):
                path = getattr(sched.job_store, f"{name}_path")(job.job_id)
                if path.is_file():
                    shutil.copyfile(path, outdir / f"chaos_{seed}_launch"
                                    f"{launch}.{name}")
            if settled.state == "DONE":
                break
            # the operational invariant: a killed job is resumable
            assert settled.state == "PARTIAL", (settled.state,
                                                settled.error)
            assert settled.stop_reason in ("interrupted", "worker_lost")
            assert sched.job_store.checkpoint_path(job.job_id).is_file()
            job = sched.submit({**SPEC, "resume_from": job.job_id})
        assert settled.state == "DONE", \
            f"soak did not converge within {CHAOS_LAUNCHES + 1} launches"
        assert launch >= 1, f"no launch ended PARTIAL ({landed})"
        result = sched.job_store.load_result(settled)

    assert result.complete
    assert result.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    assert result.paths_created == baseline.paths_created
