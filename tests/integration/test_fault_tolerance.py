"""Integration: interrupted runs converge to the uninterrupted answer.

A checkpointed run killed partway through must resume to the same
exercisable-gate dichotomy as an uninterrupted run -- never a silently
different answer -- on the serial and the batched engine alike, and a
checkpoint must never resume on the wrong engine or pair.

The whole suite re-runs under any frontier scheduling strategy: set
``REPRO_FRONTIER`` (``dfs``/``bfs``/``novelty``) to pin the schedule --
CI runs the dfs and bfs legs -- since interrupt/resume must be
order-independent.  ``REPRO_LANES`` (a multiple of 64) widens the
batched engine's lane planes the same way -- CI runs a 64/128/256
matrix -- since interrupt/resume must be lane-width-independent too.
"""

import os

import pytest

from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.results import ResumeMismatch
from repro.csm.manager import ConservativeStateManager
from repro.reporting.runner import run_one
from repro.workloads import WORKLOADS, build_target

DESIGN, BENCH = "bm32", "Div"

#: frontier scheduling strategy under test (None = engine defaults)
FRONTIER = os.environ.get("REPRO_FRONTIER") or None

#: batched-engine lane width under test (None = engine default of 64)
LANES = int(os.environ["REPRO_LANES"]) if os.environ.get("REPRO_LANES") \
    else None

pytestmark = pytest.mark.timeout(600)


@pytest.fixture(scope="module")
def fault_free():
    """Serial, fault-free reference run (the ground truth)."""
    return run_one(DESIGN, BENCH, use_constraints=False,
                   frontier=FRONTIER or "dfs")


def make_serial(**kw):
    kw.setdefault("frontier", FRONTIER)
    target = build_target(DESIGN, WORKLOADS[BENCH])
    return CoAnalysisEngine(target, csm=ConservativeStateManager(),
                            application=BENCH, **kw)


def make_batch(**kw):
    kw.setdefault("frontier", FRONTIER)
    kw.setdefault("lanes", LANES)
    target = build_target(DESIGN, WORKLOADS[BENCH])
    return CoAnalysisEngine(target, csm=ConservativeStateManager(),
                            application=BENCH, backend="batch", **kw)


class TestInterruptResume:
    def test_serial_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path):
        """A checkpointed run killed partway through and resumed yields
        the same CoAnalysisResult dichotomy as an uninterrupted run."""
        baseline = make_serial().run()

        ckpt = tmp_path / "serial.ckpt"
        seen = [0]
        budget = baseline.simulated_cycles // 2

        def killer(sim, path_id, cycle):
            seen[0] += 1
            if seen[0] > budget:
                raise KeyboardInterrupt

        interrupted = make_serial(checkpoint=str(ckpt),
                                  cycle_observer=killer)
        interrupted.checkpoint.every_segments = 4
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()
        assert ckpt.exists()

        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.resumed
        assert any(e.kind == "resume" for e in resumed.journal)
        assert resumed.profile.exercisable_gates() == \
            baseline.profile.exercisable_gates()
        assert resumed.paths_created == baseline.paths_created
        assert resumed.paths_skipped == baseline.paths_skipped
        assert resumed.simulated_cycles == baseline.simulated_cycles
        assert len(resumed.path_records) == len(baseline.path_records)

    def test_batch_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path, fault_free):
        """The lane-parallel batched engine honors the same checkpoint
        contract: a ^C mid-wave flushes a final checkpoint, and the
        resumed run converges to the fault-free serial dichotomy."""
        ckpt = tmp_path / "batch.ckpt"
        seen = [0]
        budget = fault_free.simulated_cycles // 2

        def killer(sim, path_id, cycle):
            seen[0] += 1
            if seen[0] > budget:
                raise KeyboardInterrupt

        interrupted = make_batch(checkpoint=str(ckpt),
                                 cycle_observer=killer)
        interrupted.checkpoint.every_segments = 4
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()
        assert ckpt.exists()

        resumed = make_batch(checkpoint=str(ckpt), resume=True).run()
        assert resumed.resumed
        assert any(e.kind == "resume" for e in resumed.journal)
        assert resumed.profile.exercisable_gates() == \
            fault_free.profile.exercisable_gates()
        assert resumed.paths_created == fault_free.paths_created
        assert resumed.paths_skipped == fault_free.paths_skipped

    def test_batch_checkpoint_rejected_by_other_engines(self, tmp_path):
        """Engine kinds are part of the checkpoint identity: a batch
        checkpoint must not silently resume on the serial engine."""
        ckpt = tmp_path / "batch_only.ckpt"
        make_batch(checkpoint=str(ckpt)).run()
        with pytest.raises(ResumeMismatch):
            make_serial(checkpoint=str(ckpt), resume=True).run()

    def test_resume_from_finished_run_is_instant(self, tmp_path):
        ckpt = tmp_path / "done.ckpt"
        first = make_serial(checkpoint=str(ckpt)).run()
        again = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert again.resumed
        assert again.simulated_cycles == first.simulated_cycles
        assert again.profile.exercisable_gates() == \
            first.profile.exercisable_gates()

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        ckpt = tmp_path / "other.ckpt"
        other = build_target(DESIGN, WORKLOADS["mult"])
        CoAnalysisEngine(other, csm=ConservativeStateManager(),
                         application="mult", checkpoint=str(ckpt)).run()
        with pytest.raises(ResumeMismatch):
            make_serial(checkpoint=str(ckpt), resume=True).run()

    def test_resume_without_record_starts_fresh(self, tmp_path):
        ckpt = tmp_path / "fresh.ckpt"
        result = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert not result.resumed
        assert result.paths_created >= 1
