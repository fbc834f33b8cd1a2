"""Regression: checkpoints written by the pre-codec engines still resume.

Before the kernel extraction the serial engine had a private checkpoint
payload shape; those journals exist on disk in the wild, so
:func:`decode_run_payload` must keep upgrading them.  This test
manufactures a faithful old-format journal by down-converting a real v2
payload to the legacy serial shape, then resumes it through the new
kernel and checks the run completes with the same answer as an
uninterrupted one.
"""

from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.executors import SerialExecutor
from repro.coanalysis.kernel import ExplorationKernel
from repro.coanalysis.results import PartialResult
from repro.reporting.runner import run_one
from repro.resilience.checkpoint import Checkpointer, load_checkpoint
from repro.resilience.governor import RunBudget
from repro.workloads import WORKLOADS, build_target


def test_precodec_serial_journal_resumes(tmp_path):
    # stop a real run mid-exploration to get a live v2 payload
    target = build_target("dr5", WORKLOADS["mult"])
    ck = Checkpointer(tmp_path / "v2.ckpt", every_segments=1)
    kernel = ExplorationKernel(SerialExecutor(target), application="mult",
                               checkpoint=ck,
                               budget=RunBudget(max_segments=2))
    assert isinstance(kernel.run(), PartialResult)
    v2 = load_checkpoint(ck.path)
    assert v2["codec"] == 2
    assert v2["frontier"]          # paths were actually pending

    # down-convert to the exact shape the pre-codec serial engine wrote
    legacy = {
        "engine": "serial",
        "design": v2["design"],
        "application": v2["application"],
        "stack": [(blob, forced, depth, parent)
                  for blob, forced, depth, parent, _ in v2["frontier"]],
        "csm": v2["csm"],
        "activity": {k: v for k, v in v2["activity"].items()
                     if k != "repr"},
        "counters": {k: v for k, v in v2["counters"].items()
                     if k != "batches_done"},
        "path_records": v2["path_records"],
        "per_path_exercised": v2["per_path_exercised"],
        "journal": v2["journal"],
    }
    legacy_path = tmp_path / "legacy.ckpt"
    Checkpointer(legacy_path).write(legacy, progress=0)

    resumed = CoAnalysisEngine(
        build_target("dr5", WORKLOADS["mult"]), application="mult",
        checkpoint=str(legacy_path), resume=True).run()
    assert resumed.resumed

    baseline = run_one("dr5", "mult")
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    # the DFS schedule is deterministic, so the resumed run replays the
    # tail of the same exploration
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


def test_quarantine_era_v2_journal_resumes(tmp_path):
    """A v2 journal written while the kernel had poison-segment
    quarantine carries a ``quarantine`` snapshot and a
    ``quarantined_paths`` counter; it resumes to the uninterrupted
    answer without a codec bump."""
    ck = Checkpointer(tmp_path / "v2.ckpt", every_segments=1)
    partial = ExplorationKernel(
        SerialExecutor(build_target("dr5", WORKLOADS["mult"])),
        application="mult", checkpoint=ck,
        budget=RunBudget(max_segments=2)).run()
    assert isinstance(partial, PartialResult)
    payload = load_checkpoint(ck.path)
    payload["quarantine"] = {"threshold": 3, "records": []}
    payload["counters"]["quarantined_paths"] = 0
    old_path = tmp_path / "quarantine_era.ckpt"
    Checkpointer(old_path).write(payload, progress=0)

    resumed = CoAnalysisEngine(
        build_target("dr5", WORKLOADS["mult"]), application="mult",
        checkpoint=str(old_path), resume=True).run()
    assert resumed.complete and resumed.resumed
    assert not hasattr(resumed, "quarantined_paths")
    baseline = run_one("dr5", "mult")
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    assert resumed.simulated_cycles == baseline.simulated_cycles
