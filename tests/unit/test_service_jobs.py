"""The job model: spec validation, the state machine, persistence."""

import pytest

from repro.service.jobs import (JOB_STATES, TERMINAL_STATES, Job, JobSpec,
                                JobSpecError, JobStateError, JobStore,
                                UnknownJob)
from repro.store import ContentStore

FP = "f" * 64


def make_spec(**overrides) -> JobSpec:
    base = {"design": "dr5", "benchmark": "mult"}
    base.update(overrides)
    return JobSpec.from_dict(base)


# -- spec validation ----------------------------------------------------------
def test_spec_defaults():
    spec = make_spec()
    assert spec.csm == "uber"
    assert spec.engine == "serial"
    assert spec.frontier == "dfs"
    assert spec.dedup is True


def test_spec_rejects_unknown_fields():
    with pytest.raises(JobSpecError, match="unknown spec field"):
        JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                           "colour": "blue"})


def test_spec_rejects_non_dict():
    with pytest.raises(JobSpecError, match="JSON object"):
        JobSpec.from_dict(["dr5", "mult"])


@pytest.mark.parametrize("field,value", [
    ("design", "z80"),
    ("benchmark", "nosuch"),
    ("csm", "psychic"),
    ("engine", "quantum"),
    ("frontier", "lifo"),
])
def test_spec_rejects_unknown_choices(field, value):
    with pytest.raises(JobSpecError):
        make_spec(**{field: value})


def test_spec_engine_default_mirrors_run_one():
    # engine left blank resolves exactly as run_one would, so equal
    # submissions fingerprint equally however they spell the default
    assert JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                              "engine": None}).engine == "serial"
    # the pool engine that ``workers > 1`` used to select is gone
    with pytest.raises(JobSpecError, match="parallel pool engine"):
        JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                           "engine": None, "workers": 4})


def test_spec_accepts_legacy_workers_key():
    # job manifests written while the spec had a ``workers`` field
    # store ``"workers": 1``; they load as the same spec
    legacy = JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                                "workers": 1})
    assert legacy == make_spec()
    assert "workers" not in legacy.to_dict()


def test_spec_lanes_requires_batch_engine():
    with pytest.raises(JobSpecError, match="batch"):
        make_spec(lanes=64)
    with pytest.raises(JobSpecError, match="multiple"):
        make_spec(engine="batch", lanes=65)
    assert make_spec(engine="batch", lanes=128).lanes == 128


@pytest.mark.parametrize("field", ["deadline_seconds", "max_rss_mb",
                                   "max_frontier", "max_segments",
                                   "shard_segments"])
def test_spec_budgets_must_be_positive(field):
    with pytest.raises(JobSpecError, match="positive"):
        make_spec(**{field: 0})


def test_spec_budget_none_when_unlimited():
    assert make_spec().budget() is None
    budget = make_spec(max_segments=5).budget()
    assert budget is not None and budget.max_segments == 5


def test_dedup_key_separates_budget_envelopes():
    # identical run, different budgets: coalescing one onto the other
    # would hand a capped PARTIAL to an uncapped submission
    plain, capped = make_spec(), make_spec(deadline_seconds=1.0)
    assert plain.fingerprint_key() == capped.fingerprint_key()
    assert plain.dedup_key() != capped.dedup_key()


def test_spec_round_trips_through_dict():
    spec = make_spec(engine="batch", lanes=64, max_segments=9,
                     submitter="alice", dedup=False)
    assert JobSpec.from_dict(spec.to_dict()) == spec


# -- the state machine --------------------------------------------------------
def test_new_job_is_queued_with_id_and_timestamp():
    job = Job.new(make_spec(), FP)
    assert job.state == "QUEUED" and not job.terminal
    assert len(job.job_id) == 12 and job.created > 0


def test_legal_lifecycle_stamps_timestamps():
    job = Job.new(make_spec(), FP)
    job.advance("RUNNING")
    assert job.started is not None and job.finished is None
    job.advance("DONE")
    assert job.terminal and job.finished is not None


def test_running_can_requeue_for_retry_or_shard():
    job = Job.new(make_spec(), FP)
    job.advance("RUNNING")
    job.advance("QUEUED")
    assert job.state == "QUEUED"


@pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
def test_terminal_states_are_absorbing(terminal):
    job = Job.new(make_spec(), FP)
    job.advance(terminal)
    for state in JOB_STATES:
        with pytest.raises(JobStateError, match="illegal transition"):
            job.advance(state)


def test_advance_rejects_unknown_state():
    with pytest.raises(JobStateError, match="unknown job state"):
        Job.new(make_spec(), FP).advance("SLEEPING")


def test_queued_cannot_reenter_queued():
    with pytest.raises(JobStateError):
        Job.new(make_spec(), FP).advance("QUEUED")


# -- persistence --------------------------------------------------------------
def test_manifest_round_trip(tmp_path):
    job = Job.new(make_spec(max_segments=7, submitter="bob"), FP)
    job.advance("RUNNING")
    job.attempts, job.retries, job.shards = 3, 1, 2
    job.stop_reason, job.pending_paths = "segments", 4
    job.summary = {"paths_created": 9}
    job.metrics = {"cache_hits": 5}
    job.artifacts = {"checkpoint": "a" * 64}
    clone = Job.from_manifest(job.to_manifest())
    assert clone.to_manifest() == job.to_manifest()
    assert clone.spec == job.spec


def test_job_store_save_load_list(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    first, second = Job.new(make_spec(), FP), Job.new(make_spec(), FP)
    second.created = first.created + 1
    store.save(first)
    store.save(second)
    assert store.load(first.job_id).job_id == first.job_id
    assert [j.job_id for j in store.list_jobs()] \
        == [first.job_id, second.job_id]


def test_job_store_unknown_job(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    with pytest.raises(UnknownJob):
        store.load("nosuchjob0000")


def test_job_store_skips_foreign_manifests(tmp_path):
    content = ContentStore(tmp_path / "store")
    store = JobStore(content)
    content.put_manifest("job-rogue", {"kind": "other"})
    content.put_manifest("run-abc", {"kind": "run"})
    job = Job.new(make_spec(), FP)
    store.save(job)
    assert [j.job_id for j in store.list_jobs()] == [job.job_id]


def test_job_paths_live_under_store_root(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    job_dir = store.job_dir("abc")
    assert store.checkpoint_path("abc").parent == job_dir
    assert store.trace_path("abc").parent == job_dir
    assert (tmp_path / "store") in job_dir.parents
