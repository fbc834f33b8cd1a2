"""The benchmark's own tests: output contract, reference checks, and
that the ledger and the grid time see a delay injected into one layer.

    python3 -m pytest gridbench/tests -q
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from gridbench import run  # noqa: E402
from gridbench.pairs import (REFERENCE, SMOKE_PAIRS,  # noqa: E402
                             load_reference, pair_name)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "gridbench" / "run.py"), "--smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    status, result = _bench("--workload", workload, "--seed", "7",
                            "--trace", str(trace))
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SMOKE_PAIRS)
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_what_run_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOADS)


def test_fastest_of_two_does_not_fall_as_samples_are_added():
    from gridbench.inprocess import fastest_of_two

    assert fastest_of_two([3.0, 2.0]) == 2.0
    # pairs of {1, 2, 3}: min(1,2) + min(1,3) + min(2,3) over 3
    assert fastest_of_two([2.0, 3.0, 1.0]) == pytest.approx(4 / 3)
    # drawn from one distribution, more samples keep the same mean
    rng = random.Random(5)
    draws = [[rng.expovariate(1.0) for _ in range(k)] for k in (2, 6)
             for _ in range(4000)]
    two = statistics.mean(fastest_of_two(d) for d in draws[:4000])
    six = statistics.mean(fastest_of_two(d) for d in draws[4000:])
    assert six == pytest.approx(two, rel=0.05)
    with pytest.raises(ValueError):
        fastest_of_two([1.0])


@pytest.mark.parametrize("field,change", [
    ("exercisable_gates", lambda v: v + 1),
    ("exercisable_sha256", lambda v: "0" * 64),     # another dichotomy
    ("segments", lambda v: v - 1),
])
def test_a_wrong_reference_fails_the_run(field, change):
    reference = load_reference()
    pair = SMOKE_PAIRS[0]
    reference[pair] = dict(reference[pair],
                           **{field: change(reference[pair][field])})
    result, diag = run.run("grid-serial", 1, 1.0, False, True, reference)
    assert not result["correct"] and result["failed"] >= 1
    assert any(f.startswith(pair_name(pair)) for f in diag["failures"])


def test_an_incomplete_reference_is_refused(tmp_path):
    raw = json.loads(REFERENCE.read_text())
    del raw["pairs"][pair_name(SMOKE_PAIRS[-1])]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=pair_name(SMOKE_PAIRS[-1])):
        load_reference(bad)


def test_without_the_program_the_benchmark_exits_without_a_result(
        tmp_path):
    bare = tmp_path / "bare"
    (bare / "gridbench").mkdir(parents=True)
    for path in (ROOT / "gridbench").glob("*.py"):
        (bare / "gridbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "gridbench/run.py", "--workload", "grid-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_lookup_delay_shows_in_the_ledger_and_in_warm_grid_time():
    """A fixed delay injected from outside into
    ``SegmentResultCache.lookup`` must grow ``warm.store.lookup_self_s``
    and ``warm_grid_s`` by about lookups x delay, and leave the lookup
    count alone."""
    from repro.store.segments import SegmentResultCache

    delay = 0.01
    reference = load_reference()
    pairs = list(SMOKE_PAIRS)

    def measure(trace):
        return run.grid_serial(pairs, reference, random.Random(3), 1.0,
                               trace, smoke=True)["metrics"]

    base, base_traced = measure(False), measure(True)
    original = SegmentResultCache.lookup

    def slow_lookup(cache, key):
        time.sleep(delay)
        return original(cache, key)

    SegmentResultCache.lookup = slow_lookup
    try:
        slow, slow_traced = measure(False), measure(True)
    finally:
        SegmentResultCache.lookup = original

    lookups = base_traced["warm.store.lookup_calls"]
    assert lookups == slow_traced["warm.store.lookup_calls"] > 0
    injected = lookups * delay
    grew_ledger = (slow_traced["warm.store.lookup_self_s"]
                   - base_traced["warm.store.lookup_self_s"])
    grew_grid = slow["warm_grid_s"] - base["warm_grid_s"]
    assert 0.8 * injected < grew_ledger < 1.3 * injected
    assert 0.6 * injected < grew_grid < 1.6 * injected
