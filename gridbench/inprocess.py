"""In-process grid passes: cold ``run_one(engine="serial")`` and warm
replays ``run_one(cache=<primed store>)`` of every pair, interleaved.

Host time here swings by up to 2.4x within seconds and its mean
drifts by 2x over tens of seconds (co-tenant contention), so one grid
is never a measurement.  Each pair is run again and again across the
run in seeded, shuffled passes; a grid estimate is the sum over pairs
of each pair's expected fastest-of-two verified run (see
:func:`fastest_of_two`), with the sum of per-pair medians kept beside
it as a diagnostic.
"""

import itertools
import statistics
import time
from typing import Callable, Dict, List

from .ledger import Ledger
from .pairs import answer, check

#: warm replays run before each cold run: a warm pass costs about 1/15
#: of a cold one, and its short per-pair runs need more samples
WARM_PER_COLD = 3


def fastest_of_two(seconds: List[float]) -> float:
    """The mean, over every two of ``seconds``, of the faster one.

    It estimates the same thing however many samples there are (the
    expected fastest of two runs), so a run that fitted a third sample
    of some pairs reads no faster than one that did not; a plain
    minimum falls as samples are added.  More samples only make it
    steadier.  With two samples it is their minimum.
    """
    ranked = sorted(seconds)
    k = len(ranked)
    if k < 2:
        raise ValueError("fastest of two needs two samples")
    return (sum(s * (k - 1 - i) for i, s in enumerate(ranked))
            / (k * (k - 1) / 2))


class Samples:
    """Timed runs of one phase: seconds (and, when traced, the ledger)
    of every verified run, per pair."""

    def __init__(self, pairs):
        self.seconds = {pair: [] for pair in pairs}
        self.traced = {pair: [] for pair in pairs}     # (seconds, ledger)
        self.answers = {}
        self.attempted = 0
        self.failures: List[str] = []

    def fastest_sum(self) -> float:
        return sum(min(v) for v in self.seconds.values())

    def fastest_of_two_sum(self) -> float:
        return sum(fastest_of_two(v) for v in self.seconds.values())

    def fewest(self) -> int:
        """Untraced samples of the pair that has fewest."""
        return min(len(v) for v in self.seconds.values())

    def median_sum(self) -> float:
        return sum(statistics.median(v) for v in self.seconds.values())

    def traced_fastest(self):
        """(sum of per-pair fastest traced runs, merged ledger of
        exactly those runs)."""
        best = [min(v, key=lambda s: s[0]) for v in self.traced.values()]
        return (sum(s for s, _ in best),
                Ledger.merged(ledger for _, ledger in best))


def _run_pair(pair, store, expected, samples: Samples, traced: bool,
              warm: bool) -> None:
    """One verified run, recorded in ``samples``."""
    from repro.reporting.runner import run_one

    samples.attempted += 1
    ledger = Ledger().install() if traced else None
    try:
        t0 = time.perf_counter()
        result = run_one(*pair, engine="serial",
                         cache=store if warm else None)
        seconds = time.perf_counter() - t0
    except Exception as exc:          # noqa: BLE001 -- a failed pair
        samples.failures.append(f"{'/'.join(pair)}: "
                                f"{type(exc).__name__}: {exc}")
        return
    finally:
        if ledger is not None:
            ledger.uninstall()
    why = check(result, expected, seconds, warm=warm)
    if why is not None:
        samples.failures.append(f"{'/'.join(pair)}: {why}")
        return
    samples.answers[pair] = answer(result)
    if traced:
        samples.traced[pair].append((seconds, ledger))
    else:
        samples.seconds[pair].append(seconds)


def warm_up(pairs, reference: Dict, store) -> None:
    """Finish lazy set-up before timing: elaborate and compile every
    core, assemble every program, and run the smallest pair of each
    core once cold and once warm."""
    from repro.reporting.runner import run_one
    from repro.workloads import WORKLOADS, build_target

    for pair in pairs:
        build_target(pair[0], WORKLOADS[pair[1]])
    for design in sorted({d for d, _ in pairs}):
        smallest = min((p for p in pairs if p[0] == design),
                       key=lambda p: reference[p]["simulated_cycles"])
        run_one(*smallest, engine="serial")
        run_one(*smallest, engine="serial", cache=store)


def measure(pairs, reference: Dict, store, rng, seconds: float,
            trace: bool, tick: Callable[[], None]):
    """Interleaved cold and warm passes for ``seconds``; returns the
    cold and warm :class:`Samples`.

    Untraced, a run takes at least two passes, so every pair has two
    samples, and then goes on pair by pair until the next pair (its
    warm replays and its cold run, as long as they took last time)
    would end past the deadline.  The estimator does not depend on the
    sample count (:func:`fastest_of_two`), so a run can use all of its
    time; whole passes left 10 to 20 s of it unused.  Traced, passes
    alternate between traced and untraced, so the traced run also
    measures its own overhead, and the run measures whole passes: at
    least two, and another while the last one's length still fits.
    ``tick`` runs between pair runs (the caller's set-up samples).
    """
    cold, warm = Samples(pairs), Samples(pairs)
    deadline = time.perf_counter() + seconds
    first_traced = rng.random() < 0.5
    last_unit_s = {}
    for passes in itertools.count():
        started = time.perf_counter()
        traced = trace and (passes % 2 == 0) == first_traced
        warm_order = iter([p for _ in range(WARM_PER_COLD)
                           for p in rng.sample(pairs, len(pairs))])
        for pair in rng.sample(pairs, len(pairs)):
            unit_start = time.perf_counter()
            if (not trace and cold.fewest() >= 2
                    and unit_start + last_unit_s[pair] > deadline):
                return cold, warm
            for _ in range(WARM_PER_COLD):
                wpair = next(warm_order)
                _run_pair(wpair, store, reference[wpair], warm, traced,
                          True)
                tick()
            _run_pair(pair, None, reference[pair], cold, traced, False)
            last_unit_s[pair] = time.perf_counter() - unit_start
            tick()
            if cold.failures or warm.failures:
                return cold, warm
        now = time.perf_counter()
        if trace and passes >= 1 and now + (now - started) > deadline:
            return cold, warm
