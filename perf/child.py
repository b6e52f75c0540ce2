"""One repetition of one workload, in a fresh process.

``run.py`` starts one of these per repetition; it prints one JSON
object as its last line of standard output::

    PYTHONPATH=src python perf/child.py --workload serve_via --seed 17

``wall_s`` runs from just before ``import repro`` to a verified result;
``run_s`` is the time inside ``Simulator.run``, taken by a thin wrapper
that also reads the kernel's public counters.  ``--trace`` installs the
per-layer ledger (``layers.py``) and a trace-point subscription first.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
import weakref
from collections import Counter


class RunClock:
    """Thin wrapper on ``Simulator.run``: host time inside the kernel
    loop, plus the public kernel counters of every simulator run."""

    _COUNTERS = ("events_processed", "pool_hits", "compactions")

    def __init__(self, simulator_cls) -> None:
        self.run_s = 0.0
        self.heap_peak = 0
        self.totals = dict.fromkeys(self._COUNTERS, 0)
        self._seen = weakref.WeakKeyDictionary()
        self._depth = 0
        inner = simulator_cls.run
        clock = self

        def run(sim, *args, **kwargs):
            if clock._depth:
                return inner(sim, *args, **kwargs)
            clock._depth = 1
            t0 = time.perf_counter()
            try:
                return inner(sim, *args, **kwargs)
            finally:
                clock.run_s += time.perf_counter() - t0
                clock._depth = 0
                clock._observe(sim)

        simulator_cls.run = run

    def _observe(self, sim) -> None:
        # Counters are cumulative per simulator; add what grew since this
        # simulator was last seen, without keeping it alive.
        last = self._seen.get(sim, dict.fromkeys(self._COUNTERS, 0))
        now = {name: getattr(sim, name) for name in self._COUNTERS}
        for name in self._COUNTERS:
            self.totals[name] += now[name] - last[name]
        self._seen[sim] = now
        self.heap_peak = max(self.heap_peak, sim.heap_peak)


def measure(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    t0 = time.perf_counter()
    import workloads
    from repro.sim import Simulator, Tracer, simulation_mode
    from repro.sim.trace import tracing

    ledger = None
    counts: Counter = Counter()
    scope = contextlib.nullcontext()
    if trace:
        import layers

        ledger = layers.install([workloads])
        tracer = Tracer()

        def count(record):
            counts[record.kind] += 1

        tracer.subscribe("", count)
        scope = tracing(tracer, record=False)
    clock = RunClock(Simulator)

    t_workload = time.perf_counter()
    with simulation_mode("packet"), scope:
        outcome = workloads.run_workload(workload, seed, tiny)
    workload_s = time.perf_counter() - t_workload
    wall_s = time.perf_counter() - t0

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "tiny": tiny,
        "wall_s": wall_s,
        "run_s": clock.run_s,
        "setup_s": wall_s - clock.run_s,
        "workload_s": workload_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": clock.totals["events_processed"],
        "pool_hits": clock.totals["pool_hits"],
        "compactions": clock.totals["compactions"],
        "heap_peak": clock.heap_peak,
    }
    record.update(vars(outcome))
    if ledger is not None:
        record["layers"] = ledger.by_layer()
        record["entries"] = ledger.by_entry()
        record["counts"] = dict(counts)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.trace, args.tiny)
    except Exception:  # the parent counts the repetition as failed
        print(json.dumps({"error": traceback.format_exc(limit=8)}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
