"""Host-performance benchmark of the simulator: where the host's time goes.

Usage (from the repository root)::

    python3 perf/run.py --seed 17                  # every workload, 7 rounds
    python3 perf/run.py --workload serve_via --seed 3 --seconds 25 --trace 0
    python3 perf/run.py --trace                    # + one traced repetition each
    python3 perf/run.py --sets 2                   # A/B self-check of the bounds

Each repetition is a fresh child process (``child.py``) and children run
one at a time, so the load is one process on at most one core.  After one
warm-up repetition per workload (the tiny configuration: it compiles the
bytecode and fills the file cache), rounds run round-robin across the
workloads so host drift hits each of them alike.  Without ``--seconds``
there are seven rounds per set; with it, rounds go on until the next
would overrun it, but never fewer than three.  ``--trace`` adds one
traced repetition per workload, measured apart from the end-to-end
medians.

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root.  The program prints every metric by name with its
unit, writes ``perf/results/<stamp>.json`` (and ``<stamp>.trace.json``),
and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with ``--trace`` the per-layer ones.  It exits non-zero when an output is
wrong, when ``--sets 2`` finds a bound breached, or, without printing a
result, when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from hostref import host_ref_s
from layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
SRC = ROOT / "src"
RESULTS = PERF / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = PERF / "expected.json"

#: The seed whose digests ``expected.json`` pins.
DEFAULT_SEED = 17
DEFAULT_ROUNDS = 7
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

#: Per-layer trace-point counts: metric -> trace kind (or kind prefix).
TRACE_COUNTS = {
    "cluster.frames": "cluster.link",
    "tcp.segments": "tcp.segment",
    "via.doorbells": "via.doorbell",
    "via.credits": "via.credit",
    "sockets.sends": "sockets.send",
    "sockets.recvs": "sockets.recv",
    "datacutter.uows": "datacutter.uow",
    "faults.events": "faults.",
}
#: Per-operation host cost: metric -> (layer, count metric).
PER_OP = {
    "cluster.us_per_frame": ("cluster", "cluster.frames"),
    "sockets.us_per_msg": ("sockets", "sockets.sends"),
    "tcp.us_per_segment": ("tcp", "tcp.segments"),
    "via.us_per_doorbell": ("via", "via.doorbells"),
}


# -- children ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The parent's environment without any ``REPRO_*`` knob, so every
    child runs the library's defaults: no result cache, one job."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool = False,
              tiny: bool = False) -> dict:
    """One repetition in a fresh process; its record, or ``{"error"}``."""
    cmd = [sys.executable, str(PERF / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += ["--tiny"] if tiny else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = {"error": proc.stderr.strip()[-2000:] or "no output"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"exit code {proc.returncode}"
    return record


def measure(names: List[str], seed: int, seconds: Optional[float],
            sets: int, trace: bool):
    """Warm up, then run rounds alternating between *sets*.

    Returns ``(runs, traced, host_ref)``: ``runs[set][workload]`` is the
    list of child records, ``traced[workload]`` the traced record."""
    for name in names:
        run_child(name, seed, tiny=True)
    runs = [{name: [] for name in names} for _ in range(sets)]
    host_ref: List[float] = []
    start = time.monotonic()
    cycles = 0
    while True:
        for per_set in runs:
            host_ref.append(host_ref_s())
            for name in names:
                per_set[name].append(run_child(name, seed))
        cycles += 1
        elapsed = time.monotonic() - start
        if seconds is None:
            if cycles >= DEFAULT_ROUNDS:
                break
        elif cycles >= MIN_ROUNDS and elapsed * (cycles + 1) / cycles > seconds:
            break
    traced = {name: run_child(name, seed, trace=True)
              for name in names} if trace else {}
    return runs, traced, host_ref


# -- checks ------------------------------------------------------------------------


def check_digests(records: List[dict], expected: Optional[str]) -> None:
    """Fail every record whose digest differs from the reference: the
    pinned digest when there is one, else the most common digest."""
    digests = [r["digest"] for r in records if "error" not in r]
    if not digests:
        return
    reference = expected or Counter(digests).most_common(1)[0][0]
    for r in records:
        if "error" not in r and r["digest"] != reference:
            r["error"] = f"digest {r['digest'][:16]} != {reference[:16]}"


def tally(records: List[dict]):
    """``(attempted, failed)`` operations; one operation is one scenario
    run, and a failed repetition fails all of its scenarios."""
    per_rep = next((r["scenarios"] for r in records if "scenarios" in r), 1)
    attempted = sum(r.get("scenarios", per_rep) for r in records)
    failed = sum(r.get("scenarios", per_rep) for r in records if "error" in r)
    return attempted, failed


# -- metrics -----------------------------------------------------------------------


def e2e_values(record: dict) -> Dict[str, float]:
    return {
        "wall_s": record["wall_s"],
        "setup_s": record["setup_s"],
        "ops_per_s": record["ops"] / record["run_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def layer_values(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: self time and counts from the traced record,
    kernel counters and the tracing baseline from the untraced ones."""
    layers = traced["layers"]
    total_s = sum(v["self_s"] for v in layers.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layers[layer]["calls"]
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
        out[f"{layer}.share"] = layers[layer]["self_s"] / total_s
    run_s = statistics.median(r["run_s"] for r in untraced)
    events = statistics.median(r["events"] for r in untraced)
    out["sim.events"] = events
    out["sim.events_per_s"] = events / run_s
    out["sim.heap_peak"] = statistics.median(r["heap_peak"] for r in untraced)
    out["sim.pool_hits"] = statistics.median(r["pool_hits"] for r in untraced)
    out["sim.compactions"] = statistics.median(
        r["compactions"] for r in untraced)
    out["sim.us_per_event"] = run_s * 1e6 / events
    counts = traced["counts"]
    for metric, kind in TRACE_COUNTS.items():
        if kind.endswith("."):
            out[metric] = sum(n for k, n in counts.items()
                              if k.startswith(kind))
        else:
            out[metric] = counts.get(kind, 0)
    for metric, (layer, count) in PER_OP.items():
        n = out[count]
        out[metric] = layers[layer]["self_s"] * 1e6 / n if n else 0.0
    out["datacutter.useful_ratio"] = (
        traced["completed"] / traced["dispatched"] if traced["dispatched"]
        else 0.0)
    out["apps.admit_ratio"] = (
        traced["admitted"] / traced["offered"] if traced["offered"] else 0.0)
    out["trace.overhead"] = traced["run_s"] / run_s
    return out


def summarize(values: List[float]) -> Dict[str, float]:
    s = sorted(values)
    q1, _, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
    return {"median": statistics.median(s), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "min": s[0], "max": s[-1], "n": len(s)}


def e2e_summaries(records: List[dict]) -> Dict[str, dict]:
    values = [e2e_values(r) for r in records if "error" not in r]
    return {m: summarize([v[m] for v in values]) for m in values[0]}


# -- reporting ---------------------------------------------------------------------


def git_sha() -> str:
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def compare_sets(runs, names, e2e_spec) -> int:
    """Print each metric's set-B/set-A median ratio against its bound;
    return how many (workload, metric) pairs breach it either way."""
    breaches = 0
    for name in names:
        a = e2e_summaries(runs[0][name])
        b = e2e_summaries(runs[1][name])
        for metric, spec in e2e_spec.items():
            ratio = b[metric]["median"] / a[metric]["median"]
            breach = max(ratio, 1 / ratio) - 1 > spec["bound"]
            breaches += breach
            print(f"sets {name:<15} {metric:<12} "
                  f"A {a[metric]['median']:.6g} (IQR {a[metric]['iqr']:.3g}) "
                  f"B {b[metric]['median']:.6g} (IQR {b[metric]['iqr']:.3g}) "
                  f"B/A {ratio:.4f} bound {spec['bound']:.2f} "
                  f"{'BREACH' if breach else 'ok'}")
    return breaches


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m for m in spec["per_layer"]}

    parser = argparse.ArgumentParser(
        description="Host-performance benchmark of the simulator.")
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long (at least three "
                             "rounds) instead of seven rounds")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="2: alternate sets A/B by round and check "
                             "their medians against the bounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced repetition per workload and "
                             "report the per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: library source not found under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else workload_names
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    runs, traced, host_ref = measure(names, args.seed, args.seconds,
                                     args.sets, bool(args.trace))

    expected = (json.loads(EXPECTED_PATH.read_text())
                if args.seed == DEFAULT_SEED else {})
    attempted = failed = 0
    report: Dict[str, dict] = {}
    for name in names:
        records = [r for per_set in runs for r in per_set[name]]
        checked = records + ([traced[name]] if traced else [])
        check_digests(checked, expected.get(name))
        n_attempted, n_failed = tally(checked)
        attempted += n_attempted
        failed += n_failed
        ok = [r for r in records if "error" not in r]
        if not ok or (traced and "error" in traced[name]):
            error = next(r["error"] for r in checked if "error" in r)
            print(f"perf: {name} produced no result:\n{error}",
                  file=sys.stderr)
            return 1
        entry = {"e2e": e2e_summaries(ok),
                 "errors": [r["error"] for r in records if "error" in r]}
        if traced:
            entry["layers"] = layer_values(traced[name], ok)
        report[name] = entry

    print(f"perf: seed {args.seed}, {len(runs[0][names[0]])} round(s) x "
          f"{args.sets} set(s), nproc {nproc()}, python "
          f"{platform.python_version()}")
    for name in names:
        for metric, s in report[name]["e2e"].items():
            print(f"{name:<15} {metric:<24} {s['median']:>14.6g} "
                  f"{e2e_spec[metric]['unit']:<8} IQR {s['iqr']:.4g}  "
                  f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
        for metric, value in report[name].get("layers", {}).items():
            print(f"{name:<15} {metric:<24} {value:>14.6g} "
                  f"{layer_spec[metric]['unit']}")
    ref = summarize(host_ref)
    print(f"host_ref_s {ref['median']:.6g} s (IQR {ref['iqr']:.3g}, "
          f"n={ref['n']}; reported, not gated)")
    breaches = compare_sets(runs, names, e2e_spec) if args.sets == 2 else 0

    stamp = (f"{time.strftime('%Y%m%d-%H%M%S')}-"
             f"{args.workload or 'all'}-s{args.seed}-{os.getpid()}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stamp}.json").write_text(json.dumps({
        "started": started,
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "rounds": len(runs[0][names[0]]),
        "sets": args.sets,
        "seconds": args.seconds,
        "host_ref_s": ref,
        "attempted": attempted,
        "failed": failed,
        "workloads": {
            name: {"e2e": report[name]["e2e"],
                   "errors": report[name]["errors"],
                   "sets": [per_set[name] for per_set in runs]}
            for name in names
        },
    }, indent=1))
    if traced:
        (RESULTS / f"{stamp}.trace.json").write_text(json.dumps({
            name: {"metrics": report[name]["layers"],
                   "layers": traced[name]["layers"],
                   "counts": traced[name]["counts"],
                   "entries": traced[name]["entries"]}
            for name in names
        }, indent=1))

    chosen = layer_spec if args.trace else e2e_spec

    def metrics_of(name: str) -> dict:
        values = report[name]["layers"] if args.trace else {
            m: s["median"] for m, s in report[name]["e2e"].items()}
        if set(values) != set(chosen):
            raise RuntimeError(
                f"metrics {sorted(set(values) ^ set(chosen))} differ from "
                f"{SPEC_PATH.name}")
        return {m: {"value": values[m], "unit": chosen[m]["unit"]}
                for m in chosen}

    metrics = (metrics_of(names[0]) if len(names) == 1
               else {name: metrics_of(name) for name in names})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and not breaches else 1


if __name__ == "__main__":
    sys.exit(main())
