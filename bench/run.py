#!/usr/bin/env python3
"""The dicrit benchmark: one workload, one process, one thread, jobs in sequence.

    python3 bench/run.py --workload crit-ore --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run builds the seeded corpus several times (``setup_s``
is the median), then runs jobs in corpus order as a closed loop until
``--seconds`` have passed or the corpus is used up, and reports the
end-to-end metrics, with every time scaled to a reference CPU speed
(``ReferenceSpeed``).  With ``--trace 1`` it runs the workload's fixed
trace rounds, each job untraced and traced back to back, and reports
per-layer metrics from the spans.  Every answer is checked outside the
timed and traced regions.  The last line of stdout is one JSON object;
the full result, with the interpreter, core count and platform, goes to
``bench/out/``.  The exit code is 1 when any answer is wrong, and also
when the package cannot be imported from the checkout, in which case no
result line is printed.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
from workloads import WORKLOADS, build_corpus, round_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-up runs at least this many times and until this much time is spent.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: Percentile rungs for the tail metric.  Each workload fixes one rung
#: (``tail_pct``): the highest with at least 10 jobs beyond it at the
#: measured throughput with room to spare, because choosing the rung per
#: run would flip it between runs whose job counts straddle a rung.
PCT_LADDER = (50, 75, 90, 95, 99)
MIN_BEYOND = 10
MODULES = ("budget", "digraph", "colouring", "ore", "iso", "packing", "potential",
           "structure", "constructions", "census")


def load_library() -> SimpleNamespace:
    """The ``dicrit`` modules, imported from this checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"dicrit.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dicrit from {src}: {exc}") from None
    origin = Path(modules["digraph"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: dicrit was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


# -- running and checking jobs -----------------------------------------------------


def execute(lib, workload, job):
    """Run one job; returns (wall ns, result, outcome) where outcome is
    "ok" or "unknown" (BudgetExceeded) or "error" (the program raised)."""
    start = time.perf_counter_ns()
    try:
        result = workload.run(lib, job)
    except lib.budget.BudgetExceeded:
        return time.perf_counter_ns() - start, None, "unknown"
    except Exception:  # a crash is a wrong answer; keep running, report it
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter_ns() - start, None, "error"
    return time.perf_counter_ns() - start, result, "ok"


class Tally:
    """Attempted, failed and wrong jobs, and counts taken from answers."""

    def __init__(self):
        self.attempted = self.unknown = self.wrong = 0
        self.counts: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return self.unknown + self.wrong

    def record(self, lib, workload, job, outcome: str, result) -> None:
        self.attempted += 1
        if outcome == "unknown":
            self.unknown += 1
            return
        if outcome == "error":
            error, counts = "the program raised", {}
        else:
            error, counts = workload.check(lib, job, result)
        if error is not None:
            self.wrong += 1
            print(f"WRONG {workload.name} {job.kind}: {error}", file=sys.stderr)
            return
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def setup(lib, workload, seed: int, rounds: int):
    """Build the corpus and run one warm-up job, which lets lazy set-up in
    the program happen before timing; returns (seconds, corpus, warm-up
    job, its result, its outcome)."""
    start = time.perf_counter()
    corpus = build_corpus(lib, workload, seed, rounds)
    warm = workload.warmup(lib, round_rng(workload.name, seed, "warmup"))
    _, result, outcome = execute(lib, workload, warm)
    return time.perf_counter() - start, corpus, warm, result, outcome


def check_corpus(corpus) -> None:
    """Every job of a run gets its own input.  census takes parameters,
    not a digraph, so its inputs are distinct within a round only."""
    keys = [job.key() for rnd in corpus for job in rnd if job.texts]
    if len(keys) != len(set(keys)):
        raise SystemExit("error: the corpus repeats an input")
    for rnd in corpus:
        if len({job.key() for job in rnd}) != len(rnd):
            raise SystemExit("error: a round repeats an input")


class CpuRotation:
    """Moves this one thread to the next allowed CPU on each ``next()``.

    The CPUs of the host this benchmark was tuned on drift in speed
    independently of each other, by up to a third over minutes (see
    README.md).  A thread the scheduler leaves on one CPU samples that
    CPU's drift alone; rotating once per round makes every run sample
    all of them.  The original affinity comes back on ``restore()``.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.index = 0

    def next(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {self.allowed[self.index % len(self.allowed)]})
            self.index += 1

    def restore(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


class ReferenceSpeed:
    """Scales wall times to a fixed reference speed of the CPU.

    The host this benchmark was tuned on drifts in speed by up to a third,
    over seconds and over minutes, each CPU on its own (see README.md),
    and a 25 s run cannot average that out.  So the run times a fixed calibration task,
    the benchmark's own Kahn-peeling check on a seeded 40-vertex digraph
    (``checks.classes_acyclic``), on the CPU it is pinned to, around the
    work it measures.  Each wall time of that work is multiplied by
    ``REFERENCE_NS`` over the calibration: a time "at reference speed",
    the time the work would take on a CPU that runs the calibration task
    in exactly ``REFERENCE_NS``.  The task shares no code with the
    package, so a change to the package moves the work but not the scale.
    """

    #: Calibration passes per sample, and samples per calibration.  One
    #: calibration takes about 2 ms; its value is the median sample.
    PASSES = 10
    SAMPLES = 5
    #: A calibration's time at reference speed, close to the median on
    #: the tuning host, so that scaled times read near wall times there.
    REFERENCE_NS = 350_000

    def __init__(self):
        rng = random.Random("calibration")
        self.n = 40
        self.arcs = [(u, v) for u in range(self.n) for v in range(self.n)
                     if u != v and rng.random() < 0.15]
        self.colours = [rng.randrange(3) for _ in range(self.n)]
        self.samples_ns: list[float] = []
        self.calibrate()  # warms the interpreter's caches for the task
        self.samples_ns.clear()

    def calibrate(self) -> float:
        """The median wall time of ``SAMPLES`` runs of the calibration task."""
        times = []
        for _ in range(self.SAMPLES):
            start = time.perf_counter_ns()
            for _ in range(self.PASSES):
                checks.classes_acyclic(self.n, self.arcs, self.colours)
            times.append(time.perf_counter_ns() - start)
        sample = statistics.median(times)
        self.samples_ns.append(sample)
        return sample

    def factor(self, before_ns: float, after_ns: float) -> float:
        """Reference time per wall time for work done between two calibrations."""
        return self.REFERENCE_NS * 2 / (before_ns + after_ns)


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# -- the two kinds of run ---------------------------------------------------------


def measure(lib, workload, seed: int, seconds: float, rounds: int) -> dict:
    cpus = CpuRotation()
    try:
        return _measure(lib, workload, seed, seconds, rounds, cpus)
    finally:
        cpus.restore()


def _measure(lib, workload, seed: int, seconds: float, rounds: int, cpus) -> dict:
    tally = Tally()
    speed = ReferenceSpeed()
    setups = []
    setups_wall = []
    corpus = None
    while len(setups) < SETUP_REPEATS or sum(setups_wall) < SETUP_SECONDS:
        cpus.next()
        before = speed.calibrate()
        elapsed, built, warm, result, outcome = setup(lib, workload, seed, rounds)
        factor = speed.factor(before, speed.calibrate())
        if not setups:  # every set-up runs this same warm-up job
            tally.record(lib, workload, warm, outcome, result)
        setups.append(elapsed * factor)
        setups_wall.append(elapsed)
        if corpus is not None and [[j.key() for j in r] for r in built] != \
                [[j.key() for j in r] for r in corpus]:
            raise SystemExit("error: the same seed built two different corpora")
        corpus = built
    check_corpus(corpus)

    # Only whole rounds run, so every run holds each kind equally often
    # and a percentile falls at the same place in the mix: a round starts
    # only if one more round as long as the last still ends in time.
    # Each round runs on one CPU, and every job between two calibrations.
    times_ns: list[float] = []
    wall_ns: list[int] = []
    per_kind: dict[str, list[float]] = {}
    completed = 0
    start = time.perf_counter()
    round_s = 0.0
    for rnd in corpus:
        round_start = time.perf_counter()
        if round_start - start + round_s > seconds:
            break
        cpus.next()
        before = speed.calibrate()
        for job in rnd:
            wall, result, outcome = execute(lib, workload, job)
            after = speed.calibrate()
            scaled = wall * speed.factor(before, after)
            before = after
            times_ns.append(scaled)
            wall_ns.append(wall)
            per_kind.setdefault(job.kind, []).append(scaled)
            completed += outcome == "ok"
            tally.record(lib, workload, job, outcome, result)
        round_s = time.perf_counter() - round_start
    loop_s = time.perf_counter() - start

    times = sorted(times_ns)
    pct = workload.tail_pct
    tail, beyond = percentile(times, pct)
    if beyond < MIN_BEYOND:
        usable = [p for p in PCT_LADDER if percentile(times, p)[1] >= MIN_BEYOND]
        pct = usable[-1] if usable else PCT_LADDER[0]
        tail, beyond = percentile(times, pct)
    metrics = {
        "jobs_per_s": (completed / (sum(times) / 1e9), "1/s"),
        "job_p50_ms": (percentile(times, 50)[0] / 1e6, "ms"),
        "job_tail_ms": (tail / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "failed_frac": tally.failed / tally.attempted,
        "notes": {
            "jobs": len(times), "loop_s": loop_s,
            "corpus_jobs": sum(len(r) for r in corpus),
            "tail_pct": pct, "tail_jobs_beyond": beyond,
            "setup_runs": len(setups),
            "setup_wall_s": statistics.median(setups_wall),
            "job_p50_wall_ms": statistics.median(wall_ns) / 1e6,
            "calibration_ms": [min(speed.samples_ns) / 1e6,
                               statistics.median(speed.samples_ns) / 1e6,
                               max(speed.samples_ns) / 1e6],
            "kind_p50_ms": {k: statistics.median(v) / 1e6 for k, v in sorted(per_kind.items())},
        },
    }


def trace(lib, workload, seed: int, rounds: int) -> dict:
    tally = Tally()
    tracer = tracing.Tracer(lib.budget.Budget)
    tracer.install()
    tracer.job = "setup"
    try:
        corpus = build_corpus(lib, workload, seed, rounds)
    finally:
        tracer.uninstall()
    tracer.job = None
    check_corpus(corpus)
    jobs = [job for rnd in corpus for job in rnd]

    # Each job runs untraced and traced back to back, in alternating
    # order, so slow drifts in machine speed cancel out of the overhead.
    untraced_ns = 0
    job_counts = Tally()
    cpus = CpuRotation()
    try:
        for i, job in enumerate(jobs):
            cpus.next()
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    root = tracer.begin_job(i)
                    try:
                        _, result, outcome = execute(lib, workload, job)
                    finally:
                        tracer.end_job(root)
                        tracer.uninstall()
                    job_counts.record(lib, workload, job, outcome, result)
                else:
                    wall, result, outcome = execute(lib, workload, job)
                    untraced_ns += wall
                tally.record(lib, workload, job, outcome, result)
    finally:
        cpus.restore()

    ids = set(range(len(jobs)))
    metrics = layer_metrics(tracer, ids, job_counts.counts, untraced_ns)
    job_nodes = tracer.job_nodes(ids)
    kind_nodes: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        kind_nodes.setdefault(job.kind, []).append(job_nodes.get(i, 0))
    return {
        "tally": tally,
        "metrics": metrics,
        "failed_frac": tally.failed / tally.attempted,
        "notes": {
            "jobs": len(jobs),
            "kind_median_nodes": {k: statistics.median(v) for k, v in sorted(kind_nodes.items())},
            "roadmap_baseline_nodes": [
                {"instance": label, "roadmap": roadmap, "measured": used}
                for label, roadmap, used in workload.baseline_rows(lib)
            ],
        },
        "spans": tracer.to_json(),
    }


def layer_metrics(tracer, ids, counts: dict, untraced_ns: int) -> dict:
    stats = tracer.self_times(ids)
    setup_stats = tracer.self_times({"setup"})
    metrics = {}
    for _, _, name in tracing.TRACED:
        # generate_4ore runs in setup only; every other layer inside jobs.
        entry = (setup_stats if name == "ore.generate_4ore" else stats)[name]
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.busy_s"] = (entry["busy_ns"] / 1e9, "s")
        if name in tracing.BUDGETED:
            metrics[f"{name}.nodes"] = (entry["nodes"], "count")

    metrics["colouring.is_k_dicolourable.refuted"] = (
        stats["colouring.is_k_dicolourable"]["out"], "count")
    arcs_checked = stats["colouring.is_k_dicritical"]["out"]
    solves = tracer.count_under("colouring.is_k_dicolourable", "colouring.is_k_dicritical", ids)
    metrics["colouring.arcs_checked"] = (arcs_checked, "count")
    metrics["colouring.solves_per_arc"] = (solves / arcs_checked if arcs_checked else 0.0, "ratio")

    hits = stats["ore.find_ore_collapsible"]["out"]
    scanned = stats["ore.find_ore_collapsible"]["nodes"] - tracer.nodes_under(
        "ore.is_4ore", "ore.find_ore_collapsible", ids)
    metrics["ore.collapsible_hits"] = (hits, "count")
    metrics["ore.collapsible_scanned"] = (scanned, "count")
    metrics["ore.collapsible_hit_frac"] = (hits / scanned if scanned else 0.0, "fraction")

    checked = counts.get("witnesses_checked", 0)
    considered = counts.get("arcs_considered", 0)
    metrics["constructions.witnesses_checked"] = (checked, "count")
    metrics["constructions.assumed"] = (counts.get("assumed", 0), "count")
    metrics["constructions.arcs_considered"] = (considered, "count")
    metrics["constructions.checked_frac"] = (checked / considered if considered else 0.0,
                                             "fraction")

    job_ns = stats[tracing.JOB]["busy_ns"] + sum(
        entry["busy_ns"] for name, entry in stats.items() if name != tracing.JOB)
    for layer in tracing.LAYERS:
        busy = sum(e["busy_ns"] for name, e in stats.items() if name.startswith(layer + "."))
        metrics[f"{layer}.share"] = (busy / job_ns, "fraction")
    metrics["bench.share"] = (stats[tracing.JOB]["busy_ns"] / job_ns, "fraction")
    metrics["bench.jobs"] = (stats[tracing.JOB]["calls"], "count")
    metrics["bench.job_s"] = (job_ns / 1e9, "s")
    metrics["trace.untraced_s"] = (untraced_ns / 1e9, "s")
    metrics["trace.overhead"] = (job_ns / untraced_ns, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


# -- entry point -----------------------------------------------------------------


def main(argv=None, rounds: int | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lib = load_library()
    workload = WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        outcome = trace(lib, workload, args.seed, rounds or workload.trace_rounds)
    else:
        outcome = measure(lib, workload, args.seed, args.seconds,
                          rounds or workload.corpus_rounds)
    tally = outcome["tally"]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome["metrics"].items()}

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, nproc {env['nproc']}, {env['platform']}")
    for name, note in outcome["notes"].items():
        print(f"# {name}: {json.dumps(note)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {outcome['failed_frac']:.6g} fraction "
          f"({tally.unknown} unknown + {tally.wrong} wrong of {tally.attempted})")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "metrics": metrics,
              "failed_frac": outcome["failed_frac"], "notes": outcome["notes"]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in outcome:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]) + "\n")

    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
