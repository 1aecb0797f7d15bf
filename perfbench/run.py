"""Served-path benchmark: the Figure 6 action mix over TCP, a schema
variability miss workload, and fused rollups.

Run from the repository root::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  See ``perfbench/README.md`` for the
workloads, the metrics and what each layer metric should move.

The process runs on one CPU (see :func:`main`).  A run sets the system
up ``SETUPS`` times and reports the median set-up
time, measures the data directory of the first set-up once it is
closed, and uses the last set-up.  It warms both phases up, untimed,
then measures for ``--seconds`` in alternating deck and rollup slices,
split by the workload's ``rollup_share``.  Every time it reports is
scaled to the reference speed of ``speed.py``, measured before and after
each set-up and each slice; the summary lines also give the wall-clock
figures.  Everything it writes lives under
``.perfbench_work/`` in the current directory and is removed at exit,
except the span file of a traced run, which is kept there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from served import ROLLUP, WORKLOADS, Driver, Served, Tally  # noqa: E402
from speed import speed  # noqa: E402
from tracing import CallTimer, Tracer, layer_profile  # noqa: E402

from repro.engine.durability.manager import DurabilityManager  # noqa: E402
from repro.testbed.actions import ActionClass  # noqa: E402

SETUPS = 3
#: Untimed warm-up of each phase before the window.
WARMUP_S = {"deck": 2.0, "rollup": 1.0}
#: One deck slice and one rollup slice of the window.
CYCLE_S = 2.0
WORK_DIR = Path(".perfbench_work")

PHASES = ("deck", "rollup")

#: (metric, phase, action class or None for all of the phase's actions,
#: quantile)
LATENCY_METRICS = (
    ("action_p50_ms", "deck", None, 0.50),
    ("action_p95_ms", "deck", None, 0.95),
    ("select_light_p50_ms", "deck", ActionClass.SELECT_LIGHT.value, 0.50),
    ("select_light_p90_ms", "deck", ActionClass.SELECT_LIGHT.value, 0.90),
    ("select_heavy_p50_ms", "deck", ActionClass.SELECT_HEAVY.value, 0.50),
    ("select_heavy_p90_ms", "deck", ActionClass.SELECT_HEAVY.value, 0.90),
    ("insert_light_p50_ms", "deck", ActionClass.INSERT_LIGHT.value, 0.50),
    ("insert_light_p95_ms", "deck", ActionClass.INSERT_LIGHT.value, 0.95),
    ("update_light_p50_ms", "deck", ActionClass.UPDATE_LIGHT.value, 0.50),
    ("update_light_p90_ms", "deck", ActionClass.UPDATE_LIGHT.value, 0.90),
    ("rollup_p50_ms", "rollup", ROLLUP, 0.50),
    ("rollup_p90_ms", "rollup", ROLLUP, 0.90),
)

#: Engine counters summed over the shards, read around the window.
ENGINE_COUNTERS = (
    "pool.data.logical_reads",
    "pool.index.logical_reads",
    "pool.data.physical_reads",
    "pool.index.physical_reads",
    "pool.writebacks",
    "btree.descents",
    "db.wal.bytes_written",
    "db.wal.fsyncs",
    "db.checkpoint.count",
    "mt.statement_cache.hits",
    "mt.statement_cache.misses",
)
EXEC_COUNTERS = ("rows_scanned", "rows_output", "batches", "statements")


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples beyond it."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index], len(ordered) - index - 1


def counters(cluster) -> dict[str, float]:
    totals = {name: 0.0 for name in ENGINE_COUNTERS + EXEC_COUNTERS}
    for shard in cluster.shards.values():
        db = shard.mtd.db
        for name in ENGINE_COUNTERS:
            totals[name] += db.metrics.value(name)
        stats = db.exec_stats
        for name in EXEC_COUNTERS:
            totals[name] += getattr(stats, name)
    totals["router.redirects"] = cluster.metrics.value("cluster.router.redirects")
    return totals


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def callers(driver: Driver, phase: str, deadline: float) -> list:
    """The coroutines that make up one phase until ``deadline``."""
    if phase == "deck":
        return [driver.session(i, deadline) for i in driver.sessions]
    return [driver.rollup_caller(deadline)]


async def drive(driver: Driver, phase: str, seconds: float) -> float:
    """Run one phase for ``seconds``; returns the elapsed time."""
    started = time.perf_counter()
    await asyncio.gather(*callers(driver, phase, started + seconds))
    return time.perf_counter() - started


async def set_up(
    workload, seed: int, work: Path
) -> tuple[Served, list[float], list[float], float]:
    """Set up ``SETUPS`` times and keep the last instance; returns it,
    the set-up times scaled to the reference speed, the wall-clock
    set-up times, and the disk bytes per user byte.

    The first instance is checkpointed, closed and measured on disk, and
    its disk bytes per user byte are returned; the others in between are
    closed unmeasured (the figure does not change from one set-up to the
    next).  Measured there, on the loaded data at rest, the figure does
    not depend on how many inserts the timed window's speed lets through.
    """
    times, wall = [], []
    for attempt in range(SETUPS):
        served = Served(workload, seed, work / f"cluster{attempt}")
        before = speed()
        started = time.perf_counter()
        await served.build()
        spent = time.perf_counter() - started
        times.append(spent * (before + speed()) / 2)
        wall.append(spent)
        if attempt == 0:
            served.checkpoint()
            await served.close()
            disk_ratio = served.disk_bytes() / served.oracle.user_bytes
        elif attempt < SETUPS - 1:
            await served.close()
        else:
            break
        shutil.rmtree(served.path)
    served.record_rollup_baseline()
    return served, times, wall, disk_ratio


async def window(
    driver: Driver, served: Served, tallies: dict, seconds: float, tracer=None
) -> dict:
    """Measure for ``seconds`` in cycles of one deck slice and one rollup
    slice, ``CYCLE_S`` together, split by the workload's ``rollup_share``.

    Spreading each phase over the whole window, rather than giving it
    one stretch of it, exposes both phases to the same swings in the
    machine's speed.  Every action ends inside its slice.  The speed is
    measured between slices, while the program is idle, and each
    slice's latencies and time are scaled by the mean of the speeds
    before and after it; the wall-clock samples are kept in
    ``wall_samples``.  With a tracer, every other cycle is traced.
    """
    share = driver.workload.rollup_share
    lengths = {"deck": CYCLE_S * (1.0 - share), "rollup": CYCLE_S * share}
    elapsed = dict.fromkeys(PHASES, 0.0)
    #: Time spent in each phase, scaled to the reference speed.
    scaled = dict.fromkeys(PHASES, 0.0)
    wall_samples: dict[str, list] = {phase: [] for phase in PHASES}
    speeds = [speed()]
    #: Deck actions done and scaled deck time spent, untraced and traced.
    deck_actions = {False: 0, True: 0}
    deck_s = {False: 0.0, True: 0.0}
    traced_s = 0.0
    traced_ids: set[int] = set()

    def begin(kind):
        return tracer.begin_action(kind) if tracer.installed else None

    def end(hook):
        if hook is not None:
            tracer.end_action(*hook)
            traced_ids.add(hook[0].trace)

    if tracer is not None:
        driver.begin_action, driver.end_action = begin, end
    for cycle in range(max(1, round(seconds / CYCLE_S))):
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        for phase in PHASES:
            served.use_pool(phase)
            driver.tally = tallies[phase]
            done = len(driver.tally.samples)
            spent = await drive(driver, phase, lengths[phase])
            speeds.append(speed())
            scale = (speeds[-2] + speeds[-1]) / 2
            samples = driver.tally.samples[done:]
            wall_samples[phase].extend(samples)
            driver.tally.samples[done:] = [(k, ms * scale) for k, ms in samples]
            elapsed[phase] += spent
            scaled[phase] += spent * scale
            if traced:
                traced_s += spent
            if phase == "deck":
                deck_actions[traced] += len(samples)
                deck_s[traced] += spent * scale
        if traced:
            tracer.uninstall()
    driver.begin_action = driver.end_action = None
    return {
        "elapsed": elapsed,
        "scaled": scaled,
        "wall_samples": wall_samples,
        "speed": statistics.median(speeds),
        "untraced_aps": ratio(deck_actions[False], deck_s[False]),
        "traced_aps": ratio(deck_actions[True], deck_s[True]),
        "traced_s": traced_s,
        "traced_ids": traced_ids,
    }


def end_to_end(
    tallies, measured: dict, setup_times, setup_wall, disk_ratio
) -> dict:
    """The end-to-end metrics, times scaled to the reference speed; the
    summary lines give each time's wall-clock figure beside it."""
    deck = len(tallies["deck"].samples)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "actions_per_s": (deck / measured["scaled"]["deck"], "1/s"),
    }
    print(
        f"  speed {measured['speed']:.3f} of the reference (median of the "
        f"window); wall clock: setup_s {statistics.median(setup_wall):.3f}, "
        f"actions_per_s {deck / measured['elapsed']['deck']:.1f}"
    )
    for name, phase, kind, q in LATENCY_METRICS:
        samples = [
            ms for k, ms in tallies[phase].samples if kind is None or k == kind
        ]
        if not samples:
            raise RuntimeError(f"no {kind} actions completed in the window")
        value, beyond = percentile(samples, q)
        metrics[name] = (value, "ms")
        wall, _ = percentile(
            [
                ms
                for k, ms in measured["wall_samples"][phase]
                if kind is None or k == kind
            ],
            q,
        )
        print(
            f"  {name}: {len(samples)} samples, {beyond} beyond; "
            f"wall clock {wall:.3f} ms"
        )
        if beyond < 10:
            print(f"  warning: {name} has fewer than 10 samples beyond it")
    metrics["disk_bytes_per_user_byte"] = (disk_ratio, "B/B")
    metrics["rss_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    return metrics


def per_layer(
    tallies: dict,
    measured: dict,
    delta: dict,
    profile: dict,
    checkpoints: list[int],
    window_checkpoints: list[int],
) -> dict:
    deck = tallies["deck"]
    traced = max(1, len(measured["traced_ids"]))
    traced_s = measured["traced_s"]
    actions = max(1, sum(len(tallies[p].samples) for p in PHASES))
    calls, total_ns, self_ns = profile["calls"], profile["total_ns"], profile["self_ns"]

    def per_call(name: str, scale: float) -> float:
        return ratio(total_ns.get(name, 0), calls.get(name, 0)) / scale

    metrics = {
        f"{layer}.self_us": (self_ns.get(layer, 0) / traced / 1e3, "us")
        for layer in (
            "client", "protocol", "router", "shard", "mt", "plan", "exec",
            "btree", "wal",
        )
    }
    frames = profile["frames"]
    logical = delta["pool.data.logical_reads"] + delta["pool.index.logical_reads"]
    physical = delta["pool.data.physical_reads"] + delta["pool.index.physical_reads"]
    busiest = max(profile["busy_ns"].values(), default=0)
    cache = delta["mt.statement_cache.hits"] + delta["mt.statement_cache.misses"]
    metrics.update(
        {
            "protocol.us_per_frame": (
                ratio(
                    total_ns.get("protocol.encode", 0)
                    + total_ns.get("protocol.decode", 0),
                    frames,
                )
                / 1e3,
                "us",
            ),
            "protocol.bytes_per_action": (profile["frame_bytes"] / traced, "B"),
            "router.redirects": (delta["router.redirects"], "count"),
            "shard.queue_wait_us": (
                ratio(profile["queue_ns"], profile["queued"]) / 1e3,
                "us",
            ),
            "shard.busy_frac": (busiest / 1e9 / traced_s, "ratio"),
            "mt.statement_cache.hit_ratio": (
                ratio(delta["mt.statement_cache.hits"], cache),
                "ratio",
            ),
            "mt.engine_calls_per_write": (
                ratio(profile["engine_calls_under_writes"], profile["mt_writes"]),
                "count",
            ),
            "plan.us_per_call": (per_call("plan.plan", 1e3), "us"),
            "plan.calls_per_action": (calls.get("plan.plan", 0) / traced, "count"),
            "exec.rows_scanned_per_row_output": (
                ratio(delta["rows_scanned"], delta["rows_output"]),
                "ratio",
            ),
            "exec.batches_per_statement": (
                ratio(delta["batches"], delta["statements"]),
                "count",
            ),
            "btree.insert_us": (per_call("btree.insert", 1e3), "us"),
            "btree.descents_per_action": (delta["btree.descents"] / actions, "count"),
            "pool.hit_ratio": (1.0 - ratio(physical, logical), "ratio"),
            "pool.physical_reads_per_action": (physical / actions, "count"),
            "pool.writebacks_per_action": (
                delta["pool.writebacks"] / actions,
                "count",
            ),
            "wal.bytes_per_row": (
                ratio(delta["db.wal.bytes_written"], deck.rows_written),
                "B",
            ),
            "wal.fsyncs_per_write": (
                ratio(delta["db.wal.fsyncs"], deck.write_requests),
                "count",
            ),
            "wal.flush_us": (per_call("wal.flush", 1e3), "us"),
            "checkpoint.count": (delta["db.checkpoint.count"], "count"),
            "checkpoint.ms": (
                statistics.fmean(checkpoints) / 1e6 if checkpoints else 0.0,
                "ms",
            ),
            "checkpoint.us_per_action": (
                sum(window_checkpoints) / actions / 1e3,
                "us",
            ),
            "trace.overhead": (
                ratio(measured["untraced_aps"], measured["traced_aps"]),
                "x",
            ),
        }
    )
    return metrics


def print_slowest(tracer: Tracer, traced_ids: set[int]) -> None:
    """Where the slowest 1 % of the traced actions spent their time."""
    roots = sorted(
        (s for s in tracer.spans if s.parent is None and s.trace in traced_ids),
        key=lambda s: s.end_ns - s.start_ns,
    )
    slowest = roots[-max(1, len(roots) // 100):]
    profile = layer_profile(tracer.spans, {s.trace for s in slowest})
    mean_ms = statistics.fmean(s.end_ns - s.start_ns for s in slowest) / 1e6
    kinds: dict[str, int] = {}
    for s in slowest:
        kinds[s.name] = kinds.get(s.name, 0) + 1
    print(f"  slowest {len(slowest)} traced actions: mean {mean_ms:.2f} ms, {kinds}")
    for layer, ns in sorted(profile["self_ns"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer}: {ns / len(slowest) / 1e6:.2f} ms per action")


async def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.track_connections()
        # Checkpoints are rare: time every one the run makes, set-ups
        # included, not only those inside traced actions.
        checkpoints = CallTimer(DurabilityManager, "checkpoint")
    served = None
    warm = Tally()
    tallies = {phase: Tally() for phase in PHASES}
    try:
        served, setup_times, setup_wall, disk_ratio = await set_up(
            workload, seed, work
        )
        driver = Driver(served, seed)
        driver.tally = warm
        for phase in PHASES:
            served.use_pool(phase)
            await drive(driver, phase, WARMUP_S[phase])
        before = counters(served.cluster)
        if tracer is not None:
            first_checkpoint = len(checkpoints.durations_ns)
        measured = await window(driver, served, tallies, seconds, tracer)
        if tracer is not None:
            window_checkpoints = checkpoints.durations_ns[first_checkpoint:]
        delta = {k: v - before[k] for k, v in counters(served.cluster).items()}
        driver.tally = warm
        wrong_counts = await driver.check_row_counts()
    finally:
        if served is not None:
            await served.close()
        if tracer is not None:
            tracer.uninstall()
            tracer.untrack_connections()
            checkpoints.close()
    everything = (warm, *tallies.values())
    attempted = sum(t.attempted for t in everything)
    failed = sum(t.failed for t in everything) + wrong_counts
    print(
        f"{workload.name}: seed {seed}, {len(served.tenant_instance)} tenants, "
        f"{attempted} actions ({warm.attempted} in warm-ups), "
        + ", ".join(f"{p} {measured['elapsed'][p]:.2f} s" for p in PHASES)
        + f", {failed} failed, {wrong_counts} tenants with wrong row counts"
    )
    for problem in [p for t in everything for p in t.problems][:10]:
        print(f"  problem: {problem}")
    by_class: dict[str, list[float]] = {}
    for phase in PHASES:
        for kind, ms in tallies[phase].samples:
            by_class.setdefault(kind, []).append(ms)
    for kind, samples in sorted(by_class.items()):
        p50, p90, p99 = (percentile(samples, q)[0] for q in (0.5, 0.9, 0.99))
        print(
            f"  {kind}: {len(samples)} done, p50 {p50:.2f} ms, "
            f"p90 {p90:.2f} ms, p99 {p99:.2f} ms"
        )
    if tracer is not None:
        spans_path = work.parent / f"spans-{workload.name}-{seed}.jsonl"
        tracer.write(spans_path)
        profile = layer_profile(tracer.spans, measured["traced_ids"])
        metrics = per_layer(
            tallies,
            measured,
            delta,
            profile,
            checkpoints.durations_ns,
            window_checkpoints,
        )
        print(f"  spans: {len(tracer.spans)} written to {spans_path}")
        print_slowest(tracer, measured["traced_ids"])
    else:
        metrics = end_to_end(
            tallies, measured, setup_times, setup_wall, disk_ratio
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole process: the GIL runs one thread's Python at
    # a time anyway, and on a shared virtual machine a hand-off between
    # threads on two CPUs can wait for the host to wake the idle one,
    # which measures the host's scheduler rather than the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = asyncio.run(
            run(WORKLOADS[args.workload], args.seed, args.seconds,
                bool(args.trace), work)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
