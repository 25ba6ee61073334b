"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload read_hot --seed 7 --trace 0
    python3 perfbench/rep.py --workload lanes_static --seed 7 --reference

Generates the workload's inputs from the seed, builds the fleet (timed as
set-up), runs it once (timed) and prints one JSON object: the raw
measurements, the fleet fingerprint digest and any correctness violation
found inside the repetition.  ``--trace 1`` also installs the obs plane, the
benchmark's layer probes and a GC watch and reports the per-layer split;
``--reference`` runs a process workload serially on the same inputs and
reports only its fingerprint and gas bills (the equivalence reference).
:mod:`run` starts these processes and aggregates them.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.ads import merkle  # noqa: E402
from repro.common import hashing  # noqa: E402
from repro.core.config import GrubConfig  # noqa: E402
from repro.frontdoor import FrontDoor, Request  # noqa: E402
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec  # noqa: E402
from repro.gateway.executor import ProcessEngine  # noqa: E402
from repro.gateway.planner import RoundRobinPlanner  # noqa: E402
from repro.obs import Observability  # noqa: E402

import inputs  # noqa: E402
from probes import GcWatch, Probe, install_layer_probes  # noqa: E402
from tally import percentile, self_times  # noqa: E402

#: Shards of the process workload (two per lane); serial workloads use one.
PROCESS_SHARDS = 4
#: The live generator starts its schedule this long after the door opens.
LIVE_LEAD_S = 0.05
#: Iterations of the calibration loop (about 70 ms on a 2-vCPU x86 VM).
CALIBRATION_LOOPS = 600_000
clock = time.perf_counter


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def feed_config(shape: inputs.Shape) -> GrubConfig:
    return GrubConfig(epoch_size=shape.epoch_size, algorithm="memoryless", k=2)


def build(shape: inputs.Shape, preloads, *, serial: bool, obs=None):
    """Registry, feeds (with preload) and scheduler: the timed set-up."""
    registry = FeedRegistry()
    config = feed_config(shape)
    for index, records in enumerate(preloads):
        registry.create_feed(
            FeedSpec(
                feed_id=inputs.feed_id(index),
                config=config,
                preload=records,
                store_backend=shape.store_backend,
            )
        )
    lanes = shape.mode == "process" and not serial
    scheduler = EpochScheduler(
        registry,
        execution_mode="process" if lanes else "serial",
        num_workers=shape.lanes if lanes else 1,
        num_shards=PROCESS_SHARDS if shape.mode == "process" else 1,
        obs=obs,
    )
    return registry, scheduler


def gas_bills(registry, fleet) -> Dict[str, int]:
    return {feed_id: registry.chain.ledger.scope_total(feed_id) for feed_id in fleet.feeds}


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- batch workloads ----------------------------------------------------------


def calibration_s() -> float:
    """Time a fixed pure-Python loop that touches nothing of the program.

    The host's CPU speed drifts by up to half over minutes; this loop slows
    with it, so timing it just before set-up and just after the run lets
    :mod:`run` express every timing at one reference speed."""
    started = clock()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return clock() - started


def epoch_intervals_ms(stamps: List[float]) -> List[float]:
    return [(later - earlier) * 1e3 for earlier, later in zip(stamps, stamps[1:])]


def run_batch(shape: inputs.Shape, seed: int, traced: bool, reference: bool) -> dict:
    workloads = inputs.fleet_workloads(shape, seed)
    preloads = [inputs.preload(shape, index, seed) for index in range(shape.feeds)]
    calibration = calibration_s()
    gc.collect()
    obs = Observability() if traced else None
    started = clock()
    registry, scheduler = build(shape, preloads, serial=reference, obs=obs)
    setup_s = clock() - started
    if reference:
        fleet = scheduler.run(workloads)
        return {
            "fingerprint": digest(fleet.fingerprint()),
            "bills": gas_bills(registry, fleet),
        }

    # Epoch settlements are stamped through one per-epoch public call: the
    # planner's plan (serial; called as each epoch starts, so as the previous
    # one settles) or ProcessEngine.results (process).
    stamps: List[float] = []
    boundaries = Probe()
    if scheduler.execution_mode == "process":
        boundaries.after(ProcessEngine, "results", lambda now, *_: stamps.append(now))
    else:
        boundaries.after(RoundRobinPlanner, "plan", lambda now, *_, **__: stamps.append(now))
    probe = layer_state = None
    if traced:
        probe = Probe()
        install_layer_probes(probe)
        layer_state = counters_before(registry)
    watch = GcWatch() if traced else None
    cpu = time.process_time()
    with watch if watch is not None else contextlib.nullcontext():
        started = clock()
        fleet = scheduler.run(workloads)
        if scheduler.execution_mode != "process":
            stamps.append(clock())
        wall = clock() - started
    cpu = time.process_time() - cpu
    if probe is not None:
        probe.remove()
    boundaries.remove()

    out = {
        "attempted": sum(len(ops) for ops in workloads.values()),
        "failed": sum(len(ops) for ops in workloads.values()) - fleet.operations,
        "fingerprint": digest(fleet.fingerprint()),
        "bills": gas_bills(registry, fleet),
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": (calibration + calibration_s()) / 2,
        "ops_per_s": fleet.operations / wall,
        "gas_per_op": fleet.gas_total / fleet.operations,
        "latency_ms": epoch_intervals_ms(stamps),
        # The measuring process, or its largest lane (children are waited).
        "peak_rss_mb": max(
            peak_rss_mb(resource.RUSAGE_SELF), peak_rss_mb(resource.RUSAGE_CHILDREN)
        ),
        "light": {
            "lanes.peak_rss_mb": (
                peak_rss_mb(resource.RUSAGE_CHILDREN)
                if scheduler.execution_mode == "process"
                else 0.0
            ),
        },
        "violations": [],
    }
    if traced:
        out["layers"] = layer_metrics(
            registry, fleet, obs, probe, watch, layer_state,
            wall=wall, sched_thread=threading.get_ident(),
        )
    return out


# -- the live workload --------------------------------------------------------


def build_live(
    shape: inputs.Shape, preloads, obs=None, held: bool = False
) -> Tuple[object, FrontDoor]:
    registry, scheduler = build(shape, preloads, serial=True, obs=obs)
    return registry, FrontDoor(scheduler, held=held)


async def drive_open_loop(door: FrontDoor, schedule) -> dict:
    """Submit each request at its due time (open loop); time it from due
    to resolution, and the generator's lateness from due to submission."""
    records: List[Optional[tuple]] = [None] * len(schedule)
    state = {"inflight": 0, "backlog_max": 0}

    async def send(index: int, request: Request, due: float) -> None:
        sent = clock()
        state["inflight"] += 1
        state["backlog_max"] = max(state["backlog_max"], state["inflight"])
        response = await door.submit(request)
        records[index] = (due, sent, clock(), response)
        state["inflight"] -= 1

    async with door.serving():
        start = clock() + LIVE_LEAD_S
        tasks = []
        for index, (offset, tenant, operation) in enumerate(schedule):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            request = Request(tenant=inputs.feed_id(tenant), operation=operation)
            tasks.append(asyncio.create_task(send(index, request, due)))
        await asyncio.gather(*tasks)
        finished = clock()
    return {
        "records": records,
        "backlog_max": state["backlog_max"],
        "start": start,
        "finished": finished,
    }


async def replay(door: FrontDoor, schedule, epochs: List[int]) -> list:
    """Resubmit the schedule through a held door, each request stamped with
    the epoch it settled in, so the run replays deterministically."""
    async with door.serving() as held:
        tasks = [
            asyncio.create_task(
                held.submit(
                    Request(
                        tenant=inputs.feed_id(tenant),
                        operation=operation,
                        not_before_epoch=epoch,
                    )
                )
            )
            for (_, tenant, operation), epoch in zip(schedule, epochs)
        ]
        await asyncio.sleep(0)
        held.release()
        responses = await asyncio.gather(*tasks)
        held.close()
    return responses


def run_live(shape: inputs.Shape, seed: int, traced: bool) -> dict:
    schedule = inputs.arrival_schedule(shape, seed)
    preloads = [inputs.preload(shape, index, seed) for index in range(shape.feeds)]
    calibration = calibration_s()
    gc.collect()
    obs = Observability() if traced else None
    started = clock()
    registry, door = build_live(shape, preloads, obs=obs)
    setup_s = clock() - started

    polls: List[Tuple[float, int]] = []
    threads: List[int] = []
    probe = watch = layer_state = None
    if traced:
        probe = Probe()
        install_layer_probes(probe)

        def note_poll(now, arrivals, door_, epoch, **kwargs):
            polls.append((now, sum(len(ops) for ops in arrivals.values())))
            if not threads:
                threads.append(threading.get_ident())

        probe.after(FrontDoor, "poll", note_poll)
        layer_state = counters_before(registry)
        watch = GcWatch()
    cpu = time.process_time()
    with watch if watch is not None else contextlib.nullcontext():
        result = asyncio.run(drive_open_loop(door, schedule))
    cpu = time.process_time() - cpu
    if probe is not None:
        probe.remove()

    records = result["records"]
    fleet = door.fleet
    responses = [record[3] for record in records]
    settled = [response for response in responses if response.ok]
    violations = []
    if len(settled) != len(schedule):
        violations.append(
            f"live_open: {len(schedule) - len(settled)} of {len(schedule)} "
            "requests did not settle"
        )
    attributed = sum(response.gas for response in responses)
    if attributed != fleet.gas_total:
        violations.append(
            f"live_open: request gas sums to {attributed}, fleet billed "
            f"{fleet.gas_total}"
        )
    wall = result["finished"] - result["start"]
    out = {
        "attempted": len(schedule),
        "failed": len(schedule) - len(settled),
        "schedule": inputs.schedule_digest(schedule),
        "fingerprint": digest(fleet.fingerprint()),
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": (calibration + calibration_s()) / 2,
        "ops_per_s": len(settled) / wall,
        "gas_per_op": fleet.gas_total / max(1, fleet.operations),
        "latency_ms": [(done - due) * 1e3 for due, _, done, _ in records],
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "light": {
            "door.backlog_max": result["backlog_max"],
            "door.send_lag_p99_ms": percentile(
                [(sent - due) * 1e3 for due, sent, _, _ in records], 99
            ),
            "door.failed_share": (len(schedule) - len(settled)) / len(schedule),
            "lanes.peak_rss_mb": 0.0,
        },
        "violations": violations,
    }
    if traced:
        layers = layer_metrics(
            registry, fleet, obs, probe, watch, layer_state,
            wall=wall, sched_thread=threads[0] if threads else 0,
        )
        layers.update(door_metrics(obs, records, polls, fleet))
        out["layers"] = layers

    # Outside the timed region, and only in traced repetitions (it takes
    # about as long as the run): replay the run's own epoch membership
    # through a held door; it must land on the live fleet's fingerprint.
    if traced and not violations:
        _, twin = build_live(shape, preloads, held=True)
        asyncio.run(replay(twin, schedule, [response.epoch for response in responses]))
        if digest(twin.fleet.fingerprint()) != out["fingerprint"]:
            violations.append(
                "live_open: replaying the run's epoch membership gave a "
                "different fleet fingerprint"
            )
    return out


# -- per-layer split (traced runs) ----------------------------------------------


def counters_before(registry) -> dict:
    return {
        "events": len(registry.chain.event_log),
        "pair": merkle._hash_pair_memo.cache_info(),
        "leaf": hashing._hash_record_cached.cache_info(),
    }


def _hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def scheduler_spans(obs, sched_thread: int):
    """Main-side obs spans (epoch, timed phases and their shards) as span
    records for the self-time tree, per-phase totals, and lane busy time.

    In process mode a phase span is a zero-length container whose children
    were timed in the lanes; those count towards the phase total and lane
    busy time, but not towards the main thread's tree."""
    records = []
    phase_total: Dict[str, float] = {}
    lane_busy = 0.0
    for epoch in obs.tracer.find("epoch"):
        records.append((sched_thread, "sched", epoch.start, epoch.end))
        for phase in epoch.children:
            if phase.name != "phase":
                continue
            name = str(phase.attrs.get("phase"))
            if phase.end == phase.start:
                busy = sum(child.duration for child in phase.children)
                lane_busy += busy
                phase_total[name] = phase_total.get(name, 0.0) + busy
                continue
            phase_total[name] = phase_total.get(name, 0.0) + phase.duration
            records.append((sched_thread, "sched", phase.start, phase.end))
            for shard in phase.children:
                records.append((sched_thread, "sched", shard.start, shard.end))
    return records, phase_total, lane_busy


def layer_metrics(
    registry, fleet, obs, probe, watch, before, *, wall, sched_thread
) -> Dict[str, float]:
    ops = max(1, fleet.operations)
    epochs = max(1, fleet.epochs_run)
    sched_records, phase_total, lane_busy = scheduler_spans(obs, sched_thread)
    own = self_times(probe.spans + sched_records)
    totals = probe.layer_totals()
    counts = probe.counts
    ipc = fleet.ipc or {}
    decode_s = ipc.get("decode_seconds", 0.0)
    lanes_used = len(ipc.get("lanes", {})) or 1
    gen2 = [seconds for generation, seconds in watch.pauses if generation == 2]
    pauses = [seconds for _, seconds in watch.pauses]
    mined = counts["chain.mine"]
    metrics = {
        "sched.epochs": fleet.epochs_run,
        "sched.self_ms_per_epoch": own.get("sched", 0.0) * 1e3 / epochs,
        "chain.internal_calls_per_op": counts["chain.internal_call"] / ops,
        "chain.internal_call_us_per_op": own.get("chain.internal_call", 0.0) * 1e6 / ops,
        "chain.charge_calls_per_op": counts["chain.charge"] / ops,
        "chain.events_per_op": (len(registry.chain.event_log) - before["events"]) / ops,
        "chain.blocks_per_kop": fleet.blocks_mined * 1e3 / ops,
        "chain.mine_ms_per_block": own.get("chain.mine", 0.0) * 1e3 / mined if mined else 0.0,
        "ads.proofs_per_op": counts["ads.prove"] / ops,
        "ads.prove_us_per_op": own.get("ads.prove", 0.0) * 1e6 / ops,
        "ads.update_us_per_op": own.get("ads.update", 0.0) * 1e6 / ops,
        "ads.pair_memo_hit_ratio": _hit_ratio(before["pair"], merkle._hash_pair_memo.cache_info()),
        "ads.leaf_memo_hit_ratio": _hit_ratio(before["leaf"], hashing._hash_record_cached.cache_info()),
        "store.calls_per_op": counts["store"] / ops,
        "store.us_per_op": own.get("store", 0.0) * 1e6 / ops,
        "lsm.flushes": counts["lsm.flush"],
        "lsm.compactions": counts["lsm.compact"],
        "lsm.compaction_ms": totals.get("lsm.compact", 0.0) * 1e3,
        "lsm.rewrite_ratio": (
            counts["lsm.rewritten"] / counts["lsm.flushed"] if counts["lsm.flushed"] else 0.0
        ),
        "core.replications_per_kop": sum(f.replications for f in fleet.feeds.values()) * 1e3 / ops,
        "core.evictions_per_kop": sum(f.evictions for f in fleet.feeds.values()) * 1e3 / ops,
        "core.prepare_update_us_per_op": own.get("core.prepare_update", 0.0) * 1e6 / ops,
        "cache.hit_ratio": fleet.cache_hit_rate,
        "cache.lookups_per_op": fleet.cache_lookups / ops,
        "wire.bytes_per_epoch": ipc.get("bytes_per_epoch", 0.0),
        "wire.encode_ms_per_epoch": ipc.get("encode_seconds", 0.0) * 1e3 / epochs,
        "wire.decode_ms_per_epoch": decode_s * 1e3 / epochs,
        "lanes.wait_ms_per_epoch": (
            max(0.0, totals.get("lanes.results", 0.0) - decode_s) * 1e3 / epochs
        ),
        "lanes.busy_share": lane_busy / (lanes_used * wall) if fleet.ipc else 0.0,
        "gc.pause_ms_total": sum(pauses) * 1e3,
        "gc.pause_ms_max": max(pauses, default=0.0) * 1e3,
        "gc.gen2_collections": len(gen2),
    }
    for phase in ("drive", "deliver", "update", "settle", "merge"):
        metrics[f"sched.{phase}_ms_per_epoch"] = phase_total.get(phase, 0.0) * 1e3 / epochs
    for name in ("door.admit_ms_p50", "door.queue_wait_ms_p50",
                 "door.queue_wait_ms_p99", "door.ops_per_epoch"):
        metrics[name] = 0.0
    return metrics


def door_metrics(obs, records, polls, fleet) -> Dict[str, float]:
    """Admission and queueing time per request.  Requests are admitted in
    submission order (nothing suspends a submit before admission), and every
    poll takes the oldest pending requests, so the k-th request span and the
    k-th taken request are the k-th submitted request."""
    spans = obs.tracer.find("frontdoor.request")
    admitted = [span.start for span in spans]
    sent = [record[1] for record in records]
    taken = [now for now, count in polls for _ in range(count)]
    admit_ms = [(a - s) * 1e3 for a, s in zip(admitted, sent)]
    wait_ms = [(t - a) * 1e3 for t, a in zip(taken, admitted)]
    return {
        "door.admit_ms_p50": percentile(admit_ms, 50) if admit_ms else 0.0,
        "door.queue_wait_ms_p50": percentile(wait_ms, 50) if wait_ms else 0.0,
        "door.queue_wait_ms_p99": percentile(wait_ms, 99) if wait_ms else 0.0,
        "door.ops_per_epoch": fleet.operations / max(1, fleet.epochs_run),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    shape = inputs.WORKLOADS[args.workload]
    if shape.mode == "live":
        result = run_live(shape, args.seed, bool(args.trace))
    else:
        result = run_batch(shape, args.seed, bool(args.trace), args.reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
