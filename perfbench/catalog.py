"""The metric catalogue: ``BENCHMARK.json``'s workloads and metrics, plus
what that file has no room for -- what each end-to-end metric means and, for
each per-layer metric, the layer it is measured around, the end-to-end
metrics it should move and the workloads that work its layer hard or leave
it idle.

Names, units, directions, bounds and workload reasons are read from
``BENCHMARK.json``; a metric there without its facts here fails at import.
Later changes cite these names verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Workload name -> the one-line reason it is in the benchmark.
WORKLOADS: Dict[str, str] = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: Module whose public functions the metric is measured around.
    layer: str
    #: End-to-end metrics a change of this metric should move.
    moves: Tuple[str, ...]
    #: Workloads that work the layer hard / leave it (nearly) idle.
    busy_on: Tuple[str, ...]
    idle_on: Tuple[str, ...]


#: What each end-to-end metric measures.
_MEANING: Dict[str, str] = {
    "ops_per_s": (
        "operations settled per second of EpochScheduler.run (live_open: "
        "settled requests per second of the run)"
    ),
    "gas_per_op": (
        "feed plus application gas per operation; exact on the batch "
        "workloads, batching-dependent on live_open"
    ),
    "latency_p50_ms": (
        "live_open: due time to future resolution; batch workloads: time "
        "between successive epoch settlements (lanes_static: main-side "
        "decode and merge, or the wait for the lanes' next batch); the "
        "mean over a run's repetitions of each one's nearest-rank p50"
    ),
    "latency_p99_ms": (
        "nearest-rank p99 of the same samples, pooled over a run's "
        "repetitions"
    ),
    "setup_s": (
        "building registry, feeds, preload and scheduler/door, excluding "
        "input generation; median over repetitions"
    ),
    "peak_rss_mb": (
        "largest peak resident set of the measuring process and (for "
        "lanes_static) its lane processes"
    ),
}

_BATCH = ("read_hot", "write_wide", "lanes_static")
_SERIAL = ("read_hot", "write_wide", "live_open")

#: Per-layer metric -> (layer, moves, busy_on, idle_on).
_FACTS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]] = {
    # gateway.scheduler / executor: obs spans run -> epoch -> phase -> shard.
    "sched.epochs": ("gateway.scheduler",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.self_ms_per_epoch": ("gateway.scheduler",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.drive_ms_per_epoch": ("gateway.executor",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.deliver_ms_per_epoch": ("gateway.executor",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.update_ms_per_epoch": ("gateway.executor",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.settle_ms_per_epoch": ("gateway.executor",
        ("latency_p50_ms", "ops_per_s"), ("live_open",), _BATCH),
    "sched.merge_ms_per_epoch": ("gateway.scheduler",
        ("latency_p50_ms", "ops_per_s"), ("lanes_static",), _SERIAL),
    # chain
    "chain.internal_calls_per_op": ("chain",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "chain.internal_call_us_per_op": ("chain",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "chain.charge_calls_per_op": ("chain",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "chain.events_per_op": ("chain",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "chain.blocks_per_kop": ("chain",
        ("ops_per_s", "gas_per_op"), ("live_open",), ("read_hot",)),
    "chain.mine_ms_per_block": ("chain",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    # ads
    "ads.proofs_per_op": ("ads",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "ads.prove_us_per_op": ("ads",
        ("ops_per_s",), ("read_hot",), ("write_wide",)),
    "ads.update_us_per_op": ("ads",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "ads.pair_memo_hit_ratio": ("ads",
        ("ops_per_s",), ("write_wide",), ("lanes_static",)),
    "ads.leaf_memo_hit_ratio": ("ads",
        ("ops_per_s",), ("write_wide",), ("lanes_static",)),
    # storage
    "store.calls_per_op": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "store.us_per_op": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "lsm.flushes": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "lsm.compactions": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "lsm.compaction_ms": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    "lsm.rewrite_ratio": ("storage",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    # core: GRuB decisions and the data owner
    "core.replications_per_kop": ("core",
        ("gas_per_op", "ops_per_s"), ("read_hot", "write_wide"), ()),
    "core.evictions_per_kop": ("core",
        ("gas_per_op", "ops_per_s"), ("read_hot", "write_wide"), ()),
    "core.prepare_update_us_per_op": ("core",
        ("ops_per_s",), ("write_wide",), ("read_hot",)),
    # gateway.cache
    "cache.hit_ratio": ("gateway.cache",
        ("gas_per_op", "ops_per_s"), ("read_hot",), ("write_wide",)),
    "cache.lookups_per_op": ("gateway.cache",
        ("gas_per_op", "ops_per_s"), ("read_hot",), ("write_wide",)),
    # common.wire + process lanes
    "wire.bytes_per_epoch": ("common.wire",
        ("ops_per_s",), ("lanes_static",), _SERIAL),
    "wire.encode_ms_per_epoch": ("common.wire",
        ("ops_per_s",), ("lanes_static",), _SERIAL),
    "wire.decode_ms_per_epoch": ("common.wire",
        ("ops_per_s",), ("lanes_static",), _SERIAL),
    "lanes.wait_ms_per_epoch": ("gateway.executor",
        ("ops_per_s", "latency_p50_ms"), ("lanes_static",), _SERIAL),
    "lanes.busy_share": ("gateway.executor",
        ("ops_per_s",), ("lanes_static",), _SERIAL),
    "lanes.peak_rss_mb": ("gateway.executor",
        ("peak_rss_mb",), ("lanes_static",), _SERIAL),
    # frontdoor
    "door.admit_ms_p50": ("frontdoor",
        ("latency_p99_ms",), ("live_open",), _BATCH),
    "door.queue_wait_ms_p50": ("frontdoor",
        ("latency_p99_ms",), ("live_open",), _BATCH),
    "door.queue_wait_ms_p99": ("frontdoor",
        ("latency_p99_ms",), ("live_open",), _BATCH),
    "door.ops_per_epoch": ("frontdoor",
        ("gas_per_op", "latency_p50_ms"), ("live_open",), _BATCH),
    "door.backlog_max": ("frontdoor",
        ("latency_p99_ms",), ("live_open",), _BATCH),
    "door.send_lag_p99_ms": ("frontdoor",
        ("latency_p99_ms",), ("live_open",), _BATCH),
    "door.failed_share": ("frontdoor",
        ("ops_per_s",), ("live_open",), _BATCH),
    # CPython's cyclic GC, observed through gc.callbacks
    "gc.pause_ms_total": ("cpython.gc",
        ("latency_p99_ms", "ops_per_s"), ("live_open", "read_hot"), ()),
    "gc.pause_ms_max": ("cpython.gc",
        ("latency_p99_ms",), ("live_open",), ()),
    "gc.gen2_collections": ("cpython.gc",
        ("latency_p99_ms", "ops_per_s"), ("live_open", "read_hot"), ()),
    # tracing itself
    "trace.overhead_ratio": ("perfbench",
        (), _BATCH + ("live_open",), ()),
}

END_TO_END: Tuple[EndToEnd, ...] = tuple(
    EndToEnd(meaning=_MEANING[entry["name"]], **entry) for entry in SPEC["end_to_end"]
)
LAYERS: Tuple[Layer, ...] = tuple(
    Layer(entry["name"], entry["unit"], entry["better"], *_FACTS[entry["name"]])
    for entry in SPEC["per_layer"]
)
END_TO_END_BY_NAME: Dict[str, EndToEnd] = {metric.name: metric for metric in END_TO_END}
LAYERS_BY_NAME: Dict[str, Layer] = {metric.name: metric for metric in LAYERS}

#: Interactions the numbers must show, not hide.
INTERACTIONS = (
    "live_open: a faster epoch settles fewer operations per batch, so "
    "door.ops_per_epoch falls and gas_per_op rises while latency falls -- "
    "GRuB's batching trade-off.",
    "live_open: gen-2 GC pauses set latency_p99_ms; gc.pause_ms_max is the "
    "layer metric a tail-latency change should move.",
    "write_wide bypasses the read cache and chain reads: a cache or gGet "
    "optimisation should leave every write_wide metric unchanged.",
    "read_hot and write_wide bypass the wire codec and lanes: a wire or "
    "merge optimisation should move only lanes_static.",
)
