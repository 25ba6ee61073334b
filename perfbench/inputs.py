"""Seeded inputs of the four benchmark workloads.

Everything here is a pure function of the workload shape and the seed: the
program under test receives only the generated operations, preload records
and (for ``live_open``) the arrival schedule.  Inputs are generated by the
benchmark itself, not by :mod:`repro.workloads`, so a change to the
library's generators cannot move the yardstick.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.types import KVRecord, Operation

#: YCSB's zipfian constant.
ZIPF_THETA = 0.99
#: Operation kinds are drawn in windows of this many operations, each with
#: exactly its share of reads, so the mix does not vary with the seed.
MIX_WINDOW = 20


@dataclass(frozen=True)
class Shape:
    """One workload's fixed size and mix; the seed picks the operations."""

    name: str
    #: ``"serial"`` or ``"process"`` batch fleet, or ``"live"`` front door.
    mode: str
    feeds: int
    ops_per_feed: int
    keys_per_feed: int
    read_share: float
    zipfian: bool
    store_backend: str = "memory"
    #: Payload size of every preloaded and written value.
    record_bytes: int = 32
    epoch_size: int = 16
    lanes: int = 1
    #: live only: offered Poisson rate (requests/s) and schedule length (s).
    rate: float = 0.0
    duration_s: float = 0.0


WORKLOADS: Dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="read_hot",
            mode="serial",
            feeds=16,
            ops_per_feed=1536,
            keys_per_feed=256,
            read_share=0.95,
            zipfian=True,
        ),
        Shape(
            name="write_wide",
            mode="serial",
            feeds=8,
            ops_per_feed=2048,
            keys_per_feed=2048,
            read_share=0.10,
            zipfian=False,
            store_backend="lsm",
            # Four-word records, so the run's writes fill several memtables
            # per feed and the LSM store flushes and compacts mid-run.
            record_bytes=128,
        ),
        Shape(
            name="lanes_static",
            mode="process",
            feeds=16,
            ops_per_feed=3072,
            keys_per_feed=256,
            read_share=0.5,
            zipfian=True,
            lanes=2,
        ),
        Shape(
            name="live_open",
            mode="live",
            feeds=8,
            ops_per_feed=0,
            keys_per_feed=64,
            read_share=0.8,
            zipfian=True,
            epoch_size=8,
            rate=1000.0,
            duration_s=7.5,
        ),
    )
}


def feed_id(index: int) -> str:
    return f"feed-{index:02d}"


def record_key(feed: int, key: int) -> str:
    return f"f{feed:02d}-k{key:05d}"


def zipf_cdf(count: int, theta: float = ZIPF_THETA) -> List[float]:
    """Cumulative zipfian weights over ranks ``0..count-1`` (last is 1.0)."""
    weights = [1.0 / (rank + 1) ** theta for rank in range(count)]
    total = sum(weights)
    cdf: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cdf.append(running / total)
    cdf[-1] = 1.0
    return cdf


class KeyPicker:
    """Draws key indices, zipfian (hot ranks scattered over the key space by
    a seeded permutation) or uniform."""

    def __init__(self, rng: random.Random, count: int, zipfian: bool) -> None:
        self.rng = rng
        self.count = count
        self.cdf = zipf_cdf(count) if zipfian else None
        self.rank_to_key = list(range(count))
        rng.shuffle(self.rank_to_key)

    def next(self) -> int:
        if self.cdf is None:
            return self.rng.randrange(self.count)
        rank = bisect.bisect_left(self.cdf, self.rng.random())
        return self.rank_to_key[min(rank, self.count - 1)]


def _value(rng: random.Random, size: int) -> bytes:
    return rng.getrandbits(8 * size).to_bytes(size, "big")


def read_pattern(rng: random.Random, count: int, read_share: float) -> List[bool]:
    """Which of ``count`` operations are reads: each window of
    :data:`MIX_WINDOW` holds exactly ``round(read_share * MIX_WINDOW)``
    reads at seeded positions."""
    reads = round(read_share * MIX_WINDOW)
    pattern: List[bool] = []
    while len(pattern) < count:
        window = [True] * reads + [False] * (MIX_WINDOW - reads)
        rng.shuffle(window)
        pattern.extend(window)
    return pattern[:count]


def preload(shape: Shape, feed: int, seed: int) -> List[KVRecord]:
    """The records a feed starts with: every key of its key set."""
    rng = random.Random(f"preload/{seed}/{shape.name}/{feed}")
    return [
        KVRecord.make(record_key(feed, key), _value(rng, shape.record_bytes))
        for key in range(shape.keys_per_feed)
    ]


def operation_stream(shape: Shape, feed: int, seed: int, count: int) -> List[Operation]:
    """``count`` operations of one feed at the shape's read share and skew."""
    rng = random.Random(f"ops/{seed}/{shape.name}/{feed}")
    picker = KeyPicker(rng, shape.keys_per_feed, shape.zipfian)
    operations: List[Operation] = []
    for sequence, is_read in enumerate(read_pattern(rng, count, shape.read_share)):
        key = record_key(feed, picker.next())
        if is_read:
            operations.append(
                Operation.read(key, size_bytes=shape.record_bytes, sequence=sequence)
            )
        else:
            operations.append(
                Operation.write(key, _value(rng, shape.record_bytes), sequence=sequence)
            )
    return operations


def fleet_workloads(shape: Shape, seed: int) -> Dict[str, List[Operation]]:
    """Per-feed operation sequences of a batch workload."""
    return {
        feed_id(feed): operation_stream(shape, feed, seed, shape.ops_per_feed)
        for feed in range(shape.feeds)
    }


#: One scheduled request: due offset from the run start (s), tenant index and
#: the tenant's next operation.
Arrival = Tuple[float, int, Operation]


def arrival_schedule(shape: Shape, seed: int) -> List[Arrival]:
    """Open-loop Poisson arrivals over ``shape.duration_s`` at ``shape.rate``.

    Built ahead of the run from the seed alone: gaps are exponential, each
    arrival's tenant is uniform, and each tenant's operations come from its
    own stream in order.
    """
    rng = random.Random(f"arrivals/{seed}/{shape.name}")
    dues: List[Tuple[float, int]] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(shape.rate)
        if clock >= shape.duration_s:
            break
        dues.append((clock, rng.randrange(shape.feeds)))
    per_tenant = [0] * shape.feeds
    for _, tenant in dues:
        per_tenant[tenant] += 1
    streams = [
        operation_stream(shape, tenant, seed, per_tenant[tenant])
        for tenant in range(shape.feeds)
    ]
    cursor = [0] * shape.feeds
    schedule: List[Arrival] = []
    for due, tenant in dues:
        schedule.append((due, tenant, streams[tenant][cursor[tenant]]))
        cursor[tenant] += 1
    return schedule


def schedule_digest(schedule: Sequence[Arrival]) -> str:
    """SHA-256 over the exact bytes of a schedule (due times as IEEE doubles)."""
    digest = hashlib.sha256()
    for due, tenant, operation in schedule:
        digest.update(struct.pack(">dI", due, tenant))
        digest.update(operation.kind.name.encode())
        digest.update(operation.key.encode())
        digest.update(operation.value or b"-")
    return digest.hexdigest()
