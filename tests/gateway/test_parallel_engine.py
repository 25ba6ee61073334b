"""Parallel epoch engine: bit-identical to serial, deterministic, warm cache.

The engine's contract is strict: neither ``num_workers`` nor the execution
backend (``serial`` / ``thread`` / ``process``) may change anything but
wall-clock time.  Telemetry, per-feed gas bills and final chain state must be
equal to the bit for any backend and worker count, and two runs of the same
configuration must be identical to each other.  These tests pin that over a
mixed fleet (different algorithms, k values, record sizes and workload shapes
per feed) — including the process backend, whose feeds execute in separate
worker processes and whose results are spliced back in shard order.
"""

from __future__ import annotations

import gc
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.ads.merkle import MerkleProof
from repro.chain.chain import ChainParameters
from repro.chain.gas import LAYER_APPLICATION, LAYER_FEED
from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.core.data_consumer import DataConsumerContract
from repro.core.storage_manager import DeliverItem, UpdateEntry
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, GasAwareShardPlanner
from repro.gateway import executor
from repro.gateway.executor import ProcessEngine
from repro.gateway.router import DeliverGroup, UpdateGroup
from repro.gateway.scheduler import RequestSource
from repro.obs import Observability
from repro.workloads.synthetic import SyntheticWorkload


def _mixed_fleet_configs():
    """Eight deliberately heterogeneous tenant configurations."""
    return [
        GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=4),
        GrubConfig(epoch_size=8, algorithm="always"),
        GrubConfig(epoch_size=8, algorithm="never"),
        GrubConfig(epoch_size=8, algorithm="adaptive-k1"),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2, record_size_bytes=64),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2,
                   evict_unused_after_epochs=2),
        GrubConfig(epoch_size=8, algorithm="memorizing"),
    ]


def build_mixed_fleet():
    registry = FeedRegistry()
    workloads = {}
    for index, config in enumerate(_mixed_fleet_configs()):
        feed_id = f"feed-{index:02d}"
        preload = [
            KVRecord.make(f"k{index:02d}-{j:02d}", bytes(32)) for j in range(8)
        ]
        registry.create_feed(FeedSpec(feed_id=feed_id, config=config, preload=preload))
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=2.0 + index,
            num_operations=64,
            num_keys=6,
            key_prefix=f"k{index:02d}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def chain_state_fingerprint(registry: FeedRegistry) -> dict:
    """Everything observable about the shared chain after a run."""
    ledger = registry.chain.ledger
    return {
        "height": registry.chain.height,
        "events": [
            # Block stamps included deliberately: the process backend must
            # reproduce not just the event stream but the very block numbers
            # a serial run records (workers pad their local chains to the
            # main chain's height before driving).
            (
                e.contract,
                e.name,
                e.block_number,
                e.transaction_index,
                sorted(e.payload.items(), key=repr),
            )
            for e in registry.chain.event_log
        ],
        "ledger_total": ledger.total,
        "by_scope": {
            f"{scope}/{layer}": amount
            for (scope, layer), amount in sorted(ledger.by_scope.items())
        },
        "by_category": dict(sorted(ledger.by_category.items())),
        "contracts": {
            handle.feed_id: sorted(
                (slot, value) for slot, value in handle.storage_manager.storage.slots.items()
            )
            for handle in registry.handles
        },
        "roots": {
            handle.feed_id: handle.storage_manager.root_hash()
            for handle in registry.handles
        },
        "replicas": {
            handle.feed_id: handle.storage_manager.replica_count()
            for handle in registry.handles
        },
    }


def run_fleet(
    num_workers: int,
    num_shards: int = 4,
    execution_mode: str = "thread",
    with_obs: bool = False,
):
    registry, workloads = build_mixed_fleet()
    scheduler = EpochScheduler(
        registry,
        num_shards=num_shards,
        num_workers=num_workers,
        execution_mode=execution_mode,
        obs=Observability() if with_obs else None,
    )
    fleet = scheduler.run(workloads)
    return fleet, registry


class _ScriptedSource(RequestSource):
    """A live source that hands over one batch of arrivals at epoch 0."""

    def __init__(self, arrivals):
        self._arrivals = arrivals
        self._sent = False

    def poll(self, epoch, *, wait):
        if self._sent:
            return {}
        self._sent = True
        return self._arrivals

    @property
    def exhausted(self):
        return self._sent

    def next_epoch(self, after):
        return None

    def settled(self, epoch, feed_id, *, executed, deferred, gas):
        pass

    def run_finished(self, fleet):
        pass


@pytest.fixture
def lane_orders(monkeypatch):
    """The epoch count of every order the process engine hands a lane,
    spied where the order crosses to the lane's pool."""
    counts = []
    submit = ProcessPoolExecutor.submit

    def spy(pool, fn, /, *args, **kwargs):
        if fn is executor._lane_epochs:
            counts.append(args[1])
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    return counts


class TestParallelSerialEquivalence:
    def test_parallel_run_is_bit_identical_to_serial(self):
        serial_fleet, serial_registry = run_fleet(num_workers=1)
        parallel_fleet, parallel_registry = run_fleet(num_workers=4)

        # Telemetry (every counter, every epoch summary of every feed).
        assert parallel_fleet.fingerprint() == serial_fleet.fingerprint()
        # Per-feed gas bills straight from the ledger's scopes.
        for feed_id in serial_fleet.feeds:
            for layer in (LAYER_FEED, LAYER_APPLICATION):
                assert parallel_registry.chain.ledger.scope_total(
                    feed_id, layer
                ) == serial_registry.chain.ledger.scope_total(feed_id, layer)
        # Final chain state: storage slots, roots, events, heights, ledger.
        assert chain_state_fingerprint(parallel_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_two_parallel_runs_are_identical(self):
        first_fleet, first_registry = run_fleet(num_workers=4)
        second_fleet, second_registry = run_fleet(num_workers=4)
        assert first_fleet.fingerprint() == second_fleet.fingerprint()
        assert chain_state_fingerprint(first_registry) == chain_state_fingerprint(
            second_registry
        )

    def test_oversubscribed_workers_still_identical(self):
        serial_fleet, _ = run_fleet(num_workers=1)
        oversubscribed_fleet, _ = run_fleet(num_workers=16, num_shards=8)
        serial_shardmatched_fleet, _ = run_fleet(num_workers=1, num_shards=8)
        # Worker count never changes output; shard count legitimately does
        # (it changes the batching), so compare like with like.
        assert oversubscribed_fleet.fingerprint() == serial_shardmatched_fleet.fingerprint()
        assert serial_fleet.fingerprint() != {}

    def test_invalid_worker_count_rejected(self):
        registry, _ = build_mixed_fleet()[0], None
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_workers=0)


class TestExecutionModeEquivalence:
    """serial / thread / process must be indistinguishable in every output."""

    def test_three_modes_bit_identical(self):
        serial_fleet, serial_registry = run_fleet(1, execution_mode="serial")
        thread_fleet, thread_registry = run_fleet(4, execution_mode="thread")
        process_fleet, process_registry = run_fleet(2, execution_mode="process")

        serial_print = serial_fleet.fingerprint()
        assert thread_fleet.fingerprint() == serial_print
        assert process_fleet.fingerprint() == serial_print

        serial_chain = chain_state_fingerprint(serial_registry)
        assert chain_state_fingerprint(thread_registry) == serial_chain
        assert chain_state_fingerprint(process_registry) == serial_chain

        # Per-feed gas bills straight from the ledger's scopes.
        for feed_id in serial_fleet.feeds:
            for layer in (LAYER_FEED, LAYER_APPLICATION):
                expected = serial_registry.chain.ledger.scope_total(feed_id, layer)
                assert process_registry.chain.ledger.scope_total(feed_id, layer) == expected

    def test_settlement_receipts_identical_and_header_only(self):
        """Every mode records the same settlement receipts, and each keeps
        only its transaction's header: the decoded payloads are released at
        block inclusion."""

        def receipts(registry):
            return [
                (
                    receipt.transaction.function,
                    receipt.transaction.scopes,
                    receipt.transaction.calldata_bytes,
                    receipt.gas_used,
                    receipt.success,
                    [
                        (e.contract, e.name, e.block_number, sorted(e.payload.items(), key=repr))
                        for e in receipt.events
                    ],
                )
                for block in registry.chain.blocks
                for receipt in block.receipts
            ]

        _, serial_registry = run_fleet(1, execution_mode="serial")
        _, thread_registry = run_fleet(4, execution_mode="thread")
        _, process_registry = run_fleet(2, execution_mode="process")
        serial_receipts = receipts(serial_registry)
        # Preload publications ("update") plus both batched settlements.
        assert {entry[0] for entry in serial_receipts} == {
            "update", "deliver_batch", "update_batch",
        }
        assert receipts(thread_registry) == serial_receipts
        assert receipts(process_registry) == serial_receipts
        for registry in (serial_registry, thread_registry, process_registry):
            assert all(
                receipt.transaction.args == {}
                for block in registry.chain.blocks
                for receipt in block.receipts
            )

    def test_chain_history_retains_no_settlement_payloads(self):
        _, registry = run_fleet(1, execution_mode="serial")
        payload_types = (DeliverItem, UpdateEntry, DeliverGroup, UpdateGroup, MerkleProof)
        skipped = (type, types.ModuleType, types.FunctionType, types.MethodType)
        seen = {id(registry.chain.blocks)}
        frontier = [registry.chain.blocks]
        reached = 0
        while frontier:
            obj = frontier.pop()
            reached += 1
            assert not isinstance(obj, payload_types), type(obj).__name__
            for child in gc.get_referents(obj):
                if id(child) not in seen and not isinstance(child, skipped):
                    seen.add(id(child))
                    frontier.append(child)
        assert reached > len(registry.chain.blocks)

    def test_block_gas_overflow_accounting_identical_across_modes(self):
        """Overflow is derived from a block's gas on whichever chain mines
        it; the worker's local derivation must not also ship in the ledger
        delta (that double-counted it once)."""

        def run(mode, workers):
            parameters = ChainParameters(block_gas_limit=50_000)
            registry = FeedRegistry(parameters=parameters)
            config = GrubConfig(
                epoch_size=8,
                algorithm="memoryless",
                k=1,
                chain_parameters=parameters,
            )
            workloads = {}
            for index in range(4):
                feed_id = f"feed-{index:02d}"
                registry.create_feed(
                    FeedSpec(
                        feed_id=feed_id,
                        config=config,
                        preload=[
                            KVRecord.make(f"f{index}-{j:02d}", bytes(32))
                            for j in range(8)
                        ],
                    )
                )
                workloads[feed_id] = SyntheticWorkload(
                    read_write_ratio=1.0,
                    num_operations=32,
                    num_keys=6,
                    key_prefix=f"f{index}-",
                    seed=index + 1,
                ).operations()
            scheduler = EpochScheduler(
                registry, num_shards=2, num_workers=workers, execution_mode=mode
            )
            scheduler.run(workloads)
            return dict(registry.chain.ledger.by_category)

        serial = run("serial", 1)
        process = run("process", 2)
        # The scenario must actually overflow the tiny limit, else it tests
        # nothing.
        assert serial.get("block_gas_limit_overflow", 0) > 0
        assert process == serial

    def test_process_lane_count_never_changes_output(self):
        one_lane, _ = run_fleet(1, execution_mode="process")
        many_lanes, _ = run_fleet(4, execution_mode="process")
        assert one_lane.fingerprint() == many_lanes.fingerprint()

    def test_process_mode_syncs_mirrors_for_post_run_inspection(self):
        serial_fleet, serial_registry = run_fleet(1, execution_mode="serial")
        process_fleet, process_registry = run_fleet(2, execution_mode="process")
        for feed_id in serial_fleet.feeds:
            serial_handle = serial_registry.get(feed_id)
            process_handle = process_registry.get(feed_id)
            # Contract mirrors: storage, root, replica count, call history.
            assert (
                process_handle.storage_manager.storage.slots
                == serial_handle.storage_manager.storage.slots
            )
            assert (
                process_handle.storage_manager.root_hash()
                == serial_handle.storage_manager.root_hash()
            )
            assert process_handle.replicated_on_chain == serial_handle.replicated_on_chain
            # Off-chain mirrors: report, SP store root, DO trusted root.
            assert process_handle.report.gas_feed == serial_handle.report.gas_feed
            assert process_handle.report.operations == serial_handle.report.operations
            assert (
                process_handle.system.sp_store.root == serial_handle.system.sp_store.root
            )
            assert (
                process_handle.data_owner.trusted_root
                == serial_handle.data_owner.trusted_root
            )
            # Consumer state (callbacks received) synced from the worker.
            assert (
                process_handle.consumer.deliveries() == serial_handle.consumer.deliveries()
            )


class TestWireCodecEquivalence:
    """The compact wire boundary must be invisible in every output —
    with and without observability attached, by either placement route."""

    def test_three_modes_bit_identical_with_obs_enabled(self):
        serial_fleet, serial_registry = run_fleet(
            1, execution_mode="serial", with_obs=True
        )
        thread_fleet, thread_registry = run_fleet(
            4, execution_mode="thread", with_obs=True
        )
        process_fleet, process_registry = run_fleet(
            2, execution_mode="process", with_obs=True
        )
        serial_print = serial_fleet.fingerprint()
        assert thread_fleet.fingerprint() == serial_print
        assert process_fleet.fingerprint() == serial_print
        serial_chain = chain_state_fingerprint(serial_registry)
        assert chain_state_fingerprint(thread_registry) == serial_chain
        assert chain_state_fingerprint(process_registry) == serial_chain

    def test_obs_enabled_matches_obs_disabled(self):
        quiet_fleet, quiet_registry = run_fleet(2, execution_mode="process")
        traced_fleet, traced_registry = run_fleet(
            2, execution_mode="process", with_obs=True
        )
        assert traced_fleet.fingerprint() == quiet_fleet.fingerprint()
        assert chain_state_fingerprint(traced_registry) == chain_state_fingerprint(
            quiet_registry
        )

    def test_frame_placement_matches_serial(self, monkeypatch):
        """Force initial placement by snapshot frames (on a fork platform
        lanes would otherwise adopt their feeds from the fork, so without
        the override the frame path only runs for admissions)."""
        serial_fleet, serial_registry = run_fleet(1, execution_mode="serial")
        monkeypatch.setattr(ProcessEngine, "fork_placement", staticmethod(lambda: False))
        process_fleet, process_registry = run_fleet(2, execution_mode="process")
        assert process_fleet.ipc["installs_total"] > 0
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        for feed_id in serial_fleet.feeds:
            for layer in (LAYER_FEED, LAYER_APPLICATION):
                assert process_registry.chain.ledger.scope_total(
                    feed_id, layer
                ) == serial_registry.chain.ledger.scope_total(feed_id, layer)
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_ipc_meter_reports_traffic_and_stays_out_of_fingerprint(self):
        serial_fleet, _ = run_fleet(1, execution_mode="serial")
        process_fleet, _ = run_fleet(2, execution_mode="process")
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        summary = process_fleet.ipc
        assert summary is not None
        assert summary["wire_bytes_total"] > 0
        assert summary["bytes_per_epoch"] > 0
        assert summary["epochs"] > 0
        # serial runs have no process boundary, hence no IPC record
        assert serial_fleet.ipc is None


class TestProcessModeConstraints:
    def test_serial_mode_rejects_extra_workers(self):
        registry, _ = build_mixed_fleet()
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_workers=4, execution_mode="serial")

    def test_unknown_mode_rejected(self):
        registry, _ = build_mixed_fleet()
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, execution_mode="fiber")

    def _run_with_churn(self, execution_mode, num_workers):
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry,
            num_shards=4,
            num_workers=num_workers,
            execution_mode=execution_mode,
        )
        scheduler.admit(
            FeedSpec(feed_id="late", config=GrubConfig(epoch_size=8)),
            [Operation.read("k")] * 12,
            at_epoch=1,
        )
        scheduler.evict("feed-03", at_epoch=2)
        return scheduler.run(workloads), registry

    def test_process_mode_runs_churn_bit_identical_to_serial(self):
        """Historically rejected; now routed to the elastic engine, where the
        admitted feed installs into a lane and the evicted one tears down."""
        serial_fleet, serial_registry = self._run_with_churn("serial", 1)
        process_fleet, process_registry = self._run_with_churn("process", 2)
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )
        assert process_fleet.ipc["installs_total"] > 0

    def _run_with_gas_aware_planner(self, execution_mode, num_workers):
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry,
            num_workers=num_workers,
            execution_mode=execution_mode,
            planner=GasAwareShardPlanner(block_gas_fraction=0.02),
        )
        return scheduler.run(workloads), registry

    def test_process_mode_runs_gas_aware_planner_bit_identical_to_serial(self):
        """Historically rejected (a re-sharding plan moves feeds between
        lanes); now the moves happen, as snapshot-frame migrations."""
        serial_fleet, serial_registry = self._run_with_gas_aware_planner("serial", 1)
        process_fleet, process_registry = self._run_with_gas_aware_planner(
            "process", 3
        )
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def _run_with_persistent_store(self, execution_mode, num_workers, directory):
        registry = FeedRegistry()
        preload = [KVRecord.make(f"key-{i:02d}", bytes(32)) for i in range(8)]
        registry.create_feed(
            FeedSpec(
                feed_id="lsm-feed",
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
                preload=preload,
                store_backend="lsm",
                store_directory=directory,
            )
        )
        registry.create_feed(
            FeedSpec(feed_id="mem-feed", config=GrubConfig(epoch_size=8))
        )
        workloads = {
            "lsm-feed": SyntheticWorkload(
                read_write_ratio=2.0,
                num_operations=32,
                num_keys=8,
                key_prefix="key-",
                seed=3,
            ).operations(),
            "mem-feed": [Operation.read("k")] * 8,
        }
        scheduler = EpochScheduler(
            registry, num_workers=num_workers, execution_mode=execution_mode
        )
        return scheduler.run(workloads), registry

    def test_process_mode_runs_persistent_stores_bit_identical_to_serial(self, tmp_path):
        """Historically rejected (two processes must never open one LSM
        directory); the single-opener close/reopen handoff makes it legal —
        and the lane's final store contents land back in the directory."""
        serial_fleet, serial_registry = self._run_with_persistent_store(
            "serial", 1, tmp_path / "serial"
        )
        process_fleet, process_registry = self._run_with_persistent_store(
            "process", 2, tmp_path / "process"
        )
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )
        serial_store = serial_registry.get("lsm-feed").system.sp_store
        process_store = process_registry.get("lsm-feed").system.sp_store
        assert process_store.root == serial_store.root
        # The reopened main-side backing holds the lane's final records.
        backing = process_store.backing
        for record in process_store.records():
            assert backing.get(record.prefixed_key) == record.value


    def _run_with_late_lane(self, execution_mode, num_workers, directory):
        """One resident feed (one shard, one lane) until an LSM-backed,
        preloaded tenant joins at epoch 2 and widens the plan to two shards
        — so the second lane spawns mid-run with the newcomer assigned."""
        registry = FeedRegistry()
        registry.create_feed(FeedSpec(feed_id="resident", config=GrubConfig(epoch_size=8)))
        scheduler = EpochScheduler(
            registry,
            num_shards=2,
            num_workers=num_workers,
            execution_mode=execution_mode,
        )
        scheduler.admit(
            FeedSpec(
                feed_id="late",
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
                preload=[KVRecord.make(f"key-{i:02d}", bytes(32)) for i in range(8)],
                store_backend="lsm",
                store_directory=directory,
            ),
            SyntheticWorkload(
                read_write_ratio=2.0,
                num_operations=32,
                num_keys=8,
                key_prefix="key-",
                seed=5,
            ).operations(),
            at_epoch=2,
        )
        fleet = scheduler.run({"resident": [Operation.read("k")] * 48})
        return fleet, registry

    def test_lane_spawned_mid_run_takes_over_admitted_feed(self, tmp_path):
        """On a fork platform the new lane adopts the admitted feed from its
        fork (the main process closes the feed's LSM opener first); on any
        other platform the feed arrives as a snapshot frame."""
        serial_fleet, serial_registry = self._run_with_late_lane(
            "serial", 1, tmp_path / "serial"
        )
        process_fleet, process_registry = self._run_with_late_lane(
            "process", 2, tmp_path / "process"
        )
        assert process_fleet.ipc["lane_spawns_total"] == 2
        expected_installs = 0 if ProcessEngine.fork_placement() else 2
        assert process_fleet.ipc["installs_total"] == expected_installs
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )
        store = process_registry.get("late").system.sp_store
        assert store.root == serial_registry.get("late").system.sp_store.root
        for record in store.records():
            assert store.backing.get(record.prefixed_key) == record.value

    @pytest.mark.parametrize("churn", [False, True])
    def test_unpicklable_spec_rejected_at_run_start(self, churn):
        """A spec whose consumer factory cannot cross to a worker process
        fails the same way whether it is an initial feed or a queued
        admission, and whatever route would have placed it."""
        registry, workloads = build_mixed_fleet()
        spec = FeedSpec(
            feed_id="closure",
            config=GrubConfig(epoch_size=8),
            consumer_factory=lambda address: DataConsumerContract(
                "closure-consumer", address
            ),
        )
        scheduler = EpochScheduler(
            registry, num_shards=4, num_workers=2, execution_mode="process"
        )
        if churn:
            scheduler.admit(spec, [Operation.read("k")] * 4, at_epoch=1)
        else:
            registry.create_feed(spec)
            workloads["closure"] = [Operation.read("k")] * 4
        with pytest.raises(ConfigurationError, match="'closure'"):
            scheduler.run(workloads)

    # Submit-ahead is kept where the plan cannot change, and only there.

    def test_static_round_robin_run_orders_many_epochs_at_once(self, lane_orders):
        run_fleet(2, execution_mode="process")
        assert max(lane_orders) > 1

    def test_churn_run_orders_one_epoch_at_a_time(self, lane_orders):
        self._run_with_churn("process", 2)
        assert lane_orders and set(lane_orders) == {1}

    def test_gas_aware_run_orders_one_epoch_at_a_time(self, lane_orders):
        self._run_with_gas_aware_planner("process", 3)
        assert lane_orders and set(lane_orders) == {1}

    def test_live_run_orders_one_epoch_at_a_time(self, lane_orders):
        serial_fleet, _ = run_fleet(1, execution_mode="serial")
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry, num_shards=4, num_workers=2, execution_mode="process"
        )
        live_fleet = scheduler.run(source=_ScriptedSource(workloads))
        assert lane_orders and set(lane_orders) == {1}
        assert live_fleet.fingerprint() == serial_fleet.fingerprint()


class TestDeliverCacheWarmUp:
    def _registry_with_preloaded_feed(self, **config_overrides):
        registry = FeedRegistry()
        config = GrubConfig(
            epoch_size=2, algorithm="memoryless", k=1, **config_overrides
        )
        registry.create_feed(
            FeedSpec(
                feed_id="alpha",
                config=config,
                preload=[KVRecord.make("k", b"V" * 32)],
            )
        )
        return registry

    def test_deliver_payload_populates_cache(self):
        # Continuous decisions flip "k" to R mid-epoch, so the epoch-0 deliver
        # carries replicate=True — the deliver-time replication the warm-up
        # memoises.
        registry = self._registry_with_preloaded_feed(continuous_decisions=True)
        scheduler = EpochScheduler(registry)
        operations = [
            # Epoch 0: both reads miss (no replica yet); the epoch-end deliver
            # verifies and replicates "k", which must warm the cache.
            Operation.read("k"),
            Operation.read("k"),
            # Epoch 1: with warm-up BOTH reads are cache hits; without it the
            # first read would have to touch the on-chain replica first.
            Operation.read("k"),
            Operation.read("k"),
        ]
        fleet = scheduler.run({"alpha": operations})
        assert fleet.feed("alpha").cache_hits == 2
        assert fleet.feed("alpha").cache_misses == 2

    def test_dirty_keys_are_not_warmed(self):
        registry = self._registry_with_preloaded_feed()
        scheduler = EpochScheduler(registry)
        operations = [
            # Epoch 0: read misses (request), then a write dirties "k".  The
            # epoch-end deliver still carries the OLD value; warming it would
            # serve a stale record in epoch 1.
            Operation.read("k"),
            Operation.write("k", b"N" * 32),
            # Epoch 1: the read must observe the new value.
            Operation.read("k"),
            Operation.read("k"),
        ]
        scheduler.run({"alpha": operations})
        assert registry.get("alpha").consumer.last_value("k") == b"N" * 32
