"""Tests for the storage-manager contract and the DO/SP protocol components."""

from __future__ import annotations

import pytest

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain, ChainParameters
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.config import GrubConfig
from repro.core.control_plane import ControlPlane, DecisionActuator, WorkloadMonitor
from repro.core.data_consumer import DataConsumerContract
from repro.core.data_owner import DataOwner
from repro.core.decision.memoryless import MemorylessAlgorithm
from repro.core.grub import GrubSystem
from repro.core.service_provider import ServiceProvider, TamperingServiceProvider
from repro.core.storage_manager import INVALID_REPLICA, StorageManagerContract


@pytest.fixture
def protocol_system():
    """A small GRuB system with a preloaded store, convenient for protocol tests."""
    config = GrubConfig(epoch_size=4, algorithm="memoryless", k=1)
    preload = [
        KVRecord.make("alpha", b"A" * 32),
        KVRecord.make("bravo", b"B" * 32),
        KVRecord.make("charlie", b"C" * 32),
    ]
    return GrubSystem(config, preload=preload)


class TestStorageManagerContract:
    def test_preload_publishes_root_hash(self, protocol_system):
        assert protocol_system.storage_manager.root_hash() is not None

    def test_gget_miss_emits_request_and_returns_none(self, protocol_system):
        chain = protocol_system.chain
        value = chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value is None
        assert chain.event_log.latest("request") is not None
        assert protocol_system.storage_manager.requests_emitted == 1

    def test_deliver_then_hit(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        protocol_system.service_provider.decision_lookup = lambda key: ReplicationState.REPLICATED
        protocol_system.service_provider.service_epoch()
        chain.mine_block()
        assert protocol_system.storage_manager.has_replica("alpha")
        value = chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value == b"A" * 32

    def test_update_requires_data_owner(self, protocol_system):
        from repro.chain.transaction import Transaction

        chain = protocol_system.chain
        tx = Transaction(
            sender="mallory",
            contract="storage-manager",
            function="update",
            args={"entries": [], "digest": b"\x01" * 32},
            calldata_bytes=64,
        )
        chain.submit(tx)
        receipt = chain.mine_block().receipts[0]
        assert not receipt.success
        assert "data owner" in receipt.error

    def test_invalidated_replica_treated_as_miss(self, protocol_system):
        manager = protocol_system.storage_manager
        manager.storage.slots["replica:alpha"] = INVALID_REPLICA
        assert not manager.has_replica("alpha")
        assert manager.replica_count() == 0
        value = protocol_system.chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value is None

    def test_call_history_records_hits_and_misses(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        history = protocol_system.storage_manager.calls_since(0)
        assert len(history) == 1
        assert history[0].key == "alpha" and history[0].hit_replica is False

    def test_on_chain_trace_tracking_costs_gas(self):
        config = GrubConfig(epoch_size=4)
        from repro.core.baselines import OnChainTraceSystem, OnChainReadTraceSystem

        bl3 = OnChainTraceSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        bl4 = OnChainReadTraceSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        plain = GrubSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        ops = [Operation.read("a") for _ in range(8)]
        gas_bl3 = bl3.run(list(ops)).gas_feed
        gas_bl4 = bl4.run(list(ops)).gas_feed
        gas_plain = plain.run(list(ops)).gas_feed
        assert gas_bl3 > gas_bl4 > gas_plain


class TestWritePath:
    def test_epoch_update_refreshes_root_and_skips_empty_epochs(self, protocol_system):
        owner = protocol_system.data_owner
        root_before = protocol_system.storage_manager.root_hash()
        result = owner.end_epoch()
        assert result.transaction is None  # nothing buffered, no transaction
        owner.put("alpha", b"X" * 32)
        result = owner.end_epoch()
        protocol_system.chain.mine_block()
        assert result.transaction is not None
        assert protocol_system.storage_manager.root_hash() != root_before

    def test_replicated_write_carried_in_update(self, protocol_system):
        owner = protocol_system.data_owner
        # Force the decision to R by reading twice (K=1 → replicate after 1 read).
        protocol_system.chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="bravo"
        )
        owner.control_plane.monitor.fetch_chain_reads()  # consumed below via run_epoch
        owner.put("bravo", b"Y" * 32)
        result = owner.end_epoch()
        protocol_system.chain.mine_block()
        replicated_entries = [e for e in result.entries if e.new_state is ReplicationState.REPLICATED]
        assert protocol_system.data_owner.control_plane.decision_for("bravo") in ReplicationState
        assert result.buffered_writes == 1
        # Whether or not the read was observed in time, the update must keep
        # the SP store and the on-chain digest consistent.
        assert protocol_system.sp_store.get_record("bravo").value == b"Y" * 32

    def test_witness_verification_path(self):
        config = GrubConfig(epoch_size=2)
        system = GrubSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        system.data_owner.verify_witnesses = True
        system.data_owner.put("a", b"w" * 32)
        result = system.data_owner.end_epoch()
        assert result.buffered_writes == 1


class TestReadPathAndWatchdog:
    def test_watchdog_polls_only_new_events(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        assert sp.poll_requests() == 1
        assert sp.poll_requests() == 0

    def test_batched_deliver_answers_all_pending(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        for key in ("alpha", "bravo", "charlie"):
            chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
        transactions = sp.service_epoch()
        assert len(transactions) == 1  # batched
        chain.mine_block()
        assert protocol_system.consumer.deliveries() == 3

    def test_unbatched_deliver_sends_one_transaction_per_request(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        sp.batch_deliver = False
        for key in ("alpha", "bravo"):
            chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
        transactions = sp.service_epoch()
        assert len(transactions) == 2

    def test_unknown_key_request_is_skipped(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="ghost")
        transactions = sp.service_epoch()
        assert transactions == []


class TestSecurityAgainstTamperingSP:
    @pytest.mark.parametrize("attack", ["forge", "replay", "fork", "relabel"])
    def test_tampered_deliveries_are_rejected_on_chain(self, attack):
        config = GrubConfig(epoch_size=4)
        preload = [KVRecord.make("alpha", b"A" * 32), KVRecord.make("bravo", b"B" * 32)]
        system = GrubSystem(config, preload=preload)
        evil = TamperingServiceProvider(
            address="storage-provider",
            chain=system.chain,
            storage_manager=system.storage_manager,
            store=system.sp_store,
            attack=attack,
        )
        evil.capture_snapshot()
        if attack == "replay":
            # Change the value after the snapshot so the replayed value is stale.
            system.data_owner.put("alpha", b"NEW" + b"A" * 29)
            system.data_owner.end_epoch()
            system.chain.mine_block()
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        evil.service_epoch()
        receipts = system.chain.mine_block().receipts
        deliver_receipts = [r for r in receipts if r.transaction.function == "deliver"]
        assert deliver_receipts, "the adversarial SP should have sent a deliver"
        assert all(not r.success for r in deliver_receipts)
        # The callback must never observe tampered data.
        assert system.consumer.deliveries() == 0

    def test_omission_attack_denies_service_but_not_integrity(self):
        config = GrubConfig(epoch_size=4)
        system = GrubSystem(config, preload=[KVRecord.make("alpha", b"A" * 32)])
        evil = TamperingServiceProvider(
            address="storage-provider",
            chain=system.chain,
            storage_manager=system.storage_manager,
            store=system.sp_store,
            attack="omit",
        )
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        assert evil.service_epoch() == []
        assert system.consumer.deliveries() == 0

    def test_honest_delivery_succeeds_for_comparison(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        protocol_system.service_provider.service_epoch()
        receipts = chain.mine_block().receipts
        deliver_receipts = [r for r in receipts if r.transaction.function == "deliver"]
        assert deliver_receipts and all(r.success for r in deliver_receipts)
        assert protocol_system.consumer.deliveries() == 1


class TestControlPlane:
    def _make(self, continuous=False, k=2):
        manager = StorageManagerContract("sm", "do")
        plane = ControlPlane(
            monitor=WorkloadMonitor(storage_manager=manager),
            algorithm=MemorylessAlgorithm(k=k),
            actuator=DecisionActuator(),
            continuous=continuous,
        )
        return manager, plane

    def test_monitor_preserves_interleaving(self):
        manager, plane = self._make(k=2)
        from repro.core.storage_manager import GGetCall

        # read, write, read: the consecutive-read count after the write is 1, not 2.
        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.record_local_write(Operation.write("a", b"v"))
        manager.call_history.append(GGetCall("a", False, 0, "du"))
        transitions = plane.run_epoch(replicated_keys=[])
        assert plane.algorithm.read_count("a") == 1
        assert transitions.get("a", ReplicationState.NOT_REPLICATED) is ReplicationState.NOT_REPLICATED

    def test_continuous_mode_flips_decision_mid_epoch(self):
        manager, plane = self._make(continuous=True, k=1)
        from repro.core.storage_manager import GGetCall

        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.observe_chain_reads()
        assert plane.decision_for("a") is ReplicationState.REPLICATED

    def test_eviction_policy_demotes_idle_replicas(self):
        manager, plane = self._make(k=1)
        plane.evict_unused_after_epochs = 2
        # Make "a" replicated by observing reads.
        from repro.core.storage_manager import GGetCall

        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.run_epoch(replicated_keys=[])
        # Two idle epochs later the key is demoted.
        plane.run_epoch(replicated_keys=["a"])
        transitions = plane.run_epoch(replicated_keys=["a"])
        assert transitions.get("a") is ReplicationState.NOT_REPLICATED
