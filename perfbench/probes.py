"""Benchmark-side tracing: spans and counters around each layer's public
functions, installed from outside the program for the traced run only.

:class:`Probe` replaces chosen methods of the program's classes with thin
wrappers that record ``(thread, layer, start, end)`` spans in memory and
bump call counters, and restores the originals on :meth:`Probe.remove`.
Spans are written out only when the run ends (see :mod:`tally` for the self
time they yield).  Nothing is recorded in forked lane processes: after a
fork the wrappers pass straight through.

:class:`GcWatch` times CPython's collector pauses through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from tally import SpanRecord


class Probe:
    """Spans and counters around public methods of the program's classes."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.counts: Dict[str, int] = {}
        self.active = True
        self._patches: List[Tuple[type, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def _patch(self, owner: type, attr: str, wrapper: Callable, original) -> None:
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(
        self,
        owner: type,
        attr: str,
        layer: str,
        count: Optional[Callable[..., int]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span and count it
        (by one, or by ``count(*args)``)."""
        original = owner.__dict__[attr]
        spans = self.spans
        counts = self.counts
        counts.setdefault(layer, 0)
        clock = time.perf_counter
        ident = threading.get_ident
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.active:
                return original(*args, **kwargs)
            counts[layer] += count(*args, **kwargs) if count is not None else 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((ident(), layer, start, clock()))

        self._patch(owner, attr, wrapper, original)

    def counter(self, owner: type, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot paths)."""
        original = owner.__dict__[attr]
        counts = self.counts
        counts.setdefault(name, 0)
        probe = self

        def wrapper(*args, **kwargs):
            if probe.active:
                counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper, original)

    def after(self, owner: type, attr: str, hook: Callable) -> None:
        """Call ``hook(now, result, *args, **kwargs)`` after each call of
        ``owner.attr``, on the calling thread."""
        original = owner.__dict__[attr]
        clock = time.perf_counter
        probe = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if probe.active:
                hook(clock(), result, *args, **kwargs)
            return result

        self._patch(owner, attr, wrapper, original)

    def layer_totals(self) -> Dict[str, float]:
        """Total span seconds per layer (children included)."""
        totals: Dict[str, float] = {}
        for _, layer, start, end in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start)
        return totals

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install_layer_probes(probe: Probe) -> None:
    """Wrap the public functions of chain, ads, storage, core, cache and the
    process engine (imports are local: the module must stay importable
    without the program for the pure tests)."""
    from repro.ads.merkle import MerkleTree
    from repro.chain.chain import Blockchain
    from repro.chain.vm import GasMeter
    from repro.core.control_plane import ControlPlane
    from repro.core.data_owner import DataOwner
    from repro.gateway.cache import ReadCache
    from repro.gateway.executor import ProcessEngine
    from repro.storage.kvstore import InMemoryKVStore
    from repro.storage.lsm import LSMStore

    probe.span(Blockchain, "execute_internal_call", "chain.internal_call")
    probe.span(Blockchain, "mine_block", "chain.mine")
    probe.span(Blockchain, "mine_recorded_block", "chain.mine")
    probe.counter(GasMeter, "charge", "chain.charge")
    probe.span(MerkleTree, "prove", "ads.prove")
    probe.span(
        MerkleTree, "prove_many", "ads.prove",
        count=lambda tree, indices, *rest, **kw: len(indices),
    )
    for attr in ("update_leaf", "stage_leaf", "recompute_paths", "append_leaf"):
        probe.span(MerkleTree, attr, "ads.update")
    for store in (InMemoryKVStore, LSMStore):
        for attr in ("get", "put", "delete", "scan"):
            probe.span(store, attr, "store")
    probe.span(LSMStore, "flush", "lsm.flush")
    probe.span(LSMStore, "compact", "lsm.compact")
    # Entries written by flushes and rewritten by compactions.
    probe.counts["lsm.flushed"] = probe.counts["lsm.rewritten"] = 0

    def note_flush(now, table, store):
        if table is not None:
            probe.counts["lsm.flushed"] += len(table)

    def note_compact(now, table, store):
        probe.counts["lsm.rewritten"] += len(table)

    probe.after(LSMStore, "compact", note_compact)
    probe.after(LSMStore, "flush", note_flush)
    probe.span(DataOwner, "prepare_epoch_update", "core.prepare_update")
    probe.span(ControlPlane, "run_epoch", "core.decide")
    probe.span(ReadCache, "get", "cache.get")
    probe.span(ProcessEngine, "results", "lanes.results")


class GcWatch:
    """Collector pauses, observed through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, float]] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses.append((info["generation"], time.perf_counter() - self._started))

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
