"""Tests of the benchmark's own pure parts: percentiles, span self time,
seeded arrival schedules and the metric catalogue."""

from __future__ import annotations

import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
import inputs  # noqa: E402
from tally import covered, percentile, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def reference_percentile(samples, q):
    """The smallest sample with at least q% of all samples at or below it."""
    for candidate in sorted(samples):
        if sum(1 for s in samples if s <= candidate) >= q / 100.0 * len(samples):
            return candidate
    raise AssertionError("unreachable")


@pytest.mark.parametrize("size", [1, 2, 3, 10, 99, 100, 101, 257])
def test_percentile_matches_sorted_list_reference(size):
    rng = random.Random(size)
    samples = [rng.expovariate(1.0) for _ in range(size)]
    for q in (1, 25, 50, 90, 95, 99, 99.9, 100):
        assert percentile(samples, q) == reference_percentile(samples, q)
        assert percentile(samples, q) == sorted(samples)[math.ceil(q / 100 * size) - 1]


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_covered_merges_overlapping_children_and_clips():
    children = [(1, 4), (3, 6), (12, 15), (-2, 1)]
    assert covered((0, 10), children) == pytest.approx(6)
    assert covered((0, 10), []) == 0


def test_self_time_from_hand_built_span_tree():
    # Thread 1: A [0,10] holds B [1,4] (which holds D [2,3]) and C [5,9].
    # Thread 2: E [2,8] overlaps A in time but is no child of it.
    spans = [
        (1, "a", 0.0, 10.0),
        (1, "b", 1.0, 4.0),
        (1, "d", 2.0, 3.0),
        (1, "c", 5.0, 9.0),
        (2, "e", 2.0, 8.0),
    ]
    totals = self_times(spans)
    assert totals == pytest.approx({"a": 3.0, "b": 2.0, "c": 4.0, "d": 1.0, "e": 6.0})
    # Self times of one thread add up to its root span's duration.
    assert sum(v for k, v in totals.items() if k != "e") == pytest.approx(10.0)


def test_self_time_sums_by_layer_across_nested_calls_of_one_layer():
    spans = [(1, "store", 0.0, 4.0), (1, "store", 1.0, 2.0), (1, "lsm", 2.5, 3.5)]
    assert self_times(spans) == pytest.approx({"store": 3.0, "lsm": 1.0})


def test_arrival_schedule_is_a_function_of_the_seed():
    shape = inputs.WORKLOADS["live_open"]
    first = inputs.arrival_schedule(shape, 11)
    again = inputs.arrival_schedule(shape, 11)
    other = inputs.arrival_schedule(shape, 12)
    assert first == again
    assert inputs.schedule_digest(first) == inputs.schedule_digest(again)
    assert inputs.schedule_digest(first) != inputs.schedule_digest(other)
    dues = [due for due, _, _ in first]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < shape.duration_s
    # Roughly the offered rate (a Poisson count is within 5 sigma).
    expected = shape.rate * shape.duration_s
    assert abs(len(first) - expected) < 5 * math.sqrt(expected)


def test_arrival_schedule_is_byte_identical_across_interpreters():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import inputs; "
        "print(inputs.schedule_digest(inputs.arrival_schedule("
        "inputs.WORKLOADS['live_open'], 11)))" % (str(HERE), str(ROOT / "src"))
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": str(hash_seed)},
        ).stdout.strip()
        for hash_seed in (1, 2)
    }
    shape = inputs.WORKLOADS["live_open"]
    assert digests == {inputs.schedule_digest(inputs.arrival_schedule(shape, 11))}


def test_batch_inputs_are_a_function_of_the_seed():
    shape = inputs.WORKLOADS["read_hot"]
    assert inputs.fleet_workloads(shape, 5) == inputs.fleet_workloads(shape, 5)
    assert inputs.fleet_workloads(shape, 5) != inputs.fleet_workloads(shape, 6)
    assert inputs.preload(shape, 0, 5) == inputs.preload(shape, 0, 5)


def test_metric_and_workload_names_are_restricted():
    names = (
        list(catalog.WORKLOADS)
        + [metric.name for metric in catalog.END_TO_END]
        + [metric.name for metric in catalog.LAYERS]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in catalog.END_TO_END + catalog.LAYERS:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric.unit), metric.unit
    for why in catalog.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_catalogue_is_consistent():
    assert set(catalog.WORKLOADS) == set(inputs.WORKLOADS)
    # Facts only for metrics BENCHMARK.json lists (a missing one fails at import).
    assert set(catalog._MEANING) == set(catalog.END_TO_END_BY_NAME)
    assert set(catalog._FACTS) == set(catalog.LAYERS_BY_NAME)
    end_to_end = set(catalog.END_TO_END_BY_NAME)
    for layer in catalog.LAYERS:
        assert set(layer.moves) <= end_to_end, layer.name
        assert set(layer.busy_on + layer.idle_on) <= set(catalog.WORKLOADS), layer.name
    setup = catalog.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in catalog.END_TO_END) <= 0.25
