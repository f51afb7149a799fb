"""Fabric base machinery: ordering, retries, error shape, lifecycle.

These tests drive the backends through a throwaway ``test-echo`` task
kind (registered here, never shipped) so the retry loop and ordering
guarantee are pinned independently of the production extract/identify
kinds — those are exercised via :class:`ProcessFabric` below, which
needs kinds the pool's child processes can import.
"""

import pytest

from repro.fabric import (
    Fabric,
    FabricExecutionError,
    FabricTask,
    ProcessFabric,
    SerialFabric,
    TaskKind,
    register_task_kind,
    run_task,
    task_kind_names,
)
from repro.comparison.identify import identify_positions
from repro.obs import Registry

#: Attempt log for the flaky kind, keyed by test-chosen token.
_ATTEMPTS = {}


def _echo_run(payload):
    if payload.get("error"):
        raise RuntimeError(payload["error"])
    return payload["value"]


def _flaky_run(payload):
    token = payload["token"]
    _ATTEMPTS[token] = _ATTEMPTS.get(token, 0) + 1
    if _ATTEMPTS[token] <= payload["failures"]:
        raise RuntimeError(f"flaky failure {_ATTEMPTS[token]}")
    return payload["value"]


register_task_kind(TaskKind(name="test-echo", run=_echo_run))
register_task_kind(TaskKind(name="test-flaky", run=_flaky_run))


def echo(value, error=None):
    return FabricTask("test-echo", {"value": value, "error": error})


def identify_task(table, n, inject_crash=False):
    """A real production task, cheap enough for pool tests."""
    return FabricTask("identify", {
        "items": [(table, n)],
        "perm_budget": 24,
        "try_offset": True,
        "seed": 3,
        "max_specs": 4,
        "inject_crash": inject_crash,
    })


class TestFabricTask:
    def test_kind_must_be_nonempty_string(self):
        with pytest.raises(ValueError):
            FabricTask("")
        with pytest.raises(ValueError):
            FabricTask(7)

    def test_production_kinds_are_registered(self):
        names = task_kind_names()
        assert "extract" in names and "identify" in names

    def test_run_task_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            run_task(FabricTask("no-such-kind"))


class TestSerialFabric:
    def test_map_preserves_task_order(self):
        fabric = SerialFabric()
        assert fabric.map([echo(3), echo(1), echo(2)]) == [3, 1, 2]

    def test_empty_batch(self):
        assert SerialFabric().map([]) == []
        assert SerialFabric().map_outcomes([]) == []

    def test_map_outcomes_reports_per_task(self):
        fabric = SerialFabric()
        rows = fabric.map_outcomes(
            [echo(1), echo(None, error="boom"), echo(3)])
        assert rows[0] == (True, 1)
        ok, exc = rows[1]
        assert not ok and isinstance(exc, RuntimeError)
        assert rows[2] == (True, 3)

    def test_map_failure_is_one_clean_error(self):
        fabric = SerialFabric()
        with pytest.raises(FabricExecutionError) as err:
            fabric.map([echo(1), echo(None, error="boom"), echo(3)])
        message = str(err.value)
        assert "1 of 3 task(s) failed on the serial fabric" in message
        assert "after 0 retries" in message
        assert "task 1" in message
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_bounded_retry_recovers_flaky_task(self):
        registry = Registry()
        fabric = SerialFabric(max_retries=2, registry=registry)
        task = FabricTask("test-flaky", {
            "token": "recovers", "failures": 2, "value": 42})
        assert fabric.map([echo(1), task]) == [1, 42]
        assert _ATTEMPTS["recovers"] == 3
        assert registry.counter_value("fabric_task_retries_total") == 2
        # Only the failing task was retried, not its healthy batch-mate.
        assert registry.counter_value("fabric_tasks_total") == 2

    def test_retry_budget_is_bounded(self):
        registry = Registry()
        fabric = SerialFabric(max_retries=1, registry=registry)
        task = FabricTask("test-flaky", {
            "token": "exhausted", "failures": 5, "value": 0})
        with pytest.raises(FabricExecutionError, match="after 1 retry"):
            fabric.map([task])
        assert _ATTEMPTS["exhausted"] == 2
        assert registry.counter_value("fabric_failed_tasks_total") == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SerialFabric(max_retries=-1)
        with pytest.raises(ValueError):
            SerialFabric(shards=0)


class TestShardCount:
    def test_zero_items(self):
        assert SerialFabric().shard_count(0) == 0

    def test_parallelism_times_chunk_factor(self):
        assert SerialFabric().shard_count(100) == 4
        fabric = ProcessFabric(3)
        try:
            assert fabric.shard_count(100) == 12
            assert fabric.shard_count(100, chunk_factor=2) == 6
        finally:
            fabric.close()

    def test_fixed_shards_win(self):
        assert SerialFabric(shards=3).shard_count(100) == 3

    def test_bounded_by_item_count(self):
        assert SerialFabric(shards=5).shard_count(2) == 2
        assert SerialFabric().shard_count(1) == 1


class TestProcessFabric:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ProcessFabric(0)

    def test_pool_is_lazy_and_close_is_idempotent(self):
        fabric = ProcessFabric(2)
        assert fabric._executor is None
        fabric.close()
        fabric.close()
        assert fabric._executor is None

    def test_matches_serial_results(self):
        tasks = [identify_task(0b0110, 2), identify_task(0b1000, 2),
                 identify_task(0b10010110, 3)]
        serial = SerialFabric().map(tasks)
        with ProcessFabric(2) as fabric:
            assert fabric.map(tasks) == serial
        # The reference is the inline search the serial sweep runs.
        assert serial == [
            [(table, n) + identify_positions(table, n, 24, True, 3, 4)]
            for table, n in ((0b0110, 2), (0b1000, 2), (0b10010110, 3))
        ]

    def test_poisoned_task_is_a_clean_error(self):
        with ProcessFabric(2) as fabric:
            with pytest.raises(FabricExecutionError) as err:
                fabric.map([identify_task(0b0110, 2),
                            identify_task(0b1000, 2, inject_crash=True)])
        assert "task 1" in str(err.value)
        assert "injected worker crash" in str(err.value)

    def test_context_manager_closes_pool(self):
        with ProcessFabric(2) as fabric:
            fabric.map([identify_task(0b0110, 2)])
            assert fabric._executor is not None
        assert fabric._executor is None


class TestBaseClass:
    def test_run_round_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Fabric().map([echo(1)])
