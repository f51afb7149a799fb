"""The ``POST /tasks`` route and the service's task fabric.

The route is what turns a ``serve`` process into a
:class:`~repro.fabric.RemoteFabric` worker: wire task documents in,
per-task outcome rows out, with malformed input answered 400 and
execution failures kept *inside* their row (the calling fabric owns
retry policy).  Disabled by default — ``--task-workers N`` opts in.
"""

import pytest

from repro.fabric import FabricTask, SerialFabric
from repro.fabric.tasks import encode_result, encode_task, run_task
from repro.service import (
    ArtifactStore,
    ResynthesisService,
    ServiceAPIError,
    ServiceClient,
    ServiceServer,
)


def identify_task(table, n, inject_crash=False):
    return FabricTask("identify", {
        "items": [(table, n)],
        "perm_budget": 24,
        "try_offset": True,
        "seed": 3,
        "max_specs": 4,
        "inject_crash": inject_crash,
    })


@pytest.fixture()
def server(tmp_path):
    srv = ServiceServer(ArtifactStore(str(tmp_path / "store")),
                        task_workers=1)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=10.0)


class TestTasksRoute:
    def test_round_trip_matches_local_execution(self, client):
        task = identify_task(0b0110, 2)
        answer = client.run_tasks([encode_task(task)])
        expected = run_task(task)
        assert answer == {"results": [
            {"ok": True, "result": encode_result("identify", expected)},
        ]}

    def test_batch_preserves_task_order(self, client):
        tasks = [identify_task(0b0110, 2), identify_task(0b1000, 2)]
        answer = client.run_tasks([encode_task(t) for t in tasks])
        locals_ = SerialFabric().map(tasks)
        got = [row["result"] for row in answer["results"]]
        assert got == [encode_result("identify", r) for r in locals_]

    def test_execution_failure_stays_in_its_row(self, client):
        tasks = [identify_task(0b0110, 2),
                 identify_task(0b1000, 2, inject_crash=True)]
        rows = client.run_tasks([encode_task(t) for t in tasks])["results"]
        assert rows[0]["ok"] is True
        assert rows[1]["ok"] is False
        assert "injected worker crash" in rows[1]["error"]

    def test_invalid_task_document_is_400(self, client):
        with pytest.raises(ServiceAPIError) as err:
            client.run_tasks([{"kind": "identify", "payload": {}}])
        assert err.value.code == 400
        assert "invalid task document" in err.value.message

    def test_unknown_kind_is_400(self, client):
        with pytest.raises(ServiceAPIError, match="unknown task kind"):
            client.run_tasks([{"kind": "no-such-kind", "payload": {}}])

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceAPIError) as err:
            client._request("POST", "/tasks", body={"nope": 1})
        assert err.value.code == 400

    def test_disabled_by_default_is_404(self, tmp_path):
        srv = ServiceServer(ArtifactStore(str(tmp_path / "plain")))
        srv.start()
        try:
            client = ServiceClient(srv.url, timeout=10.0)
            with pytest.raises(ServiceAPIError) as err:
                client.run_tasks([encode_task(identify_task(0b0110, 2))])
            assert err.value.code == 404
            assert "task execution not enabled" in err.value.message
        finally:
            srv.stop()


class TestServiceTaskFabric:
    def test_task_workers_zero_means_no_fabric(self, tmp_path):
        service = ResynthesisService(
            ArtifactStore(str(tmp_path / "store")))
        assert service.task_fabric is None
        with pytest.raises(RuntimeError, match="not enabled"):
            service.run_tasks([])

    def test_task_workers_one_is_serial(self, tmp_path):
        service = ResynthesisService(
            ArtifactStore(str(tmp_path / "store")), task_workers=1)
        assert service.task_fabric.name == "serial"
        # Server-side retries stay 0: the calling fabric owns policy.
        assert service.task_fabric.max_retries == 0

    def test_task_workers_many_is_a_process_pool(self, tmp_path):
        service = ResynthesisService(
            ArtifactStore(str(tmp_path / "store")), task_workers=2)
        try:
            assert service.task_fabric.name == "process"
            assert service.task_fabric.max_retries == 0
            task = identify_task(0b0110, 2)
            rows = service.run_tasks([encode_task(task)])
            expected = run_task(task)
            assert rows == [{
                "ok": True, "result": encode_result("identify", expected),
            }]
        finally:
            service.stop()
        assert service.task_fabric._executor is None

    def test_negative_task_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResynthesisService(ArtifactStore(str(tmp_path / "store")),
                               task_workers=-1)
