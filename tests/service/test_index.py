"""The SQLite job index: unit behaviour and the no-filesystem-listing
acceptance contract (``GET /jobs`` must answer without touching a
single per-job directory)."""

import json
import os

import pytest

from repro.benchcircuits import c17
from repro.io import circuit_to_json
from repro.service import (
    ArtifactStore,
    JobIndex,
    JobSpec,
    ServiceClient,
    ServiceServer,
    StoreError,
    SupervisorConfig,
    default_index_path,
)


def c17_spec(**kw):
    defaults = dict(netlist=json.loads(circuit_to_json(c17())),
                    k=4, perm_budget=20, max_passes=2)
    defaults.update(kw)
    return JobSpec(**defaults)


def fast_config():
    return SupervisorConfig(max_retries=0, heartbeat_timeout=20.0,
                            heartbeat_interval=0.2, backoff_base=0.05,
                            poll_interval=0.02)


class TestJobIndexUnit:
    def test_record_and_rows(self, tmp_path):
        index = JobIndex(str(tmp_path / "index.sqlite3"))
        index.record("j1", {"state": "queued", "attempts": 0,
                            "created": 1.0, "updated": 1.0,
                            "tenant": "alice"})
        index.record("j2", {"state": "succeeded", "attempts": 1,
                            "created": 2.0, "updated": 3.0})
        assert index.count() == 2
        assert index.count(state="queued") == 1
        rows = index.rows()
        assert [r["id"] for r in rows] == ["j1", "j2"]
        assert rows[0]["tenant"] == "alice"
        assert "tenant" not in rows[1]  # None values are dropped
        assert index.rows(state="succeeded")[0]["id"] == "j2"
        assert index.rows(tenant="alice")[0]["id"] == "j1"
        assert index.rows(tenant="nobody") == []
        index.close()

    def test_update_keeps_spec_columns_and_tenant(self, tmp_path):
        index = JobIndex(str(tmp_path / "index.sqlite3"))
        spec = c17_spec()
        index.record(spec.job_id,
                     {"state": "queued", "tenant": "alice"}, spec=spec)
        # A later status replace without the spec (the usual on_status
        # path) must not wipe the spec columns or the tenant.
        index.record(spec.job_id, {"state": "running", "attempts": 1})
        (row,) = index.rows()
        assert row["state"] == "running"
        assert row["attempts"] == 1
        assert row["tenant"] == "alice"
        assert row["procedure"] == "procedure2"
        assert row["k"] == 4
        index.close()

    def test_limit_and_offset(self, tmp_path):
        index = JobIndex(str(tmp_path / "index.sqlite3"))
        for i in range(5):
            index.record(f"j{i}", {"state": "queued"})
        assert [r["id"] for r in index.rows(limit=2)] == ["j0", "j1"]
        assert [r["id"] for r in index.rows(limit=2, offset=3)] \
            == ["j3", "j4"]
        assert [r["id"] for r in index.rows(offset=4)] == ["j4"]
        index.close()


class TestIndexThroughService:
    def test_listing_never_touches_job_directories(self, tmp_path,
                                                   monkeypatch):
        store = ArtifactStore(str(tmp_path / "service"))
        with ServiceServer(store, port=0, config=fast_config(),
                           max_workers=2) as srv:
            client = ServiceClient(srv.url, timeout=30.0)
            job_id = client.submit(c17_spec())["id"]
            client.wait(job_id, timeout=60.0)

            # From here on, any read of a per-job file is a failure.
            def forbidden(*a, **kw):
                raise AssertionError("listing touched a job directory")

            monkeypatch.setattr(store, "job_ids", forbidden)
            monkeypatch.setattr(store, "status", forbidden)
            monkeypatch.setattr(store, "load_spec", forbidden)
            rows = client.jobs()
            assert [r["id"] for r in rows] == [job_id]
            assert rows[0]["state"] == "succeeded"
            assert rows[0]["procedure"] == "procedure2"
            assert client.jobs(state="succeeded") == rows
            assert client.jobs(state="failed") == []

    def test_index_rebuilt_from_store_on_startup(self, tmp_path):
        root = str(tmp_path / "service")
        store = ArtifactStore(root)
        with ServiceServer(store, port=0, config=fast_config(),
                           max_workers=2) as srv:
            client = ServiceClient(srv.url, timeout=30.0)
            job_id = client.submit(c17_spec())["id"]
            client.wait(job_id, timeout=60.0)
            report = client.report(job_id)
        # The store, not the index, is the source of truth: delete the
        # index file entirely and a fresh service must rebuild it.
        os.unlink(default_index_path(root))
        store2 = ArtifactStore(root)
        with ServiceServer(store2, port=0, config=fast_config(),
                           max_workers=2) as srv:
            client = ServiceClient(srv.url, timeout=30.0)
            rows = client.jobs()
            assert [r["id"] for r in rows] == [job_id]
            assert rows[0]["state"] == "succeeded"
            # It serves the stored report and joins a resubmit to the
            # stored job instead of running it again.
            assert client.report(job_id) == report
            assert client.submit(c17_spec())["created"] is False

    def test_bad_filters_are_400(self, tmp_path):
        from repro.service import ServiceAPIError

        store = ArtifactStore(str(tmp_path / "service"))
        with ServiceServer(store, port=0, config=fast_config(),
                           max_workers=2) as srv:
            client = ServiceClient(srv.url, timeout=30.0)
            with pytest.raises(ServiceAPIError) as exc:
                client.jobs(state="bogus")
            assert exc.value.code == 400
            with pytest.raises(ServiceAPIError) as exc:
                client.jobs(limit=-1)
            assert exc.value.code == 400


def test_store_error_is_still_404(tmp_path):
    """StoreError surfacing is unchanged by the index layer."""
    from repro.service import ServiceAPIError

    store = ArtifactStore(str(tmp_path / "service"))
    with ServiceServer(store, port=0, config=fast_config(),
                       max_workers=2) as srv:
        client = ServiceClient(srv.url, timeout=30.0)
        with pytest.raises(ServiceAPIError) as exc:
            client.job("jdeadbeef0000")
        assert exc.value.code == 404
        assert "jdeadbeef0000" in exc.value.message
    with pytest.raises(StoreError):
        store.status("jdeadbeef0000")
