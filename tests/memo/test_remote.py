"""Memo over the wire: entry documents, /memo routes, RemoteMemo.

Covers the server half (``MemoStore.load_entry_doc`` /
``merge_entry_doc`` behind ``GET``/``PUT /memo/<id>``) and the client
half (:class:`~repro.memo.RemoteMemo`): a recorded result read back over
HTTP is bit-for-bit the local search result, corruption degrades to a
miss, and an unreachable server degrades to fail-open — never an error,
never a wrong hit.
"""

import pytest

from repro.comparison.identify import identify_positions
from repro.memo import (
    ENTRY_FORMAT,
    MEMO_VERSION,
    MemoStore,
    RemoteMemo,
    memo_key_doc,
    memo_key_id,
)
from repro.memo.store import _encode_result
from repro.obs import Registry
from repro.service import ArtifactStore, ServiceServer, SupervisorConfig

#: One real identification search, small enough to run per-test.
SEARCH = dict(table=0b0110_1001, n=3, perm_budget=24, try_offset=True,
              seed=3, max_specs=4)


def real_result():
    return identify_positions(SEARCH["table"], SEARCH["n"],
                              SEARCH["perm_budget"], SEARCH["try_offset"],
                              SEARCH["seed"], SEARCH["max_specs"])


def entry_doc(result=None):
    key_doc = memo_key_doc(**SEARCH)
    return memo_key_id(key_doc), {
        "format": ENTRY_FORMAT,
        "version": MEMO_VERSION,
        "key": key_doc,
        "results": {
            format(SEARCH["table"], "x"):
                _encode_result(result or real_result()),
        },
    }


class TestEntryDocs:
    """MemoStore's wire-document surface (no HTTP)."""

    def test_merge_then_load_round_trip(self, tmp_path):
        store = MemoStore(str(tmp_path), registry=Registry())
        class_id, doc = entry_doc()
        assert store.merge_entry_doc(class_id, doc) == 1
        assert store.load_entry_doc(class_id) is not None
        assert store.lookup(**SEARCH) == real_result()

    def test_merge_is_monotone(self, tmp_path):
        store = MemoStore(str(tmp_path), registry=Registry())
        result = real_result()
        store.record(**SEARCH, result=result)
        # A lying second writer cannot overwrite the present row.
        class_id, doc = entry_doc(result=((), 999))
        assert store.merge_entry_doc(class_id, doc) == 0
        assert store.lookup(**SEARCH) == result

    def test_merge_rejects_wrong_address(self, tmp_path):
        store = MemoStore(str(tmp_path), registry=Registry())
        _class_id, doc = entry_doc()
        with pytest.raises(ValueError, match="does not hash"):
            store.merge_entry_doc("m" + "0" * 16, doc)

    def test_merge_rejects_malformed_documents(self, tmp_path):
        store = MemoStore(str(tmp_path), registry=Registry())
        class_id, doc = entry_doc()
        with pytest.raises(ValueError):
            store.merge_entry_doc(class_id, "not an object")
        bad = dict(doc)
        bad["format"] = "something-else"
        with pytest.raises(ValueError):
            store.merge_entry_doc(class_id, bad)
        assert store.load_entry_doc(class_id) is None  # nothing written

    def test_load_absent_entry(self, tmp_path):
        store = MemoStore(str(tmp_path), registry=Registry())
        assert store.load_entry_doc("m" + "0" * 16) is None


@pytest.fixture()
def memo_server(tmp_path):
    store = ArtifactStore(str(tmp_path / "jobs"))
    config = SupervisorConfig(memo_root=str(tmp_path / "memo"))
    server = ServiceServer(store, config=config)
    server.start()
    yield server
    server.stop()


class TestMemoRoutes:
    def test_put_then_get_round_trip(self, memo_server):
        from repro.service import ServiceClient

        client = ServiceClient(memo_server.url, timeout=10.0)
        class_id, doc = entry_doc()
        assert client.put_memo_entry(class_id, doc) == {"merged": 1}
        assert client.put_memo_entry(class_id, doc) == {"merged": 0}
        got = client.memo_entry(class_id)
        assert got["results"] == doc["results"]

    def test_get_absent_entry_is_404(self, memo_server):
        from repro.service import ServiceAPIError, ServiceClient

        client = ServiceClient(memo_server.url, timeout=10.0)
        with pytest.raises(ServiceAPIError) as err:
            client.memo_entry("m" + "0" * 16)
        assert err.value.code == 404

    def test_put_invalid_entry_is_400(self, memo_server):
        from repro.service import ServiceAPIError, ServiceClient

        client = ServiceClient(memo_server.url, timeout=10.0)
        with pytest.raises(ServiceAPIError) as err:
            client.put_memo_entry("m" + "0" * 16, {"bad": 1})
        assert err.value.code == 400

    def test_routes_404_when_memo_disabled(self, tmp_path):
        from repro.service import ServiceAPIError, ServiceClient

        server = ServiceServer(ArtifactStore(str(tmp_path / "jobs2")))
        server.start()
        try:
            client = ServiceClient(server.url, timeout=10.0)
            class_id, doc = entry_doc()
            with pytest.raises(ServiceAPIError, match="memo not enabled"):
                client.memo_entry(class_id)
            with pytest.raises(ServiceAPIError, match="memo not enabled"):
                client.put_memo_entry(class_id, doc)
        finally:
            server.stop()


class TestRemoteMemo:
    def test_record_then_lookup_through_fresh_client(self, memo_server):
        result = real_result()
        writer = RemoteMemo(memo_server.url, registry=Registry())
        writer.record(**SEARCH, result=result)
        assert writer.stats.puts == 1
        # A different process (fresh memo, empty hot tier) sees the row.
        reader = RemoteMemo(memo_server.url, registry=Registry())
        assert reader.lookup(**SEARCH) == result
        assert reader.stats.hits == 1

    def test_seed_is_shared_only_by_exhaustive_searches(self, memo_server):
        # 3! <= 24: recorded under seed 3, a fresh client hits under 4.
        writer = RemoteMemo(memo_server.url, registry=Registry())
        writer.record(**SEARCH, result=real_result())
        reader = RemoteMemo(memo_server.url, registry=Registry())
        assert reader.lookup(**dict(SEARCH, seed=4)) == real_result()
        # 6! > 200: a sampled search under seed 3 is no answer for 4.
        sampled = dict(table=sum(1 << m for m in range(5, 40)), n=6,
                       perm_budget=200, try_offset=True, seed=3,
                       max_specs=4)
        writer.record(**sampled, result=identify_positions(**sampled))
        reader = RemoteMemo(memo_server.url, registry=Registry())
        assert reader.lookup(**sampled) is not None
        assert reader.lookup(**dict(sampled, seed=4)) is None

    def test_hot_tier_serves_repeats_without_network(self, memo_server):
        memo = RemoteMemo(memo_server.url, registry=Registry())
        memo.record(**SEARCH, result=real_result())
        calls = []
        memo._client = type("NoNet", (), {
            "memo_entry": lambda self, cid: calls.append(cid) or {},
        })()
        assert memo.lookup(**SEARCH) == real_result()
        assert calls == []  # served from the hot tier

    def test_corrupt_wire_document_is_a_miss(self):
        class LyingClient:
            def memo_entry(self, class_id):
                return {"format": "entry-v1", "garbage": True}

        memo = RemoteMemo("http://unused", registry=Registry(),
                          client=LyingClient())
        assert memo.lookup(**SEARCH) is None
        assert memo.stats.corrupt == 1
        assert memo.stats.misses == 1

    def test_unreachable_server_fails_open(self):
        from repro.service import ServiceClient

        # A port nothing listens on: lookups miss, records are dropped,
        # nothing raises.
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2,
                               retries=0)
        memo = RemoteMemo("http://127.0.0.1:9", registry=Registry(),
                          client=client)
        assert memo.lookup(**SEARCH) is None
        memo.record(**SEARCH, result=real_result())
        assert memo.stats.puts == 0
        # The hot tier still took the local install.
        assert memo.lookup(**SEARCH) == real_result()

    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteMemo("http://x", hot_entries=0, client=object())
