"""MemoStore behavior: round-trips, crash safety, eviction, concurrency.

Crash-safety contract under test (docs/MEMO.md): *any* damage to an
entry file — truncation, garbage, a torn write, a semantic mismatch —
degrades to a miss and a ``memo_corrupt_entries_total`` increment, never
to a wrong hit.
"""

import json
import os
import threading

import pytest

from repro.comparison import identify_positions
from repro.memo import MemoStore, memo_key_doc, memo_key_id
from repro.obs import Registry

KNOBS = dict(perm_budget=40, try_offset=True, seed=3, max_specs=4)


def real_result(table, n):
    """A genuine search result (the only thing a store may serve)."""
    return identify_positions(table, n, **KNOBS)


def store_with(tmp_path, table, n, **kwargs):
    """A store holding the real result for (table, n)."""
    registry = kwargs.pop("registry", None) or Registry()
    store = MemoStore(str(tmp_path / "memo"), registry=registry, **kwargs)
    store.record(table, n, KNOBS["perm_budget"], KNOBS["try_offset"],
                 KNOBS["seed"], KNOBS["max_specs"], real_result(table, n))
    return store


def lookup(store, table, n):
    return store.lookup(table, n, KNOBS["perm_budget"], KNOBS["try_offset"],
                        KNOBS["seed"], KNOBS["max_specs"])


def entry_file(store, table, n):
    doc = memo_key_doc(table, n, **KNOBS)
    return store.entry_path(memo_key_id(doc))


# An interval ON-set (minterms 5..12), so the stored result carries
# actual position hits for the damage functions to corrupt.
TABLE, N = 0x1FE0, 4


class TestRoundTrip:
    def test_fresh_instance_serves_the_exact_result(self, tmp_path):
        store = store_with(tmp_path, TABLE, N)
        fresh = MemoStore(store.root, registry=Registry())
        assert lookup(fresh, TABLE, N) == real_result(TABLE, N)
        assert fresh.stats.hits == 1

    def test_unknown_table_is_a_miss(self, tmp_path):
        store = store_with(tmp_path, TABLE, N)
        fresh = MemoStore(store.root, registry=Registry())
        assert lookup(fresh, TABLE ^ 1, N) is None
        assert fresh.stats.misses == 1

    def test_class_key_collision_is_disambiguated(self, tmp_path):
        # A permuted variant shares the entry file but is its own
        # sub-entry: looking it up before it is recorded must miss.
        from repro.sim.truthtable import tt_permute

        variant = tt_permute(TABLE, N, (1, 0, 2, 3))
        assert variant != TABLE
        store = store_with(tmp_path, TABLE, N)
        assert entry_file(store, variant, N) == entry_file(store, TABLE, N)
        fresh = MemoStore(store.root, registry=Registry())
        assert lookup(fresh, variant, N) is None
        fresh.record(variant, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(variant, N))
        again = MemoStore(store.root, registry=Registry())
        assert lookup(again, variant, N) == real_result(variant, N)
        assert lookup(again, TABLE, N) == real_result(TABLE, N)
        assert again.disk_entries == 1

    def test_seed_is_shared_only_by_exhaustive_searches(self, tmp_path):
        # 4! <= 40: the search never reads its seed, so a result recorded
        # under seed 3 answers seed 4, from the hot tier and from disk.
        store = store_with(tmp_path, TABLE, N)
        fresh = MemoStore(store.root, registry=Registry())
        for memo in (store, fresh):
            assert memo.lookup(TABLE, N, 40, True, 4, 4) == \
                real_result(TABLE, N)
        # 6! > 200: the seed picks the sample, so seed 4 must miss.
        table = sum(1 << m for m in range(5, 40))
        store.record(table, 6, 200, True, 3, 4,
                     identify_positions(table, 6, 200, True, 3, 4))
        fresh = MemoStore(store.root, registry=Registry())
        for memo in (store, fresh):
            assert memo.lookup(table, 6, 200, True, 3, 4) is not None
            assert memo.lookup(table, 6, 200, True, 4, 4) is None

    def test_identical_rerecord_is_a_disk_noop(self, tmp_path):
        store = store_with(tmp_path, TABLE, N)
        path = entry_file(store, TABLE, N)
        before = os.stat(path).st_mtime_ns
        store.record(TABLE, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(TABLE, N))
        assert os.stat(path).st_mtime_ns == before


def damage_truncate(path):
    with open(path, "r+", encoding="utf-8") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def damage_garbage(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\x00not json at all\x7f")


def damage_empty(path):
    open(path, "w").close()


def damage_wrong_format(path):
    doc = json.load(open(path))
    doc["format"] = "not-a-memo-entry"
    json.dump(doc, open(path, "w"))


def damage_wrong_version(path):
    doc = json.load(open(path))
    doc["version"] = 999
    json.dump(doc, open(path, "w"))


def damage_key_mismatch(path):
    doc = json.load(open(path))
    doc["key"]["seed"] += 1
    json.dump(doc, open(path, "w"))


def damage_bad_perm(path):
    doc = json.load(open(path))
    for value in doc["results"].values():
        for hit in value[0]:
            hit[0] = [0, 0, 1, 2]  # not a permutation
    json.dump(doc, open(path, "w"))


def damage_out_of_range_bounds(path):
    doc = json.load(open(path))
    for value in doc["results"].values():
        for hit in value[0]:
            hit[2] = 1 << 20
    json.dump(doc, open(path, "w"))


def damage_negative_tried(path):
    doc = json.load(open(path))
    for value in doc["results"].values():
        value[1] = -1
    json.dump(doc, open(path, "w"))


def damage_table_out_of_range(path):
    doc = json.load(open(path))
    doc["results"]["fffff"] = doc["results"].pop(
        next(iter(doc["results"])))
    json.dump(doc, open(path, "w"))


def damage_popcount_contradiction(path):
    doc = json.load(open(path))
    value = doc["results"].pop(next(iter(doc["results"])))
    doc["results"]["1"] = value  # popcount 1 contradicts key["on"]
    json.dump(doc, open(path, "w"))


DAMAGE = [
    damage_truncate,
    damage_garbage,
    damage_empty,
    damage_wrong_format,
    damage_wrong_version,
    damage_key_mismatch,
    damage_bad_perm,
    damage_out_of_range_bounds,
    damage_negative_tried,
    damage_table_out_of_range,
    damage_popcount_contradiction,
]


class TestCrashSafety:
    @pytest.mark.parametrize("damage", DAMAGE, ids=lambda f: f.__name__)
    def test_damaged_entry_is_a_counted_miss_never_a_hit(
        self, tmp_path, damage
    ):
        store = store_with(tmp_path, TABLE, N)
        path = entry_file(store, TABLE, N)
        damage(path)
        registry = Registry()
        fresh = MemoStore(store.root, registry=registry)
        assert lookup(fresh, TABLE, N) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert fresh.stats.hits == 0
        assert registry.counter_value("memo_corrupt_entries_total") == 1
        assert not os.path.exists(path), "damaged entry must be dropped"
        # The store recovers: re-recording rebuilds a servable entry.
        fresh.record(TABLE, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(TABLE, N))
        again = MemoStore(store.root, registry=Registry())
        assert lookup(again, TABLE, N) == real_result(TABLE, N)

    def test_record_over_damaged_entry_rebuilds(self, tmp_path):
        store = store_with(tmp_path, TABLE, N)
        damage_garbage(entry_file(store, TABLE, N))
        other = MemoStore(store.root, registry=Registry())
        other.record(TABLE, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(TABLE, N))
        assert other.stats.corrupt == 1
        fresh = MemoStore(store.root, registry=Registry())
        assert lookup(fresh, TABLE, N) == real_result(TABLE, N)


class TestStaleDetection:
    def test_external_rewrite_is_reread_and_counted(self, tmp_path):
        from repro.sim.truthtable import tt_permute

        variant = tt_permute(TABLE, N, (3, 2, 1, 0))
        assert variant != TABLE
        reader_registry = Registry()
        writer = store_with(tmp_path, TABLE, N)
        reader = MemoStore(writer.root, registry=reader_registry)
        assert lookup(reader, TABLE, N) is not None  # file now loaded
        assert lookup(reader, variant, N) is None
        # Another process appends the variant row to the same entry file.
        writer.record(variant, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                      KNOBS["seed"], KNOBS["max_specs"],
                      real_result(variant, N))
        path = entry_file(writer, variant, N)
        os.utime(path, ns=(os.stat(path).st_atime_ns,
                           os.stat(path).st_mtime_ns + 1))
        assert lookup(reader, variant, N) == real_result(variant, N)
        assert reader.stats.stale == 1
        assert reader_registry.counter_value(
            "memo_stale_entries_total") == 1


class TestEviction:
    def test_disk_bound_evicts_oldest(self, tmp_path):
        registry = Registry()
        store = MemoStore(str(tmp_path / "memo"), max_entries=3,
                          registry=registry)
        tables = [0b0001, 0b0011, 0b0111, 0b1111, 0b1110]
        for i, table in enumerate(tables):
            store.record(table, 2, KNOBS["perm_budget"],
                         KNOBS["try_offset"], KNOBS["seed"],
                         KNOBS["max_specs"], real_result(table, 2))
            path = entry_file(store, table, 2)
            # Distinct mtimes so LRU order is well-defined on coarse
            # filesystem clocks.
            os.utime(path, ns=(0, i))
        assert store.disk_entries <= 3
        assert store.stats.evictions == 2
        assert registry.counter_value("memo_evictions_total") == 2

    def test_hot_bound_evicts_lru(self, tmp_path):
        registry = Registry()
        store = MemoStore(str(tmp_path / "memo"), hot_entries=2,
                          registry=registry)
        for table in (0b0001, 0b0011, 0b0111):
            store.record(table, 2, KNOBS["perm_budget"],
                         KNOBS["try_offset"], KNOBS["seed"],
                         KNOBS["max_specs"], real_result(table, 2))
        assert len(store) <= 2
        assert store.stats.hot_evictions >= 1
        assert registry.counter_value("memo_hot_evictions_total") == \
            store.stats.hot_evictions
        # Evicted rows are still on disk, so they come back as hits.
        fresh = MemoStore(store.root, registry=Registry())
        assert lookup(fresh, 0b0001, 2) == real_result(0b0001, 2)

    def test_bad_bounds_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            MemoStore(str(tmp_path / "m"), max_entries=0,
                      registry=Registry())
        with pytest.raises(ValueError):
            MemoStore(str(tmp_path / "m"), hot_entries=0,
                      registry=Registry())


class TestMetrics:
    def test_counters_gauges_and_latency_flow(self, tmp_path):
        registry = Registry()
        store = MemoStore(str(tmp_path / "memo"), registry=registry)
        assert lookup(store, TABLE, N) is None
        store.record(TABLE, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(TABLE, N))
        assert lookup(store, TABLE, N) is not None
        assert registry.counter_value("memo_misses_total") == 1
        assert registry.counter_value("memo_hits_total") == 1
        assert registry.counter_value("memo_puts_total") == 1
        snap = registry.snapshot()
        assert snap["gauges"]["memo_disk_entries"] == 1
        assert snap["gauges"]["memo_hot_entries"] == len(store)
        assert snap["summaries"]["memo_lookup_seconds"]["count"] == 2

    def test_stats_properties(self, tmp_path):
        store = MemoStore(str(tmp_path / "memo"), registry=Registry())
        assert store.stats.lookups == 0
        assert store.stats.hit_rate == 0.0
        assert lookup(store, TABLE, N) is None
        store.record(TABLE, N, KNOBS["perm_budget"], KNOBS["try_offset"],
                     KNOBS["seed"], KNOBS["max_specs"],
                     real_result(TABLE, N))
        assert lookup(store, TABLE, N) is not None
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == 0.5


class TestConcurrentWriters:
    def test_racing_threads_leave_only_intact_servable_entries(
        self, tmp_path
    ):
        root = str(tmp_path / "memo")
        n = 3
        tables = list(range(1, 33))
        results = {t: real_result(t, n) for t in tables}
        errors = []

        def writer(worker_seed):
            import random as _random

            rng = _random.Random(worker_seed)
            store = MemoStore(root, registry=Registry())
            mine = tables[:]
            rng.shuffle(mine)
            try:
                for t in mine:
                    store.record(t, n, KNOBS["perm_budget"],
                                 KNOBS["try_offset"], KNOBS["seed"],
                                 KNOBS["max_specs"], results[t])
            except BaseException as exc:  # noqa: BLE001 — collect for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Atomic whole-file replaces: a racing writer's merge may be
        # lost whole (an under-fill), but every surviving row must be
        # intact and exact.
        reader = MemoStore(root, registry=Registry())
        served = 0
        for t in tables:
            got = lookup(reader, t, n)
            if got is not None:
                assert got == results[t]
                served += 1
        assert reader.stats.corrupt == 0
        assert served >= len(tables) // 2
