"""File-backed identification memo with an in-process LRU hot tier.

Layout: one JSON document per key class, sharded by hash prefix::

    <root>/entries/<id[1:3]>/<id>.json
        {"format": "repro-memo-entry", "version": 1,
         "key": <memo_key_doc>,
         "results": {"<table hex>": [[[perm...], L, U, comp], ...], tried]}}

The class key (:mod:`repro.memo.keys`) is permutation-invariant, so
input-permuted variants of a function share one file; the ``results``
mapping inside is keyed by the *exact* table, and a lookup returns the
stored :data:`~repro.comparison.identify.PositionResult` verbatim.  A
hit is therefore bit-for-bit what :func:`identify_positions` would have
computed — the store can serve a wrong answer only if a wrong answer was
stored (which the memo legs of the ``execution`` differential oracle
exist to catch).

Durability reuses the :mod:`repro.persist` discipline of the service's
ArtifactStore: same-directory temp + fsync + rename, so concurrent
writers and crashes leave either the old document or the new one, never
a torn mix.  Read-side strictness is the complement: *any* anomaly in an
entry file — unparseable JSON, a format/version/key mismatch, a result
row that fails structural validation — degrades to a miss (counted in
``memo_corrupt_entries_total``, the offending file unlinked best-effort)
and never to a wrong hit.

Obs instrumentation (all under ``memo_*``; see docs/OBSERVABILITY.md):
hit/miss/put/corrupt/stale counters, disk- and hot-tier eviction
counters, live entry gauges, and a lookup-latency histogram.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..comparison.identify import (
    PositionKey,
    PositionResult,
    identification_key,
)
from ..obs import Registry, get_registry
from ..persist import atomic_write_text
from .keys import KEY_FORMAT, MEMO_VERSION, memo_key_doc, memo_key_id

ENTRY_FORMAT = "repro-memo-entry"

#: Lookup latencies are dict-or-one-small-file reads; the default
#: seconds-flavoured buckets would lump everything under 1ms.
LOOKUP_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1,
)


@dataclass
class MemoStats:
    """Per-store traffic accounting (the obs counters are process-wide)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    stale: int = 0
    evictions: int = 0
    hot_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


def _encode_result(result: PositionResult) -> List[object]:
    """JSON-ready form of one search result."""
    hits, tried = result
    return [
        [[list(perm), lo, hi, bool(comp)] for perm, lo, hi, comp in hits],
        tried,
    ]


def _decode_result(value: object, n: int) -> PositionResult:
    """Rebuild a search result, validating structure (raises on anomaly)."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("result row is not a [hits, tried] pair")
    hits_raw, tried = value
    if (not isinstance(tried, int) or isinstance(tried, bool)
            or tried < 0):
        raise ValueError("tried-count is not a non-negative integer")
    if not isinstance(hits_raw, list):
        raise ValueError("hits is not a list")
    expected = list(range(n))
    hits = []
    for row in hits_raw:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError("hit row is not a [perm, L, U, comp] quad")
        perm_raw, lo, hi, comp = row
        perm = tuple(int(x) for x in perm_raw)
        if sorted(perm) != expected:
            raise ValueError(f"{perm!r} is not a permutation of 0..{n - 1}")
        if (isinstance(lo, bool) or isinstance(hi, bool)
                or not isinstance(lo, int) or not isinstance(hi, int)
                or not isinstance(comp, bool)):
            raise ValueError("hit bounds/complement have wrong types")
        if not 0 <= lo <= hi < (1 << n):
            raise ValueError(f"interval [{lo}, {hi}] out of range")
        hits.append((perm, lo, hi, comp))
    return (tuple(hits), tried)


#: The exact field set of a key document (anything else is rejected).
_KEY_FIELDS = frozenset(
    ("format", "version", "n", "on", "cols",
     "perm_budget", "try_offset", "seed", "max_specs"))

#: Upper bound on a key's input count.  Everything in the pipeline tops
#: out at K=6; 24 leaves generous headroom while keeping ``1 << (1 << n)``
#: un-abusable by a hostile PUT (n=1000 would allocate a 2**1000-bit int).
_MAX_KEY_N = 24


def validate_key_doc(doc: object) -> Dict[str, object]:
    """Structurally validate an *untrusted* key document.

    Returns the document on success; raises :class:`ValueError` on any
    anomaly.  Used where the key arrives from outside instead of being
    computed locally — the service's ``PUT /memo/<id>`` route.
    """
    if not isinstance(doc, dict):
        raise ValueError("key document is not an object")
    if set(doc) != _KEY_FIELDS:
        raise ValueError("key document has a wrong field set")
    if doc["format"] != KEY_FORMAT:
        raise ValueError("not a repro-memo-key document")
    if doc["version"] != MEMO_VERSION:
        raise ValueError(f"unsupported key version {doc['version']!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_KEY_N:
        raise ValueError(f"key input count {n!r} out of range")
    on = doc["on"]
    if (not isinstance(on, int) or isinstance(on, bool)
            or not 0 <= on <= (1 << n)):
        raise ValueError("key ON-count out of range")
    cols = doc["cols"]
    if (not isinstance(cols, list) or len(cols) != n
            or any(not isinstance(c, int) or isinstance(c, bool)
                   or not 0 <= c <= (1 << n) for c in cols)
            or cols != sorted(cols)):
        raise ValueError("key column counts are not a sorted n-list")
    for knob in ("perm_budget", "seed", "max_specs"):
        value = doc[knob]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"key {knob} is not an integer")
    if not isinstance(doc["try_offset"], bool):
        raise ValueError("key try_offset is not a boolean")
    return doc


def entry_key_tail(key_doc: Dict[str, object]) -> Tuple:
    """The non-table part of every raw search key in one entry class."""
    return (key_doc["n"], key_doc["perm_budget"], key_doc["try_offset"],
            key_doc["seed"], key_doc["max_specs"])


def decode_entry_doc(
    doc: object,
    key_doc: Dict[str, object],
    raw_tail: Tuple,
) -> Dict[PositionKey, PositionResult]:
    """Strictly decode one entry document against its expected key.

    The shared decode-or-quarantine validator: :class:`MemoStore` runs
    it over entry *files* and :class:`repro.memo.remote.RemoteMemo` runs
    it over ``GET /memo/<id>`` responses, so a byte served over the wire
    clears exactly the checks a byte read from disk clears.  Raises
    :class:`ValueError` on any anomaly.
    """
    n = key_doc["n"]
    if not isinstance(doc, dict):
        raise ValueError("entry document is not an object")
    if doc.get("format") != ENTRY_FORMAT:
        raise ValueError("not a repro-memo-entry document")
    if doc.get("version") != MEMO_VERSION:
        raise ValueError(
            f"unsupported entry version {doc.get('version')!r}")
    if doc.get("key") != key_doc:
        raise ValueError("entry key does not match its address")
    results_raw = doc.get("results")
    if not isinstance(results_raw, dict):
        raise ValueError("entry results is not an object")
    out: Dict[PositionKey, PositionResult] = {}
    limit = 1 << (1 << n)
    for table_hex, value in results_raw.items():
        table = int(table_hex, 16)
        if not 0 <= table < limit:
            raise ValueError("table out of range for n inputs")
        if bin(table).count("1") != key_doc["on"]:
            raise ValueError("table ON-count contradicts the key")
        out[(table,) + raw_tail] = _decode_result(value, n)
    return out


class MemoStore:
    """Persistent identification cache shared across processes and runs.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Safe to share between
        concurrent processes: writes are atomic whole-file replaces, so
        racing writers settle on one intact document (losing at worst
        the other's rows, never producing a torn file).
    max_entries:
        Size bound on persisted entry *files*; exceeding it evicts the
        oldest-modified entries (LRU by file mtime) down to the bound.
    hot_entries:
        Size bound on the in-process hot tier (raw search key ->
        result), evicted LRU.  Warm lookups are dict-speed; each entry
        file is parsed at most once per process (per on-disk version).
    registry:
        Target :class:`repro.obs.Registry` for the ``memo_*`` metrics;
        default: the process-wide registry.
    """

    def __init__(
        self,
        root: str,
        max_entries: int = 200_000,
        hot_entries: int = 1 << 17,
        registry: Optional[Registry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if hot_entries < 1:
            raise ValueError(f"hot_entries must be >= 1, got {hot_entries}")
        self.root = os.path.abspath(root)
        self.max_entries = max_entries
        self.hot_entries = hot_entries
        self._entries_dir = os.path.join(self.root, "entries")
        os.makedirs(self._entries_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._hot: "OrderedDict[PositionKey, PositionResult]" = OrderedDict()
        #: class id -> st_mtime_ns of the entry file version whose rows
        #: are (were) installed in the hot tier.
        self._loaded: Dict[str, int] = {}
        self._disk_entries = self._count_entries()
        self.stats = MemoStats()
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._hits = registry.get_counter(
            "memo_hits_total", "identification memo lookups served")
        self._misses = registry.get_counter(
            "memo_misses_total", "identification memo lookups missed")
        self._puts = registry.get_counter(
            "memo_puts_total", "identification results persisted")
        self._corrupt = registry.get_counter(
            "memo_corrupt_entries_total",
            "entry files dropped as unparseable/invalid (served as misses)")
        self._stale = registry.get_counter(
            "memo_stale_entries_total",
            "entry files re-read because another writer replaced them")
        self._evictions = registry.get_counter(
            "memo_evictions_total",
            "persisted entry files evicted by the size bound")
        self._hot_evictions = registry.get_counter(
            "memo_hot_evictions_total",
            "hot-tier rows evicted by the in-process LRU bound")
        self._lookup_hist = registry.get_histogram(
            "memo_lookup_seconds", "latency of one memo lookup",
            buckets=LOOKUP_BUCKETS)
        self._publish_gauges()

    # ------------------------------------------------------------------ #
    # paths / layout
    # ------------------------------------------------------------------ #

    def entry_path(self, class_id: str) -> str:
        """The entry file of one class id (no existence check)."""
        return os.path.join(self._entries_dir, class_id[1:3],
                            class_id + ".json")

    def _count_entries(self) -> int:
        count = 0
        for _dirpath, _dirs, names in os.walk(self._entries_dir):
            count += sum(1 for name in names if name.endswith(".json"))
        return count

    @property
    def disk_entries(self) -> int:
        """Entry files currently persisted (tracked, not re-scanned)."""
        with self._lock:
            return self._disk_entries

    def __len__(self) -> int:
        """Hot-tier row count."""
        with self._lock:
            return len(self._hot)

    def _publish_gauges(self) -> None:
        self._registry.set_gauge("memo_disk_entries", self._disk_entries)
        self._registry.set_gauge("memo_hot_entries", len(self._hot))

    # ------------------------------------------------------------------ #
    # hot tier
    # ------------------------------------------------------------------ #

    def _hot_put(self, raw: PositionKey, result: PositionResult) -> None:
        hot = self._hot
        if raw in hot:
            hot.move_to_end(raw)
            hot[raw] = result
            return
        while len(hot) >= self.hot_entries:
            hot.popitem(last=False)
            self.stats.hot_evictions += 1
            self._hot_evictions.inc()
        hot[raw] = result

    # ------------------------------------------------------------------ #
    # entry file IO
    # ------------------------------------------------------------------ #

    def _read_entry(
        self, path: str, key_doc: Dict[str, object], raw_tail: Tuple
    ) -> Optional[Dict[PositionKey, PositionResult]]:
        """Parse + validate one entry file; None (counted corrupt) on any
        anomaly.  *raw_tail* is ``(n, perm_budget, try_offset, seed,
        max_specs)`` — the knobs every row of this class shares."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return decode_entry_doc(doc, key_doc, raw_tail)
        except (OSError, ValueError, KeyError, TypeError):
            self._drop_corrupt(path)
            return None

    def _drop_corrupt(self, path: str) -> None:
        """A bad entry degrades to a miss: count it, remove the file."""
        self.stats.corrupt += 1
        self._corrupt.inc()
        try:
            os.unlink(path)
            self._disk_entries = max(0, self._disk_entries - 1)
        except OSError:
            pass
        base = os.path.basename(path)
        if base.endswith(".json"):
            self._loaded.pop(base[:-5], None)

    def _write_entry(
        self,
        path: str,
        key_doc: Dict[str, object],
        rows: Dict[PositionKey, PositionResult],
    ) -> None:
        doc = {
            "format": ENTRY_FORMAT,
            "version": MEMO_VERSION,
            "key": key_doc,
            "results": {
                format(raw[0], "x"): _encode_result(result)
                for raw, result in sorted(rows.items())
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True))

    # ------------------------------------------------------------------ #
    # the cache surface
    # ------------------------------------------------------------------ #

    def lookup(
        self,
        table: int,
        n: int,
        perm_budget: int,
        try_offset: bool,
        seed: int,
        max_specs: int,
    ) -> Optional[PositionResult]:
        """The stored result for one search, or None on a miss.

        A returned value is exactly what :func:`identify_positions` on
        the same arguments computes; corrupted or mismatched entries are
        dropped and reported as misses.
        """
        start = time.perf_counter()
        raw = identification_key(
            table, n, perm_budget, try_offset, seed, max_specs)
        with self._lock:
            got = self._hot.get(raw)
            if got is not None:
                self._hot.move_to_end(raw)
            else:
                key_doc = memo_key_doc(
                    table, n, perm_budget, try_offset, seed, max_specs)
                class_id = memo_key_id(key_doc)
                path = self.entry_path(class_id)
                try:
                    mtime = os.stat(path).st_mtime_ns
                except OSError:
                    mtime = None
                if mtime is not None and self._loaded.get(class_id) != mtime:
                    if class_id in self._loaded:
                        self.stats.stale += 1
                        self._stale.inc()
                    rows = self._read_entry(path, key_doc, raw[1:])
                    if rows is not None:
                        for row_key, result in rows.items():
                            self._hot_put(row_key, result)
                        self._loaded[class_id] = mtime
                        got = self._hot.get(raw)
            if got is None:
                self.stats.misses += 1
                self._misses.inc()
            else:
                self.stats.hits += 1
                self._hits.inc()
            self._publish_gauges()
        self._lookup_hist.observe(time.perf_counter() - start)
        return got

    def record(
        self,
        table: int,
        n: int,
        perm_budget: int,
        try_offset: bool,
        seed: int,
        max_specs: int,
        result: PositionResult,
    ) -> None:
        """Persist one freshly computed search result.

        Merges into the class's entry file read-modify-write; the atomic
        replace means a concurrent writer's interleaved update is lost
        whole (a tolerable cache under-fill), never mixed into a torn
        document.  Re-recording an identical row is a no-op on disk.
        """
        raw = identification_key(
            table, n, perm_budget, try_offset, seed, max_specs)
        with self._lock:
            self._hot_put(raw, result)
            key_doc = memo_key_doc(
                table, n, perm_budget, try_offset, seed, max_specs)
            class_id = memo_key_id(key_doc)
            path = self.entry_path(class_id)
            rows: Dict[PositionKey, PositionResult] = {}
            existed = os.path.exists(path)
            if existed:
                loaded = self._read_entry(path, key_doc, raw[1:])
                if loaded is None:
                    existed = False  # corrupt entry dropped; rebuild fresh
                else:
                    rows = loaded
            if rows.get(raw) == result:
                return
            rows[raw] = result
            for row_key, row_result in rows.items():
                self._hot_put(row_key, row_result)
            self._write_entry(path, key_doc, rows)
            try:
                self._loaded[class_id] = os.stat(path).st_mtime_ns
            except OSError:
                self._loaded.pop(class_id, None)
            self.stats.puts += 1
            self._puts.inc()
            if not existed:
                self._disk_entries += 1
                self._evict_over_limit()
            self._publish_gauges()

    # ------------------------------------------------------------------ #
    # the wire surface (service GET/PUT /memo/<id>)
    # ------------------------------------------------------------------ #

    def load_entry_doc(self, class_id: str) -> Optional[Dict[str, object]]:
        """The raw entry document of one class, or None when absent.

        Served verbatim over ``GET /memo/<id>``; the server does not
        re-validate — clients run :func:`decode_entry_doc` against the
        key *they* computed, so a corrupt or mismatched document is
        quarantined where it would do harm.
        """
        path = self.entry_path(class_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def merge_entry_doc(self, class_id: str, doc: object) -> int:
        """Merge an *untrusted* entry document in; returns rows added.

        The write half of ``PUT /memo/<id>``.  The document must carry a
        structurally valid key (:func:`validate_key_doc`) that hashes to
        *class_id*, and every result row must clear the same strict
        decode as a local entry file — anything else raises
        :class:`ValueError` and nothing is written.  Merging is
        monotone: rows already present win over incoming ones (pure
        functions make a genuine conflict impossible; a liar loses the
        race at worst), so concurrent PUTs from a worker fleet converge.
        """
        if not isinstance(doc, dict):
            raise ValueError("entry document is not an object")
        key_doc = validate_key_doc(doc.get("key"))
        if memo_key_id(key_doc) != class_id:
            raise ValueError("entry key does not hash to its address")
        raw_tail = entry_key_tail(key_doc)
        incoming = decode_entry_doc(doc, key_doc, raw_tail)
        merged = 0
        with self._lock:
            path = self.entry_path(class_id)
            rows: Dict[PositionKey, PositionResult] = {}
            existed = os.path.exists(path)
            if existed:
                loaded = self._read_entry(path, key_doc, raw_tail)
                if loaded is None:
                    existed = False  # corrupt entry dropped; rebuild fresh
                else:
                    rows = loaded
            for raw, result in incoming.items():
                if raw not in rows:
                    rows[raw] = result
                    merged += 1
            for row_key, row_result in rows.items():
                self._hot_put(row_key, row_result)
            if merged:
                self._write_entry(path, key_doc, rows)
                try:
                    self._loaded[class_id] = os.stat(path).st_mtime_ns
                except OSError:
                    self._loaded.pop(class_id, None)
                self.stats.puts += merged
                self._puts.inc(merged)
                if not existed:
                    self._disk_entries += 1
                    self._evict_over_limit()
            self._publish_gauges()
        return merged

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #

    def _evict_over_limit(self) -> None:
        """Unlink oldest-modified entry files until within the bound."""
        if self._disk_entries <= self.max_entries:
            return
        files: List[Tuple[int, str]] = []
        for dirpath, _dirs, names in os.walk(self._entries_dir):
            for name in names:
                if not name.endswith(".json"):
                    continue
                full = os.path.join(dirpath, name)
                try:
                    files.append((os.stat(full).st_mtime_ns, full))
                except OSError:
                    continue
        files.sort()
        excess = len(files) - self.max_entries
        evicted = 0
        for _mtime, full in files[:max(0, excess)]:
            try:
                os.unlink(full)
            except OSError:
                continue
            evicted += 1
            base = os.path.basename(full)
            self._loaded.pop(base[:-5], None)
        self._disk_entries = len(files) - evicted
        self.stats.evictions += evicted
        if evicted:
            self._evictions.inc(evicted)
