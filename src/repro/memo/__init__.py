"""Persistent, content-addressed identification cache (``repro.memo``).

Identification — the permutation search of
:func:`repro.comparison.identify.identify_positions` — dominates
resynthesis wall time, and its results are pure function values of
``(table, n, perm_budget, try_offset, seed, max_specs)``.  The in-process
:class:`~repro.comparison.IdentificationCache` already amortizes repeats
within one process; this package amortizes them *across* processes and
runs: a :class:`MemoStore` persists search results in a directory of
content-addressed JSON entries, shared by serial runs, ``--jobs N``
coordinators, and service workers alike.

A stored result is returned **verbatim** — a hit is bit-for-bit what the
local search would have computed, so wiring a memo in cannot change any
report (the memo legs of the ``execution`` differential oracle in
:mod:`repro.verify.execution` fuzz exactly that contract; docs/MEMO.md states it in full).
"""

from .keys import (
    KEY_FORMAT,
    MEMO_VERSION,
    memo_key_doc,
    memo_key_id,
    table_column_counts,
)
from .store import (
    ENTRY_FORMAT,
    MemoStats,
    MemoStore,
    decode_entry_doc,
    entry_key_tail,
    validate_key_doc,
)

__all__ = [
    "ENTRY_FORMAT",
    "KEY_FORMAT",
    "MEMO_VERSION",
    "MemoStats",
    "MemoStore",
    "RemoteMemo",
    "decode_entry_doc",
    "entry_key_tail",
    "memo_key_doc",
    "memo_key_id",
    "table_column_counts",
    "validate_key_doc",
]


def __getattr__(name: str):
    # RemoteMemo pulls in the service HTTP client; loaded lazily so the
    # plain MemoStore path never pays for (or cycles through) it.
    if name == "RemoteMemo":
        from .remote import RemoteMemo

        return RemoteMemo
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
