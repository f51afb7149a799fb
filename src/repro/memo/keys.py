"""The memo's content-addressed key scheme.

One persistent entry groups the identification results of a *class* of
truth tables: the key is a permutation-invariant signature of the table
plus every search knob, hashed with the same sha256-of-canonical-JSON
idiom as :class:`repro.service.jobspec.JobSpec` ids.  Inside the entry,
results are stored per *exact* table — the class key only decides which
file to open; correctness never rests on it.

Why a class key instead of hashing the exact table?  Input-permuted
variants of the same function land in the same entry file (they share the
signature), so the store's locality follows the structural redundancy
resynthesis actually encounters, and the adversarial canonicalization
properties are checkable in isolation:

* permuting a table's inputs permutes its per-position ON-column counts,
  so the *sorted* counts — and therefore the key — are unchanged;
* two tables differing in one minterm differ in ON-set size, so they can
  never share a key;
* complement/negation variants may or may not share a class key, but can
  never collide *incorrectly*: the per-table sub-entries are exact.

The signature is deliberately cheap — O(|ON| * n) — because it is only
computed on an in-process cache miss, where the alternative is the
permutation search itself.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from ..comparison.identify import identification_key

KEY_FORMAT = "repro-memo-key"
MEMO_VERSION = 1


def table_column_counts(table: int, n: int) -> List[int]:
    """Per-input-position ON-minterm counts of a truth table.

    ``counts[pos]`` is the number of ON minterms whose bit at input
    position *pos* (MSB first, as everywhere in :mod:`repro.sim`) is 1.
    An input permutation of the function permutes this list, which is
    what makes its sorted form permutation-invariant.
    """
    counts = [0] * n
    m = table
    while m:
        low = m & -m
        minterm = low.bit_length() - 1
        for pos in range(n):
            if (minterm >> (n - pos - 1)) & 1:
                counts[pos] += 1
        m ^= low
    return counts


def memo_key_doc(
    table: int,
    n: int,
    perm_budget: int,
    try_offset: bool,
    seed: int,
    max_specs: int,
) -> Dict[str, object]:
    """The canonical key document of one search's entry class.

    Every search knob of the :func:`identification_key` is part of the
    key — all of them change the search outcome — alongside the
    permutation-invariant table signature (input count, ON-set size,
    sorted ON-column counts).  The knobs are read from that key, so an
    exhaustive search files under seed 0 whatever seed it was run with.
    """
    _, _, perm_budget, try_offset, seed, max_specs = identification_key(
        table, n, perm_budget, try_offset, seed, max_specs)
    return {
        "format": KEY_FORMAT,
        "version": MEMO_VERSION,
        "n": n,
        "on": bin(table).count("1"),
        "cols": sorted(table_column_counts(table, n)),
        "perm_budget": perm_budget,
        "try_offset": bool(try_offset),
        "seed": seed,
        "max_specs": max_specs,
    }


def memo_key_id(doc: Dict[str, object]) -> str:
    """Content address of a key document (``m`` + sha256 prefix).

    The same canonical-JSON hashing idiom as ``JobSpec.job_id``: sorted
    keys, compact separators, sha256, short hex prefix.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "m" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
