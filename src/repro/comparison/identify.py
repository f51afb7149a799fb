"""Identification of comparison functions (Section 3.4, Section 5).

Given a truth table over ordered variables, the identifier searches input
permutations for one under which the ON-set minterms form a consecutive
decimal interval.  Following the paper's experimental setup (Section 5), the
OFF-set is tried as well: if the OFF minterms are consecutive, the function
is a *complemented* comparison function, realized by inverting a comparison
unit's output.  Up to ``perm_budget`` permutations are tried (the paper used
200); for ``n! <= perm_budget`` the search is exhaustive and therefore exact.

The position-level search (:func:`identify_positions`) is a pure function of
``(table, n, perm_budget, try_offset, seed, max_specs)``.  That purity is
what the parallel resynthesis layer (:mod:`repro.parallel`) relies on:
worker processes run the search on candidate-cone truth tables and the
coordinator installs the results into the shared
:class:`IdentificationCache` via :func:`warm_identification_cache` — a
cache hit returns bit-for-bit what a local search would have computed, so
results cannot depend on *where* the search ran.  An exhaustive search
(``n! <= perm_budget``) never reads its seed, so its cache key carries
seed 0 (:func:`identification_key`) and every pass shares one entry.

When NumPy is importable and ``n <= 7``, a table is scanned once under all
``n!`` permutations (a gather from a per-``n`` table of permuted minterm
values, then min/max per permutation); the resulting *verdict* lives in
the :class:`IdentificationCache` and answers every permutation sample of
that table by replay.  Larger ``n`` keep the sampled scan (one integer
matrix product per table).  The pure-Python loop is the NumPy-less path
and the reference both kernels are tested against; all three produce
identical results, permutation for permutation.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..sim.truthtable import tt_minterms
from .spec import ComparisonSpec

try:  # NumPy accelerates the permutation scan but is never required.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: Default permutation budget, matching Section 5 of the paper.
DEFAULT_PERM_BUDGET = 200

#: Largest input count scanned under all ``n!`` permutations at once.
#: Measured per table on an x86-64 Xeon with NumPy 2.4: ~60 us for all 720
#: permutations at n=6 and ~130 us for all 5,040 at n=7, against ~190 us
#: and ~340 us for the sampled scan of 200.  At n=8 the value table would
#: hold 256 x 40,320 entries (10 MB) and a scan would visit ~200x the
#: permutations of a 200-sample, so larger inputs keep the sampled scan.
WHOLE_SCAN_MAX_N = 7


def _minterm_bits(minterms: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """Decompose each minterm into an MSB-first bit tuple."""
    return [
        tuple((m >> (n - i - 1)) & 1 for i in range(n)) for m in minterms
    ]


def _interval_under_perm(
    bits: List[Tuple[int, ...]], n: int, perm: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """If the minterms are consecutive under *perm*, return (L, U).

    ``perm[i] = j`` means the new position ``i`` (MSB first) reads the old
    position ``j``.  Exits early once the value span exceeds the minterm
    count (a span never shrinks, so the permutation is already refuted).
    """
    total = len(bits)
    lo = hi = None
    for b in bits:
        v = 0
        for i, j in enumerate(perm):
            if b[j]:
                v |= 1 << (n - i - 1)
        if lo is None:
            lo = hi = v
        elif v < lo:
            lo = v
        elif v > hi:
            hi = v
        if hi - lo >= total:
            return None
    if lo is None:
        return None
    if hi - lo + 1 == total:
        return lo, hi
    return None


def _lsb_condition_holds(bits: List[Tuple[int, ...]], n: int) -> bool:
    """Necessary condition for any permuted interval to exist.

    In an interval of ``W`` consecutive integers, the number of odd values
    is ``floor(W/2)`` or ``ceil(W/2)``; under a valid permutation some
    variable plays the LSB role, so some variable's ON-count with value 1
    must hit that window.  Cheap and exact — skipping the permutation loop
    when it fails cannot change any identification result.
    """
    w = len(bits)
    lo, hi = w // 2, (w + 1) // 2
    for j in range(n):
        c1 = sum(b[j] for b in bits)
        if lo <= c1 <= hi:
            return True
    return False


def candidate_permutations(
    n: int, perm_budget: int, seed: int = 0
) -> Iterator[Tuple[int, ...]]:
    """Yield up to *perm_budget* distinct permutations of ``0..n-1``.

    The identity comes first.  When ``n! <= perm_budget`` the enumeration is
    exhaustive (lexicographic); otherwise a deterministic seeded sample of
    distinct permutations is produced, mirroring the paper's "up to 200
    permutations" experimental procedure.
    """
    total = 1
    for i in range(2, n + 1):
        total *= i
    if total <= perm_budget:
        yield from itertools.permutations(range(n))
        return
    rng = random.Random((seed << 8) | n)
    seen = set()
    identity = tuple(range(n))
    seen.add(identity)
    yield identity
    produced = 1
    while produced < perm_budget:
        p = list(range(n))
        rng.shuffle(p)
        tp = tuple(p)
        if tp in seen:
            continue
        seen.add(tp)
        yield tp
        produced += 1


@dataclass(frozen=True)
class IdentificationResult:
    """All comparison-form realizations found for one function."""

    specs: Tuple[ComparisonSpec, ...]
    permutations_tried: int
    exhaustive: bool

    @property
    def found(self) -> bool:
        """True when at least one comparison realization was found."""
        return bool(self.specs)


#: A position-level hit: (permutation, lower, upper, complemented).
PositionHit = Tuple[Tuple[int, ...], int, int, bool]

#: The memoized value of one position-level search: (hits, permutations tried).
PositionResult = Tuple[Tuple[PositionHit, ...], int]

#: The cache key of one position-level search: the argument tuple of
#: :func:`identify_positions`, with the seed zeroed where it is never read.
PositionKey = Tuple[int, int, int, bool, int, int]

#: The whole-space scan of one table: the ON- and OFF-set LSB
#: preconditions and an int16 ``(hits, 4)`` array of
#: ``(lexicographic permutation index, L, U, complement)`` rows, sorted by
#: permutation with the ON hit before the OFF hit (None when no
#: permutation hits).
Verdict = Tuple[bool, bool, "object"]


def identification_key(
    table: int,
    n: int,
    perm_budget: int,
    try_offset: bool,
    seed: int,
    max_specs: int,
) -> PositionKey:
    """Build the :class:`IdentificationCache` key for one search.

    The key is the argument tuple of :func:`identify_positions`, except
    that an exhaustive search (``n! <= perm_budget``) gets seed 0: it
    tries every permutation in lexicographic order and never reads the
    seed, so every seed has the same result.  It exists as a named helper
    so the coordinator, the worker processes, the cache and the
    persistent memo (:func:`repro.memo.keys.memo_key_doc`) agree on one
    canonical spelling.
    """
    if math.factorial(n) <= perm_budget:
        seed = 0
    return (table, n, perm_budget, try_offset, seed, max_specs)


class IdentificationCache:
    """Memo of position-level identification results.

    Keys are :func:`identification_key` tuples; values are the pure
    function value of :func:`identify_positions` for that key.  Unlike an
    ``functools.lru_cache``, entries can be installed from outside via
    :meth:`warm` — that is how the parallel evaluation layer publishes
    results computed in worker processes.  Resynthesis evaluates thousands
    of candidate cones that frequently share truth tables, so the memo is
    a large constant-factor win even in serial runs.

    The cache also holds per-table :data:`Verdict` values (see
    :meth:`verdict`), bounded the same way as the position entries, so
    one whole-space scan serves every permutation sample of a table.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        self._table: Dict[PositionKey, PositionResult] = {}
        self._verdicts: Dict[Tuple[int, int, bool], Verdict] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.warmed = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: PositionKey) -> Optional[PositionResult]:
        """Return the memoized result for *key*, or None on a miss."""
        got = self._table.get(key)
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def peek(self, key: PositionKey) -> Optional[PositionResult]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self._table.get(key)

    def put(self, key: PositionKey, value: PositionResult) -> None:
        """Memoize *value* under *key* (drops all entries when full)."""
        if len(self._table) >= self._max_entries:
            self._table.clear()
        self._table[key] = value

    def warm(
        self, entries: Iterable[Tuple[PositionKey, PositionResult]]
    ) -> int:
        """Install externally computed results; return the entry count.

        Because :func:`identify_positions` is pure, installing a correct
        entry is indistinguishable from having computed it locally — the
        parallel layer's determinism contract rests on this.
        """
        count = 0
        for key, value in entries:
            self.put(key, value)
            count += 1
        self.warmed += count
        return count

    def verdict(self, table: int, n: int, try_offset: bool) -> Verdict:
        """The whole-space scan of *table*, computed on first use.

        Needs NumPy and ``n <=`` :data:`WHOLE_SCAN_MAX_N`.  Drops all
        verdicts when full, like :meth:`put`.
        """
        key = (table, n, try_offset)
        got = self._verdicts.get(key)
        if got is None:
            if len(self._verdicts) >= self._max_entries:
                self._verdicts.clear()
            got = _scan_all_permutations(table, n, try_offset)
            self._verdicts[key] = got
        return got

    def clear(self) -> None:
        """Drop every entry and verdict (counters are kept)."""
        self._table.clear()
        self._verdicts.clear()


#: Process-global identification memo shared by every caller.
_CACHE = IdentificationCache()


def identification_cache() -> IdentificationCache:
    """Return the process-global :class:`IdentificationCache`."""
    return _CACHE


def warm_identification_cache(
    entries: Iterable[Tuple[PositionKey, PositionResult]]
) -> int:
    """Install entries into the process-global cache; return the count."""
    return _CACHE.warm(entries)


#: Memo of materialized permutation samples keyed by (n, perm_budget,
#: seed).  One resynthesis pass consumes the same sample tens of thousands
#: of times; regenerating it per identification call would dominate the
#: scan itself.
_PERM_CACHE: Dict[Tuple[int, int, int], Tuple[Tuple[int, ...], ...]] = {}

#: Memo of the NumPy weight matrices derived from the samples above.
_WEIGHTS_CACHE: Dict[Tuple[int, int, int], "object"] = {}


def _permutation_sample(
    n: int, perm_budget: int, seed: int
) -> Tuple[Tuple[int, ...], ...]:
    """Materialized (and memoized) :func:`candidate_permutations` output."""
    key = (n, perm_budget, seed)
    got = _PERM_CACHE.get(key)
    if got is None:
        if len(_PERM_CACHE) >= 1024:
            _PERM_CACHE.clear()
        got = tuple(candidate_permutations(n, perm_budget, seed))
        _PERM_CACHE[key] = got
    return got


def _permutation_weights(n: int, perm_budget: int, seed: int):
    """``(n, n_perms)`` int64 weight matrix for the sample's permutations.

    Column ``k`` holds the per-old-position weights of permutation ``k``:
    for permutation ``p`` the permuted decimal value of a minterm with bit
    tuple ``b`` is ``sum_i b[p[i]] << (n-1-i)``, i.e. a dot product of
    ``b`` with that column.  The matrix depends only on the sample, so it
    is built once per (n, perm_budget, seed) and reused by every scan.
    """
    key = (n, perm_budget, seed)
    got = _WEIGHTS_CACHE.get(key)
    if got is None:
        if len(_WEIGHTS_CACHE) >= 1024:
            _WEIGHTS_CACHE.clear()
        perms = _permutation_sample(n, perm_budget, seed)
        pmat = _np.asarray(perms, dtype=_np.int64)  # (perms, n)
        n_perms = pmat.shape[0]
        shifts = _np.left_shift(
            _np.int64(1), n - 1 - _np.arange(n, dtype=_np.int64)
        )
        weights = _np.zeros((n_perms, n), dtype=_np.int64)
        weights[_np.arange(n_perms)[:, None], pmat] = shifts[None, :]
        got = _np.ascontiguousarray(weights.T)  # (n, perms)
        _WEIGHTS_CACHE[key] = got
    return got


def _minterm_matrix(minterms: Sequence[int], n: int):
    """``(minterms, n)`` MSB-first bit matrix (NumPy twin of bit tuples)."""
    ms = _np.asarray(minterms, dtype=_np.int64)
    bitpos = _np.arange(n - 1, -1, -1, dtype=_np.int64)
    return (ms[:, None] >> bitpos[None, :]) & 1


def _lsb_condition_mat(mat) -> bool:
    """NumPy twin of :func:`_lsb_condition_holds` over a bit matrix."""
    w = mat.shape[0]
    c1 = mat.sum(axis=0)
    return bool(((c1 >= w // 2) & (c1 <= (w + 1) // 2)).any())


def _interval_scan(mat, weights_t, n_minterms: int):
    """Per-permutation interval test over a minterm bit matrix (NumPy).

    One integer matrix product evaluates every permutation's permuted
    values; min/max per column then gives the interval test.  Returns
    ``(lo, hi, ok)`` arrays indexed by permutation, identical to running
    :func:`_interval_under_perm` per permutation.
    """
    values = mat @ weights_t  # (minterms, perms)
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    return lo, hi, (hi - lo + 1) == n_minterms


@functools.lru_cache(maxsize=None)
def _whole_space(n: int):
    """``(bits, values)`` for every minterm of an n-input table.

    ``bits`` is the ``(2^n, n)`` MSB-first bit matrix; ``values`` is the
    ``(2^n, n!)`` int8 table whose column ``k`` holds every minterm's
    permuted value under the ``k``-th permutation in lexicographic order
    (the exhaustive sample).  Built on first use for each ``n <=``
    :data:`WHOLE_SCAN_MAX_N`; both arrays are read-only.
    """
    bits = _minterm_matrix(range(1 << n), n)
    weights_t = _permutation_weights(n, math.factorial(n), 0)
    values = (bits @ weights_t).astype(_np.int8)
    bits.setflags(write=False)
    values.setflags(write=False)
    return bits, values


def _lex_index(perm: Sequence[int]) -> int:
    """Position of *perm* in the lexicographic order of its permutations."""
    rest = sorted(perm)
    index = 0
    for p in perm:
        i = rest.index(p)
        index = index * len(rest) + i
        rest.pop(i)
    return index


@functools.lru_cache(maxsize=1024)
def _sample_positions(n: int, perm_budget: int, seed: int):
    """Read-only ``n!`` int32 array: each permutation's position in the
    :func:`candidate_permutations` sample, or -1 when it is not sampled."""
    positions = _np.full(math.factorial(n), -1, dtype=_np.int32)
    for i, perm in enumerate(_permutation_sample(n, perm_budget, seed)):
        positions[_lex_index(perm)] = i
    positions.setflags(write=False)
    return positions


def _scan_all_permutations(table: int, n: int, try_offset: bool) -> Verdict:
    """Scan a non-constant table under all ``n!`` permutations (NumPy).

    Gathers the ON (and OFF) minterm rows of the value table and takes
    min and max per permutation, the interval test of
    :func:`_interval_scan` without a matrix product.  A set whose LSB
    precondition fails is not scanned, as in :func:`identify_positions`.
    """
    bits, values = _whole_space(n)
    size = 1 << n
    raw = _np.frombuffer(table.to_bytes((size + 7) // 8, "little"),
                         dtype=_np.uint8)
    on = _np.unpackbits(raw, bitorder="little")[:size].astype(bool)
    sets = [(on, False), (~on, True)] if try_offset else [(on, False)]
    checks = []
    found = []
    for mask, complement in sets:
        check = _lsb_condition_mat(bits[mask])
        checks.append(check)
        if not check:
            continue
        rows = values[mask]
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        idx = _np.flatnonzero(hi - lo == rows.shape[0] - 1)
        if len(idx):
            hits = _np.empty((len(idx), 4), dtype=_np.int16)
            hits[:, 0] = idx
            hits[:, 1] = lo[idx]
            hits[:, 2] = hi[idx]
            hits[:, 3] = complement
            found.append(hits)
    hits = None
    if found:
        # Stable, so a permutation hit by both sets keeps ON before OFF.
        hits = _np.concatenate(found)
        hits = hits[_np.argsort(hits[:, 0], kind="stable")]
    return (checks[0], len(checks) > 1 and checks[1], hits)


def _replay_verdict(
    verdict: Verdict, n: int, perm_budget: int, seed: int, max_specs: int
) -> PositionResult:
    """Answer one search from its table's :data:`Verdict`.

    Walks the sample's permutations in sample order over the verdict's
    hits, reproducing the scan loop of :func:`identify_positions`: hits
    in permutation order, ON before OFF, stopping after the permutation
    at which ``max_specs`` hits are reached.
    """
    check_on, check_off, hits = verdict
    if not check_on and not check_off:
        return ((), 0)
    perms = _permutation_sample(n, perm_budget, seed)
    if hits is None:
        return ((), len(perms))
    at = _sample_positions(n, perm_budget, seed)[hits[:, 0]]
    order = _np.argsort(at, kind="stable")
    at = at[order]
    start = int(_np.searchsorted(at, 0))  # unsampled permutations sort first
    if start == len(at):
        return ((), len(perms))
    at = at[start:]
    if max_specs < 1:
        last = 0
    elif len(at) >= max_specs:
        last = int(at[max_specs - 1])
    else:
        last = len(perms) - 1
    end = int(_np.searchsorted(at, last, side="right"))
    rows = hits[order[start:start + end]].tolist()
    return (
        tuple((perms[p], lo, hi, bool(comp))
              for p, (_, lo, hi, comp) in zip(at[:end].tolist(), rows)),
        last + 1,
    )


def identify_positions(
    table: int,
    n: int,
    perm_budget: int,
    try_offset: bool = True,
    seed: int = 0,
    max_specs: int = 16,
) -> PositionResult:
    """Position-level identification core (a pure function).

    Search the permutations of ``0..n-1`` for ones under which the ON set
    (and, with *try_offset*, the OFF set) of *table* is a consecutive
    decimal interval.  Return ``(hits, tried)`` where each hit is a
    ``(perm, L, U, complement)`` tuple, in the deterministic order the
    serial scan visits them (permutation order, ON before OFF), and
    *tried* is the number of permutations consumed.

    Equal arguments give equal results, whether evaluated inline, from
    the cache, or in a worker process, so the parallel layer can run it
    anywhere.  The only process state it reads is the table's
    :data:`Verdict` in the process-global cache, itself a pure function
    of ``(table, n, try_offset)``.  The whole-space replay, the sampled
    NumPy scan and the pure-Python loop are kept output-identical (see
    ``tests/comparison/test_identify_kernels.py``).
    """
    size = 1 << n
    full = (1 << size) - 1
    if table == 0 or table == full:
        return ((), 0)
    if _np is not None and n <= WHOLE_SCAN_MAX_N:
        # One scan of every permutation per table, kept in the cache and
        # replayed for each sample (seed, budget, max_specs) it meets.
        return _replay_verdict(_CACHE.verdict(table, n, try_offset), n,
                               perm_budget, seed, max_specs)
    on_m = tt_minterms(table, n)
    off_m = tt_minterms(table ^ full, n) if try_offset else None
    hits: List[PositionHit] = []
    tried = 0
    if _np is not None:
        # Vectorized scan: precompute every permutation's interval, then
        # replay the serial collection loop (including its early stop) so
        # hit order, hit multiplicity and the tried-count stay identical.
        on_mat = _minterm_matrix(on_m, n)
        off_mat = _minterm_matrix(off_m, n) if off_m is not None else None
        check_on = _lsb_condition_mat(on_mat)
        check_off = off_mat is not None and _lsb_condition_mat(off_mat)
        if not check_on and not check_off:
            return ((), 0)
        perms = _permutation_sample(n, perm_budget, seed)
        weights_t = _permutation_weights(n, perm_budget, seed)
        on_ok = off_ok = None
        any_hit = False
        if check_on:
            on_lo, on_hi, on_ok = _interval_scan(on_mat, weights_t,
                                                 len(on_m))
            any_hit = bool(on_ok.any())
        if check_off:
            off_lo, off_hi, off_ok = _interval_scan(off_mat, weights_t,
                                                    len(off_m))
            any_hit = any_hit or bool(off_ok.any())
        if not any_hit:
            # The serial loop would try every permutation and break never.
            return ((), len(perms))
        for idx, perm in enumerate(perms):
            tried += 1
            if on_ok is not None and on_ok[idx]:
                hits.append((perm, int(on_lo[idx]), int(on_hi[idx]), False))
            if off_ok is not None and off_ok[idx]:
                hits.append((perm, int(off_lo[idx]), int(off_hi[idx]), True))
            if len(hits) >= max_specs:
                break
        return (tuple(hits), tried)
    on_bits = _minterm_bits(on_m, n)
    off_bits = _minterm_bits(off_m, n) if off_m is not None else None
    check_on = _lsb_condition_holds(on_bits, n)
    check_off = off_bits is not None and _lsb_condition_holds(off_bits, n)
    if not check_on and not check_off:
        return ((), 0)
    for perm in _permutation_sample(n, perm_budget, seed):
        tried += 1
        if check_on:
            got = _interval_under_perm(on_bits, n, perm)
            if got is not None:
                hits.append((perm, got[0], got[1], False))
        if check_off:
            got = _interval_under_perm(off_bits, n, perm)
            if got is not None:
                hits.append((perm, got[0], got[1], True))
        if len(hits) >= max_specs:
            break
    return (tuple(hits), tried)


def lookup_positions(
    table: int,
    n: int,
    perm_budget: int = DEFAULT_PERM_BUDGET,
    try_offset: bool = True,
    seed: int = 0,
    max_specs: int = 16,
    memo=None,
) -> PositionResult:
    """Cached :func:`identify_positions`: ``(hits, tried)`` for a table.

    Cache order: the process-global :class:`IdentificationCache` first,
    then the optional persistent *memo* (a
    :class:`repro.memo.MemoStore`), then the search itself.  A memo hit
    is installed into the in-process cache and returned verbatim; a
    fresh computation is recorded back into the memo.  Because every
    tier stores the pure function value for the *exact* key, the answer
    is bit-identical whichever tier serves it.  Resynthesis prices the
    hits directly (:func:`repro.comparison.unit.cheapest_position`);
    :func:`identify_comparison` turns them into specs.
    """
    key = identification_key(
        table, n, perm_budget, try_offset, seed, max_specs
    )
    got = _CACHE.get(key)
    if got is None and memo is not None:
        got = memo.lookup(table, n, perm_budget, try_offset, seed, max_specs)
        if got is not None:
            _CACHE.put(key, got)
    if got is None:
        got = identify_positions(
            table, n, perm_budget, try_offset, seed, max_specs
        )
        _CACHE.put(key, got)
        if memo is not None:
            memo.record(
                table, n, perm_budget, try_offset, seed, max_specs, got
            )
    return got


def identify_comparison(
    table: int,
    variables: Sequence[str],
    perm_budget: int = DEFAULT_PERM_BUDGET,
    try_offset: bool = True,
    seed: int = 0,
    max_specs: int = 16,
    memo=None,
) -> IdentificationResult:
    """Search for comparison-function realizations of a truth table.

    Parameters
    ----------
    table:
        Truth table bitmask over *variables* (MSB-first convention).
    variables:
        Ordered variable names.
    perm_budget:
        Maximum permutations to try (paper: 200).
    try_offset:
        Also test the OFF-set (complemented realization), as in Section 5.
    seed:
        Seed for the permutation sample when the search is not exhaustive.
    max_specs:
        Stop collecting after this many successful realizations (the caller
        picks the cheapest; a handful is plenty of diversity).
    memo:
        Optional persistent :class:`repro.memo.MemoStore` consulted (and
        fed) behind the in-process cache; never changes the result.

    Returns
    -------
    IdentificationResult
        All realizations found (possibly none).  Constant functions are
        never reported as comparison functions; the resynthesis procedures
        handle them by direct constant substitution instead.
    """
    n = len(variables)
    exhaustive = math.factorial(n) <= perm_budget
    hits, tried = lookup_positions(
        table, n, perm_budget, try_offset, seed, max_specs, memo=memo
    )
    specs = tuple(
        ComparisonSpec(
            tuple(variables[j] for j in perm), lo, hi, complement=comp
        )
        for perm, lo, hi, comp in hits
    )
    return IdentificationResult(specs, tried, exhaustive)


def is_comparison_function(
    table: int,
    variables: Sequence[str],
    perm_budget: int = DEFAULT_PERM_BUDGET,
    try_offset: bool = True,
    seed: int = 0,
) -> bool:
    """Convenience predicate over :func:`identify_comparison`."""
    return identify_comparison(
        table, variables, perm_budget, try_offset, seed, max_specs=1
    ).found
