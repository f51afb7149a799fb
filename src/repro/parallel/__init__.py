"""Parallel candidate evaluation for the resynthesis sweep (``repro.parallel``).

Procedures 2 and 3 spend almost all of their time evaluating candidate
cones: extracting the cone's truth table and searching input permutations
for comparison-function realizations.  Both computations are pure
functions — of the cone's structural signature and of the identification
knobs respectively — while everything that *orders* the sweep (marking,
frozen units, replacement commits, path-label updates) is serial state
owned by the :class:`~repro.analysis.AnalysisSession`.

This module is the **cache-priming planner** that exploits that split.
Before each pass the coordinator enumerates every candidate cone of the
pass-start circuit, dedupes them by :func:`~repro.sim.cone_signature`,
and fans the work out over a :class:`~repro.fabric.Fabric` in two rounds
of registered task kinds (:mod:`repro.fabric.tasks`): an *extraction*
round shipping the cone slices whose truth tables are not yet cached,
and an *identification* round shipping one search per unique table-level
cache key (distinct cone structures frequently compute the same
function, so this round is much smaller than the signature count).  The
coordinator merges the returned rows into the pass's caches: the
session's :class:`~repro.sim.TruthTableCache` and the global
:class:`~repro.comparison.IdentificationCache`.  The serial sweep then
runs unchanged and finds its expensive questions pre-answered.

*Where* the tasks run is the fabric's business, not the planner's: the
same priming loop drives :class:`~repro.fabric.SerialFabric` (inline),
:class:`~repro.fabric.ProcessFabric` (the local pool that used to live
inside this module) and :class:`~repro.fabric.RemoteFabric` (a worker
fleet over HTTP).  ``docs/PARALLEL.md`` documents the planner;
``docs/FABRIC.md`` documents the execution layer.

**Determinism contract.**  Reports are bit-identical with or without a
fabric, on any fabric backend, at any shard count, because workers only
ever compute pure functions the sweep would otherwise compute inline: a
cache hit is indistinguishable from a local evaluation, merge order
cannot matter (equal keys hold equal values), and every selection
tie-break still happens in the serial sweep, in serial order, against
the session's current labels.  Cones that only exist mid-pass (after an
in-pass replacement, or bounded by freshly frozen units) simply miss the
warmed caches and are evaluated inline, exactly as a serial run
evaluates them.  See ``docs/PARALLEL.md`` for the full contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import AnalysisSession
from ..comparison.identify import identification_cache, identification_key
from ..fabric.core import Fabric, FabricExecutionError, FabricTask
from ..netlist import Circuit, GateType
from ..obs import Registry, get_registry, maybe_tracer
from ..resynth.candidates import enumerate_candidate_cones
from ..sim import cone_signature

__all__ = [
    "ParallelEvaluator",
    "ParallelExecutionError",
    "PassPrimeStats",
]


class ParallelExecutionError(FabricExecutionError):
    """Candidate evaluation failed on the fabric during priming.

    Raised by :meth:`ParallelEvaluator.prime_pass` with the fabric's
    exception chained — a crashed worker surfaces as one clean error
    instead of a hang or a corrupted sweep (a
    :class:`~repro.fabric.ProcessFabric` whose pool broke has already
    torn it down, so the next pass starts from a fresh one).  Subclasses
    :class:`~repro.fabric.FabricExecutionError` so callers may catch at
    either layer.
    """


@dataclass(frozen=True)
class PassPrimeStats:
    """What one :meth:`ParallelEvaluator.prime_pass` call did."""

    sites: int  # candidate output lines scanned
    cones: int  # candidate cones enumerated (with duplicates)
    unique_cones: int  # distinct signatures among them
    shipped: int  # cone slices sent to the extraction round
    chunks: int  # fabric tasks submitted (both rounds)
    merged_tables: int  # truth tables installed into the session cache
    merged_identifications: int  # unique searches installed globally


class ParallelEvaluator:
    """Cache-priming planner: per-pass candidate fan-out over a fabric.

    Parameters
    ----------
    fabric:
        The :class:`~repro.fabric.Fabric` tasks run on (serial, local
        process pool or remote fleet).  The evaluator never closes it:
        the fabric belongs to whoever created it and may outlive the run.
    chunk_factor:
        Shards per unit of fabric parallelism per round (the
        ``chunk_factor`` handed to
        :meth:`~repro.fabric.Fabric.shard_count`).  More shards smooth
        load imbalance between cheap and expensive cones; each shard
        carries its own (small) serialization overhead.
    inject_crash:
        Test-only: makes every worker raise immediately, to exercise the
        :class:`ParallelExecutionError` path deterministically (the knob
        travels inside the task payload, so it works on every backend).
    tracer:
        A :class:`repro.obs.Tracer` recording ``prime`` spans (with
        ``prime.enumerate`` / ``prime.extract`` / ``prime.identify``
        children) under whatever span is current when
        :meth:`prime_pass` runs; default: the null tracer.
    registry:
        A :class:`repro.obs.Registry` receiving the planner metrics
        (cones/tables/identifications counters; the fabric adds its own
        ``fabric_*`` series); default: the process-wide registry.

    :attr:`prime_seconds` accumulates each :meth:`prime_pass` call's
    wall clock (the procedures publish it as the report's
    ``timings["prime_seconds"]``).
    """

    def __init__(
        self,
        fabric: Fabric,
        chunk_factor: int = 4,
        inject_crash: bool = False,
        tracer=None,
        registry: Optional[Registry] = None,
    ) -> None:
        if chunk_factor < 1:
            raise ValueError(f"chunk_factor must be >= 1, got {chunk_factor}")
        self.fabric = fabric
        self.chunk_factor = chunk_factor
        self.inject_crash = inject_crash
        self.tracer = maybe_tracer(tracer)
        self.registry = registry if registry is not None else get_registry()
        self.prime_seconds: List[float] = []

    def _map_chunks(self, kind: str, items: List, knobs: Dict, seed: int):
        """Fan *items* out over the fabric; return merged rows + shard count.

        Rows come back in deterministic (task) order, although the merge
        order cannot matter: every row is a pure-function value keyed by
        its own arguments, so equal keys always carry equal values.  A
        failing round surfaces as one :class:`ParallelExecutionError`.
        """
        fabric = self.fabric
        n_chunks = fabric.shard_count(len(items), self.chunk_factor)
        tasks = []
        for i in range(n_chunks):
            payload = {"items": items[i::n_chunks],
                       "inject_crash": self.inject_crash}
            payload.update(knobs)
            tasks.append(FabricTask(kind=kind, payload=payload))
        self.registry.inc("parallel_chunks_total", n_chunks)
        try:
            chunk_rows = fabric.map(tasks)
        except FabricExecutionError as exc:
            raise ParallelExecutionError(
                f"parallel candidate evaluation failed while priming the "
                f"pass with seed {seed} ({n_chunks} {kind} shard(s) on the "
                f"{fabric.name} fabric): {exc}"
            ) from exc
        rows: List = []
        for result in chunk_rows:
            rows.extend(result)
        return rows, n_chunks

    def prime_pass(
        self,
        circuit: Circuit,
        session: AnalysisSession,
        k: int,
        perm_budget: int,
        seed: int,
        max_specs: int,
        try_offset: bool = True,
    ) -> PassPrimeStats:
        """Fan one pass's candidate evaluation out and merge the results.

        Enumerates the candidate cones of every gate-output line of
        *circuit* (the pass-start structure, with an empty frozen set —
        exactly the serial sweep's view at its first selection site), then
        runs the two task rounds:

        1. *extraction* — signatures without a cached truth table are
           shipped as cone slices; the returned tables are installed into
           ``session.truth_tables``;
        2. *identification* — the non-constant tables are reduced to
           unique uncached :func:`~repro.comparison.identification_key`
           work units, searched in workers, and installed into the global
           :class:`~repro.comparison.IdentificationCache`.

        The knobs must equal the ones the sweep will use; the procedures
        pass their per-pass seed (``seed + pass_index``) so worker results
        are keyed precisely for the pass being primed.

        Each call emits a ``prime`` span with ``prime.enumerate`` /
        ``prime.extract`` / ``prime.identify`` children, appends its wall
        clock to :attr:`prime_seconds`, and republishes the returned
        :class:`PassPrimeStats` as obs counters (``parallel_*_total``).
        """
        prime_start = time.perf_counter()
        with self.tracer.span("prime", seed=seed) as prime_span:
            id_cache = identification_cache()
            tt_cache = session.truth_tables
            sites = 0
            cones = 0
            seen: Set[Tuple] = set()
            to_extract: List[Tuple[Tuple, int]] = []
            cached: List[Tuple[int, int]] = []  # (n, table) already known
            with self.tracer.span("prime.enumerate"):
                for net in reversed(circuit.topological_order()):
                    gate = circuit.gate(net)
                    if gate.gtype in (GateType.INPUT, GateType.CONST0,
                                      GateType.CONST1):
                        continue
                    sites += 1
                    for cone in enumerate_candidate_cones(circuit, net, k):
                        cones += 1
                        if not cone.inputs:
                            continue
                        sig = cone_signature(
                            circuit, cone.output, cone.members, cone.inputs
                        )
                        if sig in seen:
                            continue
                        seen.add(sig)
                        n = len(cone.inputs)
                        table = tt_cache.peek(sig)
                        if table is None:
                            to_extract.append((sig, n))
                        else:
                            cached.append((n, table))

            merged_tables = 0
            n_chunks = 0
            tables: List[Tuple[int, int]] = cached
            if to_extract:
                with self.tracer.span("prime.extract",
                                      shipped=len(to_extract)):
                    rows, used = self._map_chunks(
                        "extract", to_extract, {}, seed
                    )
                    n_chunks += used
                    for sig, n, table in rows:
                        tt_cache.put(sig, table)
                        merged_tables += 1
                        tables.append((n, table))

            memo = session.memo
            to_identify: Dict[Tuple, Tuple[int, int]] = {}
            for n, table in tables:
                full = (1 << (1 << n)) - 1
                if table == 0 or table == full:
                    continue
                key = identification_key(
                    table, n, perm_budget, try_offset, seed, max_specs
                )
                if key in to_identify or id_cache.peek(key) is not None:
                    continue
                if memo is not None:
                    # The persistent memo answers before any work ships:
                    # a stored result is the exact pure-function value,
                    # so installing it is indistinguishable from having
                    # searched in a worker.
                    stored = memo.lookup(
                        table, n, perm_budget, try_offset, seed, max_specs
                    )
                    if stored is not None:
                        id_cache.put(key, stored)
                        continue
                to_identify[key] = (table, n)

            merged_idents = 0
            if to_identify:
                with self.tracer.span("prime.identify",
                                      searches=len(to_identify)):
                    rows, used = self._map_chunks(
                        "identify",
                        list(to_identify.values()),
                        {"perm_budget": perm_budget,
                         "try_offset": try_offset,
                         "seed": seed,
                         "max_specs": max_specs},
                        seed,
                    )
                    n_chunks += used
                    for table, n, hits, tried in rows:
                        key = identification_key(
                            table, n, perm_budget, try_offset, seed,
                            max_specs
                        )
                        id_cache.put(key, (hits, tried))
                        merged_idents += 1
                        if memo is not None:
                            memo.record(
                                table, n, perm_budget, try_offset, seed,
                                max_specs, (hits, tried),
                            )
            stats = PassPrimeStats(
                sites=sites,
                cones=cones,
                unique_cones=len(seen),
                shipped=len(to_extract),
                chunks=n_chunks,
                merged_tables=merged_tables,
                merged_identifications=merged_idents,
            )
            prime_span.annotate(
                sites=stats.sites, cones=stats.cones,
                unique_cones=stats.unique_cones, shipped=stats.shipped,
                chunks=stats.chunks, merged_tables=stats.merged_tables,
                merged_identifications=stats.merged_identifications,
            )
        self.prime_seconds.append(time.perf_counter() - prime_start)
        registry = self.registry
        registry.inc("parallel_prime_rounds_total")
        registry.inc("parallel_sites_total", stats.sites)
        registry.inc("parallel_cones_total", stats.cones)
        registry.inc("parallel_unique_cones_total", stats.unique_cones)
        registry.inc("parallel_shipped_tables_total", stats.shipped)
        registry.inc("parallel_merged_tables_total", stats.merged_tables)
        registry.inc("parallel_merged_identifications_total",
                     stats.merged_identifications)
        return stats
