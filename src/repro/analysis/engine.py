"""Incremental analysis engine: Procedure 1 path labels kept current.

:class:`AnalysisSession` subscribes to a :class:`~repro.netlist.Circuit`'s
mutation events (:mod:`repro.netlist.incremental`) and maintains the
Procedure 1 path labels ``N_p(g)`` — the number of PI-to-net paths —
incrementally.  A mutation marks only the directly touched nets dirty;
the next :meth:`labels` query re-runs the DP on the dirty seeds and
propagates through the transitive fanout only while values actually
change.  The rest of the DP is reused, so a local replacement costs
O(affected region), not O(circuit).

This replaces the stale-labels pattern in the resynthesis sweep, where
``path_labels`` was computed once per pass and then consulted after
arbitrarily many replacements.  With a session, every selection prices
candidate cones against *current* path counts.

The session also owns a :class:`~repro.sim.TruthTableCache` so candidate
cones re-enumerated across selection sites and passes skip exhaustive
resimulation.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Set

from ..netlist import (
    CHANGE_ADD,
    CHANGE_DRIVER,
    CHANGE_OUTPUTS,
    CHANGE_REMOVE,
    CHANGE_RESET,
    Circuit,
    GateType,
    NetChange,
)
from ..sim import TruthTableCache
from .paths import path_labels


class AnalysisSession:
    """Live path-label view of one circuit.

    Parameters
    ----------
    circuit:
        The circuit to observe.  The session subscribes on construction;
        call :meth:`close` (or use the session as a context manager) to
        detach.
    registry:
        Optional :class:`repro.obs.Registry`.  When given, :meth:`close`
        publishes the session's truth-table-cache traffic as obs
        metrics: ``analysis_tt_cache_hits_total`` /
        ``analysis_tt_cache_misses_total`` counters, an
        ``analysis_tt_cache_entries`` gauge with the live entry count,
        and an ``analysis_label_flushes_total`` counter for incremental
        label repairs.
    memo:
        Optional persistent identification cache
        (:class:`repro.memo.MemoStore`).  The session only *carries* it
        — alongside :attr:`truth_tables`, it is the per-run cache bundle
        the sweep and the parallel primer consult; the session never
        reads it itself.

    Notes
    -----
    Labels returned by :meth:`labels` are always equal to a from-scratch
    ``path_labels(circuit)`` — the ``incremental`` differential oracle
    (:mod:`repro.verify.oracles`) asserts exactly that after every
    mutation of a fuzzed mutation sequence.
    """

    def __init__(self, circuit: Circuit, registry=None,
                 memo=None) -> None:
        self._circuit = circuit
        self._labels: Optional[Dict[str, int]] = None
        self._dirty: Set[str] = set()
        self.truth_tables = TruthTableCache()
        self.memo = memo
        self._registry = registry
        self._flushes = 0
        self._closed = False
        circuit.subscribe(self)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def circuit(self) -> Circuit:
        """The observed circuit."""
        return self._circuit

    def close(self) -> None:
        """Detach from the circuit; further queries rebuild nothing.

        Publishes truth-table-cache and label-flush accounting to the
        session's obs registry (if one was injected).
        """
        if not self._closed:
            self._circuit.unsubscribe(self)
            self._closed = True
            registry = self._registry
            if registry is not None:
                cache = self.truth_tables
                registry.inc("analysis_tt_cache_hits_total", cache.hits)
                registry.inc("analysis_tt_cache_misses_total",
                             cache.misses)
                registry.set_gauge("analysis_tt_cache_entries",
                                   len(cache))
                registry.inc("analysis_label_flushes_total",
                             self._flushes)

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # observer protocol
    # ------------------------------------------------------------------ #

    def circuit_changed(self, circuit: Circuit, change: NetChange) -> None:
        """Record which nets a mutation touched (cheap; no recompute here)."""
        if self._labels is None:
            return  # nothing built yet; the first query builds from scratch
        kind = change.kind
        if kind == CHANGE_ADD or kind == CHANGE_DRIVER:
            self._dirty.add(change.net)
        elif kind == CHANGE_REMOVE:
            self._labels.pop(change.net, None)
            self._dirty.discard(change.net)
        elif kind == CHANGE_RESET:
            self._labels = None
            self._dirty.clear()
        # CHANGE_OUTPUTS: labels do not depend on the output list.

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def labels(self) -> Dict[str, int]:
        """Current Procedure 1 labels (net -> PI-to-net path count).

        The returned dict is the live internal map; treat it as
        read-only and re-query after mutating the circuit.
        """
        if self._labels is None:
            self._labels = path_labels(self._circuit)
            self._dirty.clear()
        elif self._dirty:
            self._flush()
        return self._labels

    def label(self, net: str) -> int:
        """The label of one net."""
        return self.labels()[net]

    def total_paths(self) -> int:
        """Total PI-to-PO path count (Procedure 1, Step 5)."""
        labels = self.labels()
        return sum(labels[o] for o in self._circuit.outputs)

    def current_paths_on(self, net: str) -> int:
        """Paths through *net* as priced by the selection step.

        Mirrors :func:`repro.resynth.replace.current_paths_on` but against
        the session's always-current labels.
        """
        labels = self.labels()
        gate = self._circuit.gate(net)
        if gate.gtype is GateType.INPUT:
            return labels[net]
        return sum(labels.get(f, 0) for f in gate.fanins)

    # ------------------------------------------------------------------ #
    # incremental repair
    # ------------------------------------------------------------------ #

    def _compute(self, net: str) -> int:
        gate = self._circuit.gate(net)
        if gate.gtype is GateType.INPUT:
            return 1
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            return 0
        labels = self._labels
        return sum(labels.get(f, 0) for f in gate.fanins)

    def _flush(self) -> None:
        """Re-run the label DP over the dirty region only.

        Seeds are the mutation-touched nets; propagation follows fanout
        edges, but only from nets whose label actually changed.  The heap
        is keyed by topological rank so each net is recomputed after all
        of its changed fanins — at most once.
        """
        self._flushes += 1
        circuit = self._circuit
        labels = self._labels
        rank = circuit.topo_rank
        fo = circuit.fanout_map()
        heap = [(rank(n), n) for n in self._dirty if circuit.has_net(n)]
        self._dirty.clear()
        heapq.heapify(heap)
        done: Set[str] = set()
        while heap:
            _, net = heapq.heappop(heap)
            if net in done or not circuit.has_net(net):
                continue
            done.add(net)
            new = self._compute(net)
            if labels.get(net) != new:
                labels[net] = new
                for reader in fo.get(net, ()):
                    if reader not in done:
                        heapq.heappush(heap, (rank(reader), reader))
