"""The traced run's ledger: timers swapped in at the program's import sites.

Nothing here changes the program.  :class:`Ledger` replaces public names
where the program looks them up (module globals and class attributes)
with wrappers that keep one accumulator per name: calls, inclusive
seconds and self seconds, where self time comes from a per-thread stack
of open calls.  Per-candidate calls only touch these accumulators;
:class:`repro.obs.Tracer` spans, tagged with the unit they belong to,
are opened only at unit, pass, fabric-map and HTTP-request boundaries,
so the trace stays small on large circuits.  :meth:`Ledger.uninstall`
puts every original back, and :meth:`Ledger.write_jsonl` writes the
spans and accumulators when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional

from repro.obs import Tracer

perf_counter = time.perf_counter


class _Acc:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Ledger:
    """Per-name call accumulators plus boundary spans for one traced run."""

    def __init__(self, meta: Dict[str, object]) -> None:
        self.tracer = Tracer(meta=meta)
        self.unit = ""
        self.counts: Dict[str, int] = {}
        self._main = threading.get_ident()
        self._local = threading.local()
        self._tables: List[tuple] = []  # (is_main, {name: _Acc})
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # -- accounting ------------------------------------------------------ #

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(
                    (threading.get_ident() == self._main, local.table))
        return stack, local.table

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn: Callable, observe: Optional[Callable] = None,
             span: Optional[str] = None,
             unit: Optional[Callable] = None) -> Callable:
        """A timing wrapper for *fn*.

        *name* is the accumulator, or a callable picking it from the call
        arguments; *observe* sees ``(result, args)`` after the call, off
        the clock; *span* opens a boundary span around the call; *unit*
        names, from the arguments, the unit the call starts.
        """
        ledger = self
        pick = name if callable(name) else None

        def timed(*args, **kwargs):
            label = ledger.unit
            if unit is not None:
                label = ledger.unit = unit(args)
            stack, table = ledger._state()
            frame = [pick(args) if pick else name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                if span is None:
                    result = fn(*args, **kwargs)
                else:
                    with ledger.tracer.span(span, unit=label):
                        result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                acc = table.get(frame[0])
                if acc is None:
                    acc = table[frame[0]] = _Acc()
                acc.calls += 1
                acc.incl_s += elapsed
                acc.self_s += elapsed - frame[1]
            if observe is not None:
                observe(result, args)
            return result

        timed.__wrapped__ = fn
        return timed

    def patch(self, owner, attr: str, name, observe=None, span=None,
              unit=None) -> None:
        """Swap ``owner.attr`` for a timing wrapper (skipped if absent).

        Module globals and class attributes are replaced in place (on a
        class the plain function is wrapped, so the wrapper receives
        ``self``); on an instance the wrapper shadows the class's method.
        """
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        if target is None:
            return
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, target if own else None))
        setattr(owner, attr, self.wrap(name, target, observe, span, unit))

    def uninstall(self) -> None:
        """Put every swapped name back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------- #

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Merged accumulators: calls, incl_s, self_s and main_self_s."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            tables = list(self._tables)
        for is_main, table in tables:
            for name, acc in table.items():
                row = out.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                            "self_s": 0.0,
                                            "main_self_s": 0.0})
                row["calls"] += acc.calls
                row["incl_s"] += acc.incl_s
                row["self_s"] += acc.self_s
                if is_main:
                    row["main_self_s"] += acc.self_s
        return out

    def write_jsonl(self, path: str, extra: Dict[str, object]) -> None:
        """Spans, then one line per accumulator and one of *extra*."""
        lines = [self.tracer.to_jsonl().rstrip("\n")]
        for name, row in sorted(self.totals().items()):
            lines.append(json.dumps({"ledger": name, **row},
                                    sort_keys=True))
        lines.append(json.dumps({"counts": self.counts, **extra},
                                sort_keys=True))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def install(ledger: Ledger, workload) -> None:
    """Swap in every wrapper the traced run uses."""
    from repro.analysis import AnalysisSession
    from repro.comparison import identify
    from repro.fabric import remote
    from repro.netlist import Circuit
    from repro.parallel import ParallelEvaluator
    from repro.resynth import procedures, replace
    from repro.service import client, runner

    seen_sessions = weakref.WeakSet()

    def labels_name(args) -> str:
        # The first query of a session builds every label from scratch;
        # later ones repair incrementally.
        if args[0] in seen_sessions:
            return "analysis.labels"
        seen_sessions.add(args[0])
        return "analysis.initial_labels"

    for module in (procedures, runner):
        for proc in ("procedure2", "procedure3"):
            ledger.patch(module, proc, "resynth.unit", span="unit",
                         unit=lambda args, proc=proc:
                         f"{args[0].name}/{proc}")
    P = procedures
    ledger.patch(P, "_resynthesis_pass", "resynth.pass", span="pass")
    ledger.patch(P, "enumerate_candidate_cones", "resynth.enumerate",
                 observe=lambda r, a: ledger.count("resynth.cones", len(r)))
    ledger.patch(P, "evaluate_cone", "resynth.evaluate",
                 observe=lambda r, a: ledger.count("resynth.options",
                                                   r is not None))
    ledger.patch(P, "apply_replacement", "resynth.replace")
    ledger.patch(P, "current_paths_on", "resynth.paths_on")
    ledger.patch(P, "outputs_equal", "sim.verify")
    ledger.patch(P, "decompose_two_input", "netlist.decompose")
    R = replace
    ledger.patch(R, "removable_members", "analysis.removable")
    ledger.patch(R, "cone_signature", "sim.signature")
    ledger.patch(R, "signature_truth_table", "sim.truth_table")
    ledger.patch(R, "identify_comparison", "comparison.identify",
                 observe=lambda r, a: ledger.count("comparison.found",
                                                   bool(r.specs)))
    ledger.patch(R, "best_spec", "comparison.price")
    ledger.patch(R, "emit_comparison_unit", "comparison.emit")
    ledger.patch(identify, "identify_positions", "comparison.search",
                 observe=lambda r, a: ledger.count("comparison.perms_tried",
                                                   r[1]))
    ledger.patch(AnalysisSession, "labels", labels_name)
    ledger.patch(AnalysisSession, "total_paths", "analysis.labels")
    ledger.patch(Circuit, "topological_order", "netlist.topo")
    ledger.patch(ParallelEvaluator, "prime_pass", "parallel.prime")
    ledger.patch(remote, "encode_task", "fabric.encode")
    ledger.patch(remote, "decode_result", "fabric.decode")
    ledger.patch(client.ServiceClient, "run_tasks", "fabric.http",
                 span="http")
    ledger.patch(client.ServiceClient, "submit", "service.submit",
                 span="http", unit=lambda args:
                 f"{args[1].circuit}/{args[1].procedure}")
    ledger.patch(client.ServiceClient, "report", "service.report",
                 span="http", unit=lambda args: args[1])
    fabric = getattr(workload, "fabric", None)
    if fabric is not None:
        ledger.patch(fabric, "map", "fabric.map", span="fabric.map",
                     observe=lambda r, a: ledger.count("fabric.tasks",
                                                       len(a[0])))
    server = getattr(workload, "server", None)
    task_fabric = getattr(getattr(server, "service", None),
                          "task_fabric", None)
    if task_fabric is not None:
        ledger.patch(task_fabric, "map_outcomes", "fabric.server_run")
