"""``execution``: every way of executing a run reproduces the serial run.

Procedures 2 and 3 produce one report and one result netlist per
(circuit, procedure, K, seed).  Every way this repository can execute
that run must reproduce both bit for bit: a fabric backend at any shard
count (docs/FABRIC.md), a resume from a pass checkpoint
(docs/SERVICE.md), a cold or warm persistent memo (docs/MEMO.md) and a
cell of a sweep grid (docs/SWEEP.md).  :class:`ExecutionOracle` checks
that contract in one place:

* one inline serial **reference** per procedure at K and at K-1, each
  run with a cold identification cache;
* the declared leg table :data:`LEGS`, every run of which is compared
  with its reference by the one comparison, :func:`diverged_fields`;
* per leg class, a check that the leg did its work, so an idle fabric,
  a dead memo or a resume that re-runs everything cannot pass by
  reproducing the reference the easy way.

The process-global identification cache is cleared before every run:
otherwise the serial process would pre-answer every question the
workers and the memo are meant to answer, and a wrong answer from them
could never be observed.  The task server and the work directory live
inside one :meth:`ExecutionOracle.check_circuit` call.

The fabric, memo, service and sweep packages are imported inside the
check, so importing :mod:`repro.verify` stays as cheap as it was.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..netlist import Circuit
from .oracles import Oracle, Violation

#: Worker processes of every process-fabric leg.
WORKERS = 2


class Leg(NamedTuple):
    """One way of executing a run, compared with the serial reference."""

    name: str
    fabric: Optional[str] = None  # "serial", "process" or "remote"
    shards: Optional[int] = None  # remote shard count
    memo: Optional[str] = None  # "cold", "warm" or "roundtrip"
    resume: bool = False  # from a checkpoint, or from a part-done sweep
    sweep: bool = False  # the grid {P2, P3} x {K-1, K}, not one run


#: Every leg, in run order.  The run legs run at K for each procedure.
#: The memo legs share one store directory per procedure: ``memo cold``
#: records what the later memo legs replay, and ``memo roundtrip`` first
#: re-serializes every entry file.  ``sweep resumed`` re-runs a copy of
#: the ``sweep serial`` directory with two cell files and the aggregate
#: deleted.
LEGS = (
    Leg("fabric serial", fabric="serial"),
    Leg("fabric process", fabric="process"),
    Leg("fabric remote shards=1", fabric="remote", shards=1),
    Leg("fabric remote shards=2", fabric="remote", shards=2),
    Leg("resume", resume=True),
    Leg("memo cold", memo="cold"),
    Leg("memo warm", memo="warm"),
    Leg("memo roundtrip", memo="roundtrip"),
    Leg("memo warm + process", fabric="process", memo="warm"),
    Leg("memo warm + resume", memo="warm", resume=True),
    Leg("sweep serial", fabric="serial", sweep=True),
    Leg("sweep process", fabric="process", sweep=True),
    Leg("sweep remote shards=2", fabric="remote", shards=2, sweep=True),
    Leg("sweep resumed", resume=True, sweep=True),
)


def netlist_dump(circuit: Circuit):
    """A bit-comparable structural dump (topo-ordered gates + outputs).

    Two circuits with equal dumps are gate-for-gate, name-for-name,
    order-for-order identical.
    """
    return (
        [
            (net, circuit.gate(net).gtype.value,
             tuple(circuit.gate(net).fanins))
            for net in circuit.topological_order()
        ],
        list(circuit.outputs),
    )


def _as_report(report):
    """A report object from a report object or a report document."""
    if isinstance(report, dict):
        from ..resynth.serialize import report_from_doc

        return report_from_doc(report)
    return report


def diverged_fields(expected, actual) -> List[str]:
    """The fields on which two runs of one job disagree (empty: none).

    Compares every :data:`~repro.resynth.REPORT_NUMBER_FIELDS` entry,
    then the result netlists by :func:`netlist_dump` (named
    ``"netlist"``).  Each side is a
    :class:`~repro.resynth.ResynthesisReport` or its report document,
    the form sweep cells and service jobs store.
    """
    from ..resynth import REPORT_NUMBER_FIELDS

    expected, actual = _as_report(expected), _as_report(actual)
    diverged = [f for f in REPORT_NUMBER_FIELDS
                if getattr(expected, f) != getattr(actual, f)]
    if netlist_dump(expected.circuit) != netlist_dump(actual.circuit):
        diverged.append("netlist")
    return diverged


def brute_force_front(rows: Sequence[Dict[str, object]],
                      ) -> Dict[str, List[str]]:
    """Per-circuit Pareto fronts of sweep rows, by a plain dominance scan.

    The referee for :func:`repro.sweep.pareto_front`, written out here
    so that a bug there cannot agree with itself.  Each front lists its
    cell ids in row order.
    """
    def point(row):
        return (row["gates_after"], row["paths_after"], row["depth"])

    front: Dict[str, List[str]] = {}
    for row in rows:
        a = point(row)
        dominated = any(
            other["circuit"] == row["circuit"]
            and all(x <= y for x, y in zip(point(other), a))
            and point(other) != a
            for other in rows)
        ids = front.setdefault(row["circuit"], [])
        if not dominated:
            ids.append(row["cell_id"])
    return front


def _reformat_entries(root: str) -> None:
    """Re-serialize every memo entry file with other JSON formatting."""
    for dirpath, _dirs, names in os.walk(os.path.join(root, "entries")):
        for fname in names:
            if not fname.endswith(".json"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))


def _open_fabric(leg: Leg, url: str, registry):
    """The leg's fabric as a context manager (entering gives ``None``
    for an inline leg)."""
    from ..fabric import ProcessFabric, RemoteFabric, SerialFabric

    if leg.fabric == "serial":
        return SerialFabric(registry=registry)
    if leg.fabric == "process":
        return ProcessFabric(WORKERS, registry=registry)
    if leg.fabric == "remote":
        return RemoteFabric([url], shards=leg.shards,
                            heartbeat_timeout=60.0, registry=registry)
    return contextlib.nullcontext()


@dataclass
class _Check:
    """What the legs of one :meth:`ExecutionOracle.check_circuit` share."""

    circuit: Circuit
    seed: int
    rng: random.Random
    #: (procedure name, K) -> the serial reference report.
    references: Dict[Tuple[str, int], object]
    #: procedure name -> JSON of a seed-chosen checkpoint of the run at K.
    resume_from: Dict[str, str]
    work: str  # the check's temporary directory
    url: str  # the check's task server


class ExecutionOracle(Oracle):
    """Every leg of :data:`LEGS` reproduces the serial reference run.

    ``k`` is the K of the run legs; the sweep legs cover K-1 and K.
    Circuits with more than ``max_inputs`` inputs are skipped.
    """

    name = "execution"

    def __init__(
        self,
        k: int = 4,
        perm_budget: int = 24,
        max_passes: int = 3,
        max_inputs: int = 8,
    ) -> None:
        self._k = k
        self._perm_budget = perm_budget
        self._max_passes = max_passes
        self._max_inputs = max_inputs

    def _run(self, proc, circuit: Circuit, seed: int, k: int, **kwargs):
        """One procedure run with a cold identification cache."""
        from ..comparison import identification_cache

        identification_cache().clear()
        return proc(circuit, k=k, perm_budget=self._perm_budget, seed=seed,
                    max_passes=self._max_passes, verify_patterns=0,
                    **kwargs)

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        from ..comparison import identification_cache
        from ..resynth import checkpoint_to_json, procedure2, procedure3
        from ..service import ArtifactStore, ServiceServer

        if len(circuit.inputs) > self._max_inputs:
            return []
        rng = random.Random((seed << 16) ^ 0xE8EC)
        procs = (procedure2, procedure3)
        references = {}
        resume_from = {}
        for proc in procs:
            references[proc.__name__, self._k - 1] = self._run(
                proc, circuit, seed, self._k - 1)
            checkpoints = []
            references[proc.__name__, self._k] = self._run(
                proc, circuit, seed, self._k, on_pass=checkpoints.append)
            resume_from[proc.__name__] = checkpoint_to_json(
                rng.choice(checkpoints))
        violations: List[Violation] = []
        with tempfile.TemporaryDirectory(prefix="repro-execution-") as work:
            store = ArtifactStore(os.path.join(work, "server"))
            with ServiceServer(store, task_workers=1) as server:
                check = _Check(circuit, seed, rng, references, resume_from,
                               work, server.url)
                for leg in LEGS:
                    if leg.sweep:
                        violations += self._check_sweep_leg(leg, check)
                    else:
                        for proc in procs:
                            violations += self._check_run_leg(
                                leg, proc, check)
        identification_cache().clear()
        return violations

    def _check_run_leg(self, leg: Leg, proc,
                       check: _Check) -> List[Violation]:
        from ..memo import MemoStore
        from ..obs import Registry
        from ..resynth import checkpoint_from_json

        registry = Registry()
        kwargs: Dict[str, object] = {}
        store = None
        recorded = 0
        if leg.memo is not None:
            root = os.path.join(check.work, f"memo-{proc.__name__}")
            if leg.memo == "roundtrip":
                _reformat_entries(root)
            store = kwargs["memo"] = MemoStore(root, registry=registry)
            recorded = store.disk_entries
        if leg.resume:
            kwargs["resume"] = checkpoint_from_json(
                check.resume_from[proc.__name__])
        with _open_fabric(leg, check.url, registry) as fabric:
            report = self._run(proc, check.circuit, check.seed, self._k,
                               fabric=fabric, **kwargs)

        reference = check.references[proc.__name__, self._k]
        where = f"{proc.__name__} K={self._k}, {leg.name}"
        details = {"procedure": proc.__name__, "k": self._k,
                   "leg": leg.name}
        violations = []
        diverged = diverged_fields(reference, report)
        if diverged:
            violations.append(self._divergence(
                check, where, reference, report, diverged, details))
        problem = None
        backend = report.timings.get("fabric")
        if fabric is not None and backend != fabric.name:
            problem = f"the report records backend {backend!r}"
        # With a memo the primer may find every answer there and ship
        # nothing, so only the memo-less fabric legs must run a task.
        elif (fabric is not None and store is None
                and reference.replacements
                and not registry.counter_value("fabric_tasks_total")):
            problem = (f"the {fabric.name} fabric ran no tasks, though "
                       f"the serial run made {reference.replacements} "
                       f"replacement(s)")
        elif leg.name == "memo warm" and recorded and not store.stats.hits:
            problem = (f"the warm store served no hits over {recorded} "
                       f"recorded entries (a dead cache)")
        elif leg.name == "memo warm" and store.stats.misses:
            problem = (f"the warm store missed {store.stats.misses} "
                       f"lookup(s) that memo cold recorded")
        if problem is not None:
            violations.append(Violation(
                self.name, check.seed, f"{where}: {problem}",
                circuit=check.circuit, details=details))
        return violations

    def _check_sweep_leg(self, leg: Leg, check: _Check) -> List[Violation]:
        from ..comparison import identification_cache
        from ..io.json_io import circuit_to_json
        from ..obs import Registry
        from ..resynth.serialize import report_to_doc
        from ..sweep import SweepRunner, SweepSpec, cell_row

        spec = SweepSpec(
            circuits=(json.loads(circuit_to_json(check.circuit)),),
            procedures=("procedure2", "procedure3"),
            ks=(self._k - 1, self._k),
            seeds=(check.seed,),
            perm_budget=self._perm_budget,
            max_passes=self._max_passes,
            verify_patterns=0,
        )
        cells = spec.cells()
        root = os.path.join(check.work, leg.name)
        violations = []
        if leg.resume:
            shutil.copytree(os.path.join(check.work, "sweep serial"), root)
            deleted = sorted({check.rng.choice(cells).cell_id
                              for _ in range(2)})
            for cell_id in deleted:
                os.unlink(os.path.join(root, "cells", f"{cell_id}.json"))
            os.unlink(os.path.join(root, "report.json"))
        executed: List[str] = []
        identification_cache().clear()
        with _open_fabric(leg, check.url, Registry()) as fabric:
            runner = SweepRunner(spec, root, fabric=fabric)
            sweep = runner.run(
                resume=leg.resume,
                on_cell=lambda cell, doc: executed.append(cell.cell_id))
        executed.sort()
        if leg.resume and executed != deleted:
            violations.append(Violation(
                self.name, check.seed,
                f"{leg.name}: re-ran cells {executed} instead of exactly "
                f"the deleted cells {deleted}",
                circuit=check.circuit,
                details={"leg": leg.name, "executed": executed,
                         "deleted": deleted}))
        # Every cell against the serial run of its (procedure, K): the
        # cell == standalone job contract, cell by cell.
        for cell in cells:
            with open(runner.cell_path(cell.cell_id), "r",
                      encoding="utf-8") as fh:
                report = _as_report(json.load(fh))
            reference = check.references[cell.procedure, cell.k]
            diverged = diverged_fields(reference, report)
            if diverged:
                violations.append(self._divergence(
                    check,
                    f"{cell.procedure} K={cell.k}, {leg.name} cell "
                    f"{cell.cell_id}",
                    reference, report, diverged,
                    {"procedure": cell.procedure, "k": cell.k,
                     "leg": leg.name, "cell": cell.cell_id}))
        expected = brute_force_front([
            cell_row(cell, report_to_doc(
                check.references[cell.procedure, cell.k]))
            for cell in cells])
        if sweep.front != expected:
            violations.append(Violation(
                self.name, check.seed,
                f"{leg.name}: front {sweep.front} is not the brute-force "
                f"front {expected} of the serial runs",
                circuit=check.circuit,
                details={"leg": leg.name, "front": sweep.front,
                         "brute_force": expected}))
        return violations

    def _divergence(self, check: _Check, where: str, reference, report,
                    diverged: List[str],
                    details: Dict[str, object]) -> Violation:
        from ..resynth import REPORT_NUMBER_FIELDS

        return Violation(
            self.name, check.seed,
            f"{where} diverged from the serial run on: "
            f"{', '.join(diverged)} (serial: {reference.summary()}; "
            f"{details['leg']}: {report.summary()})",
            circuit=check.circuit,
            details={
                **details,
                "diverged": diverged,
                "serial": {f: getattr(reference, f)
                           for f in REPORT_NUMBER_FIELDS},
                str(details["leg"]): {f: getattr(report, f)
                                      for f in REPORT_NUMBER_FIELDS},
            },
        )
