"""Sweep execution: dispatch cells over a fabric, checkpoint each one.

:class:`SweepRunner` drives one :class:`~repro.sweep.spec.SweepSpec` to
a finished :class:`~repro.sweep.report.SweepReport` through any
:class:`~repro.fabric.Fabric` backend — each cell travels as one
``resynth_cell`` task (:mod:`repro.fabric.tasks`), so a sweep is the
first caller that hands the fleet *whole jobs* instead of candidate
shards.

Durability contract (the sweep analogue of the job store's):

* The sweep directory holds ``sweep.json`` (the grid, write-once;
  re-running against a directory created for a *different* grid is an
  error, not silent corruption), ``cells/<cell_id>.json`` (one finished
  report document per cell, written via :func:`repro.persist
  .atomic_write_text` the moment its wave completes) and
  ``report.json`` (the aggregate, written last).
* Cells are dispatched in **waves** sized to the backend's genuine
  parallelism, and every finished wave is persisted before the next is
  launched — so an interrupted sweep loses at most one wave of compute
  and ``resume=True`` re-runs only the cells without a stored report.
  Tasks are pure functions of their cell spec, so the resumed sweep's
  report is bit-identical to an uninterrupted run's (the ``execution``
  oracle's ``sweep resumed`` leg pins this).

Obs: a ``sweep.run`` span wraps the run; ``sweep_cells_total`` /
``sweep_cells_resumed_total`` count work done vs. skipped, and
``sweep_cell_seconds`` records each cell's own compute time.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional

from ..fabric import Fabric, FabricTask, SerialFabric
from ..obs import Registry, get_registry, maybe_tracer
from ..persist import atomic_write_text
from .report import SweepReport, build_sweep_report
from .spec import SweepCell, SweepSpec

__all__ = ["SweepError", "SweepRunner"]


class SweepError(RuntimeError):
    """A sweep directory disagrees with the grid being run."""


class SweepRunner:
    """Run one sweep grid to completion inside *root*.

    Parameters
    ----------
    spec:
        The grid to run.
    root:
        The sweep's directory (created if missing).  One directory per
        sweep: the runner refuses a directory whose ``sweep.json``
        belongs to a different grid.
    fabric:
        Execution backend for the cells; ``None`` runs them inline on a
        private :class:`~repro.fabric.SerialFabric`.  A caller-supplied
        fabric is *not* closed by the runner.
    memo:
        Optional persistent identification-cache directory handed to
        every cell (wall clock only — reports are unaffected).
    tracer / registry:
        Obs sinks (``sweep.run`` span; ``sweep_*`` metrics).
    """

    def __init__(
        self,
        spec: SweepSpec,
        root: str,
        fabric: Optional[Fabric] = None,
        memo: Optional[str] = None,
        tracer=None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.spec = spec
        self.root = os.path.abspath(root)
        self.fabric = fabric
        self.memo = memo
        self.tracer = maybe_tracer(tracer)
        self.registry = registry if registry is not None else get_registry()

    # -- paths ----------------------------------------------------------- #

    @property
    def cells_dir(self) -> str:
        return os.path.join(self.root, "cells")

    def cell_path(self, cell_id: str) -> str:
        return os.path.join(self.cells_dir, f"{cell_id}.json")

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, "report.json")

    # -- persistence ----------------------------------------------------- #

    def _prepare_root(self) -> None:
        os.makedirs(self.cells_dir, exist_ok=True)
        spec_path = os.path.join(self.root, "sweep.json")
        if os.path.exists(spec_path):
            with open(spec_path, "r", encoding="utf-8") as fh:
                try:
                    existing = json.load(fh)
                except ValueError:
                    existing = None
            if existing != self.spec.to_doc():
                raise SweepError(
                    f"{self.root} holds a different sweep "
                    f"(expected grid {self.spec.sweep_id})")
        else:
            atomic_write_text(spec_path, self.spec.to_json())

    def _load_finished(self, cells: List[SweepCell],
                       ) -> Dict[str, Dict[str, object]]:
        """Stored cell reports that are present and intact."""
        from ..resynth.serialize import report_from_doc

        done: Dict[str, Dict[str, object]] = {}
        for cell in cells:
            path = self.cell_path(cell.cell_id)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                report_from_doc(doc)  # shape check; torn files re-run
            except (OSError, KeyError, TypeError, ValueError):
                continue
            done[cell.cell_id] = doc
        return done

    # -- execution ------------------------------------------------------- #

    def run(self, resume: bool = False,
            on_cell: Optional[Callable[[SweepCell, Dict[str, object]],
                                       None]] = None) -> SweepReport:
        """Run every unfinished cell and return the aggregate report.

        ``resume=False`` re-runs every cell regardless of what the
        directory holds; ``resume=True`` keeps intact stored cell
        reports and runs only the rest.  ``on_cell`` fires once per
        *executed* cell, after its report document is durably on disk.
        """
        self._prepare_root()
        cells = self.spec.cells()
        done = self._load_finished(cells) if resume else {}
        pending = [cell for cell in cells if cell.cell_id not in done]
        fabric = self.fabric
        own_fabric = fabric is None
        if own_fabric:
            fabric = SerialFabric(tracer=self.tracer,
                                  registry=self.registry)
        self.registry.inc("sweep_runs_total")
        if done:
            self.registry.inc("sweep_cells_resumed_total", len(done))
        try:
            with self.tracer.span(
                    "sweep.run", sweep=self.spec.sweep_id,
                    backend=fabric.name, cells=len(cells),
                    resumed=len(done)) as span:
                waves = 0
                # Wave size: the backend's honest parallelism (a fixed
                # shards hint wins) — big enough to keep every worker
                # busy, small enough that a crash forfeits one wave.
                wave = max(1, fabric.shard_count(len(pending) or 1,
                                                 chunk_factor=1))
                for start in range(0, len(pending), wave):
                    batch = pending[start:start + wave]
                    tasks = []
                    for cell in batch:
                        payload: Dict[str, object] = {
                            "spec": cell.spec.to_doc()}
                        if self.memo is not None:
                            payload["memo"] = self.memo
                        tasks.append(FabricTask(kind="resynth_cell",
                                                payload=payload))
                    docs = fabric.map(tasks)
                    waves += 1
                    for cell, doc in zip(batch, docs):
                        atomic_write_text(
                            self.cell_path(cell.cell_id),
                            json.dumps(doc, indent=1, sort_keys=True))
                        done[cell.cell_id] = doc
                        self.registry.inc("sweep_cells_total")
                        self.registry.observe(
                            "sweep_cell_seconds",
                            float(doc.get("total_seconds", 0.0)))
                        if on_cell is not None:
                            on_cell(cell, doc)
                span.annotate(waves=waves, executed=len(pending))
        finally:
            if own_fabric:
                fabric.close()
        report = build_sweep_report(self.spec, done)
        atomic_write_text(self.report_path, report.to_json())
        return report
