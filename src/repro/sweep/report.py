"""Sweep aggregation: per-cell tables and the (gates, paths, depth) front.

A finished sweep is a set of per-cell resynthesis reports; this module
reduces them to the document ``repro sweep`` prints and
``GET /sweeps/<id>/report`` serves: one summary **row** per cell (the
deterministic report numbers, the result netlist's depth and content
hash, and the wall clock as information only) plus the per-circuit
**Pareto front** over the minimized objective triple
``(gates_after, paths_after, depth)``.

Dominance is the standard multi-objective definition: cell *a* dominates
cell *b* when it is no worse on every objective and strictly better on
at least one.  The front is the set of non-dominated cells, listed in
cell order; cells with *equal* objective triples are all kept (they are
interchangeable trade-off points, and dropping one would make the front
depend on expansion order in a way nothing else does).  Fronts are
per-circuit — comparing gate counts across different circuits is
meaningless — and the ``execution`` differential oracle checks every
front against an independent brute-force dominance scan.

Determinism: everything in a row except ``wall_s`` (and the timings a
cell report itself carries) is a pure function of the cell's spec —
:data:`SWEEP_ROW_NUMBER_FIELDS` names the comparable columns, the same
way ``REPORT_NUMBER_FIELDS`` does for single reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .spec import SweepSpec, SweepCell

SWEEP_REPORT_FORMAT = "repro-sweep-report"
SWEEP_REPORT_VERSION = 1

#: Row fields that must be bit-identical across backends, resumes and
#: front ends (everything except the wall clock).
SWEEP_ROW_NUMBER_FIELDS = (
    "gates_before", "gates_after", "paths_before", "paths_after",
    "depth", "replacements", "passes", "mutations", "netlist_sha256",
)


def netlist_fingerprint(circuit_doc: Dict[str, object]) -> str:
    """SHA-256 of a netlist document's canonical JSON encoding."""
    canonical = json.dumps(circuit_doc, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when objective vector *a* dominates *b* (minimization)."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_front(points: Sequence[Sequence[int]]) -> List[int]:
    """Indices of the non-dominated *points*, in input order.

    O(n^2) pairwise scan — sweeps have tens to hundreds of cells, and
    the obviousness is the point: the ``execution`` oracle uses this
    same definition, implemented independently, as its referee.
    """
    out = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            out.append(i)
    return out


def cell_row(cell: SweepCell,
             report_doc: Dict[str, object]) -> Dict[str, object]:
    """One summary row from a cell's resynthesis report document."""
    from ..io.json_io import circuit_from_json

    circuit_doc = report_doc["circuit"]
    depth = circuit_from_json(json.dumps(circuit_doc)).depth()
    return {
        "cell": cell.index,
        "cell_id": cell.cell_id,
        "circuit": cell.circuit,
        "procedure": cell.procedure,
        "k": cell.k,
        "seed": cell.seed,
        "objective": report_doc["objective"],
        "gates_before": report_doc["gates_before"],
        "gates_after": report_doc["gates_after"],
        "paths_before": report_doc["paths_before"],
        "paths_after": report_doc["paths_after"],
        "depth": depth,
        "replacements": report_doc["replacements"],
        "passes": report_doc["passes"],
        "mutations": report_doc["mutations"],
        "netlist_sha256": netlist_fingerprint(circuit_doc),
        "wall_s": round(float(report_doc.get("total_seconds", 0.0)), 3),
    }


@dataclass(frozen=True)
class SweepReport:
    """The aggregate over one sweep's finished cells."""

    sweep_id: str
    spec_doc: Dict[str, object]
    rows: Tuple[Dict[str, object], ...]
    #: circuit label -> cell ids of its non-dominated cells, cell order.
    front: Dict[str, List[str]]

    def to_doc(self) -> Dict[str, object]:
        """JSON-compatible dict form (what the store and API serve)."""
        return {
            "format": SWEEP_REPORT_FORMAT,
            "version": SWEEP_REPORT_VERSION,
            "sweep_id": self.sweep_id,
            "spec": dict(self.spec_doc),
            "cells": len(self.rows),
            "rows": [dict(row) for row in self.rows],
            "front": {name: list(ids)
                      for name, ids in sorted(self.front.items())},
        }

    def to_json(self) -> str:
        """Pretty JSON form (what sweep stores persist)."""
        return json.dumps(self.to_doc(), indent=1, sort_keys=True)

    def front_rows(self) -> List[Dict[str, object]]:
        """The rows on their circuit's front, in cell order."""
        on_front = {cell_id for ids in self.front.values()
                    for cell_id in ids}
        return [row for row in self.rows if row["cell_id"] in on_front]

    def render(self) -> str:
        """A human-readable table with front members starred."""
        header = (f"{'':2}{'circuit':<12} {'proc':<11} {'K':>2} {'seed':>5} "
                  f"{'gates':>11} {'paths':>13} {'depth':>5} "
                  f"{'repl':>4} {'wall_s':>7}")
        on_front = {cell_id for ids in self.front.values()
                    for cell_id in ids}
        lines = [header]
        for row in self.rows:
            star = "*" if row["cell_id"] in on_front else " "
            gates = f"{row['gates_before']}->{row['gates_after']}"
            paths = f"{row['paths_before']}->{row['paths_after']}"
            lines.append(
                f"{star:2}{row['circuit']:<12} {row['procedure']:<11} "
                f"{row['k']:>2} {row['seed']:>5} {gates:>11} {paths:>13} "
                f"{row['depth']:>5} {row['replacements']:>4} "
                f"{row['wall_s']:>7.2f}")
        n_front = sum(len(ids) for ids in self.front.values())
        lines.append(f"(* = on its circuit's (gates, paths, depth) "
                     f"Pareto front; {n_front} of {len(self.rows)} cells)")
        return "\n".join(lines)


def build_sweep_report(spec: SweepSpec,
                       report_docs: Dict[str, Dict[str, object]],
                       ) -> SweepReport:
    """Aggregate *report_docs* (cell id -> report document) for *spec*.

    Raises :class:`KeyError` when a cell's report is missing — callers
    (runner, service) only aggregate once every cell is finished.
    """
    cells = spec.cells()
    rows = [cell_row(cell, report_docs[cell.cell_id]) for cell in cells]
    by_circuit: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_circuit.setdefault(row["circuit"], []).append(row)
    front: Dict[str, List[str]] = {}
    for name, group in by_circuit.items():
        points = [(row["gates_after"], row["paths_after"], row["depth"])
                  for row in group]
        front[name] = [group[i]["cell_id"] for i in pareto_front(points)]
    return SweepReport(
        sweep_id=spec.sweep_id,
        spec_doc=spec.to_doc(),
        rows=tuple(rows),
        front=front,
    )


def sweep_report_from_doc(doc: object) -> SweepReport:
    """Rebuild a sweep report from :meth:`SweepReport.to_doc` output."""
    if not isinstance(doc, dict):
        raise ValueError("sweep report document is not an object")
    if doc.get("format") != SWEEP_REPORT_FORMAT:
        raise ValueError(f"not a {SWEEP_REPORT_FORMAT} document")
    if doc.get("version") != SWEEP_REPORT_VERSION:
        raise ValueError(
            f"unsupported sweep report version {doc.get('version')!r}")
    return SweepReport(
        sweep_id=doc["sweep_id"],
        spec_doc=dict(doc["spec"]),
        rows=tuple(dict(row) for row in doc["rows"]),
        front={name: list(ids) for name, ids in doc["front"].items()},
    )
