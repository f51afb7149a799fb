"""JSON serialization for resynthesis reports and pass checkpoints.

One serialization, three consumers: the ``repro-resynth resynth --out
report.json`` CLI path, the job service's artifact store
(:mod:`repro.service.store`), and the resume legs of the ``execution``
differential oracle (which round-trip every checkpoint through these functions so that
serialization bugs are caught by the same fuzzing that guards the
in-memory contract).

Circuits ride along as embedded ``repro-netlist`` documents
(:mod:`repro.io.json_io`), which round-trip a :class:`Circuit` exactly —
including gate insertion order, on which the canonical topological order
(and therefore the sweep order of a resumed run) depends.  The one piece
of circuit state the netlist document does not carry, the fresh-net
counters, is serialized alongside it.
"""

from __future__ import annotations

import json
from typing import Dict

from ..io.json_io import circuit_from_json, circuit_to_json
from ..netlist import Circuit
from .procedures import PassCheckpoint, ResynthesisReport

CHECKPOINT_FORMAT = "repro-resynth-checkpoint"
REPORT_FORMAT = "repro-resynth-report"
SERIALIZE_VERSION = 1


def _circuit_doc(circuit: Circuit) -> Dict[str, object]:
    return json.loads(circuit_to_json(circuit))


def _circuit_from_doc(doc: Dict[str, object],
                      fresh_counters: Dict[str, int]) -> Circuit:
    circuit = circuit_from_json(json.dumps(doc))
    # Whitebox: the counters are pure bookkeeping for fresh_net() and have
    # no public setter; restoring them keeps a deserialized circuit
    # behaviorally indistinguishable from the live one it snapshots.
    circuit._fresh_counters = dict(fresh_counters)
    return circuit


def _check_header(doc: Dict[str, object], expected_format: str) -> None:
    if doc.get("format") != expected_format:
        raise ValueError(f"not a {expected_format} document")
    if doc.get("version") != SERIALIZE_VERSION:
        raise ValueError(
            f"unsupported {expected_format} version {doc.get('version')!r}"
        )


# --------------------------------------------------------------------- #
# checkpoints
# --------------------------------------------------------------------- #


def checkpoint_to_doc(ckpt: PassCheckpoint) -> Dict[str, object]:
    """Serialize a pass checkpoint to a JSON-compatible dict."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": SERIALIZE_VERSION,
        "objective": ckpt.objective,
        "k": ckpt.k,
        "seed": ckpt.seed,
        "pass_no": ckpt.pass_no,
        "replacements": ckpt.replacements,
        "mutations": ckpt.mutations,
        "gates_before": ckpt.gates_before,
        "paths_before": ckpt.paths_before,
        "gates_now": ckpt.gates_now,
        "paths_now": ckpt.paths_now,
        "pass_seconds": list(ckpt.pass_seconds),
        "done": ckpt.done,
        "circuit": _circuit_doc(ckpt.circuit),
        "fresh_counters": dict(ckpt.circuit._fresh_counters),
    }


def checkpoint_from_doc(doc: Dict[str, object]) -> PassCheckpoint:
    """Rebuild a pass checkpoint from :func:`checkpoint_to_doc` output."""
    _check_header(doc, CHECKPOINT_FORMAT)
    return PassCheckpoint(
        objective=doc["objective"],
        k=doc["k"],
        seed=doc["seed"],
        pass_no=doc["pass_no"],
        circuit=_circuit_from_doc(doc["circuit"], doc["fresh_counters"]),
        replacements=doc["replacements"],
        mutations=doc["mutations"],
        gates_before=doc["gates_before"],
        paths_before=doc["paths_before"],
        gates_now=doc["gates_now"],
        paths_now=doc["paths_now"],
        pass_seconds=list(doc["pass_seconds"]),
        done=doc["done"],
    )


def checkpoint_to_json(ckpt: PassCheckpoint) -> str:
    """Serialize a pass checkpoint to a JSON string."""
    return json.dumps(checkpoint_to_doc(ckpt), indent=1, sort_keys=True)


def checkpoint_from_json(text: str) -> PassCheckpoint:
    """Parse a checkpoint previously written by :func:`checkpoint_to_json`."""
    return checkpoint_from_doc(json.loads(text))


# --------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------- #


def report_to_doc(report: ResynthesisReport) -> Dict[str, object]:
    """Serialize a resynthesis report (result netlist included)."""
    return {
        "format": REPORT_FORMAT,
        "version": SERIALIZE_VERSION,
        "objective": report.objective,
        "k": report.k,
        "passes": report.passes,
        "replacements": report.replacements,
        "gates_before": report.gates_before,
        "gates_after": report.gates_after,
        "paths_before": report.paths_before,
        "paths_after": report.paths_after,
        "mutations": report.mutations,
        "jobs": report.jobs,
        # Structured timings plus the flat legacy keys: old readers (and
        # tests) keep finding pass_seconds/total_seconds at the top level.
        "timings": dict(report.timings),
        "pass_seconds": list(report.pass_seconds),
        "total_seconds": report.total_seconds,
        "circuit": _circuit_doc(report.circuit),
    }


def report_from_doc(doc: Dict[str, object]) -> ResynthesisReport:
    """Rebuild a resynthesis report from :func:`report_to_doc` output.

    Documents written before the structured ``timings`` mapping existed
    carry only the flat ``pass_seconds``/``total_seconds`` keys; those
    still load, reconstituted into an equivalent ``timings``.
    """
    _check_header(doc, REPORT_FORMAT)
    timings = doc.get("timings")
    if timings is None:
        timings = {
            "pass_seconds": list(doc["pass_seconds"]),
            "total_seconds": doc["total_seconds"],
        }
    else:
        timings = dict(timings)
    return ResynthesisReport(
        circuit=circuit_from_json(json.dumps(doc["circuit"])),
        objective=doc["objective"],
        k=doc["k"],
        passes=doc["passes"],
        replacements=doc["replacements"],
        gates_before=doc["gates_before"],
        gates_after=doc["gates_after"],
        paths_before=doc["paths_before"],
        paths_after=doc["paths_after"],
        mutations=doc["mutations"],
        jobs=doc["jobs"],
        timings=timings,
    )


def report_to_json(report: ResynthesisReport) -> str:
    """Serialize a resynthesis report to a JSON string."""
    return json.dumps(report_to_doc(report), indent=1, sort_keys=True)


def report_from_json(text: str) -> ResynthesisReport:
    """Parse a report previously written by :func:`report_to_json`."""
    return report_from_doc(json.loads(text))
