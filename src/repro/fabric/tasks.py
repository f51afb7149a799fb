"""The fabric task registry: kinds, run functions and JSON wire codecs.

A *task kind* packages three things under one name: the pure ``run``
function a worker executes, and the payload/result codecs that move the
task across the JSON wire (``POST /tasks``,
:class:`~repro.fabric.remote.RemoteFabric`).  In-process backends skip
the codecs entirely — :class:`~repro.fabric.core.SerialFabric` calls
``run`` inline and :class:`~repro.fabric.core.ProcessFabric` pickles the
in-memory payload — so the wire round-trip must be *lossless*: a decoded
payload runs to exactly the result the in-memory payload would have
produced.  ``tests/fabric/test_wire.py`` pins that round-trip.

The two candidate-evaluation kinds are the complete pickling boundary
of :mod:`repro.parallel`: each runs, item by item, the same pure
function the serial sweep calls inline, so a worker needs no circuit, no
session and no shared state:

``extract``
    Cone slices to truth tables
    (:func:`~repro.sim.truthtable.signature_truth_table`).  Payload
    items are ``(cone_signature, n_inputs)`` pairs; results are
    ``(signature, n, table)`` rows.
``identify``
    Unique tables to comparison-function search results
    (:func:`~repro.comparison.identify.identify_positions`).  Payload
    carries the ``(table, n)`` items plus the pass's identification
    knobs; results are ``(table, n, hits, tried)`` rows.

Wire-format notes (docs/FABRIC.md has the full reference):

* Truth tables are hex *strings*, never JSON numbers — a table of an
  ``n``-input cone spans ``2**n`` bits (65,536 at the K=6 default's
  reconvergent extremes), far past IEEE-754 exactness; the hex idiom is
  shared with :mod:`repro.memo`.
* Cone signatures are nested tuples in memory and nested arrays on the
  wire; decoding rebuilds tuples recursively.  JSON expands shared
  subtree references into trees (pickle preserves the sharing), which
  is acceptable at candidate-cone scale and measured in the bench.
* ``inject_crash`` travels inside the payload, so the fault-injection
  knob exercises every backend's failure path, remote included.

Tests may register extra kinds (:func:`register_task_kind`) — e.g. a
sleeping echo to provoke out-of-order completion — without touching the
production registry entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..comparison.identify import identify_positions
from ..sim.truthtable import signature_truth_table
from .core import FabricTask

__all__ = [
    "InjectedWorkerCrash",
    "TaskKind",
    "decode_task",
    "encode_task",
    "decode_result",
    "encode_result",
    "register_task_kind",
    "task_kind",
    "task_kind_names",
    "run_task",
]


def _identity(value: object) -> object:
    return value


@dataclass(frozen=True)
class TaskKind:
    """One registered task kind.

    ``run`` maps an in-memory payload to an in-memory result and must be
    a pure function of it.  The four codecs map payloads/results to and
    from JSON-able documents; they default to the identity (fine for
    payloads that are already plain JSON data).  Decoders face untrusted
    input on the service side and must raise :class:`ValueError` on
    anything malformed.
    """

    name: str
    run: Callable[[Dict[str, object]], object]
    encode_payload: Callable[[object], object] = _identity
    decode_payload: Callable[[object], object] = _identity
    encode_result: Callable[[object], object] = _identity
    decode_result: Callable[[object], object] = _identity


_KINDS: Dict[str, TaskKind] = {}


def register_task_kind(kind: TaskKind) -> TaskKind:
    """Register (or replace) a task kind; returns it for convenience."""
    if not kind.name:
        raise ValueError("task kind needs a non-empty name")
    _KINDS[kind.name] = kind
    return kind


def task_kind(name: str) -> TaskKind:
    """The registered kind, or :class:`ValueError` for unknown names."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown task kind {name!r} (registered: "
            f"{', '.join(sorted(_KINDS)) or 'none'})"
        ) from None


def task_kind_names() -> List[str]:
    """Sorted names of every registered kind."""
    return sorted(_KINDS)


def run_task(task: FabricTask) -> object:
    """Execute one task in this process (every backend bottoms out here)."""
    return task_kind(task.kind).run(task.payload)


# --------------------------------------------------------------------- #
# wire envelope
# --------------------------------------------------------------------- #


def encode_task(task: FabricTask) -> Dict[str, object]:
    """The JSON document of one task: ``{"kind", "payload"}``."""
    kind = task_kind(task.kind)
    return {"kind": task.kind, "payload": kind.encode_payload(task.payload)}


def decode_task(doc: object) -> FabricTask:
    """Rebuild a task from its wire document (ValueError on anomalies)."""
    if not isinstance(doc, dict):
        raise ValueError("task document is not an object")
    name = doc.get("kind")
    if not isinstance(name, str):
        raise ValueError("task kind is not a string")
    kind = task_kind(name)
    payload = kind.decode_payload(doc.get("payload"))
    if not isinstance(payload, dict):
        raise ValueError(f"decoded {name!r} payload is not an object")
    return FabricTask(kind=name, payload=payload)


def encode_result(kind_name: str, result: object) -> object:
    """JSON-ready form of one task's result."""
    return task_kind(kind_name).encode_result(result)


def decode_result(kind_name: str, value: object) -> object:
    """Rebuild one task's result from the wire (ValueError on anomalies)."""
    return task_kind(kind_name).decode_result(value)


# --------------------------------------------------------------------- #
# shared codec helpers
# --------------------------------------------------------------------- #


def _encode_signature(sig: Tuple) -> List[object]:
    """Nested tuples to nested JSON arrays (leaves are str/int)."""
    return [
        _encode_signature(part) if isinstance(part, tuple) else part
        for part in sig
    ]


def _decode_signature(value: object) -> Tuple:
    """Nested JSON arrays back to the tuple DAG shape (as a tree)."""
    if not isinstance(value, list):
        raise ValueError("cone signature node is not an array")
    out = []
    for part in value:
        if isinstance(part, list):
            out.append(_decode_signature(part))
        elif isinstance(part, str):
            out.append(part)
        elif isinstance(part, int) and not isinstance(part, bool):
            out.append(part)
        else:
            raise ValueError(
                f"cone signature leaf has type {type(part).__name__}")
    return tuple(out)


def _decode_n(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError("input count is not a non-negative integer")
    return value


def _encode_table(table: int) -> str:
    return format(table, "x")


def _decode_table(value: object, n: int) -> int:
    if not isinstance(value, str):
        raise ValueError("truth table is not a hex string")
    table = int(value, 16)
    if not 0 <= table < (1 << (1 << n)):
        raise ValueError(f"table out of range for {n} inputs")
    return table


def _decode_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} is not a boolean")
    return value


def _decode_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} is not an integer")
    return value


# --------------------------------------------------------------------- #
# the extraction kind
# --------------------------------------------------------------------- #


class InjectedWorkerCrash(RuntimeError):
    """Deliberate failure raised by the ``inject_crash`` payload knob."""


def _maybe_crash(payload: Dict[str, object]) -> None:
    if payload.get("inject_crash"):
        raise InjectedWorkerCrash(
            "injected worker crash (parallel fault-injection knob)"
        )


def _run_extract(payload: Dict[str, object]) -> List[Tuple]:
    _maybe_crash(payload)
    return [(sig, n, signature_truth_table(sig, n))
            for sig, n in payload["items"]]


def _encode_extract_payload(payload: Dict[str, object]) -> object:
    return {
        "items": [[_encode_signature(sig), n]
                  for sig, n in payload["items"]],
        "inject_crash": bool(payload.get("inject_crash")),
    }


def _decode_extract_payload(value: object) -> Dict[str, object]:
    if not isinstance(value, dict) or not isinstance(
            value.get("items"), list):
        raise ValueError("extract payload is not {'items': [...]}")
    items = []
    for row in value["items"]:
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError("extract item is not a [signature, n] pair")
        items.append((_decode_signature(row[0]), _decode_n(row[1])))
    return {
        "items": items,
        "inject_crash": _decode_bool(
            value.get("inject_crash", False), "inject_crash"),
    }


def _encode_extract_result(rows: List[Tuple]) -> object:
    return [[_encode_signature(sig), n, _encode_table(table)]
            for sig, n, table in rows]


def _decode_extract_result(value: object) -> List[Tuple]:
    if not isinstance(value, list):
        raise ValueError("extract result is not an array")
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError("extract row is not [signature, n, table]")
        n = _decode_n(row[1])
        rows.append((_decode_signature(row[0]), n,
                     _decode_table(row[2], n)))
    return rows


register_task_kind(TaskKind(
    name="extract",
    run=_run_extract,
    encode_payload=_encode_extract_payload,
    decode_payload=_decode_extract_payload,
    encode_result=_encode_extract_result,
    decode_result=_decode_extract_result,
))


# --------------------------------------------------------------------- #
# the identification kind
# --------------------------------------------------------------------- #

_IDENTIFY_KNOBS = ("perm_budget", "try_offset", "seed", "max_specs")


def _run_identify(payload: Dict[str, object]) -> List[Tuple]:
    # The knobs are those of the pass being primed, so each search is
    # argument-for-argument the one the serial sweep would run.
    _maybe_crash(payload)
    knobs = [payload[knob] for knob in _IDENTIFY_KNOBS]
    return [(table, n) + identify_positions(table, n, *knobs)
            for table, n in payload["items"]]


def _encode_identify_payload(payload: Dict[str, object]) -> object:
    doc: Dict[str, object] = {
        "items": [[_encode_table(table), n]
                  for table, n in payload["items"]],
        "inject_crash": bool(payload.get("inject_crash")),
    }
    for knob in _IDENTIFY_KNOBS:
        doc[knob] = payload[knob]
    return doc


def _decode_identify_payload(value: object) -> Dict[str, object]:
    if not isinstance(value, dict) or not isinstance(
            value.get("items"), list):
        raise ValueError("identify payload is not {'items': [...]}")
    items = []
    for row in value["items"]:
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError("identify item is not a [table, n] pair")
        n = _decode_n(row[1])
        items.append((_decode_table(row[0], n), n))
    payload: Dict[str, object] = {
        "items": items,
        "inject_crash": _decode_bool(
            value.get("inject_crash", False), "inject_crash"),
        "try_offset": _decode_bool(value.get("try_offset"), "try_offset"),
    }
    for knob in ("perm_budget", "seed", "max_specs"):
        payload[knob] = _decode_int(value.get(knob), knob)
    return payload


def _encode_identify_result(rows: List[Tuple]) -> object:
    return [
        [_encode_table(table), n,
         [[list(perm), lo, hi, bool(comp)] for perm, lo, hi, comp in hits],
         tried]
        for table, n, hits, tried in rows
    ]


def _decode_identify_result(value: object) -> List[Tuple]:
    if not isinstance(value, list):
        raise ValueError("identify result is not an array")
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(
                "identify row is not [table, n, hits, tried]")
        table_hex, n_raw, hits_raw, tried = row
        n = _decode_n(n_raw)
        table = _decode_table(table_hex, n)
        if not isinstance(hits_raw, list):
            raise ValueError("identify hits is not an array")
        expected = list(range(n))
        hits = []
        for hit in hits_raw:
            if not isinstance(hit, list) or len(hit) != 4:
                raise ValueError("hit row is not [perm, L, U, comp]")
            perm_raw, lo, hi, comp = hit
            if not isinstance(perm_raw, list):
                raise ValueError("hit permutation is not an array")
            perm = tuple(_decode_int(x, "permutation entry")
                         for x in perm_raw)
            if sorted(perm) != expected:
                raise ValueError(
                    f"{perm!r} is not a permutation of 0..{n - 1}")
            lo = _decode_int(lo, "interval lower bound")
            hi = _decode_int(hi, "interval upper bound")
            if not 0 <= lo <= hi < (1 << n):
                raise ValueError(f"interval [{lo}, {hi}] out of range")
            hits.append((perm, lo, hi, _decode_bool(comp, "complement")))
        rows.append((table, n, tuple(hits),
                     _decode_int(tried, "tried-count")))
    return rows


register_task_kind(TaskKind(
    name="identify",
    run=_run_identify,
    encode_payload=_encode_identify_payload,
    decode_payload=_decode_identify_payload,
    encode_result=_encode_identify_result,
    decode_result=_decode_identify_result,
))


# --------------------------------------------------------------------- #
# the whole-cell resynthesis kind
# --------------------------------------------------------------------- #
#
# ``resynth_cell`` ships one *entire* resynthesis run — a sweep cell —
# as a single task: the payload is a job spec document, the result the
# finished report document (result netlist embedded).  Where ``extract``
# and ``identify`` fan one job's candidate evaluation out, this kind
# fans *jobs themselves* out, which is how ``repro.sweep`` exercises a
# remote fleet with whole cells.  The run function goes through the
# same bound-procedure path as the job service's runner, so a cell's
# report is bit-identical to a standalone run of the same spec.
#
# ``memo`` (optional, a directory path on the executing host) names a
# persistent identification cache; like everywhere else it can change
# only the wall clock, never the report, so it is excluded from cell
# identity.


def _run_resynth_cell(payload: Dict[str, object]) -> Dict[str, object]:
    # Imported lazily: the service package imports the fabric, so the
    # fabric must not import the service package at module scope.
    from ..resynth.serialize import report_to_doc
    from ..service.jobspec import resolve_circuit, spec_from_doc
    from ..service.runner import procedure_call

    spec = spec_from_doc(payload["spec"])
    circuit = resolve_circuit(spec)
    report = procedure_call(spec)(circuit, memo=payload.get("memo"))
    return report_to_doc(report)


def _encode_resynth_cell_payload(payload: Dict[str, object]) -> object:
    doc: Dict[str, object] = {"spec": dict(payload["spec"])}
    if payload.get("memo") is not None:
        doc["memo"] = payload["memo"]
    return doc


def _decode_resynth_cell_payload(value: object) -> Dict[str, object]:
    if not isinstance(value, dict) or "spec" not in value:
        raise ValueError("resynth_cell payload is not {'spec': {...}}")
    from ..service.jobspec import spec_from_doc

    # spec_from_doc raises JobSpecError (a ValueError) on any anomaly;
    # re-encoding canonicalizes defaulted fields.
    payload: Dict[str, object] = {
        "spec": spec_from_doc(value["spec"]).to_doc()}
    memo = value.get("memo")
    if memo is not None:
        if not isinstance(memo, str):
            raise ValueError("resynth_cell memo is not a string path")
        payload["memo"] = memo
    return payload


def _decode_resynth_cell_result(value: object) -> Dict[str, object]:
    from ..resynth.serialize import report_from_doc, report_to_doc

    if not isinstance(value, dict):
        raise ValueError("resynth_cell result is not an object")
    try:
        # Full rebuild-and-reencode: the strongest shape check there is,
        # and it canonicalizes the document in one move.
        return report_to_doc(report_from_doc(value))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"resynth_cell result is not a valid report document: {exc}"
        ) from None


register_task_kind(TaskKind(
    name="resynth_cell",
    run=_run_resynth_cell,
    decode_payload=_decode_resynth_cell_payload,
    encode_payload=_encode_resynth_cell_payload,
    decode_result=_decode_resynth_cell_result,
))
