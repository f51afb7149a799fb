"""The sweep model: a content-addressed grid of resynthesis cells.

A :class:`SweepSpec` names a *grid* — circuits x procedures x K values x
seeds, plus the shared procedure knobs — and expands it into **cells**,
each of which is exactly one :class:`~repro.service.jobspec.JobSpec`.
That identity is the whole design: a cell's id *is* its job spec's
content address, so a sweep cell dedupes against (and its report is
bit-identical to, on the deterministic fields) a standalone ``resynth``
run of the same (circuit, procedure, K, seed) — pinned cell by cell by
the ``execution`` differential oracle and ``tests/sweep/test_runner.py``.

Like job specs, sweep specs are content-addressed: the sweep id is a
SHA-256 prefix of the canonical JSON encoding, so resubmitting an
identical grid lands on the same sweep (and its finished cells) instead
of redoing hours of work.  Validation here is shape validation only —
semantic failures surface in the cells, exactly as they do for jobs.

Grid documents (``repro sweep --grid grid.json``; also the body of
``POST /sweeps``) look like::

    {"format": "repro-sweepspec",
     "circuits": ["syn1423", "syn9234"],
     "procedures": ["procedure2", "procedure3"],
     "ks": [4, 5],
     "seeds": [1],
     "perm_budget": 200, "max_passes": 10}

Each ``circuits`` entry is a benchmark-suite name or an inline
``repro-netlist`` document (the generator-family circuits the fuzz
harness sweeps are fed inline).  See docs/SWEEP.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..service.jobspec import JobSpec, PROCEDURES

SWEEP_FORMAT = "repro-sweepspec"
SWEEP_VERSION = 1

#: One grid circuit: a suite name or an inline repro-netlist document.
CircuitRef = Union[str, Dict[str, object]]


class SweepSpecError(ValueError):
    """A submitted sweep grid failed shape validation (HTTP 400)."""


@dataclass(frozen=True)
class SweepCell:
    """One grid point, fully determined by its :class:`JobSpec`.

    ``circuit`` is the display label (the suite name, or the inline
    netlist's name); the spec carries the actual circuit source.
    """

    index: int
    circuit: str
    procedure: str
    k: int
    seed: int
    spec: JobSpec

    @property
    def cell_id(self) -> str:
        """The cell's content address — its job spec's job id."""
        return self.spec.job_id

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.cell_id}: {self.circuit} {self.procedure} "
                f"K={self.k} seed={self.seed}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, fully determined by its grid and shared knobs.

    The grid axes are tuples so the spec is hashable; expansion order is
    the listed order, circuits outermost and seeds innermost, which is
    what makes cell indices (and therefore every report table) stable
    across runs and backends.
    """

    circuits: Tuple[CircuitRef, ...]
    procedures: Tuple[str, ...] = ("procedure2", "procedure3")
    ks: Tuple[int, ...] = (5,)
    seeds: Tuple[int, ...] = (0,)
    perm_budget: int = 200
    max_passes: int = 10
    verify_patterns: int = 0
    gate_weight: float = 10.0  # combined cells only

    def to_doc(self) -> Dict[str, object]:
        """JSON-compatible dict form (the canonical wire format)."""
        return {
            "format": SWEEP_FORMAT,
            "version": SWEEP_VERSION,
            "circuits": [c if isinstance(c, str) else dict(c)
                         for c in self.circuits],
            "procedures": list(self.procedures),
            "ks": list(self.ks),
            "seeds": list(self.seeds),
            "perm_budget": self.perm_budget,
            "max_passes": self.max_passes,
            "verify_patterns": self.verify_patterns,
            "gate_weight": self.gate_weight,
        }

    def to_json(self) -> str:
        """Pretty JSON form (what sweep stores persist as ``sweep.json``)."""
        return json.dumps(self.to_doc(), indent=1, sort_keys=True)

    @property
    def sweep_id(self) -> str:
        """Content address: stable across key order and whitespace."""
        canonical = json.dumps(
            self.to_doc(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return f"s{digest[:12]}"

    def describe(self) -> str:
        """One-line human-readable summary."""
        labels = [_circuit_label(c) for c in self.circuits]
        return (f"{self.sweep_id}: {len(self.cells())} cells — "
                f"{', '.join(labels)} x {', '.join(self.procedures)} x "
                f"K in {list(self.ks)} x seeds {list(self.seeds)}")

    def cells(self) -> List[SweepCell]:
        """The grid expanded in canonical order (one JobSpec per cell)."""
        out: List[SweepCell] = []
        for circuit in self.circuits:
            for procedure in self.procedures:
                for k in self.ks:
                    for seed in self.seeds:
                        source = ({"circuit": circuit}
                                  if isinstance(circuit, str)
                                  else {"netlist": dict(circuit)})
                        spec = JobSpec(
                            procedure=procedure,
                            k=k,
                            seed=seed,
                            perm_budget=self.perm_budget,
                            max_passes=self.max_passes,
                            verify_patterns=self.verify_patterns,
                            jobs=1,
                            gate_weight=self.gate_weight,
                            **source,
                        )
                        out.append(SweepCell(
                            index=len(out),
                            circuit=_circuit_label(circuit),
                            procedure=procedure,
                            k=k,
                            seed=seed,
                            spec=spec,
                        ))
        return out


def _circuit_label(circuit: CircuitRef) -> str:
    if isinstance(circuit, str):
        return circuit
    return str(circuit.get("name", "<inline>"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SweepSpecError(message)


def _unique_axis(values: List[object], name: str) -> None:
    canon = [json.dumps(v, sort_keys=True) for v in values]
    _require(len(set(canon)) == len(canon),
             f"{name!r} must not contain duplicates")


def sweep_from_doc(doc: object) -> SweepSpec:
    """Validate a submitted grid document and build the :class:`SweepSpec`.

    Raises :class:`SweepSpecError` with a client-actionable message on
    any shape problem; the HTTP layer maps that to a 400.
    """
    _require(isinstance(doc, dict), "sweep grid must be a JSON object")
    _require(doc.get("format", SWEEP_FORMAT) == SWEEP_FORMAT,
             f"grid format must be {SWEEP_FORMAT!r}")
    _require(doc.get("version", SWEEP_VERSION) == SWEEP_VERSION,
             f"unsupported grid version {doc.get('version')!r}")

    known = {
        "format", "version", "circuits", "procedures", "ks", "seeds",
        "perm_budget", "max_passes", "verify_patterns", "gate_weight",
    }
    unknown = sorted(set(doc) - known)
    _require(not unknown, f"unknown grid field(s): {', '.join(unknown)}")

    circuits = doc.get("circuits")
    _require(isinstance(circuits, list) and circuits,
             "'circuits' must be a non-empty list of suite names or "
             "inline repro-netlist documents")
    from ..benchcircuits.suite import suite_names

    for i, circuit in enumerate(circuits):
        if isinstance(circuit, str):
            _require(circuit in suite_names(),
                     f"circuits[{i}]: unknown suite circuit {circuit!r}; "
                     f"choose from {', '.join(suite_names())}")
        elif isinstance(circuit, dict):
            _require(circuit.get("format") == "repro-netlist",
                     f"circuits[{i}]: inline circuit must be a "
                     f"repro-netlist document")
        else:
            raise SweepSpecError(
                f"circuits[{i}] must be a suite name or an inline "
                f"repro-netlist document")
    _unique_axis(circuits, "circuits")

    procedures = doc.get("procedures", list(SweepSpec.procedures))
    _require(isinstance(procedures, list) and procedures,
             "'procedures' must be a non-empty list")
    for procedure in procedures:
        _require(procedure in PROCEDURES,
                 f"unknown procedure {procedure!r}; choose from "
                 f"{', '.join(PROCEDURES)}")
    _unique_axis(procedures, "procedures")

    axes = {"ks": (2, 16), "seeds": (-(2 ** 62), 2 ** 62)}
    axis_values: Dict[str, List[int]] = {}
    for name, (lo, hi) in axes.items():
        values = doc.get(name, list(getattr(SweepSpec, name)))
        _require(isinstance(values, list) and values,
                 f"{name!r} must be a non-empty list of integers")
        for v in values:
            _require(isinstance(v, int) and not isinstance(v, bool),
                     f"{name!r} entries must be integers")
            _require(lo <= v <= hi,
                     f"{name!r} entries must be in [{lo}, {hi}]")
        _unique_axis(values, name)
        axis_values[name] = values

    ints = {
        "perm_budget": (1, 1_000_000), "max_passes": (1, 10_000),
        "verify_patterns": (0, 1_000_000),
    }
    knobs: Dict[str, int] = {}
    for name, (lo, hi) in ints.items():
        v = doc.get(name, getattr(SweepSpec, name))
        _require(isinstance(v, int) and not isinstance(v, bool),
                 f"{name!r} must be an integer")
        _require(lo <= v <= hi, f"{name!r} must be in [{lo}, {hi}]")
        knobs[name] = v
    gate_weight = doc.get("gate_weight", SweepSpec.gate_weight)
    _require(isinstance(gate_weight, (int, float))
             and not isinstance(gate_weight, bool),
             "'gate_weight' must be a number")
    _require(gate_weight >= 0, "'gate_weight' must be >= 0")

    return SweepSpec(
        circuits=tuple(c if isinstance(c, str) else dict(c)
                       for c in circuits),
        procedures=tuple(procedures),
        ks=tuple(axis_values["ks"]),
        seeds=tuple(axis_values["seeds"]),
        gate_weight=float(gate_weight),
        **knobs,
    )


def sweep_from_json(text: str) -> SweepSpec:
    """Parse and validate a grid from raw JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SweepSpecError(f"grid is not valid JSON: {exc}") from None
    return sweep_from_doc(doc)
