"""Deterministic JSON repro artifacts for oracle violations.

An artifact is everything needed to re-run one failing check without the
fuzzer: the oracle name, the seed, the (usually shrunk) witness circuit in
the exact :mod:`repro.io.json_io` netlist form, and the violation's
structured details.  Serialization is canonical (sorted keys, fixed
indent, no timestamps), so re-shrinking the same failure writes the same
bytes — artifacts diff cleanly in version control, and the checked-in
corpus under ``tests/verify/corpus/`` stays stable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..io.json_io import circuit_from_json, circuit_to_json
from ..netlist import Circuit
from .oracles import Oracle, Violation

ARTIFACT_FORMAT = "repro-verify-repro"
ARTIFACT_VERSION = 1

#: Retired oracle names -> the oracle that now makes their checks, so
#: artifacts written under the old names still replay unchanged.
ORACLE_ALIASES = {
    "parallel": "execution",
    "resume": "execution",
    "memo": "execution",
    "sweep": "execution",
}


@dataclass
class ReproArtifact:
    """A persisted, replayable oracle violation."""

    oracle: str
    seed: int
    message: str
    circuit: Optional[Circuit] = None
    details: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_violation(cls, violation: Violation) -> "ReproArtifact":
        """Wrap a :class:`~repro.verify.oracles.Violation`."""
        return cls(
            oracle=violation.oracle,
            seed=violation.seed,
            message=violation.message,
            circuit=violation.circuit,
            details=dict(violation.details),
        )

    def to_json(self) -> str:
        """Canonical JSON text (stable across runs)."""
        doc = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "oracle": self.oracle,
            "seed": self.seed,
            "message": self.message,
            "details": self.details,
            "circuit": (
                json.loads(circuit_to_json(self.circuit))
                if self.circuit is not None else None
            ),
        }
        return json.dumps(doc, indent=1, sort_keys=True, default=str)

    @classmethod
    def from_json(cls, text: str) -> "ReproArtifact":
        """Parse an artifact previously produced by :meth:`to_json`."""
        doc = json.loads(text)
        if doc.get("format") != ARTIFACT_FORMAT:
            raise ValueError("not a repro-verify-repro JSON document")
        if doc.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {doc.get('version')}"
            )
        circuit = None
        if doc.get("circuit") is not None:
            circuit = circuit_from_json(json.dumps(doc["circuit"]))
        return cls(
            oracle=doc["oracle"],
            seed=int(doc["seed"]),
            message=doc["message"],
            circuit=circuit,
            details=dict(doc.get("details") or {}),
        )

    def filename(self) -> str:
        """Deterministic content-addressed filename."""
        digest = hashlib.sha256(self.to_json().encode()).hexdigest()[:10]
        return f"{self.oracle}_seed{self.seed}_{digest}.json"


def write_artifact(artifact: ReproArtifact, directory: str) -> str:
    """Write *artifact* under *directory*; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, artifact.filename())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(artifact.to_json())
        fh.write("\n")
    return path


def load_artifact(path: str) -> ReproArtifact:
    """Read one artifact file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ReproArtifact.from_json(fh.read())


def replay_artifact(
    artifact: ReproArtifact, oracles: Sequence[Oracle]
) -> List[Violation]:
    """Re-run the artifact's oracle on its stored instance.

    Circuit-carrying artifacts replay through ``check_circuit`` on the
    stored witness; seed-only artifacts replay through ``check_seed``.
    An artifact of a retired oracle replays through the oracle named in
    :data:`ORACLE_ALIASES`.  An empty result means the failure no longer
    reproduces (i.e. the bug is fixed — which is what the corpus
    regression test asserts).
    """
    name = ORACLE_ALIASES.get(artifact.oracle, artifact.oracle)
    matching = [o for o in oracles if o.name == name]
    if not matching:
        raise ValueError(f"no oracle named {name!r} supplied")
    oracle = matching[0]
    if artifact.circuit is not None and oracle.uses_circuit:
        return oracle.check_circuit(artifact.circuit, artifact.seed)
    return oracle.check_seed(artifact.seed)
