"""Differential verification & fuzzing (``repro.verify``).

The correctness tooling for the rest of the package: a naive scalar
reference interpreter, pluggable differential oracles that cross-check the
independent engines (packed simulation, event-driven fault simulation, the
PODEM miter, comparison-unit construction, incremental maintenance, and
every way of executing a resynthesis run: fabric backends, resume, memo
states and sweep cells), a delta-debugging
counterexample shrinker, deterministic JSON repro artifacts, and a seeded
fuzz driver with seed- and time-budgeted modes.

Entry points: :func:`run_fuzz` (library), ``repro-resynth fuzz`` /
``python -m repro fuzz`` (CLI), and the replayable corpus regression under
``tests/verify/corpus/``.  See ``docs/VERIFICATION.md`` for the full tour.
"""

from .artifact import (
    ReproArtifact,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from .execution import (
    ExecutionOracle,
    brute_force_front,
    diverged_fields,
    netlist_dump,
)
from .fuzz import (
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
    generate_case,
    run_fuzz,
)
from .oracles import (
    ComparisonUnitOracle,
    FaultSimOracle,
    IncrementalOracle,
    ORACLE_NAMES,
    Oracle,
    ResynthOracle,
    SimulatorOracle,
    Violation,
    default_oracles,
    incremental_state_mismatch,
    inject_stuck_fault,
    spec_from_seed,
)
from .refsim import (
    buggy_gate_eval,
    ref_output_vector,
    ref_simulate_pattern,
    ref_truth_tables,
)
from .shrink import ShrinkResult, shrink_circuit

__all__ = [
    "ComparisonUnitOracle",
    "ExecutionOracle",
    "FaultSimOracle",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "IncrementalOracle",
    "ORACLE_NAMES",
    "Oracle",
    "ReproArtifact",
    "ResynthOracle",
    "ShrinkResult",
    "SimulatorOracle",
    "Violation",
    "brute_force_front",
    "buggy_gate_eval",
    "default_oracles",
    "diverged_fields",
    "generate_case",
    "incremental_state_mismatch",
    "inject_stuck_fault",
    "load_artifact",
    "netlist_dump",
    "ref_output_vector",
    "ref_simulate_pattern",
    "ref_truth_tables",
    "replay_artifact",
    "run_fuzz",
    "shrink_circuit",
    "spec_from_seed",
    "write_artifact",
]
