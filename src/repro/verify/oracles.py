"""Differential oracles: independent engines cross-checking each other.

Each oracle encodes one correctness invariant of the codebase as an
executable check over a (usually randomly generated) instance:

``sim``
    The packed bit-parallel simulator, the exhaustive truth-table extractor
    and the naive scalar reference interpreter must agree on every net of
    every circuit (three implementations of the same semantics).
``fault``
    :meth:`repro.faults.fsim.FaultSimulator.detection_word` — event-driven
    single-fault propagation — must agree with brute force: structurally
    inject the stuck-at fault into a copy of the circuit and resimulate it
    whole, comparing primary outputs.
``resynth``
    Procedures 2 and 3 must preserve circuit function; the PODEM miter of
    :func:`repro.netlist.equivalence.formally_equivalent` is the judge
    (with the procedures' own inline random verification switched *off*,
    so the check is genuinely independent).
``unit``
    A comparison unit built for a random spec ``(n, L, U, complement)``
    must realize exactly the interval ON-set, have at most two paths from
    any input to the output (Section 3.1), and its generated robust
    path-delay tests must cover every path delay fault of the unit under
    hazard-aware robust detection (Section 3.3).
``incremental``
    The incrementally maintained circuit caches (fanout map, topological
    orders, levels) and the :class:`~repro.analysis.AnalysisSession` path
    labels must equal independent from-scratch rebuilds after *every*
    mutation of a seeded random mutation sequence applied to the fuzz
    circuit (:mod:`repro.netlist.incremental` provides the ground-truth
    rebuilds).
``parallel``
    Procedures 2 and 3 run inline and on a two-worker process fabric
    (the ``jobs=2`` leg) must produce bit-identical reports *and*
    bit-identical result netlists — the :mod:`repro.parallel`
    determinism contract, checked with the shared identification cache
    cleared between runs so the parallel run genuinely consumes
    worker-computed results.
``resume``
    A sweep killed after a random pass and resumed from its serialized
    checkpoint must produce a report and a result netlist bit-identical
    to the uninterrupted run — the checkpoint/resume contract of
    :mod:`repro.service` (docs/SERVICE.md), checked with the
    identification cache cleared before the resumed leg so it is as cold
    as a genuinely restarted worker process.
``memo``
    Procedures 2 and 3 assisted by the persistent identification cache
    (:mod:`repro.memo`) — recording cold, replaying warm, replaying
    after a JSON round-trip of every entry file, on a two-worker process
    fabric and resumed from a checkpoint — must all be bit-identical to a memo-less
    baseline (docs/MEMO.md: the store may only change the wall clock).

Violations carry enough context to reproduce: the seed, a message, the
offending circuit (when one exists) and structured details.  The fuzz
driver in :mod:`repro.verify.fuzz` shrinks circuit-carrying violations and
persists them as JSON artifacts (:mod:`repro.verify.artifact`).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..comparison import (
    ComparisonSpec,
    build_unit,
    robust_tests_for_unit,
    unit_cost,
)
from ..faults import FaultSimulator, StuckFault, fault_universe
from ..netlist import (
    Circuit,
    CircuitError,
    Gate,
    GateType,
    MULTI_INPUT_TYPES,
    UNARY_TYPES,
    is_valid_topological_order,
    scratch_fanout_map,
    scratch_levels,
    scratch_path_labels,
    scratch_topological_order,
)
from ..netlist.equivalence import EquivalenceStatus, formally_equivalent
from ..pdf import RobustCriterion, robust_faults_detected, simulate_pair
from ..analysis import AnalysisSession, enumerate_paths
from ..sim.logicsim import simulate
from ..sim.patterns import pattern_bits, random_words
from ..sim.truthtable import truth_tables
from .refsim import (
    GateEval,
    ref_output_vector,
    ref_simulate_pattern,
    ref_truth_tables,
)
from ..netlist.types import eval_gate


@dataclass
class Violation:
    """One oracle failure: an instance on which two engines disagreed."""

    oracle: str
    seed: int
    message: str
    circuit: Optional[Circuit] = None
    details: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable summary."""
        where = f" on {self.circuit.name}" if self.circuit is not None else ""
        return f"[{self.oracle}] seed={self.seed}{where}: {self.message}"


class Oracle:
    """Base class: a named differential check.

    Circuit oracles implement :meth:`check_circuit`; instance-generating
    oracles (``uses_circuit = False``) implement :meth:`check_seed` and
    ignore the fuzz driver's shared random circuit.
    """

    name: str = "oracle"
    uses_circuit: bool = True

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        """Run the check on *circuit*; return all violations found."""
        raise NotImplementedError

    def check_seed(self, seed: int) -> List[Violation]:
        """Run the check on an instance derived from *seed* alone."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# sim: packed simulator vs scalar reference vs truth tables
# --------------------------------------------------------------------- #


class SimulatorOracle(Oracle):
    """Cross-check the three value-computation engines.

    For circuits with at most :attr:`exhaustive_inputs` inputs the check is
    exhaustive (every minterm, every net); larger circuits get a seeded
    random batch with per-pattern scalar replay.  ``gate_eval`` injects the
    scalar semantics — the fuzzer's ``--inject`` self-test passes a
    deliberately corrupted evaluator here to prove the oracle has teeth.
    """

    name = "sim"

    def __init__(
        self,
        gate_eval: GateEval = eval_gate,
        exhaustive_inputs: int = 10,
        random_patterns: int = 64,
    ) -> None:
        self._eval = gate_eval
        self._exhaustive_inputs = exhaustive_inputs
        self._random_patterns = random_patterns

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        n = len(circuit.inputs)
        if n <= self._exhaustive_inputs:
            return self._check_exhaustive(circuit, seed)
        return self._check_random(circuit, seed)

    def _check_exhaustive(self, circuit: Circuit, seed: int) -> List[Violation]:
        packed = truth_tables(circuit)  # packed simulate, exhaustive words
        scalar = ref_truth_tables(circuit, gate_eval=self._eval)
        for out in sorted(circuit.output_set):
            if packed[out] != scalar[out]:
                bit = (packed[out] ^ scalar[out])
                minterm = (bit & -bit).bit_length() - 1
                return [Violation(
                    self.name, seed,
                    f"packed vs scalar truth-table mismatch on output "
                    f"{out!r} (first differing minterm {minterm})",
                    circuit=circuit,
                    details={
                        "output": out,
                        "minterm": minterm,
                        "packed_table": packed[out],
                        "scalar_table": scalar[out],
                    },
                )]
        return []

    def _check_random(self, circuit: Circuit, seed: int) -> List[Violation]:
        rng = random.Random((seed << 16) ^ 0x51A0)
        n_pat = self._random_patterns
        words = random_words(circuit.inputs, n_pat, rng)
        packed = simulate(circuit, words, n_pat)
        for p in range(n_pat):
            assignment = pattern_bits(words, circuit.inputs, p)
            scalar = ref_simulate_pattern(circuit, assignment, self._eval)
            for net in circuit.topological_order():
                if ((packed[net] >> p) & 1) != scalar[net]:
                    return [Violation(
                        self.name, seed,
                        f"packed vs scalar mismatch on net {net!r} "
                        f"(pattern {p})",
                        circuit=circuit,
                        details={"net": net, "assignment": assignment},
                    )]
        return []


# --------------------------------------------------------------------- #
# fault: event-driven fault sim vs explicit fault injection
# --------------------------------------------------------------------- #


def inject_stuck_fault(
    circuit: Circuit, fault: StuckFault
) -> Tuple[Circuit, List[str]]:
    """Build the faulty machine for *fault* by explicit structural mutation.

    Returns ``(faulty_circuit, faulty_outputs)`` where ``faulty_outputs``
    lists the nets to read as primary outputs, positionally aligned with
    the good circuit's ``outputs`` (names may differ when the fault sits on
    a primary input that is also a primary output).
    """
    faulty = circuit.copy(f"{circuit.name}#{fault.describe()}")
    const = faulty.fresh_net("__sa_")
    faulty.add_gate(
        const, GateType.CONST1 if fault.value else GateType.CONST0, ()
    )
    outputs = list(faulty.outputs)
    if fault.is_branch:
        reader = faulty.gate(fault.reader)
        fanins = tuple(
            const if i == fault.pin else f
            for i, f in enumerate(reader.fanins)
        )
        faulty.replace_gate(reader.with_fanins(fanins))
    else:
        gate = faulty.gate(fault.net)
        if gate.gtype is GateType.INPUT:
            # An input net cannot change type; reroute its readers instead
            # and substitute it in the output list when it is also a PO.
            for r in set(faulty.fanouts(fault.net)):
                faulty.rewire_fanin(r, fault.net, const)
            outputs = [const if o == fault.net else o for o in outputs]
        else:
            faulty.replace_gate(Gate(
                fault.net,
                GateType.CONST1 if fault.value else GateType.CONST0,
                (),
            ))
    faulty.validate()
    return faulty, outputs


class FaultSimOracle(Oracle):
    """Event-driven fault propagation vs whole-circuit resimulation.

    For a sample of the collapsed fault universe, the packed
    :meth:`~repro.faults.fsim.FaultSimulator.detection_word` must equal the
    mask computed by simulating the explicitly mutated faulty circuit and
    comparing primary outputs pattern by pattern.
    """

    name = "fault"

    def __init__(self, n_patterns: int = 64, max_faults: int = 48) -> None:
        self._n_patterns = n_patterns
        self._max_faults = max_faults

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        rng = random.Random((seed << 16) ^ 0xFA17)
        faults = fault_universe(circuit)
        if len(faults) > self._max_faults:
            faults = rng.sample(faults, self._max_faults)
        n_pat = self._n_patterns
        words = random_words(circuit.inputs, n_pat, rng)
        fsim = FaultSimulator(circuit)
        good = fsim.good_values(words, n_pat)
        good_out = [good[o] for o in circuit.outputs]
        for fault in faults:
            packed_mask = fsim.detection_word(fault, good, n_pat)
            brute_mask = self._brute_force_mask(
                circuit, fault, words, n_pat, good_out
            )
            if packed_mask != brute_mask:
                return [Violation(
                    self.name, seed,
                    f"detection mask mismatch for {fault.describe()}: "
                    f"event-driven {packed_mask:#x} vs brute-force "
                    f"{brute_mask:#x}",
                    circuit=circuit,
                    details={
                        "fault": {
                            "net": fault.net,
                            "value": fault.value,
                            "reader": fault.reader,
                            "pin": fault.pin,
                        },
                        "packed_mask": packed_mask,
                        "brute_mask": brute_mask,
                    },
                )]
        return []

    def _brute_force_mask(
        self,
        circuit: Circuit,
        fault: StuckFault,
        words,
        n_patterns: int,
        good_out: Sequence[int],
    ) -> int:
        faulty, faulty_outputs = inject_stuck_fault(circuit, fault)
        # The faulty circuit keeps the good circuit's input list: stuck
        # inputs stay declared (their readers were rerouted).
        values = simulate(faulty, words, n_patterns)
        mask = 0
        for g, o in zip(good_out, faulty_outputs):
            mask |= g ^ values[o]
        return mask


# --------------------------------------------------------------------- #
# resynth: Procedures 2/3 vs the formal miter
# --------------------------------------------------------------------- #


class ResynthOracle(Oracle):
    """Function preservation of the resynthesis procedures.

    Runs Procedure 2 and Procedure 3 with their inline random verification
    disabled, then formally compares the result against the original via
    the PODEM miter.  ``DIFFERENT`` is a violation; ``UNDECIDED`` (PODEM
    abort) is recorded but not failed — on fuzz-sized circuits the budget
    is never the binding constraint.
    """

    name = "resynth"

    def __init__(
        self,
        k: int = 4,
        perm_budget: int = 24,
        max_passes: int = 3,
        max_inputs: int = 10,
        max_backtracks: int = 50_000,
    ) -> None:
        self._k = k
        self._perm_budget = perm_budget
        self._max_passes = max_passes
        self._max_inputs = max_inputs
        self._max_backtracks = max_backtracks
        self.undecided = 0  # observability for fuzz reports/tests

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        from ..resynth import procedure2, procedure3

        if len(circuit.inputs) > self._max_inputs:
            return []
        violations: List[Violation] = []
        for proc in (procedure2, procedure3):
            report = proc(
                circuit,
                k=self._k,
                perm_budget=self._perm_budget,
                seed=seed,
                max_passes=self._max_passes,
                verify_patterns=0,
            )
            verdict = formally_equivalent(
                circuit, report.circuit,
                max_backtracks=self._max_backtracks, seed=seed,
            )
            if verdict.status is EquivalenceStatus.DIFFERENT:
                violations.append(Violation(
                    self.name, seed,
                    f"{proc.__name__} changed the function "
                    f"({report.summary()})",
                    circuit=circuit,
                    details={
                        "procedure": proc.__name__,
                        "counterexample": verdict.counterexample,
                        "replacements": report.replacements,
                    },
                ))
            elif verdict.status is EquivalenceStatus.UNDECIDED:
                self.undecided += 1
        return violations


def netlist_dump(circuit: Circuit):
    """A bit-comparable structural dump (topo-ordered gates + outputs).

    Two circuits with equal dumps are gate-for-gate, name-for-name,
    order-for-order identical — the comparison the ``parallel`` and
    ``resume`` determinism oracles run on result netlists.
    """
    return (
        [
            (net, circuit.gate(net).gtype.value,
             tuple(circuit.gate(net).fanins))
            for net in circuit.topological_order()
        ],
        list(circuit.outputs),
    )


# --------------------------------------------------------------------- #
# parallel: serial sweep vs worker-pool sweep
# --------------------------------------------------------------------- #


class ParallelOracle(Oracle):
    """Backend equivalence of the resynthesis procedures.

    Runs Procedures 2 and 3 on every fan-out path against the inline
    serial reference — a local process fabric (the ``jobs=2`` leg) and,
    when enabled, a :class:`~repro.fabric.RemoteFabric` over a real
    in-process service server at pinned shard counts 1 and 2 — and
    requires the reports and the resulting netlists to agree bit for bit
    (the :mod:`repro.parallel` / :mod:`repro.fabric` determinism
    contract; docs/FABRIC.md).  The process-global identification cache
    is cleared before each run: without that, the serial run would
    pre-answer every question the workers are supposed to answer, and a
    wrong worker-side result could never be observed.

    The remote legs cross the full JSON wire (``POST /tasks`` on a
    ``task_workers=1`` server), so the oracle also fuzzes the codecs of
    :mod:`repro.fabric.tasks` with generated circuits.
    """

    name = "parallel"

    def __init__(
        self,
        k: int = 4,
        perm_budget: int = 24,
        max_passes: int = 2,
        max_inputs: int = 8,
        jobs: int = 2,
        remote: bool = True,
        remote_shards: Tuple[int, ...] = (1, 2),
    ) -> None:
        self._k = k
        self._perm_budget = perm_budget
        self._max_passes = max_passes
        self._max_inputs = max_inputs
        self._jobs = jobs
        self._remote = remote
        self._remote_shards = tuple(remote_shards)
        self._server = None

    def _server_url(self) -> str:
        """One lazily started task server shared by every remote leg."""
        if self._server is None:
            import tempfile

            from ..service import ArtifactStore, ServiceServer

            root = tempfile.mkdtemp(prefix="repro-fuzz-fabric-")
            self._server = ServiceServer(ArtifactStore(root),
                                         task_workers=1)
            self._server.start()
        return self._server.url

    def _legs(self):
        """``(label, procedure-kwargs factory)`` per non-reference leg."""
        from ..fabric import ProcessFabric

        legs = [(f"jobs={self._jobs}",
                 lambda: {"fabric": ProcessFabric(self._jobs)})]
        if self._remote:
            from ..fabric.remote import RemoteFabric

            for shards in self._remote_shards:
                legs.append((
                    f"remote shards={shards}",
                    lambda shards=shards: {"fabric": RemoteFabric(
                        [self._server_url()], shards=shards,
                        heartbeat_timeout=60.0)},
                ))
        return legs

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        from ..comparison import identification_cache
        from ..resynth import procedure2, procedure3

        if len(circuit.inputs) > self._max_inputs:
            return []
        violations: List[Violation] = []
        common = dict(
            k=self._k,
            perm_budget=self._perm_budget,
            seed=seed,
            max_passes=self._max_passes,
            verify_patterns=0,
        )
        numbers = (
            "passes", "replacements", "gates_before", "gates_after",
            "paths_before", "paths_after",
        )
        for proc in (procedure2, procedure3):
            identification_cache().clear()
            serial = proc(circuit, **common)
            for label, make_kwargs in self._legs():
                identification_cache().clear()
                kwargs = make_kwargs()
                fabric = kwargs.get("fabric")
                try:
                    leg = proc(circuit, **common, **kwargs)
                finally:
                    if fabric is not None:
                        fabric.close()
                diverged = [
                    f for f in numbers
                    if getattr(serial, f) != getattr(leg, f)
                ]
                if not diverged and (
                    netlist_dump(serial.circuit)
                    != netlist_dump(leg.circuit)
                ):
                    diverged = ["netlist"]
                if diverged:
                    violations.append(Violation(
                        self.name, seed,
                        f"{proc.__name__} diverged between the serial "
                        f"run and {label} on: {', '.join(diverged)} "
                        f"(serial: {serial.summary()}; "
                        f"{label}: {leg.summary()})",
                        circuit=circuit,
                        details={
                            "procedure": proc.__name__,
                            "diverged": diverged,
                            "leg": label,
                            "serial": {
                                f: getattr(serial, f) for f in numbers
                            },
                            label: {f: getattr(leg, f) for f in numbers},
                        },
                    ))
            identification_cache().clear()
        return violations


# --------------------------------------------------------------------- #
# resume: straight-through sweep vs kill-at-a-pass + checkpoint resume
# --------------------------------------------------------------------- #


class ResumeOracle(Oracle):
    """Checkpoint/resume equivalence of the resynthesis procedures.

    Runs Procedures 2 and 3 straight through while collecting every
    pass-boundary checkpoint, then simulates a worker killed after a
    seed-chosen pass: the checkpoint is round-tripped through its JSON
    serialization (so the oracle also fuzzes
    :mod:`repro.resynth.serialize`), the process-global identification
    cache is cleared (a restarted worker is cold), and the run is
    resumed.  The resumed report must match the uninterrupted one on
    every deterministic field and the result netlists must agree bit for
    bit — the contract that makes the job service's crash recovery
    invisible in its results (docs/SERVICE.md).
    """

    name = "resume"

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

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        from ..comparison import identification_cache
        from ..resynth import (
            REPORT_NUMBER_FIELDS,
            checkpoint_from_json,
            checkpoint_to_json,
            procedure2,
            procedure3,
        )

        if len(circuit.inputs) > self._max_inputs:
            return []
        violations: List[Violation] = []
        rng = random.Random((seed << 16) ^ 0x2E5E)
        for proc in (procedure2, procedure3):
            checkpoints = []
            identification_cache().clear()
            straight = proc(
                circuit,
                k=self._k,
                perm_budget=self._perm_budget,
                seed=seed,
                max_passes=self._max_passes,
                verify_patterns=0,
                on_pass=checkpoints.append,
            )
            if not checkpoints:
                continue  # cannot happen (>=1 pass always runs); defensive
            kill_after = rng.choice(checkpoints)
            restored = checkpoint_from_json(checkpoint_to_json(kill_after))
            identification_cache().clear()
            resumed = proc(
                circuit,
                k=self._k,
                perm_budget=self._perm_budget,
                seed=seed,
                max_passes=self._max_passes,
                verify_patterns=0,
                resume=restored,
            )
            identification_cache().clear()
            diverged = [
                f for f in REPORT_NUMBER_FIELDS
                if getattr(straight, f) != getattr(resumed, f)
            ]
            if not diverged and (
                netlist_dump(straight.circuit)
                != netlist_dump(resumed.circuit)
            ):
                diverged = ["netlist"]
            if diverged:
                violations.append(Violation(
                    self.name, seed,
                    f"{proc.__name__} diverged after resume from the "
                    f"pass-{kill_after.pass_no} checkpoint on: "
                    f"{', '.join(diverged)} "
                    f"(straight: {straight.summary()}; "
                    f"resumed: {resumed.summary()})",
                    circuit=circuit,
                    details={
                        "procedure": proc.__name__,
                        "diverged": diverged,
                        "killed_after_pass": kill_after.pass_no,
                        "straight": {
                            f: getattr(straight, f)
                            for f in REPORT_NUMBER_FIELDS
                        },
                        "resumed": {
                            f: getattr(resumed, f)
                            for f in REPORT_NUMBER_FIELDS
                        },
                    },
                ))
        return violations


# --------------------------------------------------------------------- #
# memo: cold sweep vs persistent-identification-cache sweep
# --------------------------------------------------------------------- #


class MemoOracle(Oracle):
    """Cached ≡ cold equivalence of the persistent identification memo.

    For Procedures 2 and 3, a memo-less baseline run is compared bit for
    bit (every :data:`~repro.resynth.REPORT_NUMBER_FIELDS` entry plus the
    result netlist) against five memo-assisted runs on one shared
    :class:`repro.memo.MemoStore` directory:

    1. ``cold`` — an empty store being *written* (recording must not
       perturb the sweep);
    2. ``warm`` — a fresh store instance over the now-populated
       directory (every identification answered from disk); the oracle
       also demands a nonzero hit count, so a silently dead cache cannot
       pass;
    3. ``roundtrip`` — warm again, after every entry file is re-parsed
       and re-serialized with different JSON formatting (the store's
       value encoding must survive the round trip exactly);
    4. ``jobs`` — a run over the warm store on a two-worker process
       fabric (the parallel primer consults the memo before shipping
       searches);
    5. ``resume`` — a warm-store run resumed from a seed-chosen
       pass-boundary checkpoint of the baseline.

    The process-global identification cache is cleared before every leg:
    without that, the in-process tier would pre-answer every question the
    memo is supposed to answer, and a wrong stored result could never be
    observed.
    """

    name = "memo"

    def __init__(
        self,
        k: int = 4,
        perm_budget: int = 24,
        max_passes: int = 2,
        max_inputs: int = 8,
        jobs: int = 2,
    ) -> None:
        self._k = k
        self._perm_budget = perm_budget
        self._max_passes = max_passes
        self._max_inputs = max_inputs
        self._jobs = jobs

    def _run(self, proc, circuit: Circuit, seed: int, **kw):
        from ..comparison import identification_cache

        identification_cache().clear()
        return proc(
            circuit,
            k=self._k,
            perm_budget=self._perm_budget,
            seed=seed,
            max_passes=self._max_passes,
            verify_patterns=0,
            **kw,
        )

    @staticmethod
    def _roundtrip_store(root: str) -> None:
        """Re-serialize every entry file with different formatting."""
        entries = os.path.join(root, "entries")
        for dirpath, _dirs, names in os.walk(entries):
            for fname in names:
                if not fname.endswith(".json"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"),
                              sort_keys=False)

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        from ..comparison import identification_cache
        from ..fabric import ProcessFabric
        from ..memo import MemoStore
        from ..resynth import REPORT_NUMBER_FIELDS, procedure2, procedure3

        if len(circuit.inputs) > self._max_inputs:
            return []
        violations: List[Violation] = []
        rng = random.Random((seed << 16) ^ 0x3E30)
        for proc in (procedure2, procedure3):
            with tempfile.TemporaryDirectory(prefix="memo-oracle-") as root:
                checkpoints = []
                baseline = self._run(proc, circuit, seed,
                                     on_pass=checkpoints.append)
                cold_store = MemoStore(root)
                legs = [("cold", self._run(
                    proc, circuit, seed, memo=cold_store))]
                warm_store = MemoStore(root)
                legs.append(("warm", self._run(
                    proc, circuit, seed, memo=warm_store)))
                if cold_store.stats.puts and not warm_store.stats.hits:
                    violations.append(Violation(
                        self.name, seed,
                        f"{proc.__name__}: warm store served no hits "
                        f"({cold_store.stats.puts} results were recorded)",
                        circuit=circuit,
                        details={"procedure": proc.__name__,
                                 "puts": cold_store.stats.puts},
                    ))
                self._roundtrip_store(root)
                legs.append(("roundtrip", self._run(
                    proc, circuit, seed, memo=MemoStore(root))))
                with ProcessFabric(self._jobs) as fabric:
                    legs.append(("jobs", self._run(
                        proc, circuit, seed, memo=MemoStore(root),
                        fabric=fabric)))
                if checkpoints:
                    resume_from = rng.choice(checkpoints)
                    legs.append(("resume", self._run(
                        proc, circuit, seed, memo=MemoStore(root),
                        resume=resume_from)))
                identification_cache().clear()
                base_dump = netlist_dump(baseline.circuit)
                for leg, report in legs:
                    diverged = [
                        f for f in REPORT_NUMBER_FIELDS
                        if getattr(baseline, f) != getattr(report, f)
                    ]
                    if not diverged and (
                        netlist_dump(report.circuit) != base_dump
                    ):
                        diverged = ["netlist"]
                    if diverged:
                        violations.append(Violation(
                            self.name, seed,
                            f"{proc.__name__} diverged between the "
                            f"memo-less baseline and the {leg!r} memo leg "
                            f"on: {', '.join(diverged)} "
                            f"(baseline: {baseline.summary()}; "
                            f"{leg}: {report.summary()})",
                            circuit=circuit,
                            details={
                                "procedure": proc.__name__,
                                "leg": leg,
                                "diverged": diverged,
                                "baseline": {
                                    f: getattr(baseline, f)
                                    for f in REPORT_NUMBER_FIELDS
                                },
                                leg: {
                                    f: getattr(report, f)
                                    for f in REPORT_NUMBER_FIELDS
                                },
                            },
                        ))
        return violations


# --------------------------------------------------------------------- #
# sweep: backend/resume equivalence of whole sweep grids + front check
# --------------------------------------------------------------------- #


class SweepOracle(Oracle):
    """Backend, resume and front invariants of :mod:`repro.sweep`.

    Builds a small grid over the fuzz circuit (inline netlist x
    Procedures 2 and 3 x two K values) and runs it through every
    :class:`~repro.sweep.SweepRunner` backend — serial (the reference),
    a process pool, and a :class:`~repro.fabric.RemoteFabric` over a
    real in-process service server (so each ``resynth_cell`` task
    crosses the full JSON wire) — plus a **resume** leg: a finished
    serial sweep with a seed-chosen subset of its cell files deleted,
    re-run with ``resume=True``, which must re-execute exactly the
    deleted cells and nothing else.  Every leg's report rows must agree
    with the reference on :data:`~repro.sweep.SWEEP_ROW_NUMBER_FIELDS`
    and on the front.

    Independently of leg agreement, the reference front itself is
    checked against a from-scratch dominance scan written here (not the
    library's :func:`~repro.sweep.pareto_front`), and one seed-chosen
    cell is re-run as a *standalone* procedure call to pin the cell ==
    job bit-identity contract (docs/SWEEP.md).
    """

    name = "sweep"

    def __init__(
        self,
        ks: Tuple[int, ...] = (3, 4),
        perm_budget: int = 24,
        max_passes: int = 2,
        max_inputs: int = 8,
        remote: bool = True,
    ) -> None:
        self._ks = tuple(ks)
        self._perm_budget = perm_budget
        self._max_passes = max_passes
        self._max_inputs = max_inputs
        self._remote = remote
        self._server = None

    def _server_url(self) -> str:
        """One lazily started task server shared by every remote leg."""
        if self._server is None:
            from ..service import ArtifactStore, ServiceServer

            root = tempfile.mkdtemp(prefix="repro-fuzz-sweep-")
            self._server = ServiceServer(ArtifactStore(root),
                                         task_workers=1)
            self._server.start()
        return self._server.url

    @staticmethod
    def _brute_force_front(rows: List[Dict[str, object]]) -> set:
        """Independent dominance scan (the referee for the front)."""
        front = set()
        for row in rows:
            a = (row["gates_after"], row["paths_after"], row["depth"])
            dominated = False
            for other in rows:
                if other is row:
                    continue
                b = (other["gates_after"], other["paths_after"],
                     other["depth"])
                if b[0] <= a[0] and b[1] <= a[1] and b[2] <= a[2] \
                        and b != a:
                    dominated = True
                    break
            if not dominated:
                front.add(row["cell_id"])
        return front

    def _run_leg(self, spec, root: str, fabric=None, resume: bool = False,
                 on_cell=None):
        from ..comparison import identification_cache
        from ..sweep import SweepRunner

        identification_cache().clear()
        try:
            return SweepRunner(spec, root, fabric=fabric).run(
                resume=resume, on_cell=on_cell)
        finally:
            if fabric is not None:
                fabric.close()

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        import shutil

        from ..comparison import identification_cache
        from ..fabric import ProcessFabric
        from ..io.json_io import circuit_to_json
        from ..service.runner import procedure_call
        from ..sweep import SWEEP_ROW_NUMBER_FIELDS, SweepSpec, cell_row

        if len(circuit.inputs) > self._max_inputs:
            return []
        netlist = json.loads(circuit_to_json(circuit))
        spec = SweepSpec(
            circuits=(netlist,),
            procedures=("procedure2", "procedure3"),
            ks=self._ks,
            seeds=(seed,),
            perm_budget=self._perm_budget,
            max_passes=self._max_passes,
            verify_patterns=0,
        )
        rng = random.Random((seed << 16) ^ 0x53EE)
        violations: List[Violation] = []
        work = tempfile.mkdtemp(prefix="repro-fuzz-sweepdir-")
        try:
            reference = self._run_leg(spec, os.path.join(work, "serial"))
            legs = [("process jobs=2", self._run_leg(
                spec, os.path.join(work, "process"),
                fabric=ProcessFabric(2)))]
            if self._remote:
                from ..fabric.remote import RemoteFabric

                legs.append(("remote shards=2", self._run_leg(
                    spec, os.path.join(work, "remote"),
                    fabric=RemoteFabric([self._server_url()], shards=2,
                                        heartbeat_timeout=60.0))))
            # Resume leg: finish serially, delete a cell subset + the
            # aggregate, re-run with resume=True; only deleted cells may
            # re-execute.
            resume_root = os.path.join(work, "resume")
            self._run_leg(spec, resume_root)
            cells = spec.cells()
            victims = sorted(
                {rng.choice(cells).cell_id for _ in range(2)})
            for cell_id in victims:
                os.unlink(os.path.join(resume_root, "cells",
                                       f"{cell_id}.json"))
            os.unlink(os.path.join(resume_root, "report.json"))
            executed: List[str] = []
            resumed = self._run_leg(
                spec, resume_root, resume=True,
                on_cell=lambda cell, doc: executed.append(cell.cell_id))
            if sorted(executed) != victims:
                violations.append(Violation(
                    self.name, seed,
                    f"resumed sweep re-ran {sorted(executed)} instead of "
                    f"exactly the deleted cells {victims}",
                    circuit=circuit,
                    details={"executed": sorted(executed),
                             "deleted": victims},
                ))
            legs.append(("resumed", resumed))
            # Leg agreement on the deterministic row fields and front.
            ref_rows = {row["cell_id"]: row for row in reference.rows}
            for label, leg in legs:
                for row in leg.rows:
                    ref = ref_rows.get(row["cell_id"])
                    diverged = [
                        f for f in SWEEP_ROW_NUMBER_FIELDS
                        if ref is None or ref[f] != row[f]
                    ]
                    if diverged:
                        violations.append(Violation(
                            self.name, seed,
                            f"sweep cell {row['cell_id']} diverged "
                            f"between serial and {label} on: "
                            f"{', '.join(diverged)}",
                            circuit=circuit,
                            details={"leg": label, "cell": row["cell_id"],
                                     "diverged": diverged,
                                     "serial": ref, label: row},
                        ))
                if leg.front != reference.front:
                    violations.append(Violation(
                        self.name, seed,
                        f"sweep front diverged between serial and "
                        f"{label}: {reference.front} vs {leg.front}",
                        circuit=circuit,
                        details={"leg": label,
                                 "serial": reference.front,
                                 label: leg.front},
                    ))
            # The reference front vs an independent dominance scan.
            for name, front_ids in reference.front.items():
                group = [row for row in reference.rows
                         if row["circuit"] == name]
                expected = self._brute_force_front(group)
                if set(front_ids) != expected:
                    violations.append(Violation(
                        self.name, seed,
                        f"Pareto front of {name!r} disagrees with the "
                        f"brute-force dominance scan: {sorted(front_ids)}"
                        f" vs {sorted(expected)}",
                        circuit=circuit,
                        details={"circuit": name,
                                 "front": sorted(front_ids),
                                 "brute_force": sorted(expected)},
                    ))
            # One cell vs a standalone procedure run (cell == job).
            probe = rng.choice(cells)
            identification_cache().clear()
            from ..service.jobspec import resolve_circuit

            standalone = procedure_call(probe.spec)(
                resolve_circuit(probe.spec))
            from ..resynth.serialize import report_to_doc

            standalone_row = cell_row(probe, report_to_doc(standalone))
            ref = ref_rows[probe.cell_id]
            diverged = [f for f in SWEEP_ROW_NUMBER_FIELDS
                        if ref[f] != standalone_row[f]]
            if diverged:
                violations.append(Violation(
                    self.name, seed,
                    f"sweep cell {probe.cell_id} diverged from the "
                    f"standalone {probe.procedure} run on: "
                    f"{', '.join(diverged)}",
                    circuit=circuit,
                    details={"cell": probe.cell_id, "diverged": diverged,
                             "sweep": ref, "standalone": standalone_row},
                ))
            identification_cache().clear()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return violations


# --------------------------------------------------------------------- #
# unit: comparison-unit construction invariants
# --------------------------------------------------------------------- #


def spec_from_seed(seed: int, max_n: int = 6) -> ComparisonSpec:
    """Derive a random non-constant comparison spec from a seed."""
    rng = random.Random((seed << 16) ^ 0x0C0C)
    n = rng.randint(2, max_n)
    names = [f"x{i + 1}" for i in range(n)]
    rng.shuffle(names)
    size = 1 << n
    while True:
        lower = rng.randrange(size)
        upper = rng.randrange(lower, size)
        if not (lower == 0 and upper == size - 1):
            break
    return ComparisonSpec(
        tuple(names), lower, upper, complement=rng.random() < 0.5
    )


class ComparisonUnitOracle(Oracle):
    """Section 3 invariants of every comparison-unit construction.

    For the spec derived from the seed: (1) the built unit's truth table
    equals the interval spec's; (2) every input reaches the output through
    at most two paths; (3) the generated robust two-pattern tests cover
    every path delay fault of the unit under the strict robust criterion.
    """

    name = "unit"
    uses_circuit = False

    def __init__(self, max_n: int = 6) -> None:
        self._max_n = max_n

    def check_seed(self, seed: int) -> List[Violation]:
        spec = spec_from_seed(seed, self._max_n)
        return self.check_spec(spec, seed)

    def check_spec(self, spec: ComparisonSpec, seed: int) -> List[Violation]:
        """Run all three invariants on one explicit spec."""
        unit = build_unit(spec)
        details = {"spec": {
            "inputs": list(spec.inputs),
            "lower": spec.lower,
            "upper": spec.upper,
            "complement": spec.complement,
        }}

        got = truth_tables(unit, input_order=list(spec.inputs))[unit.outputs[0]]
        want = spec.truth_table(spec.inputs)
        if got != want:
            bit = got ^ want
            minterm = (bit & -bit).bit_length() - 1
            return [Violation(
                self.name, seed,
                f"unit ON-set differs from [{spec.lower}, {spec.upper}] "
                f"(first differing minterm {minterm})",
                circuit=unit,
                details={**details, "minterm": minterm},
            )]

        cost = unit_cost(spec)
        bad = {pi: c for pi, c in cost.paths_per_input.items() if c > 2}
        if bad:
            return [Violation(
                self.name, seed,
                f"more than two paths from input(s) {sorted(bad)} "
                f"to the unit output",
                circuit=unit,
                details={**details, "paths_per_input": cost.paths_per_input},
            )]

        total = {
            (tuple(p), rising)
            for p in enumerate_paths(unit)
            for rising in (True, False)
        }
        detected = set()
        for test in robust_tests_for_unit(spec):
            pw = simulate_pair(unit, test.v1, test.v2)
            detected |= robust_faults_detected(
                unit, pw, RobustCriterion.STRICT
            )
        if detected != total:
            missed = sorted(total - detected)
            return [Violation(
                self.name, seed,
                f"{len(missed)} path delay fault(s) not robustly covered "
                f"by the generated test set",
                circuit=unit,
                details={
                    **details,
                    "missed": [
                        {"path": list(p), "rising": r} for p, r in missed[:8]
                    ],
                },
            )]
        return []


# --------------------------------------------------------------------- #
# incremental: patched caches and session labels vs from-scratch rebuilds
# --------------------------------------------------------------------- #


def incremental_state_mismatch(
    circuit: Circuit, session: Optional[AnalysisSession] = None
) -> Optional[str]:
    """First divergence between incremental state and scratch rebuilds.

    Compares the circuit's live fanout map, canonical topological order,
    internal Pearce-Kelly order and levels — plus, when a *session* is
    given, its path labels — against the independent reference rebuilds of
    :mod:`repro.netlist.incremental`.  Returns a description of the first
    mismatch, or None when everything agrees.
    """
    fo = circuit.fanout_map()

    def norm(m: Dict[str, List[str]]) -> Dict[str, List[str]]:
        # Reader-list order is mutation-history dependent; empty entries
        # for vanished dangling nets are cosmetically allowed.
        return {
            n: sorted(rs) for n, rs in m.items() if rs or circuit.has_net(n)
        }

    if norm(fo) != norm(scratch_fanout_map(circuit)):
        return "fanout map diverged from scratch rebuild"
    try:
        want_topo = scratch_topological_order(circuit)
    except ValueError:
        try:
            circuit.topological_order()
        except CircuitError:
            return None  # both sides agree the circuit is cyclic
        return "cache missed a combinational cycle the rebuild found"
    order = circuit.topological_order()
    if order != want_topo:
        return "canonical topological order diverged from scratch Kahn"
    live_order = circuit._live_order  # whitebox: the PK-maintained order
    if live_order is not None:
        live = [n for n in live_order if n is not None]
        if not is_valid_topological_order(circuit, live):
            return "live (Pearce-Kelly) order is not a valid topo order"
    if circuit.levels() != scratch_levels(circuit):
        return "levels diverged from scratch rebuild"
    if session is not None:
        if session.labels() != scratch_path_labels(circuit):
            return "session path labels diverged from scratch Procedure 1"
    return None


class IncrementalOracle(Oracle):
    """Incremental maintenance ≡ from-scratch recompute, after every step.

    Copies the fuzz circuit, forces every cache and attaches an
    :class:`~repro.analysis.AnalysisSession`, then applies a seeded random
    mutation sequence drawn from the real mutation API —
    ``replace_gate``, ``rewire_fanin``, ``substitute_net``, ``add_gate``,
    ``remove_gate``, ``sweep``, ``add_output`` — re-checking
    :func:`incremental_state_mismatch` after **every** mutation.  All
    mutations are acyclicity-guarded via transitive-fanout checks, so a
    divergence is always a maintenance bug, never an invalid instance.
    """

    name = "incremental"

    def __init__(self, steps: int = 24) -> None:
        self._steps = steps

    def check_circuit(self, circuit: Circuit, seed: int) -> List[Violation]:
        work = circuit.copy()
        rng = random.Random((seed << 16) ^ 0x1C4E)
        session = AnalysisSession(work)
        try:
            # Force every cache so each mutation exercises the patch paths.
            work.fanout_map()
            work.topological_order()
            work.levels()
            session.labels()
            epoch = work.epoch
            for step in range(self._steps):
                desc = self._mutate(work, rng)
                if desc is None:
                    continue
                if work.epoch <= epoch:
                    return [self._violation(
                        circuit, seed, step, desc,
                        "mutation did not advance the epoch counter",
                    )]
                epoch = work.epoch
                msg = incremental_state_mismatch(work, session)
                if msg is not None:
                    return [self._violation(circuit, seed, step, desc, msg)]
        finally:
            session.close()
        return []

    def _violation(
        self, circuit: Circuit, seed: int, step: int, desc: str, msg: str
    ) -> Violation:
        return Violation(
            self.name, seed,
            f"after step {step} ({desc}): {msg}",
            circuit=circuit,
            details={"step": step, "mutation": desc},
        )

    # -- seeded mutation generator ------------------------------------- #

    def _mutate(self, work: Circuit, rng: random.Random) -> Optional[str]:
        """Apply one random mutation; returns its description (None: skip)."""
        ops = [
            self._op_replace, self._op_rewire, self._op_substitute,
            self._op_add_gate, self._op_remove, self._op_sweep,
            self._op_add_output,
        ]
        weights = [4, 4, 3, 3, 2, 2, 1]
        op = rng.choices(ops, weights=weights, k=1)[0]
        return op(work, rng)

    @staticmethod
    def _logic_nets(work: Circuit) -> List[str]:
        return [g.name for g in work.logic_gates()]

    @staticmethod
    def _random_gate(
        work: Circuit, rng: random.Random, name: str, pool: List[str]
    ) -> Optional[Gate]:
        """A random legal gate named *name* over fanins drawn from *pool*."""
        if not pool:
            return None
        gtype = rng.choice(sorted(
            UNARY_TYPES | MULTI_INPUT_TYPES, key=lambda t: t.value
        ))
        arity = 1 if gtype in UNARY_TYPES else rng.randint(
            2, min(3, max(2, len(pool)))
        )
        if len(pool) < arity:
            return None
        fanins = tuple(rng.choice(pool) for _ in range(arity))
        return Gate(name, gtype, fanins)

    def _op_replace(self, work: Circuit, rng: random.Random) -> Optional[str]:
        nets = self._logic_nets(work)
        if not nets:
            return None
        name = rng.choice(nets)
        downstream = work.transitive_fanout([name])
        pool = [n for n in work.nets() if n not in downstream]
        gate = self._random_gate(work, rng, name, pool)
        if gate is None:
            return None
        work.replace_gate(gate)
        return f"replace_gate({name})"

    def _op_rewire(self, work: Circuit, rng: random.Random) -> Optional[str]:
        withins = [g.name for g in work.logic_gates() if g.fanins]
        if not withins:
            return None
        name = rng.choice(withins)
        old = rng.choice(work.gate(name).fanins)
        downstream = work.transitive_fanout([name])
        pool = [n for n in work.nets() if n not in downstream]
        if not pool:
            return None
        new = rng.choice(pool)
        work.rewire_fanin(name, old, new)
        return f"rewire_fanin({name}, {old}->{new})"

    def _op_substitute(self, work: Circuit, rng: random.Random) -> Optional[str]:
        nets = self._logic_nets(work)
        if not nets:
            return None
        old = rng.choice(nets)
        if not work.fanouts(old) and old not in work.output_set:
            return None  # substitute_net would be a pure (epoch-less) no-op
        downstream = work.transitive_fanout([old])
        pool = [n for n in work.nets() if n not in downstream]
        if not pool:
            return None
        new = rng.choice(pool)
        work.substitute_net(old, new)
        return f"substitute_net({old}->{new})"

    def _op_add_gate(self, work: Circuit, rng: random.Random) -> Optional[str]:
        name = work.fresh_net("fz")
        gate = self._random_gate(work, rng, name, work.nets())
        if gate is None:
            return None
        work.add_gate(name, gate.gtype, gate.fanins)
        if rng.random() < 0.5:
            work.add_output(name)
        return f"add_gate({name})"

    def _op_remove(self, work: Circuit, rng: random.Random) -> Optional[str]:
        outs = work.output_set
        dead = [
            g.name for g in work.logic_gates()
            if not work.fanouts(g.name) and g.name not in outs
        ]
        if not dead:
            return None
        net = rng.choice(dead)
        work.remove_gate(net)
        return f"remove_gate({net})"

    def _op_sweep(self, work: Circuit, rng: random.Random) -> Optional[str]:
        removed = work.sweep()
        if not removed:
            return None
        return f"sweep(removed={removed})"

    def _op_add_output(self, work: Circuit, rng: random.Random) -> Optional[str]:
        nets = work.nets()
        if not nets:
            return None
        net = rng.choice(nets)
        work.add_output(net)
        return f"add_output({net})"


#: Construction order for ``--oracle all``.
ORACLE_NAMES = ("sim", "fault", "resynth", "unit", "incremental",
                "parallel", "resume", "memo", "sweep")


def default_oracles(
    names: Optional[Sequence[str]] = None,
    gate_eval: GateEval = eval_gate,
) -> List[Oracle]:
    """Instantiate the standard oracle set (optionally a named subset)."""
    factories = {
        "sim": lambda: SimulatorOracle(gate_eval=gate_eval),
        "fault": FaultSimOracle,
        "resynth": ResynthOracle,
        "unit": ComparisonUnitOracle,
        "incremental": IncrementalOracle,
        "parallel": ParallelOracle,
        "resume": ResumeOracle,
        "memo": MemoOracle,
        "sweep": SweepOracle,
    }
    wanted = list(names) if names else list(ORACLE_NAMES)
    oracles: List[Oracle] = []
    for n in wanted:
        if n not in factories:
            raise ValueError(
                f"unknown oracle {n!r}; choose from {sorted(factories)}"
            )
        oracles.append(factories[n]())
    return oracles
