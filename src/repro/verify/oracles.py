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
``execution``
    Every way of executing Procedures 2 and 3 — fabric backends, resume,
    memo states and sweep cells — must reproduce the inline serial run's
    report and result netlist bit for bit (:mod:`repro.verify.execution`
    holds the oracle and its leg table).

Violations carry enough context to reproduce: the seed, a message, the
offending circuit (when one exists) and structured details.  The fuzz
driver in :mod:`repro.verify.fuzz` shrinks circuit-carrying violations and
persists them as JSON artifacts (:mod:`repro.verify.artifact`).
"""

from __future__ import annotations

import random
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
                "execution")


def default_oracles(
    names: Optional[Sequence[str]] = None,
    gate_eval: GateEval = eval_gate,
) -> List[Oracle]:
    """Instantiate the standard oracle set (optionally a named subset)."""
    from .execution import ExecutionOracle

    factories = {
        "sim": lambda: SimulatorOracle(gate_eval=gate_eval),
        "fault": FaultSimOracle,
        "resynth": ResynthOracle,
        "unit": ComparisonUnitOracle,
        "incremental": IncrementalOracle,
        "execution": ExecutionOracle,
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
