"""Each differential oracle: clean on healthy engines, sharp on broken ones."""

import pytest

from repro.benchcircuits.generator import random_circuit
from repro.faults import FaultSimulator, StuckFault, fault_universe
from repro.netlist import Circuit, GateType
from repro.sim import simulate
from repro.sim.patterns import random_words
from repro.verify import (
    ComparisonUnitOracle,
    FaultSimOracle,
    ResynthOracle,
    SimulatorOracle,
    buggy_gate_eval,
    default_oracles,
    inject_stuck_fault,
    spec_from_seed,
)

import random


class TestSimulatorOracle:
    def test_clean_on_healthy_engines(self):
        oracle = SimulatorOracle()
        for seed in range(6):
            c = random_circuit(f"c{seed}", 5, 2, 20, seed=seed)
            assert oracle.check_circuit(c, seed) == []

    def test_random_branch_clean(self):
        oracle = SimulatorOracle(exhaustive_inputs=4)  # force random mode
        c = random_circuit("c", 8, 2, 25, seed=11)
        assert oracle.check_circuit(c, 11) == []

    def test_catches_corrupted_reference(self):
        evil = SimulatorOracle(
            gate_eval=buggy_gate_eval(GateType.NAND, GateType.OR)
        )
        c = Circuit("nand1")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("f", GateType.NAND, (a, b))
        c.set_outputs(["f"])
        violations = evil.check_circuit(c, 0)
        assert len(violations) == 1
        assert violations[0].oracle == "sim"
        assert violations[0].circuit is c

    def test_catches_in_random_mode(self):
        evil = SimulatorOracle(
            gate_eval=buggy_gate_eval(GateType.AND, GateType.OR),
            exhaustive_inputs=2,
        )
        c = Circuit("and1")
        ins = [c.add_input(f"i{k}") for k in range(5)]
        c.add_gate("f", GateType.AND, tuple(ins))
        c.set_outputs(["f"])
        assert evil.check_circuit(c, 1)


class TestFaultInjection:
    def circuit(self):
        c = Circuit("inj")
        a, b = c.add_input("a"), c.add_input("b")
        s = c.add_gate("s", GateType.AND, (a, b))   # fans out twice
        x = c.add_gate("x", GateType.XOR, (s, a))
        y = c.add_gate("y", GateType.NOR, (s, b))
        c.set_outputs([x, y])
        c.validate()
        return c

    def test_stem_fault_on_gate(self):
        c = self.circuit()
        faulty, outs = inject_stuck_fault(c, StuckFault("s", 1))
        assert outs == c.outputs
        assert faulty.gate("s").gtype is GateType.CONST1
        # a=0,b=0: good x=0, faulty x = XOR(1,0) = 1
        v = simulate(faulty, {"a": 0, "b": 0}, 1)
        assert v["x"] == 1

    def test_stem_fault_on_input_reroutes_readers(self):
        c = self.circuit()
        faulty, outs = inject_stuck_fault(c, StuckFault("a", 1))
        assert outs == c.outputs
        assert faulty.gate("a").gtype is GateType.INPUT  # interface kept
        assert all("a" not in faulty.gate(n).fanins for n in ("s", "x"))

    def test_branch_fault_hits_single_pin(self):
        c = self.circuit()
        fault = StuckFault("s", 0, reader="x", pin=0)
        faulty, _ = inject_stuck_fault(c, fault)
        assert faulty.gate("x").fanins[0].startswith("__sa_")
        assert faulty.gate("y").fanins[0] == "s"  # other branch untouched

    def test_input_that_is_also_output(self):
        c = Circuit("io")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("f", GateType.OR, (a, b))
        c.set_outputs(["f", "a"])
        faulty, outs = inject_stuck_fault(c, StuckFault("a", 1))
        assert outs[0] == "f" and outs[1] != "a"
        v = simulate(faulty, {"a": 0, "b": 0}, 1)
        assert v[outs[1]] == 1  # the stuck value is observed at the PO


class TestFaultSimOracle:
    def test_clean_on_healthy_engine(self):
        oracle = FaultSimOracle()
        for seed in range(6):
            c = random_circuit(f"c{seed}", 5, 2, 20, seed=seed)
            assert oracle.check_circuit(c, seed) == []

    def test_brute_force_agrees_exhaustively_on_small_circuit(self):
        """Every fault, every mask — not just the oracle's sample."""
        c = random_circuit("x", 4, 2, 14, seed=5)
        rng = random.Random(1)
        n_pat = 16
        words = random_words(c.inputs, n_pat, rng)
        fsim = FaultSimulator(c)
        good = fsim.good_values(words, n_pat)
        good_out = [good[o] for o in c.outputs]
        oracle = FaultSimOracle(n_patterns=n_pat)
        for fault in fault_universe(c, collapse=False):
            packed = fsim.detection_word(fault, good, n_pat)
            brute = oracle._brute_force_mask(c, fault, words, n_pat, good_out)
            assert packed == brute, fault.describe()


class TestResynthOracle:
    def test_clean_on_healthy_procedures(self):
        oracle = ResynthOracle()
        for seed in (0, 3):
            c = random_circuit(f"c{seed}", 5, 2, 22, seed=seed)
            assert oracle.check_circuit(c, seed) == []

    def test_skips_oversized_circuits(self):
        oracle = ResynthOracle(max_inputs=4)
        c = random_circuit("big", 8, 2, 20, seed=0)
        assert oracle.check_circuit(c, 0) == []


class TestComparisonUnitOracle:
    def test_clean_on_healthy_construction(self):
        oracle = ComparisonUnitOracle()
        for seed in range(12):
            assert oracle.check_seed(seed) == []

    def test_spec_derivation_is_deterministic_and_valid(self):
        for seed in range(30):
            s1 = spec_from_seed(seed)
            s2 = spec_from_seed(seed)
            assert s1 == s2
            assert 0 <= s1.lower <= s1.upper < (1 << s1.n)


class TestDefaultOracles:
    def test_full_set(self):
        names = [o.name for o in default_oracles()]
        assert names == [
            "sim", "fault", "resynth", "unit", "incremental", "execution",
        ]

    def test_subset_and_unknown(self):
        assert [o.name for o in default_oracles(["fault"])] == ["fault"]
        with pytest.raises(ValueError):
            default_oracles(["nope"])
