"""Tests for cone evaluation and replacement application."""

import random

import pytest

from repro.analysis import (
    make_cone,
    path_labels,
    removable_members,
    single_gate_cone,
)
from repro.benchcircuits import c17, paper_f2_sop
from repro.benchcircuits.generator import random_circuit
from repro.benchcircuits.suite import suite_circuit
from repro.comparison import best_spec, exact_identify, identify_comparison
from repro.netlist import (
    CircuitBuilder,
    GateType,
    decompose_two_input,
    gate_two_input_equivalents,
    two_input_gate_count,
)
from repro.resynth import (
    ReplacementOption,
    apply_replacement,
    current_paths_on,
    enumerate_candidate_cones,
    evaluate_cone,
)
from repro.sim import (
    cone_signature,
    outputs_equal,
    random_words,
    signature_truth_table,
    truth_tables,
)


class TestEvaluateCone:
    def test_f2_sop_replacement_found(self):
        c = paper_f2_sop()
        members = {g.name for g in c.logic_gates()}
        cone = make_cone(c, "f2", members)
        labels = path_labels(c)
        option = evaluate_cone(c, cone, labels)
        assert option is not None
        assert not option.is_constant
        # the SOP burns far more 2-input gates than the unit (7)
        assert option.gate_gain > 0
        assert option.unit_gates == 7
        # paths: unit has 2 paths per input over labels all 1
        assert option.paths_on_output == 8

    def test_single_nand_gate_evaluates_to_itself_cost(self):
        c = c17()
        cone = single_gate_cone(c, "22")
        labels = path_labels(c)
        option = evaluate_cone(c, cone, labels)
        assert option is not None
        assert option.gate_gain == 0  # NAND2 -> complemented unit, same cost

    def test_xor3_not_replaceable(self):
        b = CircuitBuilder()
        a, x, y = b.inputs("a", "b", "c")
        g = b.XOR(a, x, y, name="g")
        b.outputs(g)
        c = b.build()
        cone = single_gate_cone(c, "g")
        option = evaluate_cone(c, cone, path_labels(c))
        assert option is None

    def test_constant_cone(self):
        b = CircuitBuilder()
        a, x = b.inputs("a", "b")
        na = b.NOT(a)
        g = b.AND(a, na, name="g")  # constant 0
        out = b.OR(g, x, name="out")
        b.outputs(out)
        c = b.build()
        cone = make_cone(c, "g", {"g", na})
        option = evaluate_cone(c, cone, path_labels(c))
        assert option is not None
        assert option.is_constant
        assert option.constant_value == 0
        assert option.paths_on_output == 0

    def test_shared_gate_excluded_from_gain(self):
        # 16 feeds 22 and 23 in c17: a cone for 22 absorbing 16 cannot
        # count 16 as removable.
        c = c17()
        cone_with_shared = make_cone(c, "22", {"22", "16"})
        cone_private = make_cone(c, "22", {"22", "10"})
        labels = path_labels(c)
        opt_shared = evaluate_cone(c, cone_with_shared, labels)
        opt_private = evaluate_cone(c, cone_private, labels)
        if opt_shared is not None and opt_private is not None:
            assert opt_shared.removable_gates == 1  # only gate 22
            assert opt_private.removable_gates == 2


def reference_evaluate(circuit, cone, labels, seed, exact):
    """Spec-level pricing: every realization built, ranked by best_spec."""
    n_removable = sum(gate_two_input_equivalents(circuit.gate(m))
                      for m in removable_members(circuit, cone))
    key = cone_signature(circuit, cone.output, cone.members, cone.inputs)
    tt = signature_truth_table(key, len(cone.inputs))
    if not cone.inputs:
        return ReplacementOption(cone, None, tt & 1, n_removable, 0, 0)
    if tt in (0, (1 << (1 << len(cone.inputs))) - 1):
        return ReplacementOption(cone, None, 1 if tt else 0, n_removable,
                                 0, 0)
    specs = list(identify_comparison(tt, cone.inputs, seed=seed,
                                     max_specs=6).specs)
    if exact and not specs:
        witness = exact_identify(tt, cone.inputs)
        if witness is not None:
            specs.append(witness)
    if not specs:
        return None
    spec, cost = best_spec(specs)
    paths = sum(labels[i] * cost.paths_per_input[i] for i in cone.inputs)
    return ReplacementOption(cone, spec, None, n_removable,
                             cost.two_input_gates, paths)


class TestPositionLevelPricing:
    """evaluate_cone == the spec-level reference on every candidate cone."""

    CIRCUITS = {
        "syn1423": lambda: decompose_two_input(suite_circuit("syn1423")),
        "random80": lambda: random_circuit("r80", 10, 4, 80, seed=3),
        "random50": lambda: random_circuit("r50", 10, 4, 50, seed=2),
    }

    @pytest.mark.parametrize("name,k,exact", [
        ("syn1423", 6, False),
        ("random80", 4, False),
        # The exact fallback prices 39 cones the 200-sample misses.
        ("random50", 6, True),
    ])
    def test_every_candidate_cone(self, name, k, exact):
        circuit = self.CIRCUITS[name]()
        labels = path_labels(circuit)
        cones = options = fallbacks = 0
        for net in circuit.topological_order():
            if circuit.gate(net).gtype in (GateType.INPUT, GateType.CONST0,
                                           GateType.CONST1):
                continue
            for cone in enumerate_candidate_cones(circuit, net, k):
                got = evaluate_cone(circuit, cone, labels, seed=1,
                                    exact=exact)
                assert got == reference_evaluate(circuit, cone, labels, 1,
                                                 exact), cone
                cones += 1
                options += got is not None
                fallbacks += exact and got is not None and evaluate_cone(
                    circuit, cone, labels, seed=1) is None
        assert 0 < options < cones
        assert (fallbacks > 0) == exact


class TestApplyReplacement:
    def test_f2_sop_to_unit_preserves_function(self):
        c = paper_f2_sop()
        reference = truth_tables(c)["f2"]
        members = {g.name for g in c.logic_gates()}
        cone = make_cone(c, "f2", members)
        option = evaluate_cone(c, cone, path_labels(c))
        before = two_input_gate_count(c)
        apply_replacement(c, option)
        c.validate()
        assert truth_tables(c)["f2"] == reference
        assert two_input_gate_count(c) == before - option.gate_gain

    def test_constant_replacement(self):
        b = CircuitBuilder()
        a, x = b.inputs("a", "b")
        na = b.NOT(a)
        g = b.AND(a, na, name="g")
        out = b.OR(g, x, name="out")
        b.outputs(out)
        c = b.build()
        cone = make_cone(c, "g", {"g", na})
        option = evaluate_cone(c, cone, path_labels(c))
        apply_replacement(c, option)
        c.validate()
        assert c.gate("g").gtype is GateType.CONST0

    def test_shared_members_survive(self):
        c = c17()
        cone = make_cone(c, "22", {"22", "16", "10"})
        option = evaluate_cone(c, cone, path_labels(c))
        if option is None:
            return  # function not a comparison function: nothing to check
        snapshot = c.copy()
        apply_replacement(c, option)
        c.validate()
        assert "16" in c  # shared gate still present (feeds 23)
        rng = random.Random(0)
        w = random_words(c.inputs, 256, rng)
        assert outputs_equal(snapshot, c, w, 256)


class TestCurrentPaths:
    def test_matches_label_sum(self):
        c = c17()
        labels = path_labels(c)
        assert current_paths_on(c, "22", labels) == labels["22"]
        assert current_paths_on(c, "16", labels) == labels["16"]
