"""End-to-end fuzz driver smoke tests (the CI-integrated mode).

A small all-oracle run must come back clean; an injected gate-type
mutation must be caught, shrunk to a tiny witness and persisted as a
replayable artifact.  This is the pytest twin of ``repro fuzz``.
"""

import os

import pytest

from repro.netlist import GateType
from repro.verify import (
    FuzzConfig,
    SimulatorOracle,
    buggy_gate_eval,
    default_oracles,
    generate_case,
    load_artifact,
    replay_artifact,
    run_fuzz,
)


class TestGenerateCase:
    def test_deterministic(self):
        assert generate_case(4).structurally_equal(generate_case(4))

    def test_respects_config(self):
        config = FuzzConfig(min_inputs=3, max_inputs=4, min_gates=5,
                            max_gates=10, max_outputs=2)
        for seed in range(10):
            c = generate_case(seed, config)
            assert 2 <= len(c.inputs) <= 4  # sweep may drop unused inputs? no
            assert len(c.outputs) <= 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(min_inputs=1)
        with pytest.raises(ValueError):
            FuzzConfig(min_gates=0)


class TestSmokeRun:
    def test_all_oracles_clean(self):
        report = run_fuzz(seeds=6, seed_base=100)
        assert report.ok, report.summary()
        assert report.seeds_run == 6
        assert set(report.checks_run) == {
            "sim", "fault", "resynth", "unit", "incremental", "execution",
        }
        assert all(n == 6 for n in report.checks_run.values())

    def test_budget_required(self):
        with pytest.raises(ValueError):
            run_fuzz()

    def test_seconds_budget_terminates(self):
        report = run_fuzz(
            oracles=[SimulatorOracle()], seconds=1.0, seed_base=500
        )
        assert report.seeds_run >= 1
        assert report.ok


class TestInjectedMutation:
    """Issue acceptance: a gate-type mutation is caught and shrunk <= 10."""

    def run_injected(self, tmp_path, victim, impostor):
        oracle = SimulatorOracle(gate_eval=buggy_gate_eval(victim, impostor))
        return run_fuzz(
            oracles=[oracle], seeds=12, artifact_dir=str(tmp_path)
        )

    def test_caught_and_shrunk(self, tmp_path):
        report = self.run_injected(tmp_path, GateType.NAND, GateType.AND)
        assert not report.ok, "mutation was never detected"
        for finding in report.findings:
            assert finding.shrink is not None
            assert finding.shrink.shrunk_gates <= 10
            assert finding.artifact_path is not None
            assert os.path.exists(finding.artifact_path)

    def test_artifact_roundtrip_and_replay(self, tmp_path):
        report = self.run_injected(tmp_path, GateType.XOR, GateType.OR)
        assert not report.ok
        finding = report.findings[0]
        artifact = load_artifact(finding.artifact_path)
        assert artifact.oracle == "sim"
        assert artifact.circuit is not None
        assert artifact.circuit.structurally_equal(finding.shrink.circuit)
        # Replaying against the *healthy* oracles: the bug "is fixed", so
        # the artifact must come back clean — corpus-regression semantics.
        assert replay_artifact(artifact, default_oracles()) == []
        # Replaying against the still-broken oracle reproduces.
        broken = SimulatorOracle(
            gate_eval=buggy_gate_eval(GateType.XOR, GateType.OR)
        )
        assert replay_artifact(artifact, [broken])

    def test_artifact_bytes_deterministic(self, tmp_path):
        r1 = self.run_injected(tmp_path / "a", GateType.NOR, GateType.OR)
        r2 = self.run_injected(tmp_path / "b", GateType.NOR, GateType.OR)
        assert not r1.ok and not r2.ok
        b1 = open(r1.findings[0].artifact_path, "rb").read()
        b2 = open(r2.findings[0].artifact_path, "rb").read()
        assert b1 == b2
