"""The resume legs of the ``execution`` oracle: clean on correct code,
sharp on corruption."""

import dataclasses

import repro.resynth
from repro.benchcircuits import random_circuit
from repro.verify import ExecutionOracle, run_fuzz


class TestClean:
    def test_fuzz_seeds_report_no_violations(self):
        # Seeds 4..9: the memo tests already cover 0..3.
        report = run_fuzz(oracles=[ExecutionOracle()], seeds=6, seed_base=4)
        assert report.ok, report.summary()
        assert report.checks_run["execution"] == 6

    def test_direct_check_is_clean(self):
        oracle = ExecutionOracle()
        c = random_circuit("r", 7, 3, 30, seed=11)
        assert oracle.check_circuit(c, seed=11) == []

    def test_large_circuits_are_skipped(self):
        oracle = ExecutionOracle(max_inputs=4)
        c = random_circuit("r", 9, 3, 30, seed=0)
        assert oracle.check_circuit(c, seed=0) == []


class TestTeeth:
    def test_corrupted_checkpoint_is_detected(self, monkeypatch):
        # Corrupt what deserialization returns: a checkpoint claiming 7
        # extra replacements must make the resumed report diverge from
        # the straight run, and the oracle must say so.
        real = repro.resynth.checkpoint_from_json

        def corrupting(text):
            ckpt = real(text)
            return dataclasses.replace(
                ckpt, replacements=ckpt.replacements + 7)

        monkeypatch.setattr(repro.resynth, "checkpoint_from_json",
                            corrupting)
        oracle = ExecutionOracle()
        c = random_circuit("r", 7, 3, 30, seed=11)
        violations = oracle.check_circuit(c, seed=11)
        assert violations
        assert any("replacements" in v.message for v in violations)
        assert {v.details.get("leg") for v in violations} == {
            "resume", "memo warm + resume"}
