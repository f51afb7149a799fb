"""The memo legs of the ``execution`` oracle: clean on correct code,
sharp on corruption."""

import repro.memo.store
from repro.benchcircuits import random_circuit
from repro.verify import ExecutionOracle, run_fuzz

MEMO_LEGS = {"memo cold", "memo warm", "memo roundtrip",
             "memo warm + process", "memo warm + resume"}


class TestClean:
    def test_fuzz_seeds_report_no_violations(self):
        report = run_fuzz(oracles=[ExecutionOracle()], seeds=4)
        assert report.ok, report.summary()
        assert report.checks_run["execution"] == 4

    def test_direct_check_is_clean(self):
        oracle = ExecutionOracle()
        c = random_circuit("m", 6, 3, 24, seed=7)
        assert oracle.check_circuit(c, seed=7) == []

    def test_large_circuits_are_skipped(self):
        oracle = ExecutionOracle(max_inputs=4)
        c = random_circuit("m", 9, 3, 30, seed=0)
        assert oracle.check_circuit(c, seed=0) == []


class TestTeeth:
    def test_lossy_stored_results_are_detected(self, monkeypatch):
        # Corrupt what entry decoding returns: a store that silently
        # forgets every identified position makes the warm legs find no
        # replacements where the serial run did, and the oracle must say
        # so.  (This is the failure mode the exact-value contract of
        # docs/MEMO.md forbids: a hit that is not the pure-function
        # result.)
        real = repro.memo.store._decode_result

        def lossy(value, n):
            _hits, tried = real(value, n)
            return ((), tried)

        monkeypatch.setattr(repro.memo.store, "_decode_result", lossy)
        oracle = ExecutionOracle()
        c = random_circuit("m", 6, 3, 24, seed=7)
        violations = oracle.check_circuit(c, seed=7)
        assert violations
        legs = {v.details.get("leg") for v in violations}
        assert legs <= MEMO_LEGS
        assert {"memo warm", "memo roundtrip",
                "memo warm + process"} <= legs

    def test_dead_cache_is_detected(self, monkeypatch):
        # A store that records but never answers must trip the
        # hits-expected check even though every report stays correct.
        monkeypatch.setattr(
            repro.memo.store.MemoStore, "lookup",
            lambda self, *a, **kw: None,
        )
        oracle = ExecutionOracle()
        c = random_circuit("m", 6, 3, 24, seed=7)
        violations = oracle.check_circuit(c, seed=7)
        assert violations
        assert any("no hits" in v.message for v in violations)
        assert {v.details.get("leg") for v in violations} == {"memo warm"}
