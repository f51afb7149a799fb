"""The parallel candidate-evaluation layer (`repro.parallel`).

The determinism contract is the headline: procedure reports and result
netlists must be bit-identical with and without a process fabric.  The
rest covers the task functions, the priming statistics, and the
crashed-worker error path (a worker failure must surface as one clean
exception, never a hang).
"""

import pytest

from repro.analysis import AnalysisSession
from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.comparison.identify import identify_positions
from repro.fabric import (
    FabricTask,
    ProcessFabric,
    SerialFabric,
    preferred_start_method,
    run_task,
)
from repro.fabric.tasks import InjectedWorkerCrash
from repro.parallel import (
    ParallelEvaluator,
    ParallelExecutionError,
    PassPrimeStats,
)
from repro.resynth import procedure2, procedure3
from repro.sim import cone_signature
from repro.sim.truthtable import signature_truth_table
from repro.resynth.candidates import enumerate_candidate_cones
from repro.verify import diverged_fields

#: Small knobs so the four procedure runs per case stay seconds-scale.
KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


class TestBitIdentity:
    """Inline and a 4-worker process fabric must agree bit for bit."""

    @pytest.mark.parametrize("name", ["syn1423", "syn5378"])
    @pytest.mark.parametrize("proc", [procedure2, procedure3],
                             ids=["procedure2", "procedure3"])
    def test_report_and_netlist_identical(self, name, proc):
        circuit = suite_circuit(name)
        identification_cache().clear()
        serial = proc(circuit, **KNOBS)
        identification_cache().clear()  # force real worker computation
        with ProcessFabric(4) as fabric:
            parallel = proc(circuit, fabric=fabric, **KNOBS)
        identification_cache().clear()
        assert diverged_fields(serial, parallel) == []
        assert serial.summary() == parallel.summary()
        assert serial.jobs == 1
        assert parallel.jobs == 4

    def test_jobs_recorded_and_validated(self):
        # ``jobs`` records the fabric's parallelism: 1 inline.
        circuit = suite_circuit("syn1423")
        assert procedure2(circuit, **KNOBS).jobs == 1
        report = procedure2(circuit, fabric=SerialFabric(), **KNOBS)
        assert report.jobs == 1
        assert report.timings["fabric"] == "serial"
        with pytest.raises(ValueError):
            ProcessFabric(0)


class TestWorkerFunctions:
    """The ``extract`` and ``identify`` task kinds, run in-process."""

    def chunk_items(self, name="syn1423", k=4, limit=40):
        circuit = suite_circuit(name)
        items, seen = [], set()
        for net in reversed(circuit.topological_order()):
            if not circuit.gate(net).fanins:
                continue
            for cone in enumerate_candidate_cones(circuit, net, k):
                if not cone.inputs:
                    continue
                sig = cone_signature(circuit, cone.output, cone.members,
                                     cone.inputs)
                if sig not in seen:
                    seen.add(sig)
                    items.append((sig, len(cone.inputs)))
            if len(items) >= limit:
                break
        return items[:limit]

    def test_task_rows_equal_inline_functions(self):
        # The reference is what the serial sweep computes inline.
        items = self.chunk_items()
        knobs = dict(perm_budget=24, try_offset=True, seed=3, max_specs=6)
        extracted = run_task(FabricTask("extract", {"items": items}))
        assert extracted == [(sig, n, signature_truth_table(sig, n))
                             for sig, n in items]
        nonconst = [
            (table, n) for _, n, table in extracted
            if table not in (0, (1 << (1 << n)) - 1)
        ]
        assert nonconst
        identified = run_task(FabricTask(
            "identify", {"items": nonconst, **knobs}))
        assert identified == [
            (table, n) + identify_positions(table, n, **knobs)
            for table, n in nonconst
        ]

    def test_inject_crash_raises(self):
        with pytest.raises(InjectedWorkerCrash):
            run_task(FabricTask("extract",
                                {"items": [], "inject_crash": True}))
        with pytest.raises(InjectedWorkerCrash):
            run_task(FabricTask("identify", {
                "items": [], "perm_budget": 24, "try_offset": True,
                "seed": 0, "max_specs": 6, "inject_crash": True}))


class TestEvaluator:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(SerialFabric(), chunk_factor=0)

    def test_preferred_start_method(self):
        assert preferred_start_method() in ("fork", "spawn")

    def test_prime_pass_stats_and_cache_warmup(self):
        circuit = suite_circuit("syn1423")
        session = AnalysisSession(circuit)
        id_cache = identification_cache()
        id_cache.clear()
        try:
            with ProcessFabric(2) as fabric:
                ev = ParallelEvaluator(fabric)
                stats = ev.prime_pass(circuit, session, k=4, perm_budget=24,
                                      seed=5, max_specs=6)
                assert isinstance(stats, PassPrimeStats)
                assert stats.sites > 0
                assert stats.cones >= stats.unique_cones >= stats.shipped
                assert stats.merged_tables == stats.shipped
                assert 0 < stats.merged_identifications <= stats.shipped
                assert stats.chunks > 0
                # Re-priming the unchanged pass finds everything cached.
                again = ev.prime_pass(circuit, session, k=4, perm_budget=24,
                                      seed=5, max_specs=6)
                assert again.shipped == 0
                assert again.merged_tables == 0
                assert again.merged_identifications == 0
        finally:
            session.close()
            id_cache.clear()

    def test_crashed_worker_is_a_clean_error(self):
        """A worker raising mid-pass surfaces as ParallelExecutionError."""
        circuit = suite_circuit("syn1423")
        session = AnalysisSession(circuit)
        fabric = ProcessFabric(2)
        try:
            with pytest.raises(ParallelExecutionError) as exc_info:
                ParallelEvaluator(fabric, inject_crash=True).prime_pass(
                    circuit, session, k=4, perm_budget=24, seed=5,
                    max_specs=6)
            assert "injected worker crash" in str(exc_info.value)
            # The evaluator leaves the fabric to its owner, still usable.
            stats = ParallelEvaluator(fabric).prime_pass(
                circuit, session, k=4, perm_budget=24, seed=5,
                max_specs=6)
            assert stats.merged_tables == stats.shipped > 0
        finally:
            fabric.close()
            session.close()
            identification_cache().clear()
