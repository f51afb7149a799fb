"""The ``execution`` oracle: one comparison, teeth for every leg class,
old artifact names, and nothing left behind by a check."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading

import pytest

import repro
import repro.fabric.tasks
from repro.benchcircuits import random_circuit
from repro.resynth import procedure2
from repro.resynth.serialize import report_to_doc
from repro.verify import (
    ExecutionOracle,
    Oracle,
    ReproArtifact,
    diverged_fields,
    replay_artifact,
    run_fuzz,
)

FABRIC_LEGS = {"fabric serial", "fabric process", "fabric remote shards=1",
               "fabric remote shards=2"}
SWEEP_LEGS = {"sweep serial", "sweep process", "sweep remote shards=2",
              "sweep resumed"}


def violations_on_witness():
    """A full check of a 6-input circuit whose serial runs make
    replacements and whose sweep front has two members."""
    circuit = random_circuit("m", 6, 3, 24, seed=7)
    return ExecutionOracle().check_circuit(circuit, seed=7)


class TestDivergedFields:
    @pytest.fixture(scope="class")
    def report(self):
        return procedure2(random_circuit("d", 5, 2, 16, seed=3), k=4,
                          perm_budget=24, seed=3, max_passes=2)

    def test_identical_reports_agree(self, report):
        assert diverged_fields(report, dataclasses.replace(report)) == []

    def test_report_documents_compare_like_reports(self, report):
        doc = json.loads(json.dumps(report_to_doc(report)))
        assert diverged_fields(report, doc) == []
        assert diverged_fields(doc, report) == []

    def test_mutations_alone_are_flagged(self, report):
        other = dataclasses.replace(report, mutations=report.mutations + 1)
        assert diverged_fields(report, other) == ["mutations"]

    def test_netlist_alone_is_flagged(self, report):
        other = dataclasses.replace(
            report, circuit=random_circuit("d", 5, 2, 16, seed=4))
        assert diverged_fields(report, other) == ["netlist"]


class TestTeeth:
    def test_worker_dropping_hits_fails_every_fabric_leg(self, monkeypatch):
        # Patched before any leg starts, so the forked process workers
        # and the in-process remote server inherit it; the serial
        # reference does not run through fabric tasks.
        real = repro.fabric.tasks.identify_positions

        def dropping(table, n, *knobs):
            _hits, tried = real(table, n, *knobs)
            return ((), tried)

        monkeypatch.setattr(repro.fabric.tasks, "identify_positions",
                            dropping)
        legs = {v.details["leg"] for v in violations_on_witness()}
        assert FABRIC_LEGS <= legs

    def test_idle_primer_fails_every_fabric_leg(self, monkeypatch):
        # A primer that ships nothing leaves every report intact (the
        # procedure identifies inline what the fabric should have), so
        # only the did-its-work check can see it.
        from repro.parallel import ParallelEvaluator, PassPrimeStats

        monkeypatch.setattr(
            ParallelEvaluator, "prime_pass",
            lambda self, *a, **kw: PassPrimeStats(0, 0, 0, 0, 0, 0, 0))
        violations = violations_on_witness()
        assert {v.details["leg"] for v in violations} == FABRIC_LEGS
        assert all("ran no tasks" in v.message for v in violations)

    def test_sweep_resume_rerunning_finished_cells_is_detected(
            self, monkeypatch):
        from repro.sweep import SweepRunner

        monkeypatch.setattr(SweepRunner, "_load_finished",
                            lambda self, cells: {})
        violations = violations_on_witness()
        assert [v.details["leg"] for v in violations] == ["sweep resumed"]
        assert "exactly the deleted cells" in violations[0].message

    def test_front_missing_a_member_fails_every_sweep_leg(self, monkeypatch):
        import repro.sweep.report

        real = repro.sweep.report.pareto_front
        monkeypatch.setattr(repro.sweep.report, "pareto_front",
                            lambda points: real(points)[1:])
        violations = violations_on_witness()
        assert {v.details["leg"] for v in violations} == SWEEP_LEGS
        assert all("brute-force front" in v.message for v in violations)


class Recorder(Oracle):
    """Stands in for the execution oracle and records its calls."""

    name = "execution"

    def __init__(self):
        self.calls = []

    def check_circuit(self, circuit, seed):
        self.calls.append((circuit.name, seed))
        return []


@pytest.mark.parametrize("old_name", ["parallel", "resume", "memo", "sweep"])
def test_retired_oracle_artifacts_replay_through_execution(old_name):
    artifact = ReproArtifact(old_name, 5, "diverged",
                             circuit=random_circuit("w", 4, 2, 8, seed=5))
    recorder = Recorder()
    assert replay_artifact(artifact, [recorder]) == []
    assert recorder.calls == [("w", 5)]


class TestScope:
    def test_nothing_outlives_a_fuzz_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = set(threading.enumerate())
        report = run_fuzz(oracles=[ExecutionOracle()], seeds=1)
        assert report.ok, report.summary()
        assert report.checks_run["execution"] == 1
        started = [t.name for t in set(threading.enumerate()) - before
                   if t.name.startswith("repro-service-")]
        assert started == []
        assert os.listdir(tmp_path) == []

    def test_import_loads_no_execution_package(self):
        # Importing repro.verify is on the benchmark rounds' setup path.
        program = (
            "import sys, repro.verify; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'service'], "
            "['repro', 'fabric'], ['repro', 'memo'], ['repro', 'sweep'], "
            "['repro', 'parallel'])))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
