"""run_job: checkpoint-every-pass execution with bit-identical resume."""

import json

import pytest

from repro.benchcircuits import c17
from repro.comparison import identification_cache
from repro.fabric import ProcessFabric
from repro.io import circuit_to_json
from repro.resynth import REPORT_NUMBER_FIELDS
from repro.service import ArtifactStore, JobSpec, run_job, runner
from repro.verify import netlist_dump


def spec(**kw):
    defaults = dict(netlist=json.loads(circuit_to_json(c17())), k=4,
                    perm_budget=20, max_passes=3)
    defaults.update(kw)
    return JobSpec(**defaults)


class KillAfter(Exception):
    pass


def kill_after(pass_no):
    def hook(ckpt):
        if ckpt.pass_no >= pass_no:
            raise KillAfter(f"simulated death after pass {pass_no}")
    return hook


class TestStraightRun:
    def test_writes_report_checkpoints_and_events(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(spec())
        report = run_job(store, job_id)
        assert store.load_report(job_id).passes == report.passes
        assert store.checkpoint_passes(job_id) == list(
            range(1, report.passes + 1))
        events = store.events(job_id)
        types = [e["type"] for e in events]
        assert types == ["pass"] * report.passes + ["completed"]
        # An observed pass event always implies a resumable checkpoint.
        for e in events[:-1]:
            assert e["checkpoint_bytes"] > 0
        assert events[-1]["replacements"] == report.replacements

    def test_progress_callback_beats_every_pass(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(spec())
        beats = []
        report = run_job(store, job_id, progress=lambda: beats.append(1))
        assert len(beats) == report.passes

    def test_jobs_spec_runs_on_its_own_process_fabric(self, tmp_path,
                                                      monkeypatch):
        created = []

        class RecordingFabric(ProcessFabric):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(runner, "ProcessFabric", RecordingFabric)
        store = ArtifactStore(str(tmp_path))
        serial_id, _ = store.create_job(spec())
        pooled_id, _ = store.create_job(spec(jobs=2))
        identification_cache().clear()
        serial = run_job(store, serial_id)
        assert created == []
        identification_cache().clear()  # the pool must do the work
        pooled = run_job(store, pooled_id)
        identification_cache().clear()
        for field in REPORT_NUMBER_FIELDS:
            assert getattr(pooled, field) == getattr(serial, field), field
        assert netlist_dump(pooled.circuit) == netlist_dump(serial.circuit)
        assert pooled.jobs == 2
        (fabric,) = created
        assert fabric.jobs == 2
        assert pooled.timings["prime_seconds"]  # the pool primed passes
        assert fabric._executor is None  # and was shut down on return


class TestResume:
    @pytest.mark.parametrize("killed_at", [1, 2])
    def test_interrupted_job_resumes_bit_identical(self, tmp_path,
                                                   killed_at):
        baseline_store = ArtifactStore(str(tmp_path / "baseline"))
        base_id, _ = baseline_store.create_job(spec())
        identification_cache().clear()
        straight = run_job(baseline_store, base_id)
        if killed_at >= straight.passes:
            pytest.skip("circuit converged before the kill point")

        store = ArtifactStore(str(tmp_path / "killed"))
        job_id, _ = store.create_job(spec())
        identification_cache().clear()
        with pytest.raises(KillAfter):
            run_job(store, job_id, on_pass=kill_after(killed_at))
        assert store.load_report(job_id) is None
        assert store.checkpoint_passes(job_id)[-1] == killed_at

        identification_cache().clear()  # a restarted worker is cold
        resumed = run_job(store, job_id)
        for field in REPORT_NUMBER_FIELDS:
            assert getattr(resumed, field) == getattr(straight, field), field
        assert netlist_dump(resumed.circuit) == netlist_dump(
            straight.circuit)
        types = [e["type"] for e in store.events(job_id)]
        assert "resumed" in types
        assert types[-1] == "completed"

    def test_rerun_after_completion_resumes_from_done(self, tmp_path):
        # A retry that arrives after the final (converged) pass must not
        # run extra passes: the checkpoint carries the done flag.
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(spec())
        first = run_job(store, job_id)
        again = run_job(store, job_id)
        assert again.passes == first.passes
        assert netlist_dump(again.circuit) == netlist_dump(first.circuit)

    def test_bad_netlist_surfaces_as_exception(self, tmp_path):
        # Cyclic inline netlist: passes shape validation, fails in the
        # worker when the circuit is actually built.
        doc = json.loads(circuit_to_json(c17()))
        cyclic = dict(doc)
        x = doc["inputs"][0]
        cyclic["gates"] = [
            {"name": "a", "type": "and", "fanins": ["b", x]},
            {"name": "b", "type": "and", "fanins": ["a", x]},
        ]
        cyclic["outputs"] = ["a"]
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(spec(netlist=cyclic))
        with pytest.raises(Exception):
            run_job(store, job_id)
        assert store.load_report(job_id) is None
