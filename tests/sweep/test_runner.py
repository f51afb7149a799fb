"""SweepRunner durability: checkpoints, resume, directory ownership.

Cheap real runs over c17 (inline netlist, tiny budgets) — every test
executes genuine resynthesis cells, so the bit-identity assertions are
about the real pipeline, not mocks.  One grid spans two circuits, a
suite name and an inline netlist, so it has two fronts.
"""

import json
import os

import pytest

from repro.benchcircuits import c17, random_circuit
from repro.comparison import identification_cache
from repro.io import circuit_to_json
from repro.obs import Registry
from repro.service.jobspec import resolve_circuit
from repro.service.runner import procedure_call
from repro.sweep import (
    SWEEP_ROW_NUMBER_FIELDS,
    SweepError,
    SweepRunner,
    SweepSpec,
)
from repro.verify import brute_force_front, diverged_fields


def tiny_spec(**kw):
    netlist = json.loads(circuit_to_json(c17()))
    defaults = dict(circuits=(netlist,), procedures=("procedure2",),
                    ks=(3, 4), seeds=(1,), perm_budget=20, max_passes=1)
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestRun:
    def test_writes_spec_cells_and_report(self, tmp_path):
        spec = tiny_spec()
        runner = SweepRunner(spec, str(tmp_path / "s"))
        report = runner.run()
        assert json.load(open(os.path.join(runner.root, "sweep.json"))) \
            == spec.to_doc()
        for cell in spec.cells():
            assert os.path.exists(runner.cell_path(cell.cell_id))
        assert os.path.exists(runner.report_path)
        on_disk = json.load(open(runner.report_path))
        assert on_disk == report.to_doc()
        assert len(report.rows) == 2

    def test_metrics_and_span(self, tmp_path):
        registry = Registry()
        spec = tiny_spec()
        SweepRunner(spec, str(tmp_path / "s"),
                    registry=registry).run()
        counters = registry.snapshot()["counters"]
        assert counters["sweep_runs_total"] == 1
        assert counters["sweep_cells_total"] == 2

    def test_rejects_directory_of_different_grid(self, tmp_path):
        root = tmp_path / "s"
        SweepRunner(tiny_spec(), str(root)).run()
        other = tiny_spec(ks=(3,))
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(other, str(root)).run()


class TestResume:
    def test_resume_runs_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        root = str(tmp_path / "s")
        first = SweepRunner(spec, root).run()
        victim = spec.cells()[0]
        os.unlink(os.path.join(root, "cells", f"{victim.cell_id}.json"))
        os.unlink(os.path.join(root, "report.json"))
        executed = []
        identification_cache().clear()
        registry = Registry()
        second = SweepRunner(spec, root, registry=registry).run(
            resume=True,
            on_cell=lambda cell, doc: executed.append(cell.cell_id))
        assert executed == [victim.cell_id]
        assert registry.snapshot()["counters"][
            "sweep_cells_resumed_total"] == 1
        for a, b in zip(first.rows, second.rows):
            for field in SWEEP_ROW_NUMBER_FIELDS:
                assert a[field] == b[field]
        assert second.front == first.front

    def test_torn_cell_file_reruns(self, tmp_path):
        spec = tiny_spec()
        root = str(tmp_path / "s")
        SweepRunner(spec, root).run()
        victim = spec.cells()[1]
        path = os.path.join(root, "cells", f"{victim.cell_id}.json")
        with open(path, "w") as fh:
            fh.write('{"format": "repro-re')  # torn mid-write
        executed = []
        identification_cache().clear()
        SweepRunner(spec, root).run(
            resume=True,
            on_cell=lambda cell, doc: executed.append(cell.cell_id))
        assert executed == [victim.cell_id]

    def test_without_resume_every_cell_reruns(self, tmp_path):
        spec = tiny_spec()
        root = str(tmp_path / "s")
        SweepRunner(spec, root).run()
        executed = []
        identification_cache().clear()
        SweepRunner(spec, root).run(
            on_cell=lambda cell, doc: executed.append(cell.cell_id))
        assert len(executed) == 2

    def test_fully_finished_sweep_resumes_to_no_work(self, tmp_path):
        spec = tiny_spec()
        root = str(tmp_path / "s")
        first = SweepRunner(spec, root).run()
        executed = []
        second = SweepRunner(spec, root).run(
            resume=True,
            on_cell=lambda cell, doc: executed.append(cell.cell_id))
        assert executed == []
        assert second.to_doc() == first.to_doc()  # wall clocks stored


class TestBackends:
    def test_process_fabric_matches_serial(self, tmp_path):
        from repro.fabric import ProcessFabric

        spec = tiny_spec()
        identification_cache().clear()
        serial = SweepRunner(spec, str(tmp_path / "a")).run()
        identification_cache().clear()
        fabric = ProcessFabric(2)
        try:
            parallel = SweepRunner(spec, str(tmp_path / "b"),
                                   fabric=fabric).run()
        finally:
            fabric.close()
        for a, b in zip(serial.rows, parallel.rows):
            for field in SWEEP_ROW_NUMBER_FIELDS:
                assert a[field] == b[field]
        assert parallel.front == serial.front


class TestTwoCircuitGrid:
    """A suite circuit by name and an inline netlist in one grid."""

    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        inline = json.loads(circuit_to_json(
            random_circuit("gen8", 8, 3, 30, seed=5)))
        spec = SweepSpec(circuits=("syn1423", inline),
                         procedures=("procedure2", "procedure3"), ks=(4,),
                         seeds=(1,), perm_budget=24, max_passes=2)
        identification_cache().clear()
        runner = SweepRunner(spec, str(tmp_path_factory.mktemp("grid")))
        return spec, runner, runner.run()

    def test_each_circuit_front_is_the_brute_force_front(self, swept):
        _spec, _runner, report = swept
        assert sorted(report.front) == ["gen8", "syn1423"]
        assert report.front == brute_force_front(report.rows)

    def test_each_cell_equals_its_standalone_job(self, swept):
        spec, runner, _report = swept
        for cell in spec.cells():
            identification_cache().clear()
            standalone = procedure_call(cell.spec)(resolve_circuit(cell.spec))
            with open(runner.cell_path(cell.cell_id)) as fh:
                doc = json.load(fh)
            assert diverged_fields(standalone, doc) == [], cell.describe()
        identification_cache().clear()
