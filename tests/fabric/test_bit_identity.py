"""The determinism contract across fabric backends (docs/FABRIC.md).

A procedure run with ``fabric=`` must produce a report and netlist
bit-identical to the plain serial run — for any backend, at any shard
count.  The fabric legs of the ``execution`` fuzz oracle
(:mod:`repro.verify.execution`) sweep this across random circuits; these
tests pin one deliberate case per backend, including a remote leg
against a real in-process service server.
"""

import pytest

from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.fabric import SerialFabric
from repro.resynth import procedure2
from repro.verify import diverged_fields

#: Small knobs so the three runs stay seconds-scale.
KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


@pytest.fixture(scope="module")
def baseline():
    identification_cache().clear()
    report = procedure2(suite_circuit("syn1423"), **KNOBS)
    identification_cache().clear()
    return report


def assert_identical(report, baseline):
    assert diverged_fields(baseline, report) == []


class TestFabricBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_serial_fabric_any_shard_count(self, baseline, shards):
        with SerialFabric(shards=shards) as fabric:
            report = procedure2(suite_circuit("syn1423"),
                                fabric=fabric, **KNOBS)
        identification_cache().clear()
        assert_identical(report, baseline)
        assert report.timings["fabric"] == "serial"

    def test_remote_fabric_against_real_server(self, baseline, tmp_path):
        from repro.fabric.remote import RemoteFabric
        from repro.service import ArtifactStore, ServiceServer

        server = ServiceServer(ArtifactStore(str(tmp_path / "store")),
                               task_workers=1)
        server.start()
        try:
            fabric = RemoteFabric([server.url, server.url], shards=2,
                                  heartbeat_timeout=60.0)
            report = procedure2(suite_circuit("syn1423"),
                                fabric=fabric, **KNOBS)
        finally:
            server.stop()
        identification_cache().clear()
        assert_identical(report, baseline)
        assert report.timings["fabric"] == "remote"
