"""End-to-end memo wiring: procedures, parallel primer, CLI, service.

Pins the invariant the whole subsystem rests on: a memo-assisted sweep
is bit-identical to a memo-less one — the store only changes the wall
clock (the memo legs of the ``execution`` differential oracle fuzz
this; here the wiring paths are exercised deterministically).
"""

import re

import pytest

from repro.benchcircuits import random_circuit
from repro.comparison import identification_cache
from repro.fabric import ProcessFabric
from repro.memo import MemoStore
from repro.obs import Registry
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2, procedure3
from repro.verify import netlist_dump

KNOBS = dict(k=4, perm_budget=24, seed=3, max_passes=2, verify_patterns=0)


@pytest.fixture
def circuit():
    return random_circuit("w", 6, 3, 24, seed=7)


def run(proc, circuit, **kw):
    identification_cache().clear()
    try:
        return proc(circuit, **KNOBS, **kw)
    finally:
        identification_cache().clear()


def assert_same(a, b, what):
    for f in REPORT_NUMBER_FIELDS:
        assert getattr(a, f) == getattr(b, f), (what, f)
    assert netlist_dump(a.circuit) == netlist_dump(b.circuit), what


@pytest.mark.parametrize("proc", [procedure2, procedure3],
                         ids=["procedure2", "procedure3"])
class TestProcedures:
    def test_cold_warm_and_jobs_match_memoless(self, proc, circuit,
                                               tmp_path):
        root = str(tmp_path / "memo")
        baseline = run(proc, circuit)
        cold_store = MemoStore(root, registry=Registry())
        assert_same(baseline, run(proc, circuit, memo=cold_store), "cold")
        assert cold_store.stats.puts > 0
        warm_store = MemoStore(root, registry=Registry())
        assert_same(baseline, run(proc, circuit, memo=warm_store), "warm")
        assert warm_store.stats.hits > 0
        assert warm_store.stats.misses == 0
        jobs_store = MemoStore(root, registry=Registry())
        with ProcessFabric(2) as fabric:
            assert_same(baseline, run(proc, circuit, memo=jobs_store,
                                      fabric=fabric), "jobs=2")
        assert jobs_store.stats.hits > 0

    def test_memo_accepts_a_directory_path(self, proc, circuit, tmp_path):
        root = str(tmp_path / "memo")
        baseline = run(proc, circuit)
        assert_same(baseline, run(proc, circuit, memo=root), "cold-by-path")
        assert_same(baseline, run(proc, circuit, memo=root), "warm-by-path")


class TestCLI:
    def test_resynth_memo_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_bench

        bench = str(tmp_path / "w.bench")
        save_bench(random_circuit("w", 6, 3, 24, seed=7), bench)
        memo_dir = str(tmp_path / "memo")
        args = ["resynth", bench, "--k", "4", "--verify", "0",
                "--memo", memo_dir]
        identification_cache().clear()
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "memo:" in cold
        identification_cache().clear()
        assert main(args) == 0
        warm = capsys.readouterr().out
        identification_cache().clear()
        # Warm run serves hits, and the printed sweep lines agree.
        served = re.search(r"memo: (\d+) hit\(s\)", warm)
        assert served is not None and int(served.group(1)) > 0, warm

        def sweep_lines(text):
            # Drop the wall-clock lines — exactly what the memo is
            # allowed to change.
            return [line for line in text.splitlines()
                    if not line.startswith(("memo:", "timing:"))]

        assert sweep_lines(cold) == sweep_lines(warm)


class TestService:
    def test_worker_command_carries_the_memo_root(self, tmp_path):
        from repro.service import ArtifactStore
        from repro.service.supervisor import (
            SupervisorConfig,
            default_worker_command,
        )

        store = ArtifactStore(str(tmp_path / "jobs"))
        plain = default_worker_command(
            store, "j1", SupervisorConfig())
        assert "--memo" not in plain
        routed = default_worker_command(
            store, "j1", SupervisorConfig(memo_root=str(tmp_path / "m")))
        assert routed[-2:] == ["--memo", str(tmp_path / "m")]

    def test_run_job_with_memo_matches_memoless(self, tmp_path):
        from repro.service import ArtifactStore
        from repro.service.jobspec import JobSpec
        from repro.service.runner import run_job

        import json

        from repro.io.json_io import circuit_to_json

        netlist = json.loads(circuit_to_json(
            random_circuit("w", 6, 3, 24, seed=7)))
        spec = dict(procedure="procedure2", netlist=netlist, k=4,
                    perm_budget=24, seed=3, max_passes=2,
                    verify_patterns=0)
        store = ArtifactStore(str(tmp_path / "jobs"))
        job_a, _ = store.create_job(JobSpec(**spec))
        # The memo is deliberately not part of the content address, so
        # the memoed leg replays the *same* job in a second store.
        other = ArtifactStore(str(tmp_path / "jobs_b"))
        job_b, _ = other.create_job(JobSpec(**spec))
        assert job_a == job_b
        identification_cache().clear()
        plain = run_job(store, job_a)
        identification_cache().clear()
        memoed = run_job(other, job_b, memo=str(tmp_path / "memo"))
        identification_cache().clear()
        assert_same(plain, memoed, "run_job-memo")
