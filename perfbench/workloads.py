"""The four benchmark workloads, each driven only through public APIs.

A workload is built from ``(seed, workdir)``; :meth:`setup` does all the
work a user pays before the first unit (imports happen in the caller,
circuits are loaded or generated, servers started, pools warmed),
:meth:`run` is the timed section and returns one :class:`Unit` per
resynthesis run, and :meth:`teardown` stops everything :meth:`setup`
started.  Every unit carries its input circuit and its result netlist so
:mod:`check` can test it independently of the program's own numbers.

Why each workload exists is recorded in ``README.md``; the comments
here say only what the code cannot.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.benchcircuits.generator import random_circuit
from repro.benchcircuits.suite import suite_circuit
from repro.io.json_io import circuit_from_json
from repro.netlist import Circuit
from repro.resynth import procedures
from repro.resynth.procedures import REPORT_NUMBER_FIELDS

#: The ``repro-resynth resynth`` CLI's inline-verification default.
CLI_VERIFY_PATTERNS = 512


@dataclass
class Unit:
    """One resynthesis run of a workload and what came back from it."""

    label: str
    circuit: Circuit  # the input, as handed to the program
    numbers: Dict[str, object] = field(default_factory=dict)
    result: Optional[Circuit] = None
    latency_s: float = 0.0
    error: Optional[str] = None
    info: Dict[str, object] = field(default_factory=dict)


def report_numbers(report) -> Dict[str, object]:
    """The deterministic report fields, from a report or a report doc."""
    if isinstance(report, dict):
        return {name: report[name] for name in REPORT_NUMBER_FIELDS}
    return {name: getattr(report, name) for name in REPORT_NUMBER_FIELDS}


def _doc_circuit(report_doc: Dict[str, object]) -> Circuit:
    return circuit_from_json(json.dumps(report_doc["circuit"]))


class Workload:
    """Base class: one fresh-process round of a workload."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> List[Unit]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def layer_metrics(self, units: List[Unit], wall_s: float
                      ) -> Dict[str, float]:
        """Per-layer numbers the workload measures outside the ledger."""
        return {}


class SuiteK6(Workload):
    """The paper-table path: a serial ``SweepRunner`` grid at K=6."""

    name = "suite-k6"
    circuits = ("syn1423", "syn5378")

    def setup(self) -> None:
        from repro.sweep import SweepRunner, SweepSpec

        self.inputs = {name: suite_circuit(name) for name in self.circuits}
        spec = SweepSpec(circuits=self.circuits,
                         procedures=("procedure2", "procedure3"),
                         ks=(6,), seeds=(self.seed,))
        self.runner = SweepRunner(spec, os.path.join(self.workdir, "sweep"))
        self.cell_compute: List[float] = []

    def run(self) -> List[Unit]:
        units: List[Unit] = []
        last = time.perf_counter()

        def on_cell(cell, doc) -> None:
            nonlocal last
            now = time.perf_counter()
            units.append(Unit(
                label=f"{cell.circuit}/{cell.procedure}",
                circuit=self.inputs[cell.circuit],
                numbers=report_numbers(doc),
                result=_doc_circuit(doc),
                latency_s=now - last))
            self.cell_compute.append(float(doc["total_seconds"]))
            last = now

        report = self.runner.run(on_cell=on_cell)
        if len(report.rows) != len(units) or not report.front:
            raise RuntimeError("sweep report does not cover every cell")
        return units

    def layer_metrics(self, units, wall_s):
        return {
            "sweep.cells": len(units),
            "sweep.cell_p50_s": statistics.median(
                u.latency_s for u in units),
            "sweep.overhead_s": wall_s - sum(self.cell_compute),
        }


def _direct_units(circuit: Circuit, label: str, call) -> List[Unit]:
    units = []
    for proc in ("procedure2", "procedure3"):
        # Looked up at call time, so a traced round's wrapper is used.
        fn = getattr(procedures, proc)
        start = time.perf_counter()
        unit = Unit(label=f"{label}/{proc}", circuit=circuit)
        try:
            report = call(fn)
        except Exception as exc:  # a failed unit is counted, not fatal
            unit.error = f"{type(exc).__name__}: {exc}"
        else:
            unit.numbers = report_numbers(report)
            unit.result = report.circuit
        unit.latency_s = time.perf_counter() - start
        units.append(unit)
    return units


class ScaleK4(Workload):
    """One generated ~3000-gate circuit, Procedures 2 and 3 at K=4."""

    name = "scale-k4"

    def setup(self) -> None:
        # The generator seed is fixed: random circuits from different
        # generator seeds differ by up to 45% in work and from 0.42 to 0.67
        # in paths ratio, which would swamp any cross-seed comparison.
        # The workload seed drives the procedure seed and every pattern
        # set instead.
        self.circuit = random_circuit("scale4k", n_inputs=128, n_outputs=64,
                                      n_gates=3000, seed=7)

    def run(self) -> List[Unit]:
        return _direct_units(
            self.circuit, self.circuit.name,
            lambda fn: fn(self.circuit, k=4, seed=self.seed,
                          verify_patterns=CLI_VERIFY_PATTERNS))


class RemoteK5(Workload):
    """syn35932 at K=5 through ``RemoteFabric`` on a loopback server."""

    name = "remote-k5"

    def setup(self) -> None:
        from repro.fabric import FabricTask, RemoteFabric
        from repro.service import ArtifactStore, ServiceServer

        self.circuit = suite_circuit("syn35932")
        self.server = ServiceServer(
            ArtifactStore(os.path.join(self.workdir, "store")),
            task_workers=2)
        self.server.start()
        self.fabric = RemoteFabric([self.server.url])
        # Warm the server's task pool so the first pass does not pay for
        # starting it; a trivial identification per pool process.
        warm = FabricTask(kind="identify", payload={
            "items": [(0b0110, 2)], "perm_budget": 200,
            "try_offset": True, "seed": 0, "max_specs": 6})
        self.server.service.task_fabric.map([warm, warm])

    def run(self) -> List[Unit]:
        return _direct_units(
            self.circuit, "syn35932",
            lambda fn: fn(self.circuit, k=5, seed=self.seed,
                          fabric=self.fabric))

    def teardown(self) -> None:
        self.fabric.close()
        self.server.stop()


class ServiceJobs(Workload):
    """The single-box service: two closed-loop clients, one job worker."""

    name = "service-jobs"
    clients = 2
    tuples_per_client = 4
    #: Every this many submits a client re-sends its first spec.
    resend_every = 3

    def setup(self) -> None:
        from repro.service import (
            ArtifactStore, ServiceClient, ServiceServer, SupervisorConfig)

        self.inputs = {name: suite_circuit(name)
                       for name in ("syn1423", "syn5378")}
        self.memo_root = os.path.join(self.workdir, "memo")
        self.server = ServiceServer(
            ArtifactStore(os.path.join(self.workdir, "store")),
            max_workers=1,
            config=SupervisorConfig(memo_root=self.memo_root))
        self.server.start()
        self.client_cls = ServiceClient
        ServiceClient(self.server.url).jobs()
        self.admits: List[float] = []
        self.dedup_hits = 0
        self._lock = threading.Lock()

    def _tuples(self, client: int):
        names = ("syn1423", "syn5378")
        out = []
        for i in range(self.tuples_per_client):
            name = names[(i + client) % 2]
            out.append((name, self.seed * 1000 + client * 100 + i))
        return out

    def _client_loop(self, client: int, units: List[Unit]) -> None:
        from repro.service import JobSpec

        http = self.client_cls(self.server.url, timeout=120.0)
        sent: List[JobSpec] = []
        submits = 0
        for name, job_seed in self._tuples(client):
            for proc in ("procedure2", "procedure3"):
                spec = JobSpec(procedure=proc, circuit=name, k=4,
                               seed=job_seed)
                units.append(self._one_job(http, spec, name, proc))
                sent.append(spec)
                submits += 1
                if submits % self.resend_every == 0:
                    self._resend(http, sent[0])

    def _submit(self, http, spec) -> Dict[str, object]:
        start = time.perf_counter()
        answer = http.submit(spec)
        with self._lock:
            self.admits.append(time.perf_counter() - start)
        return answer

    def _one_job(self, http, spec, name: str, proc: str) -> Unit:
        unit = Unit(label=f"{name}/{proc}", circuit=self.inputs[name])
        start = time.perf_counter()
        try:
            job_id = self._submit(http, spec)["id"]
            state = None
            for event in http.stream_events(job_id):
                if event.get("type") == "end":
                    state = event.get("state")
            end_seen = time.time()
            if state != "succeeded":
                raise RuntimeError(f"job {job_id} ended {state!r}")
            doc = http.report(job_id)
        except Exception as exc:  # failed job, non-2xx or transport
            unit.error = f"{type(exc).__name__}: {exc}"
        else:
            unit.numbers = report_numbers(doc)
            unit.result = _doc_circuit(doc)
            unit.info = {"job": job_id, "procedure": proc,
                         "run_s": float(doc["total_seconds"]),
                         "end_seen": end_seen}
        unit.latency_s = time.perf_counter() - start
        return unit

    def _resend(self, http, spec) -> None:
        answer = self._submit(http, spec)
        if answer.get("created"):
            raise RuntimeError("a re-sent spec was admitted as a new job")
        with self._lock:
            self.dedup_hits += 1

    def run(self) -> List[Unit]:
        per_client: List[List[Unit]] = [[] for _ in range(self.clients)]
        errors: List[Exception] = []

        def body(i: int) -> None:
            try:
                self._client_loop(i, per_client[i])
            except Exception as exc:  # re-raised in the calling thread
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(i,))
                   for i in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return [u for units in per_client for u in units]

    def teardown(self) -> None:
        self.server.stop()

    def layer_metrics(self, units, wall_s):
        """Service and memo numbers, all taken from outside the workers."""
        http = self.client_cls(self.server.url)
        queue, overhead, delivery, run_s = [], [], [], []
        write_run, read_run = [], []
        for unit in units:
            if unit.error is not None:
                continue
            times: Dict[str, float] = {}
            for event in http.events(unit.info["job"])["events"]:
                kind = event["type"]
                if kind == "state" and event.get("state") == "succeeded":
                    kind = "succeeded"
                times.setdefault(kind, float(event["ts"]))
            busy = times["succeeded"] - times["attempt"]
            queue.append(times["attempt"] - times["submitted"])
            overhead.append(busy - unit.info["run_s"])
            delivery.append(unit.info["end_seen"] - times["succeeded"])
            run_s.append(unit.info["run_s"])
            (write_run if unit.info["procedure"] == "procedure2"
             else read_run).append(unit.info["run_s"])
        entries, size = 0, 0
        for root, _dirs, files in os.walk(self.memo_root):
            for fname in files:
                if fname.endswith(".json"):
                    entries += 1
                    size += os.path.getsize(os.path.join(root, fname))
        latencies = [u.latency_s for u in units if u.error is None]
        admit_q, admit_tail = tail(self.admits)
        job_q, job_tail = tail(latencies)
        return {
            "service.submits": len(self.admits),
            "service.admit_p50_ms": 1000 * statistics.median(self.admits),
            "service.admit_tail_ms": 1000 * admit_tail,
            "service.admit_tail_pct": admit_q,
            "service.queue_wait_p50_s": statistics.median(queue),
            "service.worker_overhead_p50_s": statistics.median(overhead),
            "service.run_p50_s": statistics.median(run_s),
            "service.delivery_p50_ms": 1000 * statistics.median(delivery),
            "service.job_p50_s": statistics.median(latencies),
            "service.jobs": len(latencies),
            "service.job_tail_s": job_tail,
            "service.job_tail_pct": job_q,
            "service.dedup_hits": self.dedup_hits,
            "memo.entries": entries,
            "memo.bytes": size,
            "memo.write_run_p50_s": statistics.median(write_run),
            "memo.read_run_p50_s": statistics.median(read_run),
            # Outside-in coverage: the share of the wall during which the
            # single job worker was busy with a job.
            "trace.coverage": (sum(run_s) + sum(overhead)) / wall_s,
        }


def tail(values: List[float]):
    """``(q, value)``: the highest of the 50/90/95/99th percentiles with at
    least ten samples beyond it, or ``(100, max)`` when there are fewer
    than twenty samples, so a small run reports its worst case."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q, ordered[min(n - 1, int(n * q / 100))]
    return 100, ordered[-1]


WORKLOADS = {cls.name: cls for cls in (SuiteK6, ScaleK4, ServiceJobs,
                                        RemoteK5)}
