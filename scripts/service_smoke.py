"""Job-service smoke check (the CI gate for ``repro.service``).

Starts a real :class:`ServiceServer` on an ephemeral port, submits two
small ``syn1423`` jobs over HTTP — Procedure 2, then Procedure 3 with
the same K and seed — waits for each supervised worker to finish, and
asserts every served report and result netlist is bit-identical to an
uninterrupted in-process run: the end-to-end version of the determinism
contract in docs/SERVICE.md, exercised through every service layer at
once (HTTP API, store, worker template, forked worker, supervision,
checkpoint serialization).  The second job runs in a worker forked from
the same template as the first, so a reused template is covered too::

    PYTHONPATH=src python scripts/service_smoke.py

Each job's worker overhead (``attempt`` to ``succeeded`` in its events,
minus the report's ``total_seconds``) is printed; it is not gated.
Prints PASS and exits 0 on success; any mismatch or service failure is
a nonzero exit.  Budget: well under a minute.
"""

import json
import sys
import tempfile
import time

from repro.benchcircuits.suite import suite_circuit
from repro.io import circuit_to_json
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2, procedure3
from repro.service import (
    ArtifactStore,
    JobSpec,
    ServiceClient,
    ServiceServer,
    SupervisorConfig,
)

CIRCUIT = "syn1423"
K = 5
SEED = 1
PROCEDURES = (("procedure2", procedure2), ("procedure3", procedure3))


def worker_overhead(client, job_id, report):
    """Seconds from ``attempt`` to ``succeeded`` not spent in the run."""
    times = {}
    for event in client.events(job_id)["events"]:
        kind = event["type"]
        if kind == "state" and event.get("state") == "succeeded":
            kind = "succeeded"
        times.setdefault(kind, float(event["ts"]))
    busy = times["succeeded"] - times["attempt"]
    return busy - float(report["total_seconds"])


def check_job(client, spec, direct):
    """Run *spec* through the service; an error message, or None."""
    answer = client.submit(spec)
    print(f"submitted {spec.procedure} as {answer['id']} "
          f"(state: {answer['state']})", flush=True)
    view = client.wait(answer["id"], timeout=120.0)
    if view["state"] != "succeeded":
        print(view.get("traceback", ""), file=sys.stderr)
        return f"job ended {view['state']}: {view.get('error')}"

    report = client.report(answer["id"])
    diverged = [
        f for f in REPORT_NUMBER_FIELDS
        if report[f] != getattr(direct, f)
    ]
    served = json.dumps(client.result(answer["id"]), sort_keys=True)
    expected = json.dumps(
        json.loads(circuit_to_json(direct.circuit)), sort_keys=True)
    if served != expected:
        diverged.append("netlist")
    if diverged:
        return (f"served {spec.procedure} results diverge from the "
                f"in-process run on: {', '.join(diverged)}")
    print(f"{spec.procedure}: served == in-process "
          f"(gates {direct.gates_before}->{direct.gates_after}, "
          f"paths {direct.paths_before}->{direct.paths_after}); "
          f"run {report['total_seconds']:.2f}s, worker overhead "
          f"{worker_overhead(client, answer['id'], report):.2f}s",
          flush=True)
    return None


def main():
    t0 = time.perf_counter()
    references = []
    for name, procedure in PROCEDURES:
        print(f"reference: in-process {name}({CIRCUIT}, k={K}, "
              f"seed={SEED})", flush=True)
        references.append(procedure(suite_circuit(CIRCUIT), k=K, seed=SEED))

    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as root:
        store = ArtifactStore(root)
        config = SupervisorConfig(heartbeat_interval=0.5, poll_interval=0.05)
        with ServiceServer(store, port=0, config=config) as server:
            client = ServiceClient(server.url, timeout=60.0)
            print(f"service: {server.url}", flush=True)

            for (name, _), direct in zip(PROCEDURES, references):
                spec = JobSpec(procedure=name, circuit=CIRCUIT, k=K,
                               seed=SEED)
                problem = check_job(client, spec, direct)
                if problem is not None:
                    print(f"FAIL: {problem}", file=sys.stderr)
                    return 1

            counters = client.metrics()["counters"]
            for name in ("service_jobs_submitted_total",
                         "service_jobs_succeeded_total"):
                if counters.get(name, 0) < len(PROCEDURES):
                    print(f"FAIL: metric {name} below {len(PROCEDURES)}",
                          file=sys.stderr)
                    return 1

    print(f"PASS: {CIRCUIT} Procedures 2 and 3 served == in-process "
          f"in {time.perf_counter() - t0:.1f}s total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
