"""Persistent-memo smoke check (the CI gate for ``repro.memo``).

Runs a small suite circuit through Procedure 2 three times — memo-less
baseline, cold store (recording), warm store (a fresh instance reading
the persisted entries back) — plus a warm leg on a 2-worker process
fabric (``warm jobs=2``), and asserts
the docs/MEMO.md determinism contract end to end: every report is
bit-identical on the deterministic fields and the result netlists, the
cold run recorded entries, and the warm runs served a nonzero hit rate
with zero misses::

    PYTHONPATH=src python scripts/memo_smoke.py

Prints PASS and exits 0 on success; any report drift, a dead cache, or
an unexpected miss is a nonzero exit.  Budget: well under a minute.
"""

import sys
import tempfile
import time

from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.fabric import ProcessFabric
from repro.io import circuit_to_json
from repro.memo import MemoStore
from repro.obs import Registry
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2

CIRCUIT = "syn1423"
K = 5
SEED = 1


def run(memo=None, jobs=1):
    """One sweep with a cold in-process cache (memo answers or nothing),
    inline or, for ``jobs > 1``, primed on a process fabric."""
    identification_cache().clear()
    fabric = ProcessFabric(jobs) if jobs > 1 else None
    try:
        return procedure2(suite_circuit(CIRCUIT), k=K, seed=SEED,
                          memo=memo, fabric=fabric)
    finally:
        if fabric is not None:
            fabric.close()
        identification_cache().clear()


def diverged_fields(baseline, report):
    bad = [f for f in REPORT_NUMBER_FIELDS
           if getattr(baseline, f) != getattr(report, f)]
    if circuit_to_json(report.circuit) != circuit_to_json(baseline.circuit):
        bad.append("netlist")
    return bad


def main():
    t0 = time.perf_counter()
    print(f"baseline: procedure2({CIRCUIT}, k={K}, seed={SEED}), no memo",
          flush=True)
    baseline = run()

    with tempfile.TemporaryDirectory(prefix="repro-memo-smoke-") as root:
        cold_store = MemoStore(root, registry=Registry())
        cold_t = time.perf_counter()
        cold = run(memo=cold_store)
        cold_s = time.perf_counter() - cold_t
        print(f"cold: {cold_store.stats.puts} put(s), "
              f"{cold_store.disk_entries} entries, {cold_s:.1f}s",
              flush=True)

        legs = [("cold", cold, None)]
        for name, jobs in (("warm", 1), ("warm jobs=2", 2)):
            store = MemoStore(root, registry=Registry())
            leg_t = time.perf_counter()
            report = run(memo=store, jobs=jobs)
            leg_s = time.perf_counter() - leg_t
            print(f"{name}: {store.stats.hits} hit(s), "
                  f"{store.stats.misses} miss(es), "
                  f"hit rate {store.stats.hit_rate:.2f}, {leg_s:.1f}s",
                  flush=True)
            legs.append((name, report, store))

        failures = []
        for name, report, store in legs:
            bad = diverged_fields(baseline, report)
            if bad:
                failures.append(
                    f"{name} run diverges from baseline on: "
                    f"{', '.join(bad)}")
            if store is None:
                continue
            if store.stats.hits == 0:
                failures.append(f"{name} run served no hits (dead cache)")
            # Only the serial warm leg must be all-hit: the jobs=2
            # primer enumerates every pass-start cone, including ones
            # the serial sweep never reached (so the cold run never
            # recorded them) — those miss and get recorded now.
            if name == "warm" and store.stats.misses != 0:
                failures.append(
                    f"{name} run missed {store.stats.misses} lookups "
                    f"the cold run should have recorded")
        if cold_store.stats.puts == 0:
            failures.append("cold run recorded nothing")
        if failures:
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1

    print(f"PASS: {CIRCUIT} memo-less == cold == warm == warm-jobs2 "
          f"(gates {baseline.gates_before}->{baseline.gates_after}, "
          f"paths {baseline.paths_before}->{baseline.paths_after}) "
          f"in {time.perf_counter() - t0:.1f}s total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
