"""Resynthesis wall-clock benchmark (the incremental-engine scoreboard).

Runs Procedures 2 and 3 over suite circuits and emits a JSON report with
wall time, report numbers and the mutation throughput of the incremental
analysis engine.  The committed ``BENCH_resynth.json`` at the repo root is
the reference baseline; re-run after touching the netlist/analysis hot
paths and compare with ``--compare``::

    PYTHONPATH=src python scripts/bench_resynth.py --out BENCH_resynth.json
    PYTHONPATH=src python scripts/bench_resynth.py --compare BENCH_resynth.json

``--quick`` runs a seconds-scale subset (used as the CI smoke check, which
only guards that the benchmark itself keeps working; timing assertions
would be noise on shared runners).

``--jobs N`` fans candidate evaluation over a process fabric of N worker
processes (:mod:`repro.parallel`).  Report numbers are bit-identical at
any value — ``--compare`` enforces exactly that — so a ``--jobs`` run can
be compared against a serial baseline; the ``jobs`` column records the
fabric's parallelism.

``--fabric serial|process|remote`` picks the execution backend
explicitly (docs/FABRIC.md); the ``fabric`` column records it.  The
determinism contract makes every backend comparable against the same
baseline.  ``--fabric remote`` ships work to ``--workers URL`` fleet
members, or — with no ``--workers`` — self-hosts a loopback
``ServiceServer`` running ``--task-workers N`` local worker processes,
which is how the committed acceptance entry was measured::

    PYTHONPATH=src python scripts/bench_resynth.py --circuits syn35932 \\
        --fabric remote --task-workers 2 --compare BENCH_resynth.json

(The committed baseline carries that run under a ``remote_acceptance``
key, manually merged in; ``--compare`` only reads ``results``.)

``--sweep`` additionally benchmarks :mod:`repro.sweep` (docs/SWEEP.md):
one grid — the benchmarked circuits x Procedures 2 and 3 x K in {4, 5} —
run to a Pareto-front report through a serial fabric and through remote
fabrics over self-hosted loopback servers with 1 and 2 task workers.
Rows are checked bit-identical across the legs on the spot (the sweep
determinism contract), so the ``sweep`` key the report gains is honest
wall clock over identical work: single-box fan-out overhead vs. what an
extra worker process buys back.

``--memo DIR`` additionally benchmarks the persistent identification
cache (docs/MEMO.md): after the plain run that produces ``wall_s``
(kept memo-less so the column stays comparable across baselines), each
procedure runs twice against a per-procedure store under DIR — cold
(recording; ``cold_wall_s``, dominated by the store's fsync-per-put
durability discipline) and warm from a fresh store instance
(``warm_wall_s``/``warm_speedup``/``memo_hits``) — with the in-process
identification cache cleared around every leg so the timings measure
the store, and all three reports checked bit-identical on the spot.
"""

import argparse
import json
import os
import platform
import sys
import time

from repro.benchcircuits.suite import suite_circuit
from repro.comparison import identification_cache
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2, procedure3

#: Default circuit set: smallest, a mid-size, and the largest suite member
#: (the acceptance circuit for the incremental engine).
DEFAULT_CIRCUITS = ["syn1423", "syn9234", "syn35932"]
QUICK_CIRCUITS = ["syn1423"]

PROCEDURES = {"procedure2": procedure2, "procedure3": procedure3}


def bench_one(name, k, seed, memo_root=None, fabric=None):
    circuit = suite_circuit(name)
    entry = {}
    for proc_name, proc in PROCEDURES.items():
        if memo_root:
            identification_cache().clear()
        t0 = time.perf_counter()
        rep = proc(circuit, k=k, seed=seed, fabric=fabric)
        wall = time.perf_counter() - t0
        row = {
            "wall_s": round(wall, 3),
            "pass_seconds": [round(s, 3) for s in rep.pass_seconds],
            "jobs": rep.jobs,
            "fabric": rep.timings.get("fabric", "serial"),
            "gates_before": rep.gates_before,
            "gates_after": rep.gates_after,
            "paths_before": rep.paths_before,
            "paths_after": rep.paths_after,
            "replacements": rep.replacements,
            "passes": rep.passes,
            "mutations": rep.mutations,
            "mutations_per_s": round(rep.mutations / wall, 1) if wall else 0.0,
        }
        per_pass = ", ".join(f"{s:.2f}" for s in rep.pass_seconds)
        print(
            f"{name} {proc_name}: {wall:.2f}s  "
            f"gates {rep.gates_before}->{rep.gates_after}  "
            f"paths {rep.paths_before}->{rep.paths_after}  "
            f"{rep.mutations} mutations  passes [{per_pass}]s",
            flush=True,
        )
        if memo_root:
            from repro.memo import MemoStore
            from repro.obs import Registry

            store_dir = os.path.join(memo_root, f"{name}-{proc_name}")
            walls = {}
            for leg in ("cold", "warm"):
                store = MemoStore(store_dir, registry=Registry())
                identification_cache().clear()
                t1 = time.perf_counter()
                leg_rep = proc(circuit, k=k, seed=seed, memo=store,
                               fabric=fabric)
                walls[leg] = time.perf_counter() - t1
                identification_cache().clear()
                drift = [f for f in REPORT_NUMBER_FIELDS
                         if getattr(leg_rep, f) != getattr(rep, f)]
                if drift:
                    raise SystemExit(
                        f"{leg}-memo report diverged for {name} "
                        f"{proc_name} on: {', '.join(drift)}")
            row["cold_wall_s"] = round(walls["cold"], 3)
            row["warm_wall_s"] = round(walls["warm"], 3)
            row["warm_speedup"] = round(walls["cold"] / walls["warm"], 2) \
                if walls["warm"] else 0.0
            row["memo_hits"] = store.stats.hits
            print(
                f"{name} {proc_name} memo: cold {walls['cold']:.2f}s "
                f"(recording), warm {walls['warm']:.2f}s "
                f"({row['warm_speedup']:.2f}x vs cold, "
                f"{wall / walls['warm']:.2f}x vs memo-less, "
                f"{store.stats.hits} hits, "
                f"hit rate {store.stats.hit_rate:.2f}) "
                f"[reports identical]",
                flush=True,
            )
        entry[proc_name] = row
    return entry


def bench_sweep(circuits, seed):
    """The sweep leg: one grid through serial and remote backends."""
    import tempfile

    from repro.fabric import RemoteFabric
    from repro.service import ArtifactStore, ServiceServer
    from repro.sweep import (
        SWEEP_ROW_NUMBER_FIELDS,
        SweepRunner,
        sweep_from_doc,
    )

    spec = sweep_from_doc({
        "format": "repro-sweepspec",
        "circuits": list(circuits),
        "procedures": ["procedure2", "procedure3"],
        "ks": [4, 5],
        "seeds": [seed],
    })
    print(f"\nsweep grid: {spec.describe()}", flush=True)
    entry = {"grid": spec.to_doc(), "sweep_id": spec.sweep_id,
             "cells": len(spec.cells()), "legs": {}}
    reference = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as work:
        legs = [("serial", None, None)]
        legs += [(f"remote_workers{n}", n, None) for n in (1, 2)]
        for i, (leg_name, task_workers, _) in enumerate(legs):
            fabric = None
            server = None
            if task_workers is not None:
                server = ServiceServer(
                    ArtifactStore(os.path.join(work, f"store{i}")),
                    task_workers=task_workers)
                server.start()
                fabric = RemoteFabric([server.url],
                                      shards=max(task_workers, 1))
            identification_cache().clear()
            t0 = time.perf_counter()
            try:
                result = SweepRunner(
                    spec, os.path.join(work, f"leg{i}"),
                    fabric=fabric).run()
            finally:
                if fabric is not None:
                    fabric.close()
                if server is not None:
                    server.stop()
            wall = time.perf_counter() - t0
            identification_cache().clear()
            if reference is None:
                reference = result
                n_front = sum(len(ids) for ids in result.front.values())
                entry["front_cells"] = n_front
            else:
                ref_rows = {r["cell_id"]: r for r in reference.rows}
                for row in result.rows:
                    drift = [f for f in SWEEP_ROW_NUMBER_FIELDS
                             if ref_rows[row["cell_id"]][f] != row[f]]
                    if drift:
                        raise SystemExit(
                            f"sweep leg {leg_name} diverged on cell "
                            f"{row['cell_id']}: {', '.join(drift)}")
                if result.front != reference.front:
                    raise SystemExit(
                        f"sweep leg {leg_name} changed the Pareto front")
            entry["legs"][leg_name] = {"wall_s": round(wall, 3)}
            print(f"sweep {leg_name}: {wall:.2f}s "
                  f"({len(result.rows)} cells"
                  f"{'' if reference is result else ', rows identical'})",
                  flush=True)
    return entry


def compare(current, baseline_path):
    with open(baseline_path) as fh:
        base = json.load(fh)
    print(f"\nvs {baseline_path} (k={base['k']}, seed={base['seed']}):")
    for name, entry in current["results"].items():
        for proc_name, row in entry.items():
            old = base.get("results", {}).get(name, {}).get(proc_name)
            if old is None:
                continue
            same = all(
                row[f] == old[f]
                for f in ("gates_after", "paths_after", "replacements")
            )
            ratio = old["wall_s"] / row["wall_s"] if row["wall_s"] else 0.0
            print(
                f"  {name} {proc_name}: {old['wall_s']:.2f}s -> "
                f"{row['wall_s']:.2f}s ({ratio:.2f}x) "
                f"[reports {'identical' if same else 'DIFFER'}]"
            )
            if not same:
                raise SystemExit(
                    f"report numbers changed for {name} {proc_name}"
                )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--circuits", nargs="*", default=None,
                    help="suite circuit names (default: small/mid/large)")
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for candidate evaluation: "
                         "N > 1 without --fabric means a process fabric "
                         "(default 1 = inline; reports are identical)")
    ap.add_argument("--fabric", default=None,
                    choices=["serial", "process", "remote"],
                    help="execution backend for candidate evaluation "
                         "(docs/FABRIC.md); default follows --jobs")
    ap.add_argument("--workers", action="append", default=None,
                    metavar="URL",
                    help="remote worker base URL (repeatable; implies "
                         "--fabric remote)")
    ap.add_argument("--task-workers", type=int, default=2, metavar="N",
                    help="worker processes for the self-hosted loopback "
                         "server used by --fabric remote without "
                         "--workers (default 2)")
    ap.add_argument("--memo", default=None, metavar="DIR",
                    help="benchmark the persistent identification cache "
                         "under DIR: adds warm_wall_s/warm_speedup/"
                         "memo_hits columns (docs/MEMO.md)")
    ap.add_argument("--sweep", action="store_true",
                    help="also benchmark a repro.sweep grid over serial "
                         "and remote backends (docs/SWEEP.md); adds a "
                         "'sweep' key to the report")
    ap.add_argument("--quick", action="store_true",
                    help="seconds-scale smoke subset (CI)")
    ap.add_argument("--out", default=None,
                    help="write the JSON report here")
    ap.add_argument("--compare", default=None, metavar="BASELINE.json",
                    help="print speedups vs a previous report; exits "
                         "nonzero if report numbers changed")
    args = ap.parse_args()

    circuits = args.circuits or (
        QUICK_CIRCUITS if args.quick else DEFAULT_CIRCUITS
    )
    fabric_name = args.fabric or (
        "remote" if args.workers else "process" if args.jobs > 1 else None)
    fabric = None
    server = None
    if fabric_name == "serial":
        from repro.fabric import SerialFabric

        fabric = SerialFabric()
    elif fabric_name == "process":
        from repro.fabric import ProcessFabric

        fabric = ProcessFabric(max(args.jobs, 2))
    elif fabric_name == "remote":
        import tempfile

        from repro.fabric import RemoteFabric
        from repro.service import ArtifactStore, ServiceServer

        workers = args.workers
        if not workers:
            server = ServiceServer(
                ArtifactStore(tempfile.mkdtemp(prefix="repro-bench-")),
                task_workers=args.task_workers)
            server.start()
            workers = [server.url]
            print(f"self-hosted worker: {server.url} "
                  f"({args.task_workers} task worker(s))")
        fabric = RemoteFabric(workers)
    report = {
        "schema": 1,
        "k": args.k,
        "seed": args.seed,
        "jobs": args.jobs,
        "fabric": fabric.name if fabric is not None else "serial",
        "memo": bool(args.memo),
        "python": platform.python_version(),
        "results": {},
    }
    t0 = time.perf_counter()
    try:
        for name in circuits:
            report["results"][name] = bench_one(
                name, args.k, args.seed, memo_root=args.memo,
                fabric=fabric)
    finally:
        if fabric is not None:
            fabric.close()
        if server is not None:
            server.stop()
    if args.sweep:
        sweep_circuits = [c for c in circuits if c != "syn35932"]
        report["sweep"] = bench_sweep(sweep_circuits or circuits,
                                      args.seed)
    report["total_wall_s"] = round(time.perf_counter() - t0, 3)
    print(f"total: {report['total_wall_s']:.1f}s")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.compare:
        compare(report, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
