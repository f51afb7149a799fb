"""Command-line interface: ``repro-resynth``.

Subcommands
-----------
``stats CIRCUIT``
    Print size/path statistics for a circuit (suite name or ``.bench``).
``resynth CIRCUIT [--objective gates|paths] [--k K] [--jobs N] \
[--fabric serial|process|remote] [--workers URL] [--out FILE]``
    Run Procedure 2 or 3 and optionally write the result; ``--fabric``
    fans candidate evaluation out (``--jobs N`` alone is shorthand for a
    local process fabric of N workers; reports are bit-identical either
    way, see docs/PARALLEL.md).  ``--out x.json``
    writes the full report + result netlist in the service's report
    serialization; any other suffix writes a ``.bench`` netlist.
    ``--trace FILE`` records a JSONL span trace of the run
    (docs/OBSERVABILITY.md); ``--memo DIR`` consults and feeds a
    persistent identification cache (docs/MEMO.md).
``trace FILE [--top N]``
    Summarize a JSONL trace: per-stage totals, per-pass breakdown with
    cache-hit columns, and the top spans by wall time.
``identify CIRCUIT OUTPUT_NET [--k K]``
    Check whether the cone feeding a net realizes a comparison function.
``tables [N ...]``
    Regenerate the paper's tables (all by default).
``fuzz [--seeds N | --seconds S] [--oracle ...]``
    Differential fuzzing: cross-check the simulation, fault-simulation,
    resynthesis and comparison-unit engines on seeded random instances;
    violations are shrunk and dumped as JSON repro artifacts.
``replay ARTIFACT [ARTIFACT ...]``
    Re-run the oracle of previously written repro artifacts.
``serve [--root DIR] [--port P] [--workers N] [--memo DIR] \
[--task-workers N] [--tenants FILE] [--queue-limit N]``
    Run the checkpointable resynthesis job service (docs/SERVICE.md;
    operations in docs/OPERATIONS.md); ``--memo`` shares one
    identification cache across all workers, ``--task-workers``
    additionally makes the service a remote-fabric task worker
    (``POST /tasks``; docs/FABRIC.md), ``--tenants`` switches on
    API-key auth with per-tenant quotas and priorities, and
    ``--queue-limit`` bounds admission (429 + Retry-After beyond it).
``submit CIRCUIT [--url URL] [--wait] | submit --batch FILE``
    Submit a resynthesis job — or a whole batch atomically — to a
    running service.
``jobs [--url URL] [--state S] [--tenant T] [--limit N]``
    List the jobs of a running service (filtered server-side by the
    SQLite job index).
``result JOB_ID [--url URL] [--out FILE]``
    Fetch a finished job's report (optionally writing report JSON or a
    ``.bench`` netlist).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import count_paths
from .netlist import circuit_stats, two_input_gate_count


def _load(name: str):
    from .benchcircuits.suite import suite_circuit, suite_names
    from .io import load_bench

    if name in suite_names():
        return suite_circuit(name)
    return load_bench(name)


def _cmd_stats(args) -> int:
    circuit = _load(args.circuit)
    s = circuit_stats(circuit)
    print(f"{s.name}: inputs={s.n_inputs} outputs={s.n_outputs} "
          f"gates={s.n_gates} 2-input-equivalents={s.two_input_gates} "
          f"literals={s.n_literals} depth={s.depth} "
          f"paths={count_paths(circuit):,}")
    return 0


def _make_fabric(args, tracer=None, min_jobs: int = 1):
    """The fabric ``--fabric`` / ``--jobs`` / ``--workers`` select.

    ``None`` means inline evaluation.  ``--jobs N`` with N > 1 and no
    ``--fabric`` is shorthand for a local process fabric; a process
    fabric gets at least *min_jobs* workers.  *tracer* records the
    fabric's ``fabric.map`` spans.  Raises :class:`ValueError` for
    ``--fabric remote`` without a ``--workers`` URL.
    """
    kind = args.fabric or ("process" if args.jobs > 1 else None)
    if kind == "serial":
        from .fabric import SerialFabric

        return SerialFabric(tracer=tracer)
    if kind == "process":
        from .fabric import ProcessFabric

        return ProcessFabric(max(args.jobs, min_jobs), tracer=tracer)
    if kind == "remote":
        if not args.workers:
            raise ValueError("--fabric remote needs at least one "
                             "--workers URL")
        from .fabric.remote import RemoteFabric

        return RemoteFabric(args.workers, tracer=tracer)
    return None


def _cmd_resynth(args) -> int:
    from .io import save_bench
    from .obs import Tracer
    from .resynth import procedure2, procedure3, report_to_json

    circuit = _load(args.circuit)
    proc = procedure2 if args.objective == "gates" else procedure3
    tracer = None
    if args.trace:
        tracer = Tracer(meta={
            "circuit": circuit.name, "objective": args.objective,
            "k": args.k, "jobs": args.jobs,
        })
    memo = None
    if args.memo_url:
        from .memo import RemoteMemo

        memo = RemoteMemo(args.memo_url)
    elif args.memo:
        from .memo import MemoStore

        memo = MemoStore(args.memo)
    try:
        fabric = _make_fabric(args, tracer=tracer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = proc(circuit, k=args.k, verify_patterns=args.verify,
                      tracer=tracer, memo=memo, fabric=fabric)
    finally:
        if fabric is not None:
            fabric.close()
    print(report.summary())
    print(report.timing_summary())
    if fabric is not None:
        print(f"fabric: {fabric.name} "
              f"({', '.join(args.workers) if args.workers else 'local'})")
    if memo is not None:
        stats = memo.stats
        if args.memo_url:
            where = args.memo_url
            entries = f"{len(memo)} hot row(s)"
        else:
            where = args.memo
            entries = f"{memo.disk_entries} entries"
        print(f"memo: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.puts} put(s), {entries} ({where})")
    if tracer is not None:
        n_spans = tracer.write_jsonl(args.trace)
        print(f"wrote {args.trace} ({n_spans} spans; "
              f"summarize with: repro-resynth trace {args.trace})")
    if args.out:
        if args.out.endswith(".json"):
            # One serialization shared with the job service: the full
            # report with the result netlist embedded (repro.resynth
            # .serialize; load back with report_from_json).
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
        else:
            save_bench(report.circuit, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    import os

    from .sweep import SweepError, SweepRunner, SweepSpecError, \
        sweep_from_json

    try:
        with open(args.grid, "r", encoding="utf-8") as fh:
            spec = sweep_from_json(fh.read())
    except OSError as exc:
        print(f"error: cannot read grid file: {exc}", file=sys.stderr)
        return 2
    except SweepSpecError as exc:
        print(f"error: invalid sweep grid: {exc}", file=sys.stderr)
        return 2
    try:
        fabric = _make_fabric(args, min_jobs=2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(".repro-sweep", spec.sweep_id)
    print(spec.describe())

    def on_cell(cell, doc):
        print(f"  {cell.circuit} {cell.procedure} K={cell.k} "
              f"seed={cell.seed}: gates {doc['gates_before']}->"
              f"{doc['gates_after']} paths {doc['paths_before']}->"
              f"{doc['paths_after']} ({doc['total_seconds']:.2f}s)",
              flush=True)

    runner = SweepRunner(spec, out, fabric=fabric, memo=args.memo)
    try:
        report = runner.run(resume=args.resume, on_cell=on_cell)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fabric is not None:
            fabric.close()
    print(report.render())
    print(f"wrote {runner.report_path}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import render_trace_summary

    try:
        print(render_trace_summary(args.file, top=args.top), end="")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_identify(args) -> int:
    from .analysis import path_labels
    from .resynth import enumerate_candidate_cones, evaluate_cone

    circuit = _load(args.circuit)
    if args.net not in circuit:
        print(f"no net {args.net!r} in {circuit.name}", file=sys.stderr)
        return 1
    labels = path_labels(circuit)
    cones = enumerate_candidate_cones(circuit, args.net, args.k)
    best = None
    for cone in cones:
        option = evaluate_cone(circuit, cone, labels)
        if option is None:
            continue
        if best is None or option.gate_gain > best.gate_gain:
            best = option
    if best is None:
        print(f"{args.net}: no comparison-function candidate within K={args.k}")
        return 0
    if best.is_constant:
        print(f"{args.net}: constant {best.constant_value} over "
              f"{len(best.cone.inputs)} inputs (gain {best.gate_gain})")
    else:
        print(f"{args.net}: {best.spec.describe()}")
        print(f"  removable gates N={best.removable_gates}, unit gates "
              f"N'={best.unit_gates}, gain {best.gate_gain}, paths on line "
              f"{best.paths_on_output}")
    return 0


def _cmd_tables(args) -> int:
    import time

    from . import experiments

    wanted = args.numbers or [1, 2, 3, 4, 5, 6, 7]
    for n in wanted:
        fn = getattr(experiments, f"table{n}", None)
        if fn is None:
            print(f"unknown table {n}", file=sys.stderr)
            return 1
        start = time.perf_counter()
        rendered = fn().render()
        print(rendered)
        print(f"[table {n}: {time.perf_counter() - start:.2f}s]")
        print()
    return 0


def _cmd_fuzz(args) -> int:
    from .netlist import GateType
    from .verify import (
        FuzzConfig,
        SimulatorOracle,
        buggy_gate_eval,
        default_oracles,
        run_fuzz,
    )

    wanted = args.oracle or ["all"]
    names = None if "all" in wanted else list(dict.fromkeys(wanted))
    try:
        config = FuzzConfig(max_inputs=args.max_inputs,
                            max_gates=args.max_gates)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seeds is None and args.seconds is None:
        args.seeds = 25  # a ~30 s CI-smoke default

    if args.inject:
        # Self-test mode: corrupt the scalar reference semantics of one
        # gate type and demand that the sim oracle catches it and that the
        # shrinker produces a small witness.
        victim = GateType(args.inject)
        impostor = (GateType.OR if victim in (GateType.AND, GateType.NAND)
                    else GateType.AND)
        oracles = [SimulatorOracle(
            gate_eval=buggy_gate_eval(victim, impostor))]
    else:
        oracles = default_oracles(names)

    progress = None if args.quiet else (lambda line: print("  " + line))
    report = run_fuzz(
        oracles=oracles,
        seeds=args.seeds,
        seconds=args.seconds,
        seed_base=args.seed_base,
        config=config,
        artifact_dir=args.artifacts,
        shrink=not args.no_shrink,
        progress=progress,
    )
    print(report.summary())

    if args.inject:
        if report.ok:
            print(f"inject self-test FAILED: mutation of {args.inject!r} "
                  f"was not detected")
            return 1
        worst = max(
            len(f.shrunk_circuit.logic_gates())
            for f in report.findings if f.shrunk_circuit is not None
        )
        print(f"inject self-test OK: {len(report.findings)} violation(s) "
              f"caught, largest shrunk witness {worst} gate(s)")
        return 0 if worst <= 10 else 1
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    from .verify import default_oracles, load_artifact, replay_artifact

    oracles = default_oracles()
    failures = 0
    for path in args.artifacts:
        try:
            artifact = load_artifact(path)
        except (OSError, ValueError, KeyError) as exc:
            failures += 1
            print(f"{path}: unreadable artifact ({exc})")
            continue
        violations = replay_artifact(artifact, oracles)
        if violations:
            failures += 1
            print(f"{path}: STILL FAILING")
            for v in violations:
                print("  " + v.describe())
        else:
            print(f"{path}: ok (does not reproduce)")
    return 1 if failures else 0


def _spec_from_args(args):
    """Build a JobSpec from `submit`'s arguments (suite name or file)."""
    import json as _json

    from .benchcircuits.suite import suite_names
    from .io.json_io import circuit_to_json
    from .service import JobSpec

    if args.circuit in suite_names():
        source = {"circuit": args.circuit}
    else:
        # A netlist file travels inline so the service needs no shared
        # filesystem with the client.
        circuit = _load(args.circuit)
        source = {"netlist": _json.loads(circuit_to_json(circuit))}
    procedure = "procedure2" if args.objective == "gates" else "procedure3"
    return JobSpec(procedure=procedure, k=args.k, seed=args.seed,
                   perm_budget=args.perm_budget, max_passes=args.max_passes,
                   verify_patterns=args.verify, jobs=args.jobs, **source)


def _cmd_serve(args) -> int:
    import signal
    import time

    from .service import (
        ArtifactStore,
        ServiceServer,
        SupervisorConfig,
        TenantRegistry,
    )

    store = ArtifactStore(args.root)
    config = SupervisorConfig(
        max_retries=args.retries,
        heartbeat_timeout=args.heartbeat_timeout,
        memo_root=args.memo,
        memo_url=args.memo_url,
        fabric_workers=tuple(args.fabric_workers),
    )
    if args.tenants:
        try:
            # Validate up front for a clean CLI error; the path is handed
            # to the server too, which hot-reloads edits (rejected
            # reloads keep the old registry).
            TenantRegistry.from_file(args.tenants)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    server = ServiceServer(
        store, host=args.host, port=args.port, config=config,
        max_workers=args.workers, verbose=args.verbose,
        task_workers=args.task_workers,
        queue_limit=args.queue_limit,
        tenants_file=args.tenants or None,
    )
    memo_note = f", memo: {args.memo}" if args.memo else ""
    task_note = (f", task-workers: {args.task_workers}"
                 if args.task_workers else "")
    tenant_note = (f", tenants: {args.tenants}" if args.tenants else "")
    queue_note = (f", queue-limit: {args.queue_limit}"
                  if args.queue_limit else "")
    try:
        server.start()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"repro.service listening on {server.url} "
          f"(store: {store.root}, workers: {args.workers}"
          f"{memo_note}{task_note}{tenant_note}{queue_note})", flush=True)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # A service manager stops the service with SIGTERM: stop as on Ctrl-C,
    # so running jobs go back to the queue and no worker is left behind.
    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_submit(args) -> int:
    import json as _json

    from .service import ServiceAPIError, ServiceClient

    if args.batch is None and args.circuit is None:
        print("error: give a circuit or --batch FILE", file=sys.stderr)
        return 2
    client = ServiceClient(args.url, api_key=args.api_key,
                           backpressure_retries=args.backpressure_retries)
    if args.batch:
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                doc = _json.load(fh)
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"error: cannot read batch file: {exc}", file=sys.stderr)
            return 2
        specs = doc.get("specs") if isinstance(doc, dict) else doc
        if not isinstance(specs, list):
            print("error: batch file must be a JSON list of spec "
                  "documents or {'specs': [...]}", file=sys.stderr)
            return 2
        try:
            rows = client.submit_batch_docs(specs)
        except ServiceAPIError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        created = sum(1 for r in rows if r["created"])
        for row in rows:
            status = "submitted" if row["created"] else "already known"
            print(f"{row['id']}: {status} (state: {row['state']})")
        print(f"batch: {created} new, {len(rows) - created} deduplicated")
        return 0
    spec = _spec_from_args(args)
    try:
        answer = client.submit(spec)
    except ServiceAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "submitted" if answer["created"] else "already known"
    print(f"{answer['id']}: {status} (state: {answer['state']})")
    if not args.wait:
        return 0
    view = client.wait(answer["id"], timeout=args.timeout)
    print(f"{answer['id']}: {view['state']}")
    if view["state"] == "failed":
        print(view.get("error", "unknown failure"), file=sys.stderr)
        return 1
    report = view.get("report", {})
    print(f"gates {report.get('gates_before')}->{report.get('gates_after')} "
          f"paths {report.get('paths_before')}->{report.get('paths_after')} "
          f"({report.get('replacements')} replacements, "
          f"{report.get('passes')} passes, "
          f"{report.get('total_seconds', 0):.2f}s)")
    return 0


def _cmd_jobs(args) -> int:
    from .service import ServiceAPIError, ServiceClient

    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        if args.summary:
            doc = client.jobs_summary()
            print(f"{doc['total']} job(s)")
            for tenant in sorted(doc["tenants"]):
                counts = doc["tenants"][tenant]
                states = ", ".join(
                    f"{state}={counts[state]}"
                    for state in sorted(counts) if state != "total")
                print(f"  {tenant}: {counts['total']} ({states})")
            return 0
        rows = client.jobs(state=args.state, tenant=args.tenant,
                           limit=args.limit)
    except ServiceAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("no jobs")
        return 0
    for row in rows:
        tenant = f" tenant={row['tenant']}" if row.get("tenant") else ""
        print(f"{row['id']}  {row['state']:<10} "
              f"attempts={row['attempts']}{tenant}")
    return 0


def _cmd_result(args) -> int:
    import json as _json

    from .service import ServiceAPIError, ServiceClient

    client = ServiceClient(args.url)
    try:
        view = client.job(args.job_id)
        if view["state"] != "succeeded":
            print(f"{args.job_id}: state is {view['state']}",
                  file=sys.stderr)
            if view.get("traceback"):
                print(view["traceback"], file=sys.stderr)
            return 1
        doc = client.report(args.job_id)
    except ServiceAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.job_id}: gates {doc['gates_before']}->{doc['gates_after']} "
          f"paths {doc['paths_before']}->{doc['paths_after']} "
          f"({doc['replacements']} replacements, {doc['passes']} passes)")
    if args.out:
        if args.out.endswith(".json"):
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(doc, fh, indent=1, sort_keys=True)
        else:
            from .io import save_bench
            from .resynth import report_from_json

            report = report_from_json(_json.dumps(doc))
            save_bench(report.circuit, args.out)
        print(f"wrote {args.out}")
    return 0


DEFAULT_SERVICE_URL = "http://127.0.0.1:8734"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-resynth",
        description="Comparison-unit synthesis-for-testability toolkit "
                    "(Pomeranz & Reddy, DAC 1995 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="circuit statistics")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("resynth", help="run Procedure 2 or 3")
    p.add_argument("circuit")
    p.add_argument("--objective", choices=("gates", "paths"),
                   default="gates")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for candidate evaluation: "
                        "N > 1 without --fabric means a process fabric "
                        "(default 1 = inline; results are identical)")
    p.add_argument("--out")
    p.add_argument("--verify", type=int, default=512)
    p.add_argument("--trace", metavar="FILE",
                   help="record a JSONL span trace of the run "
                        "(summarize with the 'trace' subcommand)")
    p.add_argument("--memo", metavar="DIR",
                   help="persistent identification cache directory "
                        "(shared across runs; results are identical, "
                        "see docs/MEMO.md)")
    p.add_argument("--memo-url", metavar="URL", default=None,
                   help="identification memo served by a running service "
                        "(overrides --memo; docs/MEMO.md)")
    p.add_argument("--fabric", choices=("serial", "process", "remote"),
                   default=None,
                   help="task-execution backend for candidate evaluation "
                        "(default: process pool when --jobs > 1, else "
                        "inline; results are identical on every backend, "
                        "see docs/FABRIC.md)")
    p.add_argument("--workers", metavar="URL", action="append", default=[],
                   help="remote fabric worker URL (repeatable; requires "
                        "--fabric remote; targets must run "
                        "'serve --task-workers N')")
    p.set_defaults(func=_cmd_resynth)

    p = sub.add_parser("sweep",
                       help="run a parameter-sweep grid and report its "
                            "Pareto front (docs/SWEEP.md)")
    p.add_argument("--grid", required=True, metavar="FILE",
                   help="sweep grid JSON (format repro-sweepspec)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="sweep directory (default "
                        ".repro-sweep/<sweep_id>)")
    p.add_argument("--fabric", choices=("serial", "process", "remote"),
                   default="serial",
                   help="cell-execution backend (results are identical "
                        "on every backend; docs/SWEEP.md)")
    p.add_argument("--jobs", type=int, default=2,
                   help="process-fabric worker count (--fabric process)")
    p.add_argument("--workers", metavar="URL", action="append", default=[],
                   help="remote fabric worker URL (repeatable; requires "
                        "--fabric remote)")
    p.add_argument("--memo", metavar="DIR", default=None,
                   help="persistent identification cache handed to every "
                        "cell (wall clock only; docs/MEMO.md)")
    p.add_argument("--resume", action="store_true",
                   help="keep intact stored cell reports and run only "
                        "the unfinished cells")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace",
                       help="summarize a JSONL trace written by "
                            "'resynth --trace' (docs/OBSERVABILITY.md)")
    p.add_argument("file", help="trace file (.jsonl)")
    p.add_argument("--top", type=int, default=10,
                   help="how many top spans by wall time to list "
                        "(0 = none)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("identify", help="comparison-function check for a net")
    p.add_argument("circuit")
    p.add_argument("net")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument("numbers", nargs="*", type=int)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("fuzz", help="differential fuzzing of the engines")
    p.add_argument("--seeds", type=int, default=None,
                   help="number of seeds to run")
    p.add_argument("--seconds", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--oracle", action="append",
                   choices=("sim", "fault", "resynth", "unit",
                            "incremental", "execution", "all"),
                   default=None,
                   help="oracle to run (repeatable; default all)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--artifacts", default=None,
                   help="directory for JSON repro artifacts")
    p.add_argument("--max-inputs", type=int, default=8)
    p.add_argument("--max-gates", type=int, default=30)
    p.add_argument("--no-shrink", action="store_true",
                   help="skip counterexample shrinking")
    p.add_argument("--inject", default=None,
                   choices=("and", "nand", "or", "nor", "xor", "xnor"),
                   help="self-test: corrupt this gate type's reference "
                        "semantics and require detection")
    p.add_argument("--quiet", "-q", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("replay", help="re-run saved fuzz repro artifacts")
    p.add_argument("artifacts", nargs="+")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("serve",
                       help="run the resynthesis job service "
                            "(docs/SERVICE.md)")
    p.add_argument("--root", default=".repro-service",
                   help="artifact store directory (default .repro-service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8734,
                   help="listen port (0 = ephemeral, printed at startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job workers")
    p.add_argument("--retries", type=int, default=2,
                   help="worker retries per job (resume from checkpoint)")
    p.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   help="seconds of worker silence before the kill")
    p.add_argument("--memo", metavar="DIR", default=None,
                   help="shared persistent identification cache served "
                        "to every worker (opt-in; docs/MEMO.md; also "
                        "enables the GET/PUT /memo routes)")
    p.add_argument("--memo-url", metavar="URL", default=None,
                   help="point this service's job workers at another "
                        "service's /memo routes instead of a directory")
    p.add_argument("--task-workers", type=int, default=0, metavar="N",
                   help="enable POST /tasks with N-way task execution "
                        "(0 = disabled; 1 = inline; >1 = process pool), "
                        "making this service a remote-fabric worker "
                        "(docs/FABRIC.md)")
    p.add_argument("--fabric-worker", metavar="URL", action="append",
                   default=[], dest="fabric_workers",
                   help="remote fabric worker URL handed to every job "
                        "worker (repeatable): jobs fan their candidate "
                        "evaluation out to these /tasks endpoints")
    p.add_argument("--tenants", metavar="FILE", default=None,
                   help="tenants JSON file enabling API-key auth, "
                        "per-tenant quotas and priorities "
                        "(docs/OPERATIONS.md)")
    p.add_argument("--queue-limit", type=int, default=0, metavar="N",
                   help="bound the admission queue at N jobs; beyond it "
                        "submits get 429 + Retry-After (0 = unbounded)")
    p.add_argument("--verbose", action="store_true",
                   help="log HTTP requests")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("circuit", nargs="?", default=None,
                   help="suite name or netlist file (omit with --batch)")
    p.add_argument("--batch", metavar="FILE", default=None,
                   help="submit many jobs atomically: FILE is a JSON "
                        "list of spec documents (or {'specs': [...]})")
    p.add_argument("--api-key", default=None,
                   help="tenant API key (sent as a Bearer token)")
    p.add_argument("--backpressure-retries", type=int, default=0,
                   metavar="N",
                   help="retry a 429-rejected submit up to N times, "
                        "sleeping the server's Retry-After between tries")
    p.add_argument("--url", default=DEFAULT_SERVICE_URL)
    p.add_argument("--objective", choices=("gates", "paths"),
                   default="gates")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perm-budget", type=int, default=200)
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--verify", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="--wait budget in seconds")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("jobs", help="list jobs of a running service")
    p.add_argument("--url", default=DEFAULT_SERVICE_URL)
    p.add_argument("--state", default=None,
                   choices=("queued", "running", "succeeded", "failed"),
                   help="only jobs in this state")
    p.add_argument("--tenant", default=None,
                   help="only jobs submitted by this tenant")
    p.add_argument("--limit", type=int, default=None,
                   help="at most this many rows")
    p.add_argument("--api-key", default=None,
                   help="tenant API key (sent as a Bearer token)")
    p.add_argument("--summary", action="store_true",
                   help="per-tenant x per-state counts instead of rows "
                        "(GET /jobs/summary)")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser("result", help="fetch a finished job's report")
    p.add_argument("job_id")
    p.add_argument("--url", default=DEFAULT_SERVICE_URL)
    p.add_argument("--out",
                   help="write the report (.json) or netlist (.bench)")
    p.set_defaults(func=_cmd_result)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
