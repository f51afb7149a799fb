"""One round of a workload, in a fresh process.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/round.py --workload NAME --seed N --mode MODE \\
        --t0 T --workdir DIR --out FILE

``MODE`` is ``setup`` (set up, tear down, report ``setup_s``), ``time``
(one untraced timed section) or ``trace`` (one timed section with the
:mod:`ledger` installed).  ``T`` is the spawning process's
``CLOCK_MONOTONIC`` reading, so ``setup_s`` starts at process start.
The result is one JSON document written to ``FILE``.

Each round is a fresh process because CLI and service users fill the
process-wide caches (identification, truth tables, unit costs) on every
run; a round must pay for that too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402  (needs the program's sources on the path)
from ledger import Ledger, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return 1000 * (time.perf_counter() - start)


def peak_rss_mb() -> float:
    """Highest RSS of this process and of its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    doc = {"setup_s": clock() - args.t0}
    try:
        if args.mode != "setup":
            doc.update(timed_section(workload, args))
    finally:
        workload.teardown()
    doc["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return 0


def timed_section(workload, args) -> dict:
    calib_before = calibrate()
    ledger = None
    if args.mode == "trace":
        ledger = Ledger(meta={"workload": args.workload, "seed": args.seed})
        install(ledger, workload)
    start = clock()
    error = None
    try:
        units = workload.run()
    except Exception as exc:  # the whole timed section failed
        units, error = [], f"{type(exc).__name__}: {exc}"
    wall_s = clock() - start
    if ledger is not None:
        ledger.uninstall()
    calib_after = calibrate()

    checker = check.Checker(args.seed)
    rows = []
    for unit in units:
        problem = checker.check_unit(unit) or check.guard(
            args.workload, args.seed, unit.label, unit.numbers)
        rows.append({"label": unit.label, "numbers": unit.numbers,
                     "problem": problem})
    doc = {"wall_s": wall_s, "calib_ms": [calib_before, calib_after],
           "units": rows, "error": error}
    if ledger is not None:
        layers = workload.layer_metrics(units, wall_s) if units else {}
        doc["layers"] = ledger_layers(ledger, units, wall_s, layers)
        ledger.write_jsonl(
            os.path.join(args.workdir, "ledger.jsonl"),
            {"workload": args.workload, "seed": args.seed,
             "wall_s": wall_s, "layers": doc["layers"]})
    return doc


def ledger_layers(ledger, units, wall_s: float, measured: dict) -> dict:
    """Per-layer metrics from the ledger's accumulators and the reports."""
    totals = ledger.totals()
    counts = ledger.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    layers = {
        "comparison.search_calls": calls("comparison.search"),
        "comparison.search_s": self_s("comparison.search"),
        "comparison.perms_tried": counts.get("comparison.perms_tried", 0),
        "comparison.identify_calls": calls("comparison.identify"),
        "comparison.identify_s": self_s("comparison.identify"),
        "comparison.cache_hit_ratio": ratio(
            calls("comparison.identify") - calls("comparison.search"),
            calls("comparison.identify")),
        "comparison.found_ratio": ratio(counts.get("comparison.found", 0),
                                        calls("comparison.identify")),
        "comparison.price_calls": calls("comparison.price"),
        "comparison.price_s": self_s("comparison.price"),
        "comparison.emit_s": self_s("comparison.emit"),
        "sim.signature_calls": calls("sim.signature"),
        "sim.signature_s": self_s("sim.signature"),
        "sim.truth_table_calls": calls("sim.truth_table"),
        "sim.truth_table_s": self_s("sim.truth_table"),
        "sim.tt_hit_ratio": ratio(
            calls("sim.signature") - calls("sim.truth_table"),
            calls("sim.signature")),
        "sim.verify_s": self_s("sim.verify"),
        "analysis.labels_calls": calls("analysis.labels"),
        "analysis.labels_s": self_s("analysis.labels"),
        "analysis.initial_labels_s": self_s("analysis.initial_labels"),
        "analysis.removable_s": self_s("analysis.removable"),
        "resynth.passes": sum(u.numbers.get("passes", 0) for u in units),
        "resynth.sites": calls("resynth.enumerate"),
        "resynth.cones": counts.get("resynth.cones", 0),
        "resynth.enumerate_s": self_s("resynth.enumerate"),
        "resynth.evaluate_s": self_s("resynth.evaluate"),
        "resynth.option_ratio": ratio(counts.get("resynth.options", 0),
                                      calls("resynth.evaluate")),
        "resynth.replacements": sum(u.numbers.get("replacements", 0)
                                    for u in units),
        "resynth.replace_s": self_s("resynth.replace"),
        "resynth.paths_on_s": self_s("resynth.paths_on"),
        "resynth.pass_self_s": self_s("resynth.pass"),
        "netlist.mutations": sum(u.numbers.get("mutations", 0)
                                 for u in units),
        "netlist.topo_s": self_s("netlist.topo"),
        "netlist.decompose_s": self_s("netlist.decompose"),
        "parallel.prime_calls": calls("parallel.prime"),
        "parallel.prime_s": self_s("parallel.prime"),
        "parallel.prime_share": ratio(
            totals.get("parallel.prime", {}).get("incl_s", 0.0), wall_s),
        "fabric.maps": calls("fabric.map"),
        "fabric.tasks": counts.get("fabric.tasks", 0),
        "fabric.map_s": self_s("fabric.map"),
        "fabric.encode_s": self_s("fabric.encode"),
        "fabric.decode_s": self_s("fabric.decode"),
        "fabric.server_run_s": self_s("fabric.server_run"),
    }
    layers["fabric.transport_s"] = max(0.0, layers["fabric.map_s"] - (
        layers["fabric.encode_s"] + layers["fabric.decode_s"]
        + layers["fabric.server_run_s"]))
    # Attributed time: self seconds of the named frames on the thread
    # that runs the units.  Helper threads (fabric pullers, the server's
    # loop) work inside a main-thread frame, so counting them would count
    # their seconds twice.  A unit's own self time is the unnamed rest of
    # a procedure call, so it is left out.
    attributed = sum(row["main_self_s"] for name, row in totals.items()
                     if name != "resynth.unit")
    layers["trace.coverage"] = ratio(attributed, wall_s)
    layers.update(measured)
    return layers


if __name__ == "__main__":
    sys.exit(main())
