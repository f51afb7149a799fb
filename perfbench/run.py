"""The repository's benchmark: one command, every metric, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-k6 --seed 1 --seconds 30 --trace 0

Workloads: ``suite-k6``, ``scale-k4``, ``service-jobs``, ``remote-k5``
(``README.md`` says why each exists).  Every round of a workload runs in
a fresh process (``round.py``), two rounds side by side.  With
``--trace 0`` the command runs set-up-only rounds, then timed rounds
back to back in each lane while the next one fits in ``--seconds`` (at
least one per lane), and
reports the end-to-end metrics listed in ``BENCHMARK.json``: medians over
rounds for times, the unit-wise ratios of the reports, and the highest
RSS.  With ``--trace 1`` it runs one untraced and one traced round side
by side and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it show every number by name.  The command exits 1 when any unit fails
its output check, and 2 without a result when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUND = os.path.join(HERE, "round.py")

WORKLOADS = ("suite-k6", "scale-k4", "service-jobs", "remote-k5")

#: Rounds run side by side.  Each workload keeps about one CPU busy, so
#: on a two-CPU host two rounds sample both CPUs' speed in every run.
LANES = 2

#: A lane starts another round only if this many times its last round's
#: duration still fits before the deadline; rounds vary by about 15%.
FIT_MARGIN = 1.2

#: Rounds still running this many seconds after the command started are
#: killed and counted as failed, so the command ends within 180 s.
HARD_LIMIT = 160.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Round:
    """One spawned ``round.py`` process and, once finished, its result."""

    def __init__(self, args, mode: str, index: int, env) -> None:
        self.mode = mode
        self.dir = os.path.join(args.workdir, f"{mode}{index}")
        os.makedirs(self.dir)
        self.out = os.path.join(self.dir, "result.json")
        self.log = open(os.path.join(self.dir, "log.txt"), "wb")
        self.started = clock()
        self.proc = subprocess.Popen(
            [sys.executable, ROUND, "--workload", args.workload,
             "--seed", str(args.seed), "--mode", mode,
             "--t0", repr(self.started), "--workdir", self.dir,
             "--out", self.out],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True)
        self.doc: Optional[dict] = None
        self.failure: Optional[str] = None

    def finish(self) -> None:
        """Collect the result; kill the round if it is still running."""
        code = self.proc.poll()
        # The round's children (service workers, pool processes) share its
        # session: stop whatever is left of it, then reap the round.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()
        self.elapsed = clock() - self.started
        if code == 0 and os.path.exists(self.out):
            with open(self.out, "r", encoding="utf-8") as fh:
                self.doc = json.load(fh)
            return
        with open(self.log.name, "r", encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-2000:]
        self.failure = (f"{self.mode} round exited {code}"
                        + (f":\n{tail}" if tail else ""))


def run_lanes(args, env, modes: List[str], counter: List[int],
              deadline: Optional[float] = None) -> List[Round]:
    """Run one round per entry of *modes*, side by side.

    With a *deadline*, a lane whose round succeeded starts another timed
    round while that round's duration still fits before the deadline.
    """
    def spawn(mode: str) -> Round:
        counter[0] += 1
        return Round(args, mode, counter[0], env)

    active = [spawn(mode) for mode in modes]
    done: List[Round] = []
    try:
        while active:
            time.sleep(0.05)
            for r in list(active):
                if r.proc.poll() is None and clock() < args.hard_deadline:
                    continue
                r.finish()
                active.remove(r)
                done.append(r)
                healthy = all(x.doc is not None for x in done)
                if deadline is not None and healthy and \
                        clock() + FIT_MARGIN * r.elapsed <= deadline:
                    active.append(spawn("time"))
    finally:
        for r in active:  # only after an interruption
            r.finish()
    return done


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def unit_key(doc: dict) -> list:
    return sorted((u["label"], sorted(u["numbers"].items()))
                  for u in doc["units"])


def summarize(rounds: List[Round]):
    """Attempted and failed units plus the reasons, over all rounds.

    Units fail on an exception, a failed job, an output-check mismatch or
    a mismatch with ``expected.json``; a round whose units differ from
    the first round's (drift within one seed) fails as a whole.
    """
    attempted, failed, problems = 0, 0, []
    reference = None
    for r in rounds:
        if r.doc is None:
            attempted, failed = attempted + 1, failed + 1
            problems.append(r.failure)
            continue
        if r.mode == "setup":
            continue
        units = r.doc["units"]
        attempted += max(1, len(units))
        if r.doc.get("error"):
            failed += max(1, len(units))
            problems.append(f"{r.mode} round: {r.doc['error']}")
            continue
        bad = [u for u in units if u["problem"]]
        failed += len(bad)
        problems += [f"{u['label']}: {u['problem']}" for u in bad]
        if reference is None:
            reference = unit_key(r.doc)
        elif unit_key(r.doc) != reference:
            failed += len(units) - len(bad)
            problems.append(f"{r.mode} round drifted from the first round's "
                            "report numbers")
    return attempted, failed, problems


def ratios(rounds: List[Round]) -> Dict[str, float]:
    docs = [r.doc for r in rounds if r.doc and r.doc.get("units")]
    units = [u["numbers"] for u in docs[0]["units"]] if docs else []
    if not units:
        return {"gates_ratio": 1.0, "paths_ratio": 1.0}
    return {
        "gates_ratio": geomean([u["gates_after"] / u["gates_before"]
                                for u in units]),
        "paths_ratio": geomean([u["paths_after"] / u["paths_before"]
                                for u in units]),
    }


def timed_run(args, env, bench: dict):
    start = clock()
    counter = [0]
    # Set-up-only rounds first, so ``setup_s`` is a median over these and
    # every timed round's own set-up.
    rounds = run_lanes(args, env, ["setup"] * LANES, counter)
    if all(r.doc is not None for r in rounds):
        rounds += run_lanes(args, env, ["time"] * LANES, counter,
                            deadline=start + args.seconds)
    timed = [r.doc for r in rounds if r.mode == "time" and r.doc]
    setups = [r.doc["setup_s"] for r in rounds if r.doc]
    metrics = {}
    if timed:
        metrics = {
            "wall_s": statistics.median(d["wall_s"] for d in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.doc["peak_rss_mb"] for r in rounds
                               if r.doc),
            **ratios(rounds),
        }
    calib = [c for d in timed for c in d["calib_ms"]]
    notes = {
        "rounds": len(timed),
        "round_wall_s": [round(d["wall_s"], 3) for d in timed],
        "setup_samples_s": [round(s, 3) for s in setups],
        "host.calib_ms": statistics.median(calib) if calib else None,
        "calib_samples_ms": [round(c, 1) for c in calib],
    }
    return rounds, metrics, notes, bench["end_to_end"]


def traced_run(args, env, bench: dict):
    rounds = run_lanes(args, env, ["time", "trace"], [0])
    docs = {r.mode: r.doc for r in rounds if r.doc}
    metrics: Dict[str, float] = {}
    if len(docs) == 2:
        metrics = dict(docs["trace"].get("layers", {}))
        calib = docs["time"]["calib_ms"] + docs["trace"]["calib_ms"]
        metrics["host.calib_ms"] = statistics.median(calib)
        metrics["trace.overhead_ratio"] = (docs["trace"]["wall_s"]
                                           / docs["time"]["wall_s"])
        traced = next(r for r in rounds if r.mode == "trace")
        ledger = os.path.join(traced.dir, "ledger.jsonl")
        if os.path.exists(ledger):
            keep = os.path.join(os.path.dirname(args.workdir),
                                f"ledger-{args.workload}-seed{args.seed}"
                                ".jsonl")
            shutil.copyfile(ledger, keep)
    notes = {"untraced_wall_s": docs.get("time", {}).get("wall_s"),
             "traced_wall_s": docs.get("trace", {}).get("wall_s")}
    return rounds, metrics, notes, bench["per_layer"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.hard_deadline = clock() + HARD_LIMIT

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)

    args.workdir = os.path.join(ROOT, ".perfbench",
                                f"{args.workload}-seed{args.seed}"
                                f"-{os.getpid()}")
    os.makedirs(args.workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    try:
        run = traced_run if args.trace else timed_run
        rounds, values, notes, catalogue = run(args, env, bench)
        attempted, failed, problems = summarize(rounds)
        first = next((r.doc for r in rounds
                      if r.doc and r.doc.get("units")), None)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}")
    if first is not None:
        for unit in first["units"]:
            print("unit " + json.dumps({"label": unit["label"],
                                        **unit["numbers"]},
                                       sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    metrics = {}
    for entry in catalogue:
        value = values.get(entry["name"])
        if value is None:
            # Layers a workload does not exercise read zero; a missing
            # end-to-end metric means the run produced no timed round.
            if catalogue is bench["end_to_end"]:
                failed = max(failed, 1)
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:32s} {value:>16.6g} {entry['unit']}")
    correct = failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
