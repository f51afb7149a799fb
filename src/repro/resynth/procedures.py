"""Procedures 2 and 3 (Section 4) and the combined measure (Section 4.3).

Both procedures sweep the circuit from primary outputs toward primary
inputs.  Marked gate-outputs get a candidate-subcircuit enumeration (up to
``K`` inputs); candidates realizing comparison functions are priced and the
best replacement is applied:

* **Procedure 2** maximizes the gate reduction ``N - N'`` with the number
  of paths on the line as the tiebreak; a replacement is applied when it
  strictly improves ``(gates, paths)`` lexicographically, so the gate count
  never increases.
* **Procedure 3** minimizes the number of paths on the line, accepting
  gate-count increases (as Table 5 shows the paper does).
* **The combined measure** (Section 4.3) maximizes
  ``gate_weight * (N - N') + (paths_now - paths_after)``, exposing the
  in-between points of the solution space.

Each procedure repeats whole passes until a pass makes no change (the
paper: "applied repeatedly until no more improvements are possible").

With a ``fabric`` the expensive per-candidate work of each pass — truth
tables and comparison-function identification — is fanned out over it
before the sweep runs (:mod:`repro.parallel`), while every replacement
decision and commit stays in this module, in serial order, against the
:class:`~repro.analysis.AnalysisSession`'s current labels.  Reports are
bit-identical with or without one; see ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis import AnalysisSession
from ..netlist import (
    Circuit,
    GateType,
    decompose_two_input,
    two_input_gate_count,
)
from ..obs import Registry, get_registry, maybe_tracer, null_tracer
from ..sim import outputs_equal, random_words
from .candidates import enumerate_candidate_cones
from .replace import (
    DEFAULT_MAX_SPECS,
    ReplacementOption,
    apply_replacement,
    current_paths_on,
    evaluate_cone,
)


@dataclass
class ResynthesisReport:
    """Result of running a resynthesis procedure.

    All fields except ``jobs`` and the wall-clock ``timings`` mapping
    are deterministic: bit-identical on any fabric and across
    checkpoint/resume (see docs/PARALLEL.md and docs/SERVICE.md).
    Determinism comparisons must therefore use
    :data:`REPORT_NUMBER_FIELDS`, never the timing fields.

    ``timings`` is the structured wall-clock account of the run.  Always
    present: ``pass_seconds`` (list, one entry per pass, resumed passes
    included) and ``total_seconds`` (whole-run wall clock).  Runs add
    stage keys as they apply: ``setup_seconds`` (decompose + initial
    path labels of this process's portion), ``verify_seconds`` (per-pass
    inline verification, when ``verify_patterns`` is on) and
    ``prime_seconds`` (per-pass parallel cache priming, when a fabric
    is given).  The historical ``pass_seconds``/``total_seconds``
    attributes remain as derived read-only properties.
    """

    circuit: Circuit
    objective: str
    k: int
    passes: int
    replacements: int
    gates_before: int
    gates_after: int
    paths_before: int
    paths_after: int
    mutations: int = 0  # circuit mutation events observed during the run
    jobs: int = 1  # parallelism of the candidate-evaluation fabric
    timings: Dict[str, object] = field(default_factory=dict)

    @property
    def pass_seconds(self) -> List[float]:
        """Wall clock of each pass (derived from ``timings``)."""
        return self.timings.get("pass_seconds", [])

    @property
    def total_seconds(self) -> float:
        """Whole-run wall clock, resumes included (from ``timings``)."""
        return float(self.timings.get("total_seconds", 0.0))

    @property
    def gate_reduction(self) -> int:
        """Equivalent-2-input gates removed."""
        return self.gates_before - self.gates_after

    @property
    def path_reduction(self) -> int:
        """Paths removed."""
        return self.paths_before - self.paths_after

    def summary(self) -> str:
        """One-line report string."""
        return (
            f"{self.circuit.name}: {self.objective} K={self.k} "
            f"gates {self.gates_before}->{self.gates_after} "
            f"paths {self.paths_before}->{self.paths_after} "
            f"({self.replacements} replacements, {self.passes} passes)"
        )

    def timing_summary(self) -> str:
        """One-line wall-clock breakdown by pass."""
        per_pass = ", ".join(f"{s:.2f}s" for s in self.pass_seconds)
        return (
            f"timing: {self.total_seconds:.2f}s total, "
            f"passes [{per_pass}]"
        )


#: Deterministic report fields: equal on every fabric and across
#: checkpoint/resume.  Oracles and benchmarks compare exactly these.
REPORT_NUMBER_FIELDS = (
    "objective", "k", "passes", "replacements", "gates_before",
    "gates_after", "paths_before", "paths_after", "mutations",
)


@dataclass
class PassCheckpoint:
    """Cross-pass sweep state at a pass boundary.

    Captures everything :func:`_run` carries from one pass to the next,
    so a run resumed from a checkpoint produces a report and a result
    netlist bit-identical to the uninterrupted run (the resume legs of
    the ``execution`` differential oracle in
    :mod:`repro.verify.execution` fuzz exactly that contract; docs/SERVICE.md documents it).

    No RNG state needs snapshotting: every random stream of the sweep —
    identification permutation sampling and the inline verification
    patterns — is freshly derived from ``(seed, pass_no)`` at each pass,
    so the seed and the pass counter *are* the RNG state.  The circuit
    copy carries its fresh-net counters, and in-sweep net naming
    (:class:`repro.comparison.unit._Namer`) probes current net membership
    only, so serialized round-trips of the checkpoint stay faithful.
    """

    objective: str
    k: int
    seed: int
    pass_no: int  # passes completed so far (1-based)
    circuit: Circuit  # working circuit after pass ``pass_no`` (a copy)
    replacements: int  # cumulative replacements over all passes so far
    mutations: int  # cumulative circuit mutation events
    gates_before: int  # of the decomposed start circuit
    paths_before: int
    gates_now: int
    paths_now: int
    pass_seconds: List[float]  # wall clock of every completed pass
    done: bool  # the sweep converged (or hit max_passes) at this pass


#: Progress hook: called at every pass boundary with a fresh checkpoint.
PassHook = Callable[[PassCheckpoint], None]


class ResumeMismatchError(ValueError):
    """A checkpoint was replayed against incompatible run parameters."""


# A selector maps (options, current_paths) -> chosen option or None.
Selector = Callable[[List[ReplacementOption], int], Optional[ReplacementOption]]


def _select_for_gates(
    options: List[ReplacementOption], current_paths: int
) -> Optional[ReplacementOption]:
    """Procedure 2 selection: max gate gain, then min paths on the line."""
    if not options:
        return None
    best = min(
        options,
        key=lambda o: (-o.gate_gain, o.paths_on_output, o.cone.n_gates),
    )
    if best.gate_gain > 0:
        return best
    if best.gate_gain == 0 and best.paths_on_output < current_paths:
        return best
    return None


def _select_for_paths(
    options: List[ReplacementOption], current_paths: int
) -> Optional[ReplacementOption]:
    """Procedure 3 selection: min paths on the line (gates unconstrained)."""
    if not options:
        return None
    best = min(
        options,
        key=lambda o: (o.paths_on_output, -o.gate_gain, o.cone.n_gates),
    )
    if best.paths_on_output < current_paths:
        return best
    return None


def _make_combined_selector(gate_weight: float) -> Selector:
    """Section 4.3's combined measure selector."""

    def select(
        options: List[ReplacementOption], current_paths: int
    ) -> Optional[ReplacementOption]:
        if not options:
            return None

        def measure(o: ReplacementOption) -> float:
            return gate_weight * o.gate_gain + (
                current_paths - o.paths_on_output
            )

        best = max(options, key=lambda o: (measure(o), o.gate_gain))
        if measure(best) > 0:
            return best
        return None

    return select


def _resynthesis_pass(
    work: Circuit,
    selector: Selector,
    k: int,
    perm_budget: int,
    seed: int,
    exact: bool = False,
    session: Optional[AnalysisSession] = None,
    evaluator: Optional["ParallelEvaluator"] = None,
    tracer=null_tracer,
    registry: Optional[Registry] = None,
) -> int:
    """One outputs-to-inputs sweep; returns the number of replacements.

    Every selection site is priced against the session's *current* path
    labels (maintained incrementally across replacements), not against a
    pass-start snapshot — earlier replacements in the same pass are
    reflected immediately.

    When an *evaluator* is given, the pass-start candidate cones are
    evaluated on its fabric first (:mod:`repro.parallel`); the sweep
    below then mostly hits the warmed caches.  Cones that only come into
    existence mid-pass miss the caches and are evaluated inline, exactly
    as in a serial run, so the selected replacements are identical.

    *tracer* emits one ``candidate`` span per selection site with
    ``extract`` / ``identify`` / ``replace`` children; *registry*
    receives the accepted/rejected counters and the gate/path-delta
    histograms.  Neither can influence a decision — with the default
    null tracer the instrumentation is a no-op.
    """
    own_session = session is None
    if own_session:
        session = AnalysisSession(work)
    memo = session.memo
    if registry is None:
        registry = get_registry()
    accepted = registry.get_counter(
        "resynth_candidates_accepted_total",
        "selection sites where a replacement was applied")
    rejected = registry.get_counter(
        "resynth_candidates_rejected_total",
        "selection sites where no candidate improved the objective")
    gate_delta = registry.get_histogram(
        "resynth_gate_delta",
        "equivalent-2-input gates removed per applied replacement",
        buckets=(-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0))
    path_delta = registry.get_histogram(
        "resynth_path_delta",
        "paths removed from the line per applied replacement",
        buckets=(0.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8))
    if evaluator is not None:
        evaluator.prime_pass(
            work, session, k=k, perm_budget=perm_budget, seed=seed,
            max_specs=DEFAULT_MAX_SPECS,
        )
    snapshot = work.topological_order()
    marked: Set[str] = {
        o for o in work.output_set
        if work.gate(o).gtype not in (GateType.INPUT, GateType.CONST0,
                                      GateType.CONST1)
    }
    frozen: Set[str] = set()
    replacements = 0

    def mark(nets) -> None:
        for n in nets:
            if work.has_net(n) and work.gate(n).gtype not in (
                GateType.INPUT, GateType.CONST0, GateType.CONST1
            ):
                marked.add(n)

    try:
        for net in reversed(snapshot):
            if net not in marked or not work.has_net(net):
                continue
            gate = work.gate(net)
            if gate.gtype in (GateType.INPUT, GateType.CONST0,
                              GateType.CONST1):
                continue
            labels = session.labels()  # current after earlier replacements
            with tracer.span("candidate", net=net) as csp:
                with tracer.span("extract"):
                    cones = enumerate_candidate_cones(work, net, k, frozen)
                options = []
                with tracer.span("identify", cones=len(cones)):
                    for cone in cones:
                        option = evaluate_cone(
                            work, cone, labels, perm_budget=perm_budget,
                            seed=seed, exact=exact,
                            tt_cache=session.truth_tables, memo=memo,
                        )
                        if option is not None:
                            options.append(option)
                paths_now = current_paths_on(work, net, labels)
                chosen = selector(options, paths_now)
                if chosen is None:
                    rejected.inc()
                    mark(gate.fanins)
                    continue
                with tracer.span("replace"):
                    created = apply_replacement(work, chosen)
                frozen.update(created)
                mark(chosen.cone.inputs)
                replacements += 1
                accepted.inc()
                gate_delta.observe(chosen.gate_gain)
                path_delta.observe(paths_now - chosen.paths_on_output)
                csp.annotate(gate_gain=chosen.gate_gain,
                             path_delta=paths_now - chosen.paths_on_output)
    finally:
        if own_session:
            session.close()
    return replacements


def _check_resume(resume: PassCheckpoint, objective: str, k: int,
                  seed: int) -> None:
    """Reject checkpoints replayed against incompatible parameters."""
    for name, now in (("objective", objective), ("k", k), ("seed", seed)):
        then = getattr(resume, name)
        if then != now:
            raise ResumeMismatchError(
                f"checkpoint was taken with {name}={then!r}, "
                f"cannot resume with {name}={now!r}"
            )


def _run(
    circuit: Circuit,
    selector: Selector,
    objective: str,
    k: int,
    perm_budget: int,
    seed: int,
    max_passes: int,
    verify_patterns: int,
    decompose: bool = True,
    exact: bool = False,
    on_pass: Optional[PassHook] = None,
    resume: Optional[PassCheckpoint] = None,
    tracer=None,
    registry: Optional[Registry] = None,
    memo=None,
    fabric=None,
) -> ResynthesisReport:
    tracer = maybe_tracer(tracer)
    if registry is None:
        registry = get_registry()
    if isinstance(memo, str):
        # Convenience: a path opens a store with the run's registry.
        from ..memo import MemoStore

        memo = MemoStore(memo, registry=registry)
    evaluator = None
    jobs = 1
    if fabric is not None:
        # A fabric always primes, whatever its parallelism: the caller
        # chose where candidate evaluation runs (repro.parallel imports
        # from repro.resynth, so the import is lazy to stay acyclic).
        from ..parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(fabric, tracer=tracer,
                                      registry=registry)
        jobs = fabric.parallelism
    registry.inc("resynth_runs_total")
    run_start = time.perf_counter()
    run_span = tracer.span("run", circuit=circuit.name, objective=objective,
                           k=k, jobs=jobs, resumed=resume is not None)
    with run_span:
        setup_start = time.perf_counter()
        with tracer.span("setup"):
            if resume is not None:
                _check_resume(resume, objective, k, seed)
                # Continue exactly where the checkpoint left off: the
                # working circuit (already decomposed at the original
                # run's start) with its fresh-net counters, the pass
                # counter, and the accumulated report numbers.  Caches
                # (truth tables, identification) rebuild on demand —
                # they hold pure functions, so warm or cold they cannot
                # change any decision (the repro.parallel argument).
                work = resume.circuit.copy()
                gates_before = resume.gates_before
                paths_before = resume.paths_before
                total_replacements = resume.replacements
                mutations_prior = resume.mutations
                passes = resume.pass_no
                pass_seconds = list(resume.pass_seconds)
                seconds_prior = sum(pass_seconds)
                done = resume.done
            else:
                # Wide gates are split into 2-input trees first
                # (metric-neutral; see decompose_two_input) so candidate
                # growth can tunnel through them.
                work = (decompose_two_input(circuit) if decompose
                        else circuit.copy())
                gates_before = two_input_gate_count(work)
                total_replacements = 0
                mutations_prior = 0
                passes = 0
                pass_seconds = []
                seconds_prior = 0.0
                done = False
            epoch_base = work.epoch
            session = AnalysisSession(work, registry=registry, memo=memo)
        verify_seconds: List[float] = []
        try:
            with tracer.span("setup.labels"):
                paths_before = (session.total_paths() if resume is None
                                else paths_before)
            setup_seconds = time.perf_counter() - setup_start
            pass_hist = registry.get_histogram(
                "resynth_pass_seconds", "wall clock of one sweep pass")
            while not done and passes < max_passes:
                passes += 1
                tt = session.truth_tables
                hits0, misses0 = tt.hits, tt.misses
                pass_start = time.perf_counter()
                with tracer.span("pass", pass_no=passes) as pspan:
                    made = _resynthesis_pass(
                        work, selector, k, perm_budget, seed + passes,
                        exact, session=session, evaluator=evaluator,
                        tracer=tracer, registry=registry,
                    )
                    pspan.annotate(replacements=made,
                                   tt_hits=tt.hits - hits0,
                                   tt_misses=tt.misses - misses0)
                pass_wall = time.perf_counter() - pass_start
                pass_seconds.append(pass_wall)
                pass_hist.observe(pass_wall)
                registry.inc("resynth_passes_total")
                registry.inc("resynth_replacements_total", made)
                total_replacements += made
                if verify_patterns:
                    # Seeded per (seed, passes): each pass re-verifies
                    # against fresh patterns instead of re-checking the
                    # same ones.
                    verify_start = time.perf_counter()
                    with tracer.span("verify", pass_no=passes,
                                     patterns=verify_patterns):
                        rng = random.Random((seed << 20)
                                            ^ (passes * 0x9E3779B9)
                                            ^ 0x5EED)
                        words = random_words(circuit.inputs,
                                             verify_patterns, rng)
                        if not outputs_equal(circuit, work, words,
                                             verify_patterns):
                            raise AssertionError(
                                f"resynthesis changed the function of "
                                f"{circuit.name} in pass {passes}"
                            )
                    verify_seconds.append(
                        time.perf_counter() - verify_start)
                done = made == 0 or passes >= max_passes
                if on_pass is not None:
                    with tracer.span("checkpoint", pass_no=passes):
                        on_pass(PassCheckpoint(
                            objective=objective,
                            k=k,
                            seed=seed,
                            pass_no=passes,
                            circuit=work.copy(),
                            replacements=total_replacements,
                            mutations=(mutations_prior + work.epoch
                                       - epoch_base),
                            gates_before=gates_before,
                            paths_before=paths_before,
                            gates_now=two_input_gate_count(work),
                            paths_now=session.total_paths(),
                            pass_seconds=list(pass_seconds),
                            done=done,
                        ))
            paths_after = session.total_paths()
        finally:
            session.close()
        run_span.annotate(passes=passes, replacements=total_replacements)
    work.name = circuit.name
    timings: Dict[str, object] = {
        "setup_seconds": setup_seconds,
        "pass_seconds": pass_seconds,
        "total_seconds": seconds_prior + time.perf_counter() - run_start,
    }
    if verify_seconds:
        timings["verify_seconds"] = verify_seconds
    if evaluator is not None and evaluator.prime_seconds:
        timings["prime_seconds"] = list(evaluator.prime_seconds)
    if fabric is not None:
        timings["fabric"] = fabric.name
    return ResynthesisReport(
        circuit=work,
        objective=objective,
        k=k,
        passes=passes,
        replacements=total_replacements,
        gates_before=gates_before,
        gates_after=two_input_gate_count(work),
        paths_before=paths_before,
        paths_after=paths_after,
        mutations=mutations_prior + work.epoch - epoch_base,
        jobs=jobs,
        timings=timings,
    )


def procedure2(
    circuit: Circuit,
    k: int = 6,
    perm_budget: int = 200,
    seed: int = 0,
    max_passes: int = 10,
    verify_patterns: int = 0,
    decompose: bool = True,
    exact: bool = False,
    on_pass: Optional[PassHook] = None,
    resume: Optional[PassCheckpoint] = None,
    tracer=None,
    registry: Optional[Registry] = None,
    memo=None,
    fabric=None,
) -> ResynthesisReport:
    """Procedure 2: reduce the number of gates (paths as tiebreak).

    Parameters
    ----------
    circuit:
        The circuit to optimize (not mutated).
    k:
        Maximum candidate-subcircuit input count (paper: 5 and 6).
    perm_budget:
        Permutations tried during identification (paper: 200).
    verify_patterns:
        When nonzero, each pass is checked against the original circuit on
        this many random patterns (defense in depth; raises on mismatch).
    on_pass:
        Progress/checkpoint hook, called with a :class:`PassCheckpoint`
        after every pass (the service layer persists these).
    resume:
        Continue from a previous run's checkpoint instead of starting
        over; the report and result netlist are bit-identical to the
        uninterrupted run (docs/SERVICE.md states the contract).
    tracer:
        A :class:`repro.obs.Tracer` recording the run's span tree
        (run → pass → candidate → extract/identify/replace; see
        docs/OBSERVABILITY.md).  Default: the null tracer — the
        instrumented sites become no-ops and the report is unaffected
        either way (tracing never influences a decision).
    registry:
        A :class:`repro.obs.Registry` receiving the run's metrics;
        default: the process-wide registry.
    memo:
        Optional persistent identification cache — a
        :class:`repro.memo.MemoStore` or a store directory path.  Purely
        an accelerator: the report is bit-identical with the memo off,
        cold, or warm (the memo legs of the ``execution`` differential
        oracle fuzz this; see docs/MEMO.md).
    fabric:
        Optional :class:`repro.fabric.Fabric` to run candidate
        evaluation on (serial, local process pool, or a remote worker
        fleet — docs/FABRIC.md): each pass is primed on it
        (:mod:`repro.parallel`).  The report is bit-identical on every
        backend at any shard count, and to a run without a fabric, which
        evaluates everything inline.  The caller owns the fabric's
        lifecycle; the report's ``jobs`` records its parallelism.
    """
    return _run(
        circuit, _select_for_gates, "gates", k, perm_budget, seed,
        max_passes, verify_patterns, decompose, exact,
        on_pass, resume, tracer, registry, memo, fabric,
    )


def procedure3(
    circuit: Circuit,
    k: int = 6,
    perm_budget: int = 200,
    seed: int = 0,
    max_passes: int = 10,
    verify_patterns: int = 0,
    decompose: bool = True,
    exact: bool = False,
    on_pass: Optional[PassHook] = None,
    resume: Optional[PassCheckpoint] = None,
    tracer=None,
    registry: Optional[Registry] = None,
    memo=None,
    fabric=None,
) -> ResynthesisReport:
    """Procedure 3: reduce the number of paths (gate count unconstrained).

    ``exact=True`` augments identification with the exact decision
    procedure (see :func:`repro.resynth.evaluate_cone`); ``on_pass``,
    ``resume``, ``tracer``, ``registry``, ``memo`` and ``fabric`` behave
    as in :func:`procedure2`.
    """
    return _run(
        circuit, _select_for_paths, "paths", k, perm_budget, seed,
        max_passes, verify_patterns, decompose, exact,
        on_pass, resume, tracer, registry, memo, fabric,
    )


def combined_procedure(
    circuit: Circuit,
    gate_weight: float = 10.0,
    k: int = 6,
    perm_budget: int = 200,
    seed: int = 0,
    max_passes: int = 10,
    verify_patterns: int = 0,
    decompose: bool = True,
    on_pass: Optional[PassHook] = None,
    resume: Optional[PassCheckpoint] = None,
    tracer=None,
    registry: Optional[Registry] = None,
    memo=None,
    fabric=None,
) -> ResynthesisReport:
    """Section 4.3's combined gates+paths objective.

    ``gate_weight`` trades one equivalent 2-input gate against that many
    paths; large weights approach Procedure 2, zero approaches Procedure 3
    (restricted to non-worsening moves).
    """
    return _run(
        circuit, _make_combined_selector(gate_weight),
        f"combined(w={gate_weight})", k, perm_budget, seed, max_passes,
        verify_patterns, decompose, on_pass=on_pass, resume=resume,
        tracer=tracer, registry=registry, memo=memo, fabric=fabric,
    )
